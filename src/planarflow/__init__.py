"""Max flow in directed planar graphs with multiple sources and sinks."""

from .config import EngineConfig
from .engine import MsmsEngine, MsmsResult, msms_max_flow
from .flow import (
    FlowStore,
    decompose_acyclic,
    flow_value,
    inflow,
    is_feasible,
    residual_reachable,
)
from .generate import generate
from .graph import PlanarGraph, TerminalSets, build_graph
from .instance import InstanceFile, parse_instance, serialize_instance
from .oracle import oracle_max_flow
from .separator import BOUNDARY_CONSTANT, Piece, Separator, find_cycle_separator, split_into_pieces
from .solvers import terminal_set_flow
from .surgery import detach_terminal_from_cycle, triangulate_and_biconnect

__all__ = [
    "BOUNDARY_CONSTANT",
    "EngineConfig",
    "FlowStore",
    "InstanceFile",
    "MsmsEngine",
    "MsmsResult",
    "Piece",
    "PlanarGraph",
    "Separator",
    "TerminalSets",
    "build_graph",
    "decompose_acyclic",
    "detach_terminal_from_cycle",
    "find_cycle_separator",
    "flow_value",
    "generate",
    "inflow",
    "is_feasible",
    "msms_max_flow",
    "oracle_max_flow",
    "parse_instance",
    "residual_reachable",
    "serialize_instance",
    "split_into_pieces",
    "terminal_set_flow",
    "triangulate_and_biconnect",
]
