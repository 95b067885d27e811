"""Exception types raised by the planarflow library."""


class PlanarFlowError(Exception):
    """Base class for all planarflow errors."""


class ParallelArcOrLoop(PlanarFlowError):
    """The arc list contains a self-loop or two arcs between the same node pair."""


class NonPlanarEmbedding(PlanarFlowError):
    """The rotation system does not describe a planar embedding (Euler check failed)."""


class Disconnected(PlanarFlowError):
    """The graph is not connected."""


class EmbeddingInvalid(PlanarFlowError):
    """A rotation line is inconsistent with the arc list."""


class TerminalOverlap(PlanarFlowError):
    """A node was declared both a source and a sink."""


class InvariantFailure(PlanarFlowError):
    """An invariant the algorithm relies on does not hold: a failed
    separator, triangulation, detach, flow-update or settlement check, or
    an audit.  It signals a bug, not bad input; `planarflow` exits 3 on it."""


class FaceNotIncident(InvariantFailure):
    """The face chosen for a terminal detachment does not touch the terminal:
    the detach anchor does not leave the terminal's node."""


class PreconditionNotTriangulated(InvariantFailure):
    """The separator was asked for on a graph that is not a two-connected
    triangulation; the engine hands it only triangulated level graphs."""


class CapacityViolation(InvariantFailure):
    """A flow update would push a dart beyond its capacity; signals a solver bug."""


class SettlementStuck(InvariantFailure):
    """Pseudoflow settlement could not zero an imbalance; signals violated preconditions."""


class AuditFailure(InvariantFailure):
    """An instrumented invariant check failed during an engine run."""


class ConfigError(PlanarFlowError, ValueError):
    """A bad option value, or an input file that is not UTF-8."""


class ParseError(PlanarFlowError):
    """An instance file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
