"""Run configuration: base case size and audit level, each checked here,
for library callers and the command line alike."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

AUDIT_LEVELS = ("none", "final", "full")


@dataclass(frozen=True)
class EngineConfig:
    base_case: int = 32
    audit: str = "none"

    def __post_init__(self):
        if self.audit not in AUDIT_LEVELS:
            raise ConfigError(f"audit must be one of {AUDIT_LEVELS}")
        if type(self.base_case) is not int:       # bool too
            raise ConfigError(f"base_case must be an integer, got {self.base_case!r}")
        if self.base_case < 2:
            raise ConfigError("base_case must be at least 2")
