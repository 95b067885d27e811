"""Run configuration: base case size and audit level."""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def parse_config_file(text: str) -> EngineConfig:
    """key=value lines; '#' starts a comment."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, value = (x.strip() for x in line.split("=", 1))
        if key == "base_case":
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"base_case must be an integer, got {value!r}") from None
        elif key == "audit":
            fields[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return EngineConfig(**fields)


def with_overrides(cfg: EngineConfig, **kwargs) -> EngineConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **kwargs) if kwargs else cfg
