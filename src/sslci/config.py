"""Experiment configuration: flat key=value files plus CLI overrides.

Precedence is CLI flag > config file > built-in default.  A key's type is
the type of its default: a grid is a comma-separated list of the type of
its first entry, and a flag is 1/true/yes or 0/false/no in any case.
Unknown or repeated keys and out-of-range values are a usage error, raised
before any compute.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

from .harness import EXPERIMENTS

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration key or value (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness run description; defaults mirror the desk-scale study."""

    experiment: str = "mse-vs-k"
    d1: int = 50
    d2: int = 40
    n1: int = 4000
    n2: int = 1000
    k: int = 2
    alpha: float = 0.0
    k_grid: tuple[int, ...] = (2, 4, 8, 16)
    alpha_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    n2_grid: tuple[int, ...] = (250, 500, 1000, 2000)
    trials: int = 30
    seed: int = 0
    eval_n: int = 10_000
    output_dir: str = "."
    plot: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("k_grid", "alpha_grid", "n2_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"{name} must be nonempty")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{name} has a repeated entry")
        for name in ("d1", "d2", "k", "n1", "n2", "eval_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if min(self.n2_grid) < 1:
            raise ConfigError("n2_grid entries must be >= 1")
        if min(self.k_grid) < 2:
            raise ConfigError("k_grid entries must be >= 2")
        if not all(0.0 <= a <= 1.0 for a in (self.alpha, *self.alpha_grid)):
            raise ConfigError("alpha and alpha_grid entries must be in [0, 1]")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    default = _DEFAULTS[key]
    try:
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, tuple):
            return tuple(type(default[0])(v) for v in raw.split(",") if v.strip())
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {raw!r}") from exc


def _read_key_values(
    path: str | Path, known: Container[str]
) -> Iterator[tuple[str, str]]:
    """Yield ``(key, raw value)`` per key=value line of a file.

    '#' starts a comment and blank lines are ignored; any other line
    without '=', with a key not in ``known``, or with a key an earlier line
    set, is a :class:`ConfigError`.
    """
    seen: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key '{key}' already set on line {seen[key]}")
        seen[key] = lineno
        yield key, raw


def load_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Merge defaults, an optional config file, and CLI overrides."""
    pairs = _read_key_values(path, _DEFAULTS) if path is not None else ()
    values = {key: _parse_value(key, raw) for key, raw in pairs}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown option '{key}'")
        values[key] = value
    return ExperimentConfig(**values)
