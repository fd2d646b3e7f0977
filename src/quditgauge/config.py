"""Run configuration: schema, validation, canonical hashing."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints


# Largest shot count a binomial draw takes: numpy's 64-bit signed integer.
_MAX_SHOTS = 2**63 - 1
# Largest register the randomized estimator runs on.  At 2,000 snapshots the relative error of M is 1.26
# on the L=3 chain (D = 27) and 11.2 on the L=5 chain (D = 243), so D = 243 needs about 90 times the snapshots.
RANDOMIZED_MAX_DIM = 81


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class ModelConfig:
    dimension: int = 1
    num_links: int = 5
    g: float = 1.0
    mass: float = 0.1
    electric_offset: str = "symmetric"
    link_amplitude: str = "unit"
    hopping_scale: float = 1.0
    boundary: float = 0.0


@dataclass(frozen=True)
class AnsatzConfig:
    family: str = "chain"  # chain | plaquette
    layers: int = 3
    include_plaquette_gate: bool = False
    init_seed: int = 1
    init_range: float = math.pi / 4.0


@dataclass(frozen=True)
class EvolutionConfig:
    mode: str = "vite"  # vite | vrte
    dt: float = 0.05
    steps: int = 2000
    integrator: str = "euler"  # euler | rk4
    cutoff: float = 1e-8
    grad_tolerance: float = 1e-6


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact"  # exact | shift | hadamard | randomized
    shots: int | None = None
    seed: int = 0
    samples: int = 200  # randomized mode only: snapshots per EOM, shared by every element


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    precision: int = 17


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {
    "model": ModelConfig,
    "ansatz": AnsatzConfig,
    "evolution": EvolutionConfig,
    "estimator": EstimatorConfig,
    "output": OutputConfig,
}

_CHOICES = {
    ("model", "dimension"): (1, 2),
    ("model", "electric_offset"): ("symmetric", "as_printed"),
    ("model", "link_amplitude"): ("unit", "paper_u"),
    ("ansatz", "family"): ("chain", "plaquette"),
    ("evolution", "mode"): ("vite", "vrte"),
    ("evolution", "integrator"): ("euler", "rk4"),
    ("estimator", "mode"): ("exact", "shift", "hadamard", "randomized"),
}


def _typed(section: str, key: str, value, want):
    """``value`` checked against the field type; an int widens to a float."""
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    # bool is an int subclass, but a flag is never a count.
    if isinstance(value, bool) != (want is bool) or not isinstance(value, want):
        name = getattr(want, "__name__", want)  # int | None has no __name__
        raise ConfigError(f"{section}.{key} must be {name}, got {value!r}")
    return value


def parse_config(data: dict) -> RunConfig:
    """Build a validated RunConfig from a nested dict; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = data.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        types = get_type_hints(cls)
        bad = set(raw) - set(types)
        if bad:
            raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
        kwargs = {key: _typed(name, key, value, types[key]) for key, value in raw.items()}
        sections[name] = cls(**kwargs)
    cfg = RunConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for (section, key), allowed in _CHOICES.items():
        value = getattr(getattr(cfg, section), key)
        if value not in allowed:
            raise ConfigError(f"{section}.{key} must be one of {allowed}, got {value!r}")
    m = cfg.model
    for key in ("g", "mass", "hopping_scale", "boundary"):
        value = getattr(m, key)
        if not math.isfinite(value):
            raise ConfigError(f"model.{key} must be finite, got {value}")
    if m.dimension == 1 and m.num_links < 3:
        raise ConfigError("model.num_links must be at least 3 for a chain")
    if m.dimension == 2 and m.num_links != 4:
        raise ConfigError("the plaquette model has exactly 4 links")
    if abs(m.g) < 1e-12:
        raise ConfigError("model.g must be nonzero")
    if not (math.isfinite(m.g * m.g / 2.0) and math.isfinite(0.5 / (m.g * m.g))):
        raise ConfigError(f"model.g = {m.g} makes g^2/2 or 1/(2 g^2) overflow")
    a = cfg.ansatz
    if a.layers < 1:
        raise ConfigError("ansatz.layers must be positive")
    if not a.init_range > 0:
        raise ConfigError("ansatz.init_range must be positive")
    if not math.isfinite(2.0 * a.init_range):
        raise ConfigError(f"ansatz.init_range = {a.init_range} makes the draw's width 2 * init_range overflow")
    if a.init_seed < 0 or cfg.estimator.seed < 0:
        raise ConfigError("ansatz.init_seed and estimator.seed must be nonnegative")
    if a.family == "chain" and m.dimension != 1:
        raise ConfigError("chain ansatz requires a 1D model")
    if a.family == "plaquette" and m.dimension != 2:
        raise ConfigError("plaquette ansatz requires the 2D model")
    if a.include_plaquette_gate and a.family != "plaquette":
        raise ConfigError("the four-body gate only extends the plaquette ansatz")
    e = cfg.evolution
    if e.dt <= 0 or not math.isfinite(e.dt):
        raise ConfigError("evolution.dt must be positive")
    if e.steps < 1:
        raise ConfigError("evolution.steps must be positive")
    if not 0 <= e.cutoff < 1:
        raise ConfigError("evolution.cutoff must lie in [0, 1): a cutoff of 1 drops every direction")
    est = cfg.estimator
    if est.shots is not None and not 1 <= est.shots <= _MAX_SHOTS:
        raise ConfigError(f"estimator.shots must lie in [1, {_MAX_SHOTS}] when set")
    if est.samples < 1:
        raise ConfigError("estimator.samples must be positive")
    if est.mode == "randomized" and 3**m.num_links > RANDOMIZED_MAX_DIM:
        raise ConfigError(f"the randomized estimator is limited to dimension <= {RANDOMIZED_MAX_DIM}")
    if est.mode == "randomized" and cfg.evolution.mode == "vite":
        raise ConfigError("the randomized estimator only provides anticommutators (vrte)")
    if est.mode == "shift" and cfg.evolution.mode == "vrte":
        raise ConfigError("the shift route has no real-time vector protocol")
    if cfg.output.precision < 1:
        raise ConfigError("output.precision must be positive")


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        raise ConfigError(f"cannot read the config {str(path)!r}: {exc}") from exc
    return parse_config(data)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
