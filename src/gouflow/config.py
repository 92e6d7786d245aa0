"""Experiment configuration: a versioned YAML schema with validation.

A config names either a bundled preset or an inline model, picks a suite
and the Monte Carlo budget, and must carry an explicit seed — runs never
draw entropy from the environment.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .levy import JumpLaw2, LevyModel2, Marginal
from .paths import GRID_DT
from .presets import PRESETS, get_preset

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config", "config_hash"]

SCHEMA_VERSION = 1

SUITES = ("duality", "inverse-flow", "ruin", "stationary", "monotonicity", "all")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries line anchors."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    suite: str = "all"
    preset: str | None = None
    model: LevyModel2 | None = None
    n_paths: int = 10_000
    horizon: float = 2.0
    grid_dt: float = GRID_DT
    t_grid: tuple = (0.5, 1.0, 2.0)
    x_grid: tuple = (-1.0, 0.0, 1.0)
    y_grid: tuple = (-1.0, 0.0, 1.0)
    stationary_horizon: float | None = None
    stationary_n: int | None = None
    out_dir: str = "reports"
    workers: int = 1
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def resolved_model(self) -> LevyModel2:
        if self.model is not None:
            return self.model
        if self.preset is not None:
            return get_preset(self.preset).model
        raise ConfigError("config needs either 'preset' or 'model'")


def _marginal_from_dict(d: dict, where: str) -> Marginal:
    kind = d.get("kind")
    try:
        if kind == "points":
            return Marginal.points([(v, p) for v, p in d["atoms"]])
        if kind == "exponential":
            return Marginal.exponential(d["rate"], d.get("sign", 1))
        if kind == "uniform":
            return Marginal.uniform(d["a"], d["b"])
        if kind == "truncated_normal":
            return Marginal.truncated_normal(d["mu"], d["sigma"], d["lower"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad marginal parameters ({exc})") from exc
    raise ConfigError(f"{where}: unknown marginal kind {kind!r}")


def _jump_law_from_dict(d: dict, where: str) -> JumpLaw2:
    kind = d.get("kind")
    try:
        if kind == "point_mass":
            return JumpLaw2.point_mass([((u, l), p) for (u, l), p in d["atoms"]])
        if kind == "independent":
            return JumpLaw2.independent(
                _marginal_from_dict(d["marg_u"], where + ".marg_u"),
                _marginal_from_dict(d["marg_l"], where + ".marg_l"),
            )
        if kind == "linked":
            return JumpLaw2.linked(
                _marginal_from_dict(d["marg_u"], where + ".marg_u"),
                d["intercept"],
                d["slope"],
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad jump law parameters ({exc})") from exc
    raise ConfigError(f"{where}: unknown jump law kind {kind!r}")


def _refuse_bools(val, where: str) -> None:
    """A bool is not a number in a model (YAML's ``true`` would read as 1)."""
    if isinstance(val, bool):
        raise ConfigError(f"{where}: expected a number, got {val!r}")
    if isinstance(val, dict):
        for k, v in val.items():
            _refuse_bools(v, f"{where}.{k}")
    elif isinstance(val, (list, tuple)):
        for i, v in enumerate(val):
            _refuse_bools(v, f"{where}[{i}]")


def _model_from_dict(d: dict, where: str = "model") -> LevyModel2:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _refuse_bools(d, where)
    drift = d.get("drift", (0.0, 0.0))
    cov = d.get("gaussian_cov", ((0.0, 0.0), (0.0, 0.0)))
    intensity = d.get("jump_intensity", 0.0)
    law = None
    if "jump_law" in d:
        law = _jump_law_from_dict(d["jump_law"], where + ".jump_law")
    try:
        return LevyModel2(
            drift=tuple(drift),
            gaussian_cov=tuple(tuple(row) for row in cov),
            jump_intensity=float(intensity),
            jump_law=law,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _key_lines(text: str) -> dict:
    """Map top-level keys to 1-based line numbers for diagnostics."""
    try:
        node = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines = {}
    if node is not None and isinstance(node, yaml.MappingNode):
        for key_node, _ in node.value:
            lines[key_node.value] = key_node.start_mark.line + 1
    return lines


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping at the top level")
    lines = _key_lines(text)
    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    data = {**data, **overridden}

    def where(key: str) -> str:
        if key in overridden:
            return f"command line: '{key}'"
        return f"line {lines[key]}: '{key}'" if key in lines else f"'{key}'"

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{where('schema_version')}: expected schema_version {SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    if "seed" not in data:
        raise ConfigError("'seed' is required: runs never draw entropy implicitly")

    def integer(key, val):
        """``val`` as an int; an integral float such as 2000.0 is one, a
        bool or a fractional number is not."""
        if isinstance(val, bool) or (isinstance(val, float) and not val.is_integer()):
            raise ConfigError(f"{where(key)}: must be an integer, got {val!r}")
        try:
            return int(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where(key)}: must be an integer") from None

    seed = integer("seed", data["seed"])
    if seed < 0:
        raise ConfigError(f"{where('seed')}: must be a non-negative integer, got {seed}")

    suite = data.get("suite", ExperimentConfig.suite)
    if suite not in SUITES:
        raise ConfigError(
            f"{where('suite')}: unknown suite {suite!r}; choose from {', '.join(SUITES)}"
        )

    preset = data.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(
            f"{where('preset')}: unknown preset {preset!r}; "
            f"available: {', '.join(sorted(PRESETS))}"
        )
    model = None
    if "model" in data:
        if preset is not None:
            raise ConfigError(f"{where('model')}: give either 'preset' or 'model', not both")
        model = _model_from_dict(data["model"])
    if preset is None and model is None:
        raise ConfigError("config needs either 'preset' or 'model'")

    def number(key, val, message):
        """``val`` as a float; a bool is not a number here."""
        if isinstance(val, bool):
            raise ConfigError(f"{where(key)}: {message}, got {val!r}")
        try:
            return float(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where(key)}: {message}") from None

    def positive(key, cast=float):
        val = data.get(key, getattr(ExperimentConfig, key))
        if cast is int:
            val = integer(key, val)
        else:
            val = number(key, val, "expected a finite number")
            if not math.isfinite(val):
                raise ConfigError(f"{where(key)}: must be finite")
        if val <= 0:
            raise ConfigError(f"{where(key)}: must be positive")
        return val

    def grid(key, positive_entries=False):
        val = data.get(key, getattr(ExperimentConfig, key))
        if not isinstance(val, (list, tuple)) or not val:
            raise ConfigError(f"{where(key)}: expected a nonempty list of numbers")
        vals = tuple(number(key, v, "expected a list of numbers") for v in val)
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"{where(key)}: every entry must be finite")
        if positive_entries and min(vals) <= 0:
            raise ConfigError(f"{where(key)}: every entry must be positive")
        return vals

    out_dir = data.get("out_dir", ExperimentConfig.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"{where('out_dir')}: expected a directory path, got {out_dir!r}")

    cfg = ExperimentConfig(
        seed=seed,
        suite=suite,
        preset=preset,
        model=model,
        n_paths=positive("n_paths", int),
        horizon=positive("horizon"),
        grid_dt=positive("grid_dt"),
        t_grid=grid("t_grid", positive_entries=True),
        x_grid=grid("x_grid"),
        y_grid=grid("y_grid"),
        stationary_horizon=(
            positive("stationary_horizon") if "stationary_horizon" in data else None
        ),
        stationary_n=(positive("stationary_n", int) if "stationary_n" in data else None),
        out_dir=out_dir,
        workers=positive("workers", int),
        raw=data,
    )
    return cfg


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable hash of everything that can influence the results."""
    payload = {k: v for k, v in cfg.raw.items() if k not in ("out_dir", "workers")}
    payload.setdefault("seed", cfg.seed)
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
