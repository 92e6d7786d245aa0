"""Experiment configuration: a versioned YAML schema with validation.

A config names either a bundled preset or an inline model, picks a suite
and the Monte Carlo budget, and must carry an explicit seed — runs never
draw entropy from the environment.  Its top-level keys are
``schema_version`` and the fields of ``ExperimentConfig``.  An inline
model's keys are ``LevyModel2``'s arguments, and a jump law's or a
marginal's ``kind`` names a ``JumpLaw2`` or ``Marginal`` factory whose
arguments are its other keys.  An unknown or missing key, or a value a
factory refuses, is a ConfigError (exit 2) naming where it is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

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


# The factory names a mapping's ``kind`` may pick: its other keys are that
# factory's keyword arguments.
MARGINAL_KINDS = ("points", "exponential", "uniform", "truncated_normal")
JUMP_LAW_KINDS = ("point_mass", "independent", "linked")


def _build(cls, kinds, mapping, where: str, what: str):
    """``cls.<kind>(**rest)`` for the mapping's ``kind`` in ``kinds``; the
    marginals ``marg_u`` and ``marg_l`` are built first.  An unknown kind,
    an unknown or missing keyword or a value the factory refuses is a
    ConfigError naming ``where``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    kwargs = dict(mapping)
    kind = kwargs.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"{where}: unknown {what} kind {kind!r}; choose from {', '.join(kinds)}")
    for key in ("marg_u", "marg_l"):
        if key in kwargs:
            kwargs[key] = _build(
                Marginal, MARGINAL_KINDS, kwargs[key], f"{where}.{key}", "marginal"
            )
    try:
        return getattr(cls, kind)(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: bad {what} parameters ({exc})") from exc


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
    kwargs = {"drift": (0.0, 0.0), **d}
    if "jump_law" in kwargs:
        kwargs["jump_law"] = _build(
            JumpLaw2, JUMP_LAW_KINDS, kwargs["jump_law"], where + ".jump_law", "jump law"
        )
    try:
        return LevyModel2(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# libyaml's parser where pyyaml has it: SafeLoader's nodes, line marks and values
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _compose(text: str, loader_cls):
    """The root node of ``text`` (None for an empty document) and its data."""
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        return node, ({} if node is None else loader.construct_document(node))
    finally:
        loader.dispose()


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        node, data = _compose(text, _LOADER)
    except yaml.YAMLError:  # libyaml words its errors differently: report SafeLoader's
        try:
            node, data = _compose(text, yaml.SafeLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping at the top level")
    # 1-based line of each top-level key, for diagnostics
    lines = {k.value: k.start_mark.line + 1 for k, _ in node.value} if data else {}
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
    known = ("schema_version", *(f.name for f in fields(ExperimentConfig) if f.name != "raw"))
    for key in data:
        if key not in known:
            raise ConfigError(f"{where(key)}: unknown key; known keys are {', '.join(known)}")
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

    x_grid = grid("x_grid")
    if suite in ("monotonicity", "all") and len(set(x_grid)) < 2:
        raise ConfigError(f"{where('x_grid')}: the monotonicity suite needs two distinct x")

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
        x_grid=x_grid,
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
