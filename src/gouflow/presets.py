"""Bundled models, one per verification scenario.

Each preset fixes every model parameter so the acceptance-style checks
are reproducible from a name alone.  ``recommended`` carries per-preset
horizons meant to resolve truncated infinite-horizon quantities; the
sampler diagnostics flag, not refuse, a horizon that does not (``flagged``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .levy import JumpLaw2, LevyModel2

__all__ = ["Preset", "PRESETS", "get_preset", "preset_names"]


@dataclass(frozen=True)
class Preset:
    name: str
    model: LevyModel2
    description: str
    recommended: dict = field(default_factory=dict)


PRESETS = {
    p.name: p
    for p in (
        Preset(
            name="zero",
            model=LevyModel2(drift=(0.0, 0.0)),
            description="Zero driving pair; V stays at its start, R likewise.",
        ),
        Preset(
            name="drift-ou",
            model=LevyModel2(
                drift=(-1.0, 0.0),
                jump_intensity=2.0,
                jump_law=JumpLaw2.point_mass([((0.0, 1.0), 0.6), ((0.0, -0.4), 0.4)]),
            ),
            description=(
                "Classical OU decay (U drift -1, no U jumps) fed by mixed-sign "
                "compound-Poisson input; contracting, causal stationary regime."
            ),
            recommended={"horizon": 30.0, "stationary_kind": "causal"},
        ),
        Preset(
            name="cramer-paulsen",
            model=LevyModel2(
                drift=(0.5, 0.0),
                jump_intensity=2.0,
                jump_law=JumpLaw2.point_mass([((0.0, -1.0), 0.5), ((0.0, 0.6), 0.5)]),
            ),
            description=(
                "Risk-style model: expanding exponential (U drift +0.5) with "
                "mixed-sign claims/premia jumps in L; the noncausal integral "
                "converges and feeds the first-passage identity."
            ),
            recommended={"horizon": 40.0, "stationary_kind": "noncausal"},
        ),
        # -log E(U) = 3 s + sqrt(2) B_s, so the causal perpetuity
        # int e^{-xi} ds has the inverse-gamma law with shape 3, scale 1
        Preset(
            name="dufresne",
            model=LevyModel2(drift=(-2.0, 1.0), gaussian_cov=((2.0, 0.0), (0.0, 0.0))),
            description=(
                "Geometric-Brownian discounting of a unit income stream; the "
                "stationary law has a closed-form inverse-gamma oracle."
            ),
            recommended={"horizon": 15.0, "stationary_kind": "causal"},
        ),
        Preset(
            name="degenerate-k",
            model=LevyModel2(
                drift=(0.5, -1.0),
                jump_intensity=2.0,
                jump_law=JumpLaw2.point_mass([((1.0, -2.0), 0.5), ((-0.5, 1.0), 0.5)]),
            ),
            description=(
                "Every component lives on the line 2*U = -L, so V started at 2 "
                "never moves and the stationary law is the point mass at 2."
            ),
        ),
        Preset(
            name="nonmonotone",
            model=LevyModel2(
                drift=(0.0, 0.0),
                jump_intensity=1.5,
                jump_law=JumpLaw2.point_mass([((-2.0, 0.0), 0.5), ((1.0, 0.0), 0.5)]),
            ),
            description=(
                "Jumps of size -2 flip the sign of the stochastic exponential: "
                "the flow is not monotone and no dual process exists."
            ),
        ),
    )
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
