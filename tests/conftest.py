import numpy as np
import pytest

from gouflow.levy import JumpLaw2, LevyModel2, Marginal
from gouflow.mc import run_blocks
from gouflow.paths import draw_jumps
from gouflow.presets import get_preset
from gouflow.rng import stream


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def mixed_jump_model():
    """Condition (B) pure-jump model with mixed-sign jumps in both slots."""
    law = JumpLaw2.point_mass(
        [((0.5, -1.0), 0.25), ((-0.25, 0.75), 0.25), ((1.0, 0.5), 0.5)]
    )
    return LevyModel2(drift=(-0.5, 0.3), jump_intensity=3.0, jump_law=law)


@pytest.fixture
def sign_flip_model():
    """Condition (A) only: an atom below -1 flips the exponential's sign."""
    law = JumpLaw2.point_mass([((-2.0, 1.0), 0.5), ((0.5, -0.5), 0.5)])
    return LevyModel2(drift=(0.2, -0.1), jump_intensity=2.0, jump_law=law)


@pytest.fixture
def subordinator_model():
    """Condition (B) with L a subordinator (nonnegative drift and jumps)."""
    law = JumpLaw2.point_mass([((0.5, 1.0), 0.5), ((-0.3, 0.25), 0.5)])
    return LevyModel2(drift=(-1.0, 0.2), jump_intensity=2.0, jump_law=law)


@pytest.fixture
def dufresne_model():
    return get_preset("dufresne").model


def make_stream(label, index=0, seed=999):
    return stream(seed, label, index)


def padded_jumps(model, horizon, rng, size):
    """``draw_jumps`` laid out on the batch's K slots as one tile: (times,
    du, dl, counts), times sorted per row."""
    draw = draw_jumps(model, horizon, rng, size)
    return (*draw.pad(), draw.counts)


def terminal_ul(model, horizon, n, seed, label):
    """U_T and L_T of a pure-jump model on the paths that
    ``mc.terminal_samples`` draws with the same seed and label: each
    block's ``draw_jumps`` marks plus drift * T."""
    b_u, b_l = model.drift

    def block(rng, size):
        _, du, dl, _ = padded_jumps(model, horizon, rng, size)
        return {"u": b_u * horizon + du.sum(axis=1), "l": b_l * horizon + dl.sum(axis=1)}

    return run_blocks(n, block, seed, label)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
