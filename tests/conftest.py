import numpy as np
import pytest
import yaml

from gouflow import config
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


def _marks(node):
    """Tag, start and end (line, column) of ``node`` and of every node
    below it, depth first."""
    if node is None:
        return []
    marks = [(node.tag, node.start_mark.line, node.start_mark.column,
              node.end_mark.line, node.end_mark.column)]
    if isinstance(node.value, list):
        for child in node.value:
            for sub in child if isinstance(child, tuple) else (child,):
                marks += _marks(sub)
    return marks


@pytest.fixture(autouse=True)
def configs_parse_alike_under_both_loaders(monkeypatch):
    """After each test, every config text it parsed is parsed again under
    ``yaml.SafeLoader`` and under the loader ``parse_config`` uses
    (libyaml's where pyyaml has it): both give equal configs or equal
    ConfigError texts, and their nodes carry equal line marks."""
    texts, compose, fast = {}, config._compose, config._LOADER

    def recording(text, loader_cls):
        texts[text] = None
        return compose(text, loader_cls)

    monkeypatch.setattr(config, "_compose", recording)
    yield
    monkeypatch.setattr(config, "_compose", compose)
    for text in texts:
        outcomes, marks = [], []
        for loader_cls in (yaml.SafeLoader, fast):
            monkeypatch.setattr(config, "_LOADER", loader_cls)
            try:
                cfg = config.parse_config(text)
                outcomes.append((cfg, cfg.raw))
            except config.ConfigError as exc:
                outcomes.append(str(exc))
            try:
                marks.append(_marks(yaml.compose(text, Loader=loader_cls)))
            except yaml.YAMLError:
                marks.append(None)
        assert outcomes[0] == outcomes[1], text
        assert marks[0] == marks[1], text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
