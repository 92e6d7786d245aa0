import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "verdictbench")


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracer module, imported only: nothing is wrapped."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    return tracing


def test_every_traced_name_resolves(tracing):
    """The benchmark wraps these functions by name; removing one breaks it."""
    missing = [
        name for name, owner, attr in tracing.TRACED if not callable(getattr(owner, attr, None))
    ]
    assert not missing


@pytest.mark.parametrize(
    "name, params",
    [
        ("mc.terminal_samples", ("model", "n", "horizon", "grid_dt")),
        ("mc.ruin_samples", ("n",)),
        ("stats.export", ("csv_path", "sidecar_path")),
    ],
)
def test_traced_argument_names(tracing, name, params):
    """The tracer binds these arguments by name to count paths, steps and bytes."""
    owner, attr = next((o, a) for n, o, a in tracing.TRACED if n == name)
    assert set(params) <= set(inspect.signature(getattr(owner, attr)).parameters)
