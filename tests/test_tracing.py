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


_RUNS = {
    "jump-lane": "preset: drift-ou\nsuite: stationary\nstationary_horizon: 2.0\n",
    "grid-lane": "preset: dufresne\nsuite: duality\nt_grid: [0.5]\ngrid_dt: 0.01\n",
    # the Euler check is the one that runs Path batches through
    # verify_pathwise_identity; a pure-jump model takes the tile check
    "inverse-flow": "preset: dufresne\nsuite: inverse-flow\nhorizon: 0.5\n",
}


def test_traced_runs_feed_every_hooked_counter(tracing, tmp_path):
    """Runs under the installed tracer count paths, events and sample
    values; a change to a result a hook reads (``Path.events``, the
    ``n_points`` of a pathwise check) would otherwise break only the next
    traced benchmark run."""
    from gouflow import cli, paths
    from gouflow.presets import get_preset
    from gouflow.rng import stream

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for name, body in _RUNS.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(f"schema_version: 1\nseed: 1\nn_paths: 200\n{body}")
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        path = paths.sample_path(get_preset("drift-ou").model, 2.0, stream(1, "trace", 0))
    assert not hasattr(paths.sample_path, "__wrapped__")  # the wrappers are gone again
    metrics = {k: v["value"] for k, v in tracing.layer_metrics(tracer).items()}
    assert metrics["paths.sample_path.events"] == len(path.events) > 0
    for name in (
        "inverse_flow.verify.events",
        "mc.jump.paths",
        "mc.diffusion.path_steps",
        "stats.empirical.values",
    ):
        assert metrics[name] > 0, name
