import json
import os

import pytest

from gouflow.cli import main
from gouflow.config import ConfigError, config_hash, parse_config

GOOD = """\
schema_version: 1
seed: 7
preset: drift-ou
suite: monotonicity
n_paths: 1500
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config(GOOD)
    assert cfg.seed == 7
    assert cfg.suite == "monotonicity"
    assert cfg.preset == "drift-ou"
    assert cfg.n_paths == 1500
    assert cfg.resolved_model().jump_intensity == 2.0


def test_parse_config_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("schema_version: 1\npreset: zero\n")


def test_parse_config_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config("schema_version: 2\nseed: 1\npreset: zero\n")
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config("seed: 1\npreset: zero\n")


def test_parse_config_unknown_suite_names_line():
    text = "schema_version: 1\nseed: 1\npreset: zero\nsuite: bogus\n"
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(text)


def test_parse_config_preset_xor_model():
    text = (
        "schema_version: 1\nseed: 1\npreset: zero\n"
        "model: {drift: [0.0, 0.0]}\n"
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config(text)
    with pytest.raises(ConfigError, match="preset.*or.*model"):
        parse_config("schema_version: 1\nseed: 1\n")


def test_parse_config_inline_model():
    text = """\
schema_version: 1
seed: 3
model:
  drift: [-1.0, 0.5]
  jump_intensity: 2.0
  jump_law:
    kind: point_mass
    atoms: [[[0.5, -1.0], 0.5], [[-0.25, 1.0], 0.5]]
"""
    cfg = parse_config(text)
    m = cfg.resolved_model()
    assert m.drift == (-1.0, 0.5)
    assert m.jump_law.atoms[0] == ((0.5, -1.0), 0.5)


def test_parse_config_inline_model_with_marginals():
    text = """\
schema_version: 1
seed: 3
model:
  drift: [0.0, 0.0]
  jump_intensity: 1.0
  jump_law:
    kind: independent
    marg_u: {kind: uniform, a: -0.5, b: 0.5}
    marg_l: {kind: exponential, rate: 2.0, sign: -1}
"""
    m = parse_config(text).resolved_model()
    assert m.jump_law.kind == "independent"


def test_parse_config_rejects_bad_numbers():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(GOOD + "horizon: -1\n")
    with pytest.raises(ConfigError, match="n_paths"):
        parse_config(GOOD.replace("n_paths: 1500", "n_paths: zero"))
    with pytest.raises(ConfigError, match="t_grid"):
        parse_config(GOOD + "t_grid: []\n")


def test_parse_config_rejects_invalid_yaml_and_nonmapping():
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("a: [unclosed")
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("- 1\n- 2\n")


def test_config_hash_ignores_out_dir_and_workers():
    base = parse_config(GOOD)
    h0 = config_hash(base)
    assert h0 == config_hash(parse_config(GOOD + "out_dir: elsewhere\n"))
    assert h0 == config_hash(parse_config(GOOD + "workers: 8\n"))
    assert h0 != config_hash(parse_config(GOOD.replace("seed: 7", "seed: 8")))


def test_overrides_take_precedence():
    cfg = parse_config(GOOD, overrides={"seed": 99, "suite": "duality"})
    assert cfg.seed == 99
    assert cfg.suite == "duality"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("zero", "dufresne", "drift-ou", "nonmonotone"):
        assert name in out


def test_cli_validate_config(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    assert main(["validate-config", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = _write(tmp_path, "schema_version: 1\npreset: zero\n", "bad.yaml")
    assert main(["validate-config", "--config", bad]) == 2
    assert main(["validate-config", "--config", str(tmp_path / "missing.yaml")]) == 2


def test_cli_run_writes_reports(tmp_path):
    path = _write(tmp_path, GOOD)
    out = str(tmp_path / "rep")
    assert main(["run", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["pass"] is True
    assert summary["seed"] == 7
    assert "monotonicity" in summary["suites"]
    assert os.path.exists(os.path.join(out, "monotonicity.csv"))


def test_cli_run_worker_count_does_not_change_bytes(tmp_path):
    path = _write(tmp_path, GOOD.replace("monotonicity", "duality"))
    out1 = str(tmp_path / "w1")
    out4 = str(tmp_path / "w4")
    assert main(["run", "--config", path, "--out", out1, "--workers", "1"]) == 0
    assert main(["run", "--config", path, "--out", out4, "--workers", "4"]) == 0
    for name in ("summary.json", "duality.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out4, name), "rb").read()
        assert a == b, name


def test_cli_run_seed_override_changes_hash(tmp_path):
    path = _write(tmp_path, GOOD)
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    assert main(["run", "--config", path, "--out", out1]) == 0
    assert main(["run", "--config", path, "--out", out2, "--seed", "8"]) == 0
    h1 = json.load(open(os.path.join(out1, "summary.json")))["config_hash"]
    h2 = json.load(open(os.path.join(out2, "summary.json")))["config_hash"]
    assert h1 != h2


def test_cli_refuses_hypothesis_violations(tmp_path, capsys):
    text = GOOD.replace("drift-ou", "nonmonotone").replace("monotonicity", "duality")
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "refusing to run" in err
    assert "dU > -1" in err


@pytest.mark.parametrize(
    "extra, named",
    [
        ("preset: cramer-paulsen\nhorizon: 1500\n", "300 of 300 solution"),
        ("model: {drift: [0.5, 1.0]}\nstationary_horizon: 1500\n", "300 of 300 causal stationary"),
        ("preset: cramer-paulsen\nsuite: duality\nt_grid: [1500]\n", "300 of 300 V-side E"),
        ("preset: cramer-paulsen\nsuite: monotonicity\nt_grid: [1500]\n", "300 of 300 V-side E"),
    ],
)
def test_cli_refuses_non_finite_samples(tmp_path, capsys, extra, named):
    """An overflowing stochastic exponential at a long horizon is a refusal
    (exit 3) that names the non-finite count, not a traceback or a verdict
    on inf/NaN samples."""
    suite = "" if "suite:" in extra else "suite: stationary\n"
    text = "schema_version: 1\nseed: 1\n" + suite + "n_paths: 300\n" + extra
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "refusing to run" in err
    assert f"{named} samples are not finite at horizon 1500" in err
    assert "Traceback" not in err


def test_cli_monotonicity_suite_on_nonmonotone_passes(tmp_path):
    text = GOOD.replace("drift-ou", "nonmonotone").replace("n_paths: 1500", "n_paths: 8000")
    path = _write(tmp_path, text)
    out = str(tmp_path / "nm")
    assert main(["run", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["suites"]["monotonicity"]["metrics"]["condition_b"] is False


def test_cli_exit_one_on_failure(tmp_path, monkeypatch):
    """A failing suite yields exit 1, not an exception."""
    import gouflow.suites as suites

    def fake(cfg):
        return suites.SuiteResult(name="monotonicity", passed=False, metrics={})

    monkeypatch.setitem(suites.SUITE_RUNNERS, "monotonicity", fake)
    path = _write(tmp_path, GOOD)
    assert main(["run", "--config", path, "--out", str(tmp_path / "f")]) == 1


def test_cli_inverse_flow_failure_names_worst_path(tmp_path, monkeypatch, capsys):
    """A failing inverse-flow suite prints its worst path on stderr and
    leaves the summary.json keys as they are."""
    import gouflow.suites as suites

    text = "schema_version: 1\nseed: 1\npreset: drift-ou\nsuite: inverse-flow\nn_paths: 20\n"
    path = _write(tmp_path, text)
    out_ok = str(tmp_path / "ok")
    assert main(["run", "--config", path, "--out", out_ok]) == 0
    assert "worst path" not in capsys.readouterr().err

    real = suites.verify_pathwise_identity

    def inflated(path, model, x, t=None):
        rep = real(path, model, x, t)
        errs = rep["max_error"].copy()
        errs[7] = 1e-3
        return {**rep, "max_error": errs}

    monkeypatch.setattr(suites, "verify_pathwise_identity", inflated)
    out_bad = str(tmp_path / "bad")
    assert main(["run", "--config", path, "--out", out_bad]) == 1
    err = capsys.readouterr().err
    assert "worst path 7 (grid_dt exact) max_error 1.000e-03" in err
    ok = json.load(open(os.path.join(out_ok, "summary.json")))
    bad = json.load(open(os.path.join(out_bad, "summary.json")))
    assert ok.keys() == bad.keys()
    assert ok["suites"]["inverse-flow"].keys() == bad["suites"]["inverse-flow"].keys()
    assert (
        ok["suites"]["inverse-flow"]["metrics"].keys()
        == bad["suites"]["inverse-flow"]["metrics"].keys()
    )
