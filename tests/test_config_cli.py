import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

import gouflow
from gouflow import config
from gouflow.cli import main
from gouflow.config import ConfigError, config_hash, parse_config
from gouflow.levy import ConditionError
from gouflow.presets import preset_names
from gouflow.suites import SUITE_RUNNERS, SuiteResult, write_csv

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


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_paths", 1500.9),
        ("n_paths", 0.5),
        ("stationary_n", 99.5),
        ("seed", 1.7),
        ("seed", True),
        ("workers", 1.7),
        ("workers", True),
    ],
)
def test_parse_config_rejects_non_integral_counts(key, value):
    """A count is an integer: a fraction or a bool is refused, not
    truncated to the integer below it."""
    data = {"schema_version": 1, "seed": 7, "preset": "drift-ou", key: value}
    with pytest.raises(ConfigError, match=f"'{key}': must be an integer"):
        parse_config(json.dumps(data))  # YAML is a superset of JSON


@pytest.mark.parametrize(
    "key, value",
    [
        ("horizon", True),
        ("grid_dt", True),
        ("stationary_horizon", True),
        ("t_grid", [True]),
        ("x_grid", [-1.0, True]),
        ("y_grid", [False]),
    ],
)
def test_parse_config_rejects_bools_as_numbers(key, value):
    """A bool in a float field or a grid is refused, not read as 1.0 or 0.0."""
    data = {"schema_version": 1, "seed": 7, "preset": "drift-ou", key: value}
    with pytest.raises(ConfigError, match=f"'{key}': expected .*, got (True|False)"):
        parse_config(json.dumps(data))


_EXP = {"kind": "exponential", "rate": 1.0}


def _jumps(law):
    return {"jump_intensity": 1.0, "jump_law": law}


def _independent(marg_u=_EXP, marg_l=_EXP):
    return _jumps({"kind": "independent", "marg_u": marg_u, "marg_l": marg_l})


def _linked(intercept, slope):
    return _jumps({"kind": "linked", "marg_u": _EXP, "intercept": intercept, "slope": slope})


@pytest.mark.parametrize(
    "leaf, model",
    [
        ("drift[0]", {"drift": [True, 1.0]}),
        ("gaussian_cov[1][1]", {"gaussian_cov": [[1.0, 0.0], [0.0, False]]}),
        ("jump_intensity", {**_independent(), "jump_intensity": True}),
        ("jump_law.atoms[0][0][1]", _jumps({"kind": "point_mass", "atoms": [[[0.5, False], 1.0]]})),
        ("jump_law.atoms[0][1]", _jumps({"kind": "point_mass", "atoms": [[[0.5, 0.0], True]]})),
        ("jump_law.marg_u.rate", _independent(marg_u={"kind": "exponential", "rate": True})),
        ("jump_law.marg_l.sign", _independent(marg_l={**_EXP, "sign": True})),
        ("jump_law.marg_l.a", _independent(marg_l={"kind": "uniform", "a": False, "b": 1.0})),
        (
            "jump_law.marg_u.sigma",
            _independent(
                marg_u={"kind": "truncated_normal", "mu": 0.0, "sigma": True, "lower": -0.5}
            ),
        ),
        (
            "jump_law.marg_l.atoms[0][0]",
            _independent(marg_l={"kind": "points", "atoms": [[True, 1.0]]}),
        ),
        ("jump_law.intercept", _linked(False, 1.0)),
        ("jump_law.slope", _linked(0.0, True)),
    ],
)
def test_parse_config_rejects_bools_in_inline_model(leaf, model):
    """A bool at a numeric leaf of an inline model is refused with the
    leaf's key, not read as 1.0 or 0.0."""
    data = {"schema_version": 1, "seed": 7, "suite": "ruin", "model": model}
    with pytest.raises(ConfigError, match=re.escape(f"model.{leaf}: expected a number, got")):
        parse_config(json.dumps(data))


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(GOOD.replace("1500", "2000.0") + "stationary_n: 99.0\nworkers: 2.0\n")
    assert (cfg.n_paths, cfg.stationary_n, cfg.workers) == (2000, 99, 2)
    assert all(type(v) is int for v in (cfg.n_paths, cfg.stationary_n, cfg.workers))
    assert parse_config(GOOD.replace("seed: 7", "seed: 7.0")).seed == 7


def test_parse_config_rejects_invalid_yaml_and_nonmapping():
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("a: [unclosed")
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("- 1\n- 2\n")


MALFORMED = {
    "unclosed-flow-list": "schema_version: 1\nseed: [1, 2\npreset: zero\n",
    "bad-indent": "schema_version: 1\n  seed: 1\npreset: zero\n",
    "leading-tab": "\tschema_version: 1\nseed: 1\npreset: zero\n",
    "python-tag": "schema_version: 1\nseed: !!python/object:os.system 1\npreset: zero\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED)
def test_yaml_errors_read_as_safeloader_words_them(tmp_path, capsys, text):
    """libyaml words these errors differently (no caret snippet, other
    phrases); the ConfigError and the CLI's exit-2 text carry the
    pure-Python ``yaml.SafeLoader`` message byte for byte."""
    with pytest.raises(yaml.YAMLError) as safe:
        yaml.load(text, Loader=yaml.SafeLoader)
    if config._LOADER is not yaml.SafeLoader:
        with pytest.raises(yaml.YAMLError) as fast:
            yaml.load(text, Loader=config._LOADER)
        assert str(fast.value) != str(safe.value)
    expected = f"config is not valid YAML: {safe.value}"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == expected
    assert main(["validate-config", "--config", _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"


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


def test_cli_run_after_a_run_with_overrides_matches_a_fresh_process(tmp_path):
    """``main`` parses every argv with one parser per process, and a run
    keeps nothing of the run before it: after a run with ``--suite`` and
    ``--seed``, a run without overrides writes the summary.json that the
    same config gives in a fresh interpreter."""
    text = "schema_version: 1\nseed: 3\npreset: cramer-paulsen\nsuite: duality\nn_paths: 512\n"
    here = _write(tmp_path, text + f"out_dir: {tmp_path / 'here'}\n", "here.yaml")
    fresh = _write(tmp_path, text + f"out_dir: {tmp_path / 'fresh'}\n", "fresh.yaml")
    assert main(["run", "--config", here, "--suite", "ruin", "--seed", "7"]) == 0
    assert json.loads((tmp_path / "here" / "summary.json").read_text())["seed"] == 7
    code = main(["run", "--config", here])
    src = os.path.dirname(os.path.dirname(gouflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "gouflow.cli", "run", "--config", fresh],
                          env=env, capture_output=True, text=True)
    assert code in (0, 1) and proc.returncode == code, proc.stderr
    summary = (tmp_path / "here" / "summary.json").read_text()
    assert summary == (tmp_path / "fresh" / "summary.json").read_text()
    assert list(json.loads(summary)["suites"]) == ["duality"]


def _dictwriter_bytes(path, names, rows):
    """The bytes ``csv.DictWriter(..., extrasaction="ignore")`` writes for
    ``rows`` under the header ``names``: each row's columns, a missing one
    as ""."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(names), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


def _writer_bytes(path, rows):
    """The bytes ``csv.writer`` writes for ``rows``, a list of cell lists."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("preset", preset_names())
def test_write_csv_writes_dictwriter_bytes_for_every_suite(tmp_path, preset):
    """On a small run of every suite that does not refuse the preset.
    Every column has one cell per row, and every cell is a Python int,
    float, bool or str, which ``%s`` and ``csv.writer`` write alike (not
    a numpy float)."""
    for suite, runner in SUITE_RUNNERS.items():
        cfg = parse_config(
            f"schema_version: 1\nseed: 3\npreset: {preset}\nsuite: {suite}\n"
            "n_paths: 256\nstationary_n: 256\n"
        )
        try:
            result = runner(cfg)
        except ConditionError:
            continue
        assert len({len(cells) for cells in result.columns.values()}) == 1, suite
        for name, cells in result.columns.items():
            kinds = {type(cell) for cell in cells}
            assert kinds <= {int, float, bool, str}, (suite, name, kinds)
        rows = [dict(zip(result.columns, cells)) for cells in zip(*result.columns.values())]
        assert rows
        write_csv(tmp_path / "new.csv", result)
        expected = _dictwriter_bytes(tmp_path / "old.csv", result.columns, rows)
        assert (tmp_path / "new.csv").read_bytes() == expected, suite


def test_write_csv_fills_missing_columns_drops_extra_keys_and_quotes(tmp_path):
    from gouflow.suites import _columns

    rows = [
        {"probe": 'say "so", then\nstop', "value": 1.5, "extra": "dropped"},
        {"value": -0.0},
        {"probe": "a,b", "value": 2, "pass": False},
        {},
    ]
    names = ("probe", "value", "pass")
    result = SuiteResult(passed=True, metrics={}, columns=_columns(rows, names))
    write_csv(tmp_path / "new.csv", result)
    written = (tmp_path / "new.csv").read_bytes()
    assert written == _dictwriter_bytes(tmp_path / "old.csv", names, rows)
    assert written == (
        b'probe,value,pass\r\n"say ""so"", then\nstop",1.5,\r\n,-0.0,\r\n"a,b",2,False\r\n,,\r\n'
    )


_AWKWARD_STR = ["a,b", 'say "so"', "one\rtwo", "one\ntwo", "\r\n", '"', ",", " padded ", "", "%s"]
_AWKWARD_FLOAT = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1]


@pytest.mark.parametrize(
    "columns",
    [
        {"s": _AWKWARD_STR, "n": list(range(len(_AWKWARD_STR)))},
        {"f": _AWKWARD_FLOAT, "b": [True, False] * 3 + [True], "i": [0, -1, 2**70, 7, 8, 9, 10]},
        {"mixed": ["", True, 3, -0.0, "x,y", math.nan], "e": [""] * 6},
        {"only": ["", "a", "", '"q"', "b c"]},
        {"only": []},
        {"a b": [], "c,d": [], 'q"': []},
        {"s": [" lead"], "f": [1e-300], "b": [False]},
        {"x": [""], "y": [""]},
        {},
        {"k": [2.0] * 4, "z": [-0.0] * 4, "s": ["%%"] * 4, "n": [math.nan] * 4, "q": [","] * 4},
        {"a": [1, 1.0, True], "b": [0.0, -0.0, 0.0], "c": [False, 0, 0.0], "d": ["%d"] * 3},
    ],
    ids=["str", "scalars", "mixed", "one-column", "one-column-empty", "zero-rows",
         "one-row", "empty-cells", "no-columns", "constant-columns", "equal-not-alike"],
)
def test_write_csv_writes_csv_writer_bytes_on_hand_built_tables(tmp_path, columns):
    """Quoted str cells (a delimiter, a quote, a line break), leading and
    trailing spaces, empty strings, bools, ints and the float extremes
    (-0.0, the least subnormal, the largest float, inf, nan), on tables
    with many rows, one row and none; columns of one repeated cell, and
    columns of equal cells that write differently (1, 1.0 and True; 0.0
    and -0.0)."""
    write_csv(tmp_path / "new.csv", SuiteResult(passed=True, metrics={}, columns=columns))
    expected = _writer_bytes(tmp_path / "old.csv", [list(columns), *zip(*columns.values())])
    assert (tmp_path / "new.csv").read_bytes() == expected


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
    "law",
    [
        "{kind: independent, marg_u: {kind: points, atoms: [[1.0, 1.0]]}, "
        "marg_l: {kind: points, atoms: [[-2.0, 1.0]]}}",
        "{kind: linked, marg_u: {kind: points, atoms: [[1.0, 1.0]]}, intercept: -1.0, slope: -1.0}",
    ],
    ids=["independent-points", "linked-points"],
)
def test_cli_ruin_refuses_degenerate_finite_support_laws(tmp_path, capsys, law):
    """Every jump is (1, -2) and the drift is (0.5, -1): the pair lies on
    2*U = -L, and the ruin suite refuses it as it refuses ``degenerate-k``."""
    text = (
        "schema_version: 1\nseed: 1\nsuite: ruin\nn_paths: 2000\n"
        f"model: {{drift: [0.5, -1.0], jump_intensity: 2.0, jump_law: {law}}}\n"
    )
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    assert "degenerate driving pair (2.0 * U = -L)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, named",
    [
        ("preset: cramer-paulsen\nhorizon: 1500\n", "300 of 300 solution"),
        # causal kind, t < T and t = T: the lemma is checked before the
        # stationary sample, which overflows too
        (
            "model: {drift: [0.5, 1.0]}\nhorizon: 1500\nstationary_horizon: 1600\n",
            "300 of 300 solution",
        ),
        ("model: {drift: [0.5, 1.0]}\nhorizon: 1500\n", "300 of 300 solution"),
        ("model: {drift: [0.5, 1.0]}\nstationary_horizon: 1500\n", "300 of 300 causal stationary"),
        ("preset: cramer-paulsen\nsuite: duality\nt_grid: [1500]\n", "300 of 300 V-side E"),
        ("preset: cramer-paulsen\nsuite: monotonicity\nt_grid: [1500]\n", "300 of 300 V-side E"),
        (
            "preset: cramer-paulsen\nsuite: ruin\nstationary_horizon: 1500\nstationary_n: 200\n",
            "195094 of 3791400 ruin-scan E/I boundary",
        ),
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


@pytest.mark.parametrize(
    "extra",
    [
        "preset: drift-ou\nhorizon: .inf\n",
        "model: {drift: [.nan, 1.0]}\n",
        "model: {drift: [-1.0, 1.0], jump_intensity: .inf,"
        " jump_law: {kind: point_mass, atoms: [[[0.5, 0.5], 1.0]]}}\n",
        "preset: drift-ou\nt_grid: [0.5, .nan]\n",
        "preset: drift-ou\nn_paths: .inf\n",
        "model: {drift: [-1.0, 1.0], jump_intensity: 1.0, jump_law: {kind: independent,"
        " marg_u: {kind: truncated_normal, mu: 0, sigma: 1, lower: 40},"
        " marg_l: {kind: uniform, a: 0, b: 1}}}\n",
        "model: {drift: [1" + "0" * 400 + ", 1.0]}\n",
    ],
    ids=[
        "inf-horizon", "nan-drift", "inf-intensity", "nan-grid", "inf-paths", "empty-tail",
        "huge-int-drift",
    ],
)
def test_cli_refuses_non_finite_config_values(tmp_path, capsys, extra):
    """A config value the model or sampler cannot use is a config error
    (exit 2), not a traceback or a misleading overflow refusal."""
    text = "schema_version: 1\nseed: 1\nsuite: stationary\nn_paths: 300\n" + extra
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


_LAW = (
    "jump_intensity: 1.0, jump_law: {kind: independent,"
    " marg_u: {kind: exponential, rate: 2.0%s}, marg_l: {kind: uniform, a: 0, b: 1}}"
)


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "extra, named",
    [
        ("preset: drift-ou\nn_path: 100\n", "line 5: 'n_path': unknown key"),
        (
            "model: {drift: [-1.0, 0.0], jump_intesity: 2.0}\n",
            "unexpected keyword argument 'jump_intesity'",
        ),
        (
            "model: {drift: [-1.0, 1.0], " + _LAW % ", sgn: -1" + "}\n",
            "model.jump_law.marg_u: bad marginal parameters (Marginal.exponential() got an"
            " unexpected keyword argument 'sgn')",
        ),
        ("model: {drift: [1.0]}\n", "model: drift must have two entries (b_U, b_L), got 1"),
        (
            "model: {drift: [-1.0, 0.0, 7.0]}\n",
            "model: drift must have two entries (b_U, b_L), got 3",
        ),
        (
            "model: {drift: [-1.0, 1.0], jump_intensity: 1.0, jump_law: {kind: linked,"
            " marg_u: {kind: exponential, rate: 2.0}, slope: 0.5}}\n",
            "'intercept')",
        ),
    ],
    ids=[
        "top-level-typo", "model-typo", "marginal-typo", "short-drift", "long-drift", "no-intercept"
    ],
)
def test_cli_refuses_unknown_and_missing_keys(
    tmp_path, capsys, monkeypatch, command, extra, named
):
    """An unknown top-level, model or marginal key, a drift that is not
    two numbers and a jump law missing a factory argument are config
    errors (exit 2) naming the key, from both commands, before any
    sampling: not a model with the key dropped, nor a traceback."""
    from gouflow import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a malformed config reached the suites")

    monkeypatch.setattr(cli, "run_selected", no_run)
    path = _write(tmp_path, "schema_version: 1\nseed: 1\nsuite: stationary\n" + extra)
    argv = [command, "--config", path]
    if command == "run":
        argv += ["--out", str(tmp_path / "r")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def _load_script(monkeypatch, path):
    """The module at ``path``, imported with its directory on sys.path."""
    import importlib.util

    monkeypatch.syspath_prepend(os.path.dirname(path))
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_config_the_repo_writes_parses(tmp_path, monkeypatch):
    """The verdict benchmark's items (built as ``verdictbench/run.py``
    builds them), the suite sweep's template on every model it runs and
    the line-coverage script's inline laws all parse under the schema."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = _load_script(monkeypatch, os.path.join(root, "verdictbench", "run.py"))
    sweep = _load_script(monkeypatch, os.path.join(root, "scripts", "run_all_suites.py"))
    lines = _load_script(monkeypatch, os.path.join(root, "scripts", "verdict_lines.py"))
    texts = []
    for workload in ("jump-lane", "diffusion-lane", "per-path"):
        _, items = bench._load_workload(workload)
        for k, item in enumerate(items):
            cfg_path = tmp_path / f"{workload}-{k}.yaml"
            bench._write_config(str(cfg_path), 1, item["config"])
            texts.append(cfg_path.read_text())
    models = {name: f"preset: {name}\n" for name in sweep.preset_names()} | sweep.INLINE_MODELS
    for model in models.values():
        texts.append(sweep.CONFIG_TEMPLATE.format(seed=1, model=model, suite="all", paths=2000))
    for law in lines.LAWS.values():
        texts.append(json.dumps({"schema_version": 1, "seed": 1, "model": law}))
    for text in texts:
        parse_config(text)


def test_sweep_records_a_crash_and_keeps_its_table(tmp_path, capsys, monkeypatch):
    """A run that raises is a ``crash`` row of the sweep's table, with the
    exception's last line, and a failing run a ``FAIL`` row with the worst
    row the CLI named on stderr, which still reaches stderr; the other
    runs still go, and the exit is 1."""
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sweep = _load_script(monkeypatch, os.path.join(root, "scripts", "run_all_suites.py"))
    ran = []
    line = "ruin FAIL: worst row y=1: |lhs - rhs| 1.000e+00, level 0.005, margin -9.950e-01"

    def cli_main(argv):
        ran.append(argv)
        if len(ran) == 2:
            raise IndexError("tuple index out of range")
        if len(ran) == 3:
            print(line, file=sys.stderr)
            return 1
        return 0

    monkeypatch.setattr(sweep, "cli_main", cli_main)
    assert sweep.run(["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()[2:]
    assert len(ran) == len(rows) == 35
    assert rows[1].split()[2:] == ["crash", "IndexError:", "tuple", "index", "out", "of", "range"]
    assert rows[2].split(None, 2)[2] == "FAIL worst row " + line.split("worst row ")[1]
    assert err == line + "\n"
    assert all(row.split()[2] == "pass" for row in rows[:1] + rows[3:])


@pytest.mark.parametrize("grid", ["[0.0, 1.0]", "[1.0, -0.5]"])
def test_cli_refuses_nonpositive_t_grid_entry(tmp_path, capsys, grid):
    """Every t_grid entry is a horizon: a zero or negative one is a config
    error with its line, not a traceback from the sampler."""
    text = (
        "schema_version: 1\nseed: 1\npreset: drift-ou\nsuite: duality\n"
        f"n_paths: 300\nt_grid: {grid}\n"
    )
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 6: 't_grid': every entry must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("via_flag", [False, True], ids=["config", "flag"])
def test_cli_refuses_negative_seed(tmp_path, capsys, via_flag):
    """A negative seed is a config error naming the key (exit 2), from the
    config or from --seed, not a traceback from a sampler's seeding."""
    text = "schema_version: 1\nseed: -5\npreset: cramer-paulsen\nsuite: ruin\nn_paths: 300\n"
    args = []
    if via_flag:
        text, args = text.replace("seed: -5", "seed: 5"), ["--seed", "-5"]
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r"), *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "'seed': must be a non-negative integer, got -5" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("value", ["null", "5", "[a, b]", "''"])
def test_cli_refuses_non_string_out_dir(tmp_path, capsys, monkeypatch, value):
    """out_dir must name a directory: null, a number, a list or an empty
    string is a config error with its line, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, GOOD + f"out_dir: {value}\n")
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 6: 'out_dir': expected a directory path" in err
    assert os.listdir(tmp_path) == ["cfg.yaml"]


@pytest.mark.parametrize("via_flag", [False, True], ids=["config", "flag"])
def test_cli_refuses_output_directory_it_cannot_create(tmp_path, capsys, via_flag):
    """An output path naming an existing file (from out_dir or --out)
    ends the run with exit 2 and a message, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    if via_flag:
        path = _write(tmp_path, GOOD)
        argv = ["run", "--config", path, "--out", str(taken)]
    else:
        path = _write(tmp_path, GOOD + f"out_dir: {taken}\n")
        argv = ["run", "--config", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {str(taken)!r}" in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-5", "'seed': must be a non-negative integer"),
        ("--paths", "0", "'n_paths': must be positive"),
    ],
    ids=["seed", "paths"],
)
def test_cli_blames_command_line_for_bad_flag_value(tmp_path, capsys, flag, value, message):
    """A bad value given by a flag is blamed on the command line, not on
    the config file's line for the key it overrides."""
    path = _write(tmp_path, GOOD)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r"), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"config error: command line: {message}" in err
    assert "line " not in err.replace("command line", "")


_UNBOUNDED_U_RUIN = (
    "schema_version: 1\nseed: 1\nsuite: ruin\ny_grid: [1.5, 2.5, 4.0]\n"
    "model: {drift: [-1, 1], jump_intensity: 1, jump_law: {kind: independent,"
    " marg_u: {kind: exponential, rate: 2}, marg_l: {kind: exponential, rate: 1}}"
)


@pytest.mark.parametrize(
    "extra",
    [
        "}\nn_paths: 2000\nstationary_horizon: 20\n",
        ", gaussian_cov: [[0.2, 0], [0, 0]]}\nn_paths: 500\nstationary_horizon: 5\n",
    ],
    ids=["pure-jump", "gaussian"],
)
def test_cli_ruin_passes_on_u_jumps_unbounded_above(tmp_path, capsys, extra):
    """Exp(2) U jumps are unbounded above, and their duals lie in (-1, 0]:
    the subordinator-mode ruin suite runs and passes, and reports the
    companion sample's truncation-diagnostic fraction."""
    path = _write(tmp_path, _UNBOUNDED_U_RUIN + extra)
    out = tmp_path / "r"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    metrics = json.load(open(out / "summary.json"))["suites"]["ruin"]["metrics"]
    assert metrics["mode"] == "subordinator"
    assert 0.0 <= metrics["companion_diagnostic_fail"] <= 1.0


def test_cli_first_passage_identity_refuses_gaussian_model(tmp_path, capsys):
    """L is not a subordinator, so the ruin suite checks the first-passage
    identity, whose ruin scan needs a pure-jump model: exit 3 before any
    sampling, not a traceback."""
    text = (
        "schema_version: 1\nseed: 1\nsuite: ruin\nn_paths: 2000\n"
        "model: {drift: [1.0, 0.5], gaussian_cov: [[0.5, 0.0], [0.0, 0.5]]}\n"
        "stationary_horizon: 40\ngrid_dt: 0.01\n"
    )
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "refusing to run" in err
    assert "needs a model without a Gaussian part" in err
    assert "Traceback" not in err


def test_cli_ruin_refuses_l_noise_through_sigma_ul(tmp_path, capsys):
    """sigma_UL = 5e-6 with sigma_L^2 = 0 is within the PSD tolerance and
    gives L Brownian noise on the grid lane, so L is not a subordinator.
    The ruin suite then checks the first-passage identity, whose ruin scan
    needs a pure-jump model: exit 3, not a subordinator-mode verdict."""
    text = (
        "schema_version: 1\nseed: 1\nsuite: ruin\nn_paths: 500\n"
        "model: {drift: [-1.0, 0.0], gaussian_cov: [[0.5, 5.0e-6], [5.0e-6, 0.0]]}\n"
        "stationary_horizon: 5\ngrid_dt: 0.01\n"
    )
    assert not parse_config(text).resolved_model().l_subordinator
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "needs a model without a Gaussian part" in err
    assert "Traceback" not in err


def test_duality_csv_pass_column_covers_both_directions(tmp_path, monkeypatch):
    """A probe that fails only the symmetric direction fails the suite and
    reads False in the ``pass`` column of duality.csv; its ``z_sym`` is a
    column of the CSV and sets the suite's ``max_z``."""
    import gouflow.suites as suites
    from gouflow.stats import verdict

    def row(x, ok_sym):
        z_sym = 0.0 if ok_sym else 9.0
        return {
            "t": 1.0, "x": x, "y": 0.0, "p_V": 0.5, "se_V": 0.01, "p_R": 0.5, "se_R": 0.01,
            "z": 0.0, "z_sym": z_sym,
            **verdict("duality", f"x={x}", z_sym, (0.01, 0.0), (0.01, 0.01 * z_sym)),
        }

    def stub(*args, **kwargs):
        return [row(0.0, True), row(1.0, False)]

    monkeypatch.setattr(suites, "duality_grid", stub)
    path = _write(tmp_path, GOOD.replace("monotonicity", "duality"))
    out = str(tmp_path / "d")
    assert main(["run", "--config", path, "--out", out]) == 1
    with open(os.path.join(out, "duality.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pass"] for r in rows] == ["True", "False"]
    assert [r["z_sym"] for r in rows] == ["0.0", "9.0"]
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["suites"]["duality"]["metrics"]["failed"] == 1
    assert summary["suites"]["duality"]["metrics"]["max_z"] == 9.0


def test_cli_monotonicity_suite_on_nonmonotone_passes(tmp_path):
    text = GOOD.replace("drift-ou", "nonmonotone").replace("n_paths: 1500", "n_paths: 8000")
    path = _write(tmp_path, text)
    out = str(tmp_path / "nm")
    assert main(["run", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["suites"]["monotonicity"]["metrics"]["condition_b"] is False


@pytest.mark.parametrize("grid", ["[1.0]", "[1.0, 1.0]"])
@pytest.mark.parametrize("suite", ["monotonicity", "all"])
def test_cli_refuses_monotonicity_without_two_distinct_x(tmp_path, capsys, suite, grid):
    """One distinct x gives the monotonicity suite no pair to compare (or
    only the trivial pair (1, 1)); that used to exit 0 having compared
    nothing.  It is a config error naming x_grid, before anything runs."""
    text = GOOD.replace("monotonicity", suite) + f"x_grid: {grid}\n"
    path = _write(tmp_path, text)
    out = tmp_path / "r"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "line 6: 'x_grid'" in err and "two distinct x" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["validate-config", "--config", path]) == 2


def test_cli_duality_runs_on_one_x(tmp_path):
    """Only the monotonicity suite needs two distinct x."""
    text = GOOD.replace("monotonicity", "duality") + "x_grid: [1.0]\nt_grid: [0.5]\n"
    out = str(tmp_path / "d")
    assert main(["run", "--config", _write(tmp_path, text), "--out", out]) == 0
    with open(os.path.join(out, "duality.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {r["x"] for r in rows} == {"1.0"}


def test_monotonicity_suite_with_one_x_fails():
    """A library call skips parse_config: with no x pair the suite's row
    takes NaN violations, which fail, instead of a vacuous pass."""
    from gouflow.config import ExperimentConfig
    from gouflow.suites import monotonicity_suite

    cfg = ExperimentConfig(seed=7, suite="monotonicity", preset="drift-ou", n_paths=200)
    res = monotonicity_suite(replace(cfg, x_grid=(1.0,)))
    assert all(cells == [] for cells in res.columns.values()) and not res.passed
    assert math.isnan(res.worst["value"]) and not res.worst["pass"]
    assert monotonicity_suite(cfg).passed


def test_cli_exit_one_on_failure(tmp_path, monkeypatch):
    """A failing suite yields exit 1, not an exception."""
    import gouflow.suites as suites

    def fake(cfg):
        return suites.SuiteResult(passed=False, metrics={})

    monkeypatch.setitem(suites.SUITE_RUNNERS, "monotonicity", fake)
    path = _write(tmp_path, GOOD)
    assert main(["run", "--config", path, "--out", str(tmp_path / "f")]) == 1


def test_suites_write_no_file_and_cli_exports_the_stationary_sample(tmp_path, monkeypatch):
    """run_selected returns each suite's result by name and writes nothing;
    the CLI's stationary_sample.csv/.json are the bytes of the stationary
    suite's sample exported."""
    from gouflow.suites import run_selected

    text = "schema_version: 1\nseed: 3\npreset: drift-ou\nsuite: stationary\n"
    text += "n_paths: 200\nstationary_horizon: 2.0\n"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    results = run_selected(parse_config(text))
    assert list(results) == ["stationary"] and not any(cwd.iterdir())
    sample = results["stationary"].sample
    sample.export(str(tmp_path / "s.csv"), str(tmp_path / "s.json"))
    out = tmp_path / "run"
    assert main(["run", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert (out / "stationary_sample.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
    assert (out / "stationary_sample.json").read_bytes() == (tmp_path / "s.json").read_bytes()


def _inflate_path_7(monkeypatch):
    """Path 7 of the inverse-flow check reads max_error 1e-3."""
    import gouflow.suites as suites

    real = suites.verify_tile_identity

    def inflated(tile, horizon, model, x):
        errs = real(tile, horizon, model, x).copy()
        errs[7] = 1e-3
        return errs

    monkeypatch.setattr(suites, "verify_tile_identity", inflated)


def _flat_errors(monkeypatch):
    """Every inverse-flow path but path 7 reads max_error 1e-2 on every grid
    step, and path 7 reads 1e-1, so the Euler medians do not decrease:
    margin 0 fails the strict rule.  The worst path is path 7 on the first
    grid, the first of its three equal maxima in row order."""
    import gouflow.suites as suites

    real = suites.verify_grid_identity

    seen = [0]  # paths checked in the batches before this one

    def flat(draw, model, x):
        errs = [np.full_like(errs, 1e-2) for errs in real(draw, model, x)]
        lo, seen[0] = seen[0], seen[0] + errs[0].size
        if lo <= 7 < seen[0]:
            for e in errs:
                e[7 - lo] = 1e-1
        return errs

    monkeypatch.setattr(suites, "verify_grid_identity", flat)


def _shift_dual(monkeypatch):
    """A wrong dual: its K drift is shifted by -0.5, wherever it is built."""
    from dataclasses import replace

    import gouflow.duality as duality
    import gouflow.suites as suites

    true_dual = duality.dual_model

    def shifted(model):
        dual = true_dual(model)
        return replace(dual, drift=(dual.drift[0], dual.drift[1] - 0.5))

    monkeypatch.setattr(duality, "dual_model", shifted)
    monkeypatch.setattr(suites, "dual_model", shifted)


# case: (passing preset and paths, failing preset and paths, the break,
# the failing rule, what the worst row's line shows); a case's suite is the
# part of its name before a colon
_FAILURES = {
    "duality": (("zero", 256), ("zero", 256), _shift_dual, "duality", "t=0.5 x=-1 y=-1: z inf"),
    "inverse-flow": (
        ("drift-ou", 20),
        ("drift-ou", 20),
        _inflate_path_7,
        "inverse-flow-exact",
        "worst row path 7 (grid_dt exact): max_error 1.000e-03, level 1e-09",
    ),
    "inverse-flow:euler": (
        ("dufresne", 20),
        ("dufresne", 20),
        _flat_errors,
        "inverse-flow-euler",
        "worst row path 7 (grid_dt 0.004) max_error 1.000e-01; "
        "median errors per grid_dt 0.004: 1.000e-02, 0.002: 1.000e-02, 0.001: 1.000e-02: "
        "median decrease 0.000e+00, level 0, margin 0.000e+00",
    ),
    "ruin": (
        ("zero", 256),
        ("zero", 256),
        _shift_dual,
        "ruin-subordinator",
        "worst row 1.0: |lhs - rhs| 1.000e+00",
    ),
    "stationary": (("zero", 256), ("zero", 256), _shift_dual, "ks", "causal-vs-dual-noncausal: p"),
    # too few paths to see the nonmonotonicity at z > 4
    "monotonicity": (
        ("nonmonotone", 8000),
        ("nonmonotone", 10),
        lambda monkeypatch: None,
        "nonmonotone",
        "max over x pairs: max_z",
    ),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_cli_failure_names_worst_row(tmp_path, monkeypatch, capsys, case):
    """A failing suite prints one line on stderr: its worst verdict row's
    probe, statistic, level and a margin that fails the row's rule.  A
    passing run prints none, and summary.json keeps its keys."""
    from gouflow.stats import RULES

    (ok_preset, ok_n), (bad_preset, bad_n), brk, rule, shows = _FAILURES[case]
    suite = case.split(":")[0]
    text = "schema_version: 1\nseed: 1\npreset: {}\nsuite: {}\nn_paths: {}\nt_grid: [0.5]\n"
    out_ok, out_bad = str(tmp_path / "ok"), str(tmp_path / "bad")
    path = _write(tmp_path, text.format(ok_preset, suite, ok_n), "ok.yaml")
    assert main(["run", "--config", path, "--out", out_ok]) == 0
    assert "worst row" not in capsys.readouterr().err

    brk(monkeypatch)
    path = _write(tmp_path, text.format(bad_preset, suite, bad_n), "bad.yaml")
    assert main(["run", "--config", path, "--out", out_bad]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if "worst row" in line]
    assert len(lines) == 1 and lines[0].startswith(f"{suite} FAIL: worst row ")
    assert shows in lines[0]
    margin = float(lines[0].rsplit("margin ", 1)[1])
    assert margin < 0 or (RULES[rule].strict and margin == 0)
    ok = json.load(open(os.path.join(out_ok, "summary.json")))
    bad = json.load(open(os.path.join(out_bad, "summary.json")))
    assert ok.keys() == bad.keys()
    assert ok["suites"][suite].keys() == bad["suites"][suite].keys()
    assert ok["suites"][suite]["metrics"].keys() == bad["suites"][suite]["metrics"].keys()
