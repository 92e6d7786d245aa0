#!/usr/bin/env python3
"""Run every verification suite on every preset it applies to.

Writes one report directory per (preset, suite) pair under reports/ and a
final table to stdout; one inline model runs with the presets.  Presets
that violate a suite's hypotheses are listed as refused rather than
failed — the refusal is the correct result.  A failing run is listed as
``FAIL`` with the worst verdict row that the CLI names on stderr.  A run
that raises is listed as ``crash`` with the exception's last line, and
the sweep goes on; the exit code is 1 when any run failed or crashed.

Usage: python3 scripts/run_all_suites.py [--paths N] [--seed S] [--out DIR]
"""

import argparse
import contextlib
import io
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gouflow.cli import main as cli_main  # noqa: E402
from gouflow.presets import preset_names  # noqa: E402
from gouflow.suites import SUITE_RUNNERS  # noqa: E402

CONFIG_TEMPLATE = """\
schema_version: 1
seed: {seed}
{model}suite: {suite}
n_paths: {paths}
"""

# No preset has both a Gaussian part and jumps, so this inline model sends
# the sweep through the jump branch of the grid lane.
INLINE_MODELS = {
    "jump-diffusion": """\
model:
  drift: [-1.0, 1.0]
  gaussian_cov: [[0.5, 0.0], [0.0, 0.0]]
  jump_intensity: 1.0
  jump_law: {kind: point_mass, atoms: [[[0.5, 0.5], 0.5], [[-0.3, 0.2], 0.5]]}
""",
}


def run(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="reports")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    rows = []
    models = {name: f"preset: {name}\n" for name in preset_names()} | INLINE_MODELS
    for preset, model in models.items():
        for suite in SUITE_RUNNERS:
            out_dir = os.path.join(args.out, f"{preset}-{suite}")
            os.makedirs(out_dir, exist_ok=True)
            cfg_path = os.path.join(out_dir, "config.yaml")
            with open(cfg_path, "w") as fh:
                fh.write(
                    CONFIG_TEMPLATE.format(
                        seed=args.seed, model=model, suite=suite, paths=args.paths
                    )
                )
            argv = ["run", "--config", cfg_path, "--out", out_dir, "--workers", str(args.workers)]
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli_main(argv)
            except Exception:  # a crash is an outcome: record it, keep sweeping
                last = traceback.format_exc().strip().splitlines()[-1]
                rows.append((preset, suite, f"crash {last}"))
                continue
            finally:
                sys.stderr.write(err.getvalue())
            verdict = {0: "pass", 1: "FAIL", 3: "refused"}.get(code, f"exit {code}")
            worst = [line for line in err.getvalue().splitlines() if " FAIL: worst row " in line]
            if code == 1 and worst:
                verdict = "FAIL " + worst[0].split(" FAIL: ", 1)[1]
            rows.append((preset, suite, verdict))

    width = max(len(p) for p, _, _ in rows)
    print("\npreset".ljust(width + 1), "suite".ljust(14), "result")
    for preset, suite, verdict in rows:
        print(preset.ljust(width + 1), suite.ljust(14), verdict)
    return 1 if any(v.startswith(("FAIL", "crash")) for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(run())
