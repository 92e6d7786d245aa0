#!/usr/bin/env python3
"""Print a sha256 for every output of the verdict benchmark's items.

Runs every item of the ``jump-lane``, ``diffusion-lane`` and ``per-path``
workloads in ``verdictbench/workloads.json`` at each --seed with
``workers: 1``, plus each workload's ``worker_invariance`` item (its
reduced config) at ``workers: 2``, through ``gouflow.cli.main`` in this
process.  Each config is built as the benchmark builds it
(``schema_version``, ``seed`` and ``workers`` added to the item's config).
For each run it prints one line per output file (every CSV,
``summary.json``, the stationary sample and its sidecar) as

    <sha256>  <workload>/<item>/seed<S>/workers<W>/<file>  exit <code>

and a refusal (exit 2 or 3) as one line whose file is ``refusal`` and
whose hash covers standard error from the word ``refusing`` or
``config error`` on (a numpy warning printed before it only appears on
the first occurrence in a process).  A crash prints ``crash`` and the
exception's last line.  The last line counts items, runs and hashes,
and the output files that hold a negative zero (``-0`` or ``-0.0`` as a
whole value): outputs are defined up to the sign of a zero, and written
as +0.

Two checkouts give the same verdicts byte for byte when their outputs
are equal:

    python3 scripts/identity_check.py > change.txt
    (cd <parent checkout> && python3 scripts/identity_check.py) > parent.txt
    diff parent.txt change.txt

The outputs go to a temporary directory and workloads.json is only
read.  Usage:

    python3 scripts/identity_check.py [--seeds 1 2 3]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gouflow import cli  # noqa: E402

WORKLOADS = ("jump-lane", "diffusion-lane", "per-path")
# -0, -0.0, -0.00... as a whole value, not the start of -0.5 or -0e-3
NEGATIVE_ZERO = re.compile(rb"(?<![\w.])-0(?:\.0*)?(?![\w.])")


def _runs(spec: dict, seeds):
    """(workload, item name, config, seed, workers) for every run."""
    for wname in WORKLOADS:
        workload = spec["workloads"][wname]
        items = {}
        for item in workload["items"]:
            config = dict(item["config"])
            if isinstance(config.get("model"), str):
                config["model"] = spec["models"][config["model"]]
            items[item["name"]] = config
            for seed in seeds:
                yield wname, item["name"], config, seed, 1
        inv = workload.get("worker_invariance")
        if inv is not None:
            config = {**items[inv["item"]], **inv["config"]}
            for seed in seeds:
                yield wname, inv["item"] + "@invariance", config, seed, 2


def _run(config: dict, seed: int, workers: int, out_dir: str) -> list[tuple[str, str, str]]:
    """One ``gouflow run``: (sha256 or message, file, exit code) per output."""
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.yaml")
    with open(cfg_path, "w") as fh:
        json.dump({"schema_version": 1, "seed": seed, "workers": workers, **config}, fh)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", cfg_path, "--out", out_dir])
    except Exception:  # a crash is an outcome to compare, not a reason to stop
        last = traceback.format_exc().strip().splitlines()[-1]
        return [(last, "crash", "-")]
    if code in (2, 3):
        text = err.getvalue()
        start = [i for i in (text.find("refusing"), text.find("config error")) if i >= 0]
        text = text[min(start, default=0):]
        return [(hashlib.sha256(text.encode()).hexdigest(), "refusal", str(code))]
    lines = []
    for name in sorted(os.listdir(out_dir)):
        if name == "config.yaml":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines.append((hashlib.sha256(fh.read()).hexdigest(), name, str(code)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "verdictbench", "workloads.json")) as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory() as work:
        items, runs, hashes, negative_zeros = set(), 0, 0, 0
        for k, (wname, item, config, seed, workers) in enumerate(_runs(spec, args.seeds)):
            tag = f"{wname}/{item}/seed{seed}/workers{workers}"
            out_dir = os.path.join(work, str(k))
            for digest, name, code in _run(config, seed, workers, out_dir):
                print(f"{digest}  {tag}/{name}  exit {code}", flush=True)
                hashes += 1
                if name not in ("refusal", "crash"):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        negative_zeros += bool(NEGATIVE_ZERO.search(fh.read()))
            items.add((wname, item))
            runs += 1
    print(
        f"{len(items)} items, {runs} runs, {hashes} hashes, "
        f"{negative_zeros} files with a negative zero"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
