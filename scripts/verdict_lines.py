#!/usr/bin/env python3
"""List the statements of ``src/gouflow`` that no verdict run executes.

Runs, through ``gouflow.cli.main`` in this process with every thread
line-traced (``sys.settrace`` and ``threading.settrace``):

* every item of the verdict benchmark (``verdictbench/workloads.json``)
  at seed 1, and each workload's worker-invariance run;
* every preset x suite at 2000 paths;
* one inline model per jump-law kind x suite at 2000 paths: the
  benchmark's two models (no jumps, point masses), an ``independent``
  law with exponential and uniform marginals, a ``linked`` law with a
  truncated-normal marginal, and two laws of finite support on the line
  2*U = -L (an ``independent`` law on two ``points`` marginals and a
  ``linked`` law on a ``points`` marginal), which the ruin suite refuses.

It prints each run's exit code (a crash is an outcome: ``crash`` and the
exception's last line), then, per ``src/`` function, the first line of
every statement that no run executed.  A statement counts as executed
when any line of its own (for a compound statement, of its header)
produced a line event.  Outputs go to a temporary directory.  Usage:

    python3 scripts/verdict_lines.py
"""

import ast
import json
import os
import sys
import tempfile
import threading

from identity_check import ROOT, _run, _runs  # also puts src/ on sys.path

from gouflow.presets import preset_names
from gouflow.suites import SUITE_RUNNERS

SRC = os.path.join(ROOT, "src", "gouflow")
N_PATHS = 2000
LAWS = {
    "independent-exp-uniform": {
        "drift": [-1.0, 1.0],
        "jump_intensity": 1.0,
        "jump_law": {
            "kind": "independent",
            "marg_u": {"kind": "exponential", "rate": 2.0},
            "marg_l": {"kind": "uniform", "a": 0.0, "b": 1.0},
        },
    },
    "linked-truncated-normal": {
        "drift": [1.0, 1.0],
        "jump_intensity": 1.0,
        "jump_law": {
            "kind": "linked",
            "marg_u": {"kind": "truncated_normal", "mu": 0.0, "sigma": 1.0, "lower": -0.5},
            "intercept": 0.25,
            "slope": -0.5,
        },
    },
    "independent-points-degenerate": {
        "drift": [0.5, -1.0],
        "jump_intensity": 2.0,
        "jump_law": {
            "kind": "independent",
            "marg_u": {"kind": "points", "atoms": [[1.0, 1.0]]},
            "marg_l": {"kind": "points", "atoms": [[-2.0, 1.0]]},
        },
    },
    "linked-points-degenerate": {
        "drift": [0.5, -1.0],
        "jump_intensity": 2.0,
        "jump_law": {
            "kind": "linked",
            "marg_u": {"kind": "points", "atoms": [[1.0, 1.0]]},
            "intercept": -1.0,
            "slope": -1.0,
        },
    },
}


def _all_runs(spec: dict):
    """(tag, config, seed, workers) for every run."""
    for wname, item, config, seed, workers in _runs(spec, [1]):
        yield f"{wname}/{item}", config, seed, workers
    models = {name: {"preset": name} for name in preset_names()}
    models.update({name: {"model": m} for name, m in {**spec["models"], **LAWS}.items()})
    for name, model in models.items():
        for suite in SUITE_RUNNERS:
            yield f"{name}/{suite}", {**model, "suite": suite, "n_paths": N_PATHS}, 1, 1


def _statements(path: str):
    """(function, first line, lines of its own) for every statement
    inside a function of the source file that compiles to code."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    code_lines = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))

    def own_lines(stmt):
        bodies = [getattr(stmt, f, None) for f in ("body", "orelse", "finalbody", "handlers")]
        inner = [s.lineno for body in bodies if body for s in body]
        end = min(inner) - 1 if inner else stmt.end_lineno
        start = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
        return set(range(start, end + 1))

    def walk(node, scope, func):
        """Statements under ``node``; ``scope`` is the dotted name of the
        enclosing definition, ``func`` that of the innermost function."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and func is not None:
                docstring = isinstance(child, ast.Expr) and isinstance(
                    getattr(child.value, "value", None), str
                )
                lines = own_lines(child)
                if not docstring and lines & code_lines:
                    yield func, child.lineno, lines
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                yield from walk(child, name, func if isinstance(child, ast.ClassDef) else name)
            else:
                yield from walk(child, scope, func)

    return list(walk(tree, "", None))


def main() -> int:
    with open(os.path.join(ROOT, "verdictbench", "workloads.json")) as fh:
        spec = json.load(fh)
    files = sorted(
        os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py")
    )
    executed = set()
    watched = set(files)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in watched else None

    codes = []
    with tempfile.TemporaryDirectory() as work:
        for k, (tag, config, seed, workers) in enumerate(_all_runs(spec)):
            threading.settrace(tracer)
            sys.settrace(tracer)
            try:
                outcome = _run(config, seed, workers, os.path.join(work, str(k)))
            finally:
                sys.settrace(None)
                threading.settrace(None)
            first, name, code = outcome[0]
            codes.append(f"crash  {tag}: {first}" if name == "crash" else f"exit {code}  {tag}")
    print("\n".join(codes))
    print(f"{len(codes)} runs")

    missed_total = 0
    for path in files:
        missed = {}
        for func, line, lines in _statements(path):
            if not any((path, n) in executed for n in lines):
                missed.setdefault(func, []).append(line)
        for func, lines in missed.items():
            missed_total += len(lines)
            rel = os.path.relpath(path, ROOT)
            print(f"{rel}::{func}  lines {', '.join(map(str, lines))}")
    print(f"{missed_total} statements never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
