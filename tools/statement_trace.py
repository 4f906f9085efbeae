"""Statement trace of the cluster_reduce package: which statements never run.

    python tools/statement_trace.py [MODULE ...]

Runs Tier-1 (``pytest tests``) and then one pass of each benchmark
workload (ladder, symbolic, numeric, seed 0) in this process under
``sys.settrace``, and prints, for each named module of
``src/cluster_reduce`` (all of them by default), its statements, how many
ran, and each statement that never ran, with its line.  The ladder cases
run in this process (``workloads.ladder_child``), not in the benchmark's
children, so that the trace sees them.

Statements are counted from the AST: every statement node, docstrings
excluded, and ``global``/``nonlocal``, which compile to no code.  A
statement ran when a line event fell on one of its own lines: a simple
statement's lines, a compound statement's header up to its first body
statement, a definition's decorators and signature.  Tracing slows
Tier-1 several times, so tests that bound a wall time may fail here;
their failures are printed and the trace still counts.
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cluster_reduce"
SEED = 0


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """First line -> own lines of each counted statement of the file."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    counted = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        stop = body[0].lineno if isinstance(body, list) and body else node.end_lineno + 1
        counted[node.lineno] = tuple(range(start, max(stop, node.lineno + 1)))
    return counted


class Tracer:
    """Line events of the package's files, by real path."""

    def __init__(self, files) -> None:
        self.hits = {str(f): set() for f in files}
        self.paths = {}  # co_filename -> its hit set, or None

    def lines(self, filename: str):
        if filename not in self.paths:
            self.paths[filename] = self.hits.get(os.path.realpath(filename))
        return self.paths[filename]

    def __call__(self, frame, event, arg):
        hits = self.lines(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local


class _Clock:
    """The work clock of the benchmark's passes, as plain wall time."""

    read = staticmethod(time.perf_counter)


def workload_passes() -> None:
    """One pass of each workload, the ladder cases in this process."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cases
    import workloads

    import cluster_reduce as cr

    for case in cases.LADDER:
        result = workloads.ladder_child(cr, _Clock, case, SEED)
        print(f"ladder {case}: {result['status']} {result['detail']}")
    for name, body in (("symbolic", workloads.symbolic_pass), ("numeric", workloads.numeric_pass)):
        inputs = workloads.setup(cr, name)
        ctx = workloads.Context(SEED, time.perf_counter() + 900.0, _Clock)
        for result in body(cr, inputs, ctx):
            if result["status"] != "ok":
                print(f"{name} {result['case']}: {result['status']} {result['detail']}")
        print(f"{name}: pass done")


def main(argv: list[str]) -> int:
    names = argv or sorted(p.stem for p in PACKAGE.glob("*.py"))
    files = {name: (PACKAGE / f"{name}.py").resolve() for name in names}
    for name, path in files.items():
        if not path.is_file():
            raise SystemExit(f"error: no module {name} in {PACKAGE}")
    tracer = Tracer(files.values())
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        workload_passes()
    finally:
        sys.settrace(None)
    print(f"Tier-1 exit code {code}")
    for name, path in files.items():
        hits = tracer.hits[str(path)]
        counted = statements(path)
        missed = [line for line, own in sorted(counted.items()) if hits.isdisjoint(own)]
        print(f"{name}: {len(counted)} statements, {len(counted) - len(missed)} ran, "
              f"{len(missed)} never ran")
        source = path.read_text().splitlines()
        for line in missed:
            print(f"  {name}.py:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
