"""The names the benchmark in ``perfbench/`` patches and calls still exist,
with the parameter order it relies on.

``perfbench/tracing.py`` wraps every ``TRACED`` entry by name, so renaming
or deleting one of those functions or methods breaks ``perfbench/run.py
--trace 1`` without failing any other test.  The file imports only the
standard library, so it is loaded here by path and left unchanged.
"""

import importlib
import inspect
import importlib.util
from pathlib import Path

import pytest

import cluster_reduce

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("entry", _traced_entries(), ids=lambda e: f"{e[0]}:{e[2]}")
def test_traced_entry_resolves(entry):
    name, module, attr, cls, _ = entry
    owner = importlib.import_module(f"{cluster_reduce.__name__}.{module}")
    if cls is None:
        assert callable(getattr(owner, attr, None)), f"{name}: {module}.{attr}"
    else:
        # the tracer reads the method from the class's own namespace
        assert attr in vars(getattr(owner, cls)), f"{name}: {module}.{cls}.{attr}"


def test_pipeline_entry_points_exist():
    from cluster_reduce import cli

    assert callable(cli.run_pipeline)
    assert isinstance(cli.WorkflowConfig, type)


# (module, function, parameters the benchmark passes by position or reads
# by index, in order): `workloads.py` calls
# check_presymplectic_invariance(phi, form, 20, seed) and
# find_invariant_poisson(phi, b, seed=seed); `tracing.py` reads the orbit
# length and the Newton grid from positional arguments
_BENCH_SIGNATURES = (
    ("geometry", "check_presymplectic_invariance", ("phi", "form", "samples", "seed")),
    ("geometry", "find_invariant_poisson", ("phi", "compatible_with", "seed")),
    ("dynamics", "iterate_orbit", ("f", "x0", "n")),
    ("dynamics", "find_periodic_points", ("f", "p", "precision", "grid")),
)


@pytest.mark.parametrize(
    "module, name, params", _BENCH_SIGNATURES, ids=[e[1] for e in _BENCH_SIGNATURES]
)
def test_bench_parameter_order(module, name, params):
    fn = getattr(importlib.import_module(f"{cluster_reduce.__name__}.{module}"), name)
    assert tuple(inspect.signature(fn).parameters)[: len(params)] == params
