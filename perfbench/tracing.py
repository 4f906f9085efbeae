"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every
``cluster_reduce`` module namespace that holds it (so ``cli`` and
``geometry`` calls made through names imported with ``from .x import y``
are caught too) and each traced method on its class.

Coarse calls (pipeline stages, structure discovery, orbits, Newton
searches) are kept as spans: name, start, end, parent span and case id.
Hot calls (Laurent arithmetic, point evaluation, lattice normal forms)
are too many to keep one by one; they are summed per parent span.  Self
time is a call's duration minus the time covered by its traced children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from fractions import Fraction

# (layer name, module, attribute, class name or None, keep spans)
TRACED = (
    ("cli.pipeline", "cli", "run_pipeline", None, True),
    ("quiver.detect_period", "quiver", "detect_period", None, True),
    ("quiver.cluster_map", "quiver", "cluster_map", None, True),
    ("geometry.invariance", "geometry", "check_presymplectic_invariance", None, True),
    ("geometry.invariance", "geometry", "check_poisson_map", None, True),
    ("geometry.discovery", "geometry", "find_invariant_poisson", None, True),
    ("geometry.null", "geometry", "null_submersion", None, True),
    ("geometry.casimir", "geometry", "casimir_submersion", None, True),
    ("geometry.bracket", "geometry", "poisson_bracket", None, False),
    ("geometry.reduce", "geometry", "derive_reduced_map", None, True),
    ("geometry.flag", "geometry", "build_flag", None, True),
    ("geometry.flag", "geometry", "check_subfoliation", None, False),
    ("geometry.flag", "geometry", "chained_reduction", None, True),
    ("dynamics.periodicity", "dynamics", "detect_global_periodicity", None, True),
    ("dynamics.scan", "dynamics", "no_periodic_points_scan", None, True),
    ("dynamics.orbit", "dynamics", "iterate_orbit", None, True),
    ("dynamics.itinerary", "dynamics", "leaf_itinerary", None, True),
    ("dynamics.newton", "dynamics", "find_periodic_points", None, True),
    ("dynamics.closed_form", "dynamics", "verify_closed_form", None, True),
    ("intlinalg.hnf", "intlinalg", "hermite_normal_form", None, False),
    ("intlinalg.snf", "intlinalg", "smith_normal_form", None, False),
    ("intlinalg.kernel", "intlinalg", "kernel_lattice", None, False),
    ("maps.evaluate", "maps", "evaluate", "BirationalMap", False),
    ("maps.evaluate_mp", "maps", "evaluate_mp", "BirationalMap", False),
    ("maps.jacobian_mp", "maps", "jacobian_mp", "BirationalMap", False),
    ("maps.iterate", "maps", "iterate", "BirationalMap", True),
    ("laurent.mul", "laurent", "__mul__", "LaurentPoly", False),
    ("laurent.eval", "laurent", "evaluate", "LaurentPoly", False),
    ("laurent.eval_mp", "laurent", "evaluate_mp", "LaurentPoly", False),
    ("laurent.gcd", "laurent", "poly_gcd", None, False),
    ("laurent.compose", "laurent", "compose", "RationalFunction", False),
)


def _bits(values) -> int:
    return max(
        (v.numerator.bit_length() + v.denominator.bit_length()
         for v in values if isinstance(v, Fraction)),
        default=0,
    )


class Tracer:
    """Records spans and per-layer totals for one case in one process."""

    def __init__(self, case: str):
        self.case = case
        self.clock = time.perf_counter
        self.origin = self.clock()
        # open frames: [span id of the nearest kept ancestor, child seconds]
        self.stack = [[None, 0.0]]
        self.spans = []  # closed: [id, parent, name, case, start, end, self]
        self.open = {}  # span id -> (parent, name, start) while open
        self.totals = {}  # layer -> [calls, inclusive s, self s]
        self.grouped = {}  # (parent span, layer) -> [calls, inclusive s, self s]
        self.counters = {"dynamics.orbit.steps": 0, "maps.evaluate.max_bits": 0,
                         "laurent.gcd.nontrivial": 0, "dynamics.newton.starts": 0,
                         "dynamics.newton.found": 0}
        self._next_id = 0
        self._on = [True]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _count(self, name, args, kwargs, result) -> None:
        c = self.counters
        if name == "dynamics.orbit":
            c["dynamics.orbit.steps"] += kwargs.get("n", args[2] if len(args) > 2 else 0)
        elif name == "maps.evaluate":
            c["maps.evaluate.max_bits"] = max(c["maps.evaluate.max_bits"], _bits(result))
        elif name == "laurent.gcd":
            c["laurent.gcd.nontrivial"] += not result.is_one()
        elif name == "dynamics.newton":
            grid = kwargs.get("grid", args[4] if len(args) > 4 else 5)
            c["dynamics.newton.starts"] += grid ** args[0].dim_in
            c["dynamics.newton.found"] += len(result)

    def wrap(self, name: str, fn, keep: bool):
        stack, clock, on = self.stack, self.clock, self._on
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        counted = name in ("dynamics.orbit", "maps.evaluate", "laurent.gcd", "dynamics.newton")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = None
            start = clock()
            if keep:
                span = self._next_id
                self._next_id += 1
                self.open[span] = (parent[0], name, start)
            frame = [span if keep else parent[0], 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                own = took - frame[1]
                parent[1] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += own
                if keep:
                    del self.open[span]
                    self.spans.append([span, parent[0], name, self.case,
                                       start - self.origin, end - self.origin, own])
                else:
                    group = self.grouped.setdefault((parent[0], name), [0, 0.0, 0.0])
                    group[0] += 1
                    group[1] += took
                    group[2] += own
            if counted:
                self._count(name, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every traced function and method of the imported package."""
        for module in {entry[1] for entry in TRACED}:
            importlib.import_module(f"{package.__name__}.{module}")
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for name, module, attr, cls, keep in TRACED:
            owner = sys.modules[f"{package.__name__}.{module}"]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self.wrap(name, klass.__dict__[attr], keep))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        """Spans (open ones marked), per-layer totals and counters."""
        now = self.clock() - self.origin
        open_spans = [[span, parent, name, self.case, start - self.origin, now, None]
                      for span, (parent, name, start) in sorted(self.open.items())]
        return {
            "case": self.case,
            "spans": self.spans + open_spans,
            "open": [name for _, (_, name, _) in sorted(self.open.items())],
            "grouped": [[parent, name, *v] for (parent, name), v in self.grouped.items()],
            "totals": self.totals,
            "counters": self.counters,
        }


def merge(dumps) -> tuple[dict, dict]:
    """Sum per-layer totals and counters over several dumps."""
    totals: dict = {}
    counters: dict = {}
    for d in dumps:
        for name, (calls, incl, own) in d["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += own
        for key, value in d["counters"].items():
            if key.endswith("max_bits"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return totals, counters


def layer_metrics(totals: dict, counters: dict, passes: int) -> dict:
    """The benchmark's per-layer metrics, per pass, from merged totals."""
    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / passes

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2] / passes

    def share(part, whole):
        return counters.get(part, 0) / whole if whole else 0.0

    out = {}
    for name in ("dynamics.scan", "dynamics.periodicity", "maps.evaluate", "laurent.eval",
                 "geometry.casimir", "geometry.invariance", "geometry.discovery",
                 "geometry.reduce", "geometry.flag", "laurent.mul", "laurent.gcd",
                 "intlinalg.hnf", "intlinalg.kernel", "intlinalg.snf",
                 "quiver.detect_period", "quiver.cluster_map", "maps.evaluate_mp",
                 "maps.jacobian_mp", "laurent.eval_mp", "maps.iterate",
                 "laurent.compose", "dynamics.newton"):
        out[f"{name}.s"] = (own(name), "s")
    for name in ("maps.evaluate", "laurent.eval", "geometry.bracket", "laurent.mul",
                 "laurent.gcd", "intlinalg.hnf", "intlinalg.kernel", "maps.evaluate_mp",
                 "maps.jacobian_mp", "laurent.eval_mp", "laurent.compose"):
        out[f"{name}.calls"] = (calls(name), "count")
    out["dynamics.orbit.steps"] = (counters.get("dynamics.orbit.steps", 0) / passes, "count")
    out["maps.evaluate.max_bits"] = (counters.get("maps.evaluate.max_bits", 0), "bits")
    out["laurent.gcd.nontrivial_share"] = (
        share("laurent.gcd.nontrivial", totals.get("laurent.gcd", [0])[0]), "share")
    out["dynamics.newton.found_share"] = (
        share("dynamics.newton.found", counters.get("dynamics.newton.starts", 0)), "share")
    out["cli.self.s"] = (own("cli.pipeline"), "s")
    return out
