"""Set-up, one pass, and the output checks of each workload.

A pass is a list of case results ``{"case", "seconds", "status",
"detail"}`` with status ``ok``, ``timeout``, ``error`` (raised or
reported a pipeline error) or ``wrong`` (failed an output check).

Checks compare only basis-free exact objects with ``reference.json``:
mutation period, rank, the cluster map as exact rational functions, the
Poisson space and each foliation lattice by Hermite normal form, the
reduction identity pi o phi = psi o pi at seeded rational points
(evaluated here, independently of the package's Laurent engine), the
certified global periods of c7-pair, and fixed points against closed
forms or reference digits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent

# Time a traced child gets to write its spans after the budget.
TRACE_GRACE_S = 10.0
# Random rational points for the independent reduction spot-check.
SPOT_POINTS = 3
# The pipeline prints fixed points to 30 digits; relative tolerance on them.
FIXED_POINT_TOL = "1e-25"
# Periods searched at each working precision.  Period 2 runs at 64 digits
# only: at 128 digits the somos5 casimir(3) search alone took 12-20 s, one
# sample per run, and left numeric too unsteady to compare runs.
PERIODS = {64: (1, 2), 128: (1,)}


@functools.cache
def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


class CheckFailed(Exception):
    """An output differs from the reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Exact helpers independent of the package's Laurent arithmetic

_NAME = re.compile(r"x(\d+)")


def eval_expr(text: str, point) -> Fraction:
    """Evaluate a printed rational function such as '(x2 + 1)/(x1*x3)'."""
    code = _NAME.sub(lambda m: f"_x[{int(m.group(1)) - 1}]", text.replace("^", "**"))
    if not re.fullmatch(r"[\d_x\[\]\s+\-*/()]*", code):
        raise CheckFailed(f"unexpected symbol in {text!r}")
    return eval(code, {"__builtins__": {}}, {"_x": [Fraction(v) for v in point]})


def monomials(rows, point) -> tuple[Fraction, ...]:
    out = []
    for row in rows:
        value = Fraction(1)
        for x, k in zip(point, row):
            value *= Fraction(x) ** k
        out.append(value)
    return tuple(out)


def hnf_key(cr, rows, ncols: int) -> str:
    """Row-style Hermite normal form of the lattice spanned by ``rows``."""
    if not rows:
        return "[]"
    h, _ = cr.hermite_normal_form(cr.IntMatrix.from_rows([list(r) for r in rows], ncols))
    return json.dumps([list(r) for r in h.entries if any(r)])


def to_canonical(cr, rows) -> list[list[Fraction]]:
    """The matrix V with V rows = H, H the Hermite form of the row lattice.

    A point y of x -> (x^u for u in rows) has coordinates y^V in the
    basis H, so fixed points compare across choices of basis.
    """
    e = [list(r) for r in rows]
    h = json.loads(hnf_key(cr, e, len(e[0])))
    r = len(e)
    # V = (H E^T)(E E^T)^-1, by Gauss-Jordan on [E E^T | (H E^T)^T], transposed.
    gram = [[Fraction(sum(a * b for a, b in zip(e[i], e[k]))) for k in range(r)]
            for i in range(r)]
    rhs = [[Fraction(sum(a * b for a, b in zip(h[i], e[k]))) for i in range(r)]
           for k in range(r)]
    for c in range(r):
        pivot = next(i for i in range(c, r) if gram[i][c])
        gram[c], gram[pivot] = gram[pivot], gram[c]
        rhs[c], rhs[pivot] = rhs[pivot], rhs[c]
        for i in range(r):
            if i != c and gram[i][c]:
                q = gram[i][c] / gram[c][c]
                gram[i] = [a - q * b for a, b in zip(gram[i], gram[c])]
                rhs[i] = [a - q * b for a, b in zip(rhs[i], rhs[c])]
    vt = [[x / gram[k][k] for x in rhs[k]] for k in range(r)]
    return [list(col) for col in zip(*vt)]


def canonical_point(mp, v, point) -> list:
    """Coordinates y^V of a point y, as mpmath numbers."""
    return [mp.fprod(mp.power(mp.mpf(y), int(k)) for y, k in zip(point, row) if k)
            for row in v]


def points_match(mp, got, want, tol) -> bool:
    """Same number of points, each within relative ``tol`` of one wanted."""
    if len(got) != len(want):
        return False
    return all(any(max(abs(a - b) / abs(b) for a, b in zip(g, w)) < tol for w in want)
               for g in got)


def skew_vector(m) -> list[int]:
    n = m.rows
    return [m.entries[i][j] for i in range(n) for j in range(i + 1, n)]


def spot_points(seed: int, case: str, dim: int):
    rng = random.Random(f"spot:{seed}:{case}")
    return [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dim)]
            for _ in range(SPOT_POINTS)]


def check_reduction(phi_strings, exponents, psi_strings, points) -> None:
    """pi o phi = psi o pi at each point, exactly."""
    for x in points:
        image = [eval_expr(s, x) for s in phi_strings]
        lhs = monomials(exponents, image)
        rhs = tuple(eval_expr(s, monomials(exponents, x)) for s in psi_strings)
        require(lhs == rhs, f"pi o phi != psi o pi at {[str(v) for v in x]}")


def check_structure(cr, case: str, period, rank, map_strings, poisson_hnf, lattices) -> None:
    ref = reference()["cases"][case]
    require(period == ref["period"], f"period {period} != {ref['period']}")
    require(rank == ref["rank"], f"rank {rank} != {ref['rank']}")
    n = len(ref["map"])
    got = [cr.parse_rational(s, n) for s in map_strings]
    want = [cr.parse_rational(s, n) for s in ref["map"]]
    require(got == want, "cluster map differs")
    require(poisson_hnf == ref["poisson_hnf"], "Poisson space differs")
    require(sorted(set(lattices)) == sorted(ref["lattices"]), "foliation lattices differ")


# ---------------------------------------------------------------------------
# Symbolic analysis of one quiver through the public functions


def structure_representatives(cr, basis):
    """One member per distinct Casimir foliation of the discovered space.

    Degenerate members of a 2- or 3-dimensional space are found among
    small integer combinations, as ``run_pipeline`` does.
    """
    candidates = list(basis)
    if 2 <= len(basis) <= 3:
        n = basis[0].rows
        for coeffs in product(range(-3, 4), repeat=len(basis)):
            if any(coeffs):
                candidates.append(cr.IntMatrix.from_rows(
                    [[sum(c * m.entries[i][j] for c, m in zip(coeffs, basis))
                      for j in range(n)] for i in range(n)]))
    seen = {}
    for m in candidates:
        if m.rank() < m.rows:
            key = hnf_key(cr, cr.kernel_lattice(m).vectors, m.rows)
            seen.setdefault(key, m)
    return list(seen.values())


def longest_flag(cr, subs):
    """A flag over the most submersions that form a chain, or None."""
    for size in range(len(subs), 1, -1):
        for chain in combinations(subs, size):
            try:
                return cr.build_flag(chain)
            except cr.NotAChainError:
                continue
    return None


def analyse(cr, b, seed: int) -> dict:
    cert = cr.detect_period(b)
    phi = cr.cluster_map(b, cert)
    form = cr.PresymplecticForm(b)
    invariant = cr.check_presymplectic_invariance(phi, form, 20, seed).ok
    basis = cr.find_invariant_poisson(phi, b, seed=seed)
    subs = [cr.null_submersion(form)] if 0 < form.rank < form.dim else []
    subs += [cr.casimir_submersion(cr.PoissonStructure(m))
             for m in structure_representatives(cr, basis)]
    systems = [cr.derive_reduced_map(phi, s) for s in subs]
    chained = []
    flag = longest_flag(cr, subs)
    if flag is not None:
        by_rows = {s.submersion.map.exponents: s for s in systems}
        ordered = [by_rows[s.map.exponents] for s in flag.submersions]
        for outer, inner, proj in zip(ordered, ordered[1:], flag.projections):
            chained.append(cr.chained_reduction(outer, inner, proj).verified)
    return {"cert": cert, "phi": phi, "rank": form.rank, "invariant": invariant,
            "basis": basis, "systems": systems, "chained": chained}


def structure_summary(cr, result) -> dict:
    n = result["phi"].dim_in
    return {
        "period": result["cert"].period,
        "rank": result["rank"],
        "map": result["phi"].to_strings(),
        "poisson_hnf": hnf_key(cr, [skew_vector(m) for m in result["basis"]], n * (n - 1) // 2),
        "lattices": [hnf_key(cr, s.submersion.map.exponents.entries, n)
                     for s in result["systems"]],
    }


def check_analysis(cr, case: str, result, seed: int) -> None:
    s = structure_summary(cr, result)
    check_structure(cr, case, s["period"], s["rank"], s["map"], s["poisson_hnf"], s["lattices"])
    require(result["invariant"], "presymplectic form reported not invariant")
    require(all(result["chained"]), "chained reduction not verified")
    points = spot_points(seed, case, len(s["map"]))
    for system in result["systems"]:
        require(system.verified, "reduction not verified")
        check_reduction(s["map"], system.submersion.map.exponents.entries,
                        system.map.to_strings(), points)


# ---------------------------------------------------------------------------
# Workload set-up


def setup(cr, workload: str) -> dict:
    cases.self_check(cr)
    inputs = {"matrices": {name: cases.ladder_matrix(cr, name) for name in cases.LADDER}}
    if workload == "numeric":
        import mpmath as mp

        inputs.update(maps={}, canonical={}, fixed_points={})
        for case, casimir in (("somos5", "C"), ("c7-pair", "C1")):
            fixture = cr.get_fixture(case)
            b = fixture.matrix("B")
            phi = cr.cluster_map(b, cr.detect_period(b))
            if case == "somos5":
                inputs["somos5_phi"] = phi
            null = cr.null_submersion(cr.PresymplecticForm(b))
            cas = cr.casimir_submersion(cr.PoissonStructure(fixture.matrix(casimir)))
            for sub in (null, cas):
                name = f"{case}:{sub.kind}{sub.dim_out}"
                inputs["maps"][name] = cr.derive_reduced_map(phi, sub).map
                inputs["canonical"][name] = to_canonical(cr, sub.map.exponents.entries)
                with mp.workdps(max(PERIODS) + 10):
                    inputs["fixed_points"][name] = closed_form_fixed_points(cr, mp, name)
    return inputs


class Deadline(Exception):
    """The run's time is up; raised in the case that was running."""


def _raise_deadline(signum, frame):
    raise Deadline


@dataclass
class Context:
    """What the in-process passes of one run share."""

    seed: int
    deadline: float  # time.perf_counter() by which every case must have ended
    clock: object  # the process's speed.WorkClock; case times are its seconds
    tracer: object = None  # a tracing.Tracer in a traced run
    extras: dict = field(default_factory=dict)


def timed_case(ctx: Context, case: str, work, check) -> dict:
    """Time ``work()``, stopped at the deadline; then check its value untimed."""
    if ctx.tracer is not None:
        ctx.tracer.case = case
    start = time.perf_counter()
    if start >= ctx.deadline:
        return {"case": case, "seconds": 0.0, "status": "timeout", "detail": "not run: no time left"}
    signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, ctx.deadline - start)
    begin = ctx.clock.read()
    try:
        value = work()
    except Deadline:
        return {"case": case, "seconds": ctx.clock.read() - begin,
                "status": "timeout", "detail": "stopped at the run's deadline"}
    except Exception as exc:  # a case that raises is a failed case; the pass goes on
        return {"case": case, "seconds": ctx.clock.read() - begin,
                "status": "error", "detail": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = ctx.clock.read() - begin
    status, detail = "ok", ""
    with ctx.tracer.paused() if ctx.tracer else contextlib.nullcontext():
        try:
            check(value)
        except Exception as exc:  # a check that cannot read the output fails too
            status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    return {"case": case, "seconds": seconds, "status": status, "detail": detail}


# ---------------------------------------------------------------------------
# symbolic


def symbolic_pass(cr, inputs, ctx: Context) -> list[dict]:
    seed = ctx.seed
    results = []
    systems = {}
    for case in cases.LADDER:
        def work(case=case):
            result = analyse(cr, inputs["matrices"][case], seed)
            systems[case] = result["systems"]
            return result
        results.append(timed_case(ctx, case, work,
                                  lambda result, case=case: check_analysis(cr, case, result, seed)))

    def certificates():
        periodic = {s.submersion.dim_out: s.map for s in systems.get("c7-pair", [])}
        return {dim: periodic[int(dim)].iterate(p).is_identity() if int(dim) in periodic else None
                for dim, p in reference()["c7_global_periods"].items()}

    def check_certificates(certified):
        for dim, ok in certified.items():
            require(ok is True, f"c7-pair reduced map of dimension {dim} not certified periodic")
    results.append(timed_case(ctx, "c7-pair:certificates", certificates, check_certificates))
    return results


# ---------------------------------------------------------------------------
# numeric


def closed_form_fixed_points(cr, mp, name: str) -> list:
    """Fixed points of a named reduced map, in the Hermite basis of its lattice.

    In the fixture's classical coordinates they are (r, r) and
    (r, r, sqrt r) for somos5, (g, g) and (g, g, sqrt g^3) for c7-pair,
    with r the plastic number and g the golden ratio.
    """
    r = mp.findroot(lambda t: t**3 - t - 1, mp.mpf("1.3"))
    g = (1 + mp.sqrt(5)) / 2
    case, label, point = {
        "somos5:null2": ("somos5", "null", (r, r)),
        "somos5:casimir3": ("somos5", "casimir", (r, r, mp.sqrt(r))),
        "c7-pair:null2": ("c7-pair", "null", (g, g)),
        "c7-pair:casimir3": ("c7-pair", "casimir1", (g, g, mp.sqrt(g**3))),
    }[name]
    rows = cr.get_fixture(case).exponent(label).entries
    return [canonical_point(mp, to_canonical(cr, rows), point)]


def check_points(mp, psi, p: int, points, precision: int) -> None:
    """Re-evaluate psi^p at each point with 32 more digits."""
    g = psi.iterate(p)
    with mp.workdps(precision + 32):
        tol = mp.mpf(10) ** (-(precision - 30))
        for pp in points:
            image = g.evaluate_mp([mp.mpf(v) for v in pp.point])
            residual = max(abs(a - b) for a, b in zip(image, pp.point))
            require(residual < tol, f"period-{p} point has residual {mp.nstr(residual, 5)}")


def numeric_pass(cr, inputs, ctx: Context) -> list[dict]:
    import mpmath as mp

    counts = ctx.extras.setdefault("period2_counts", {})
    results = []
    for precision, periods in PERIODS.items():
        for name, psi in inputs["maps"].items():
            for p in periods:
                def work(psi=psi, p=p, precision=precision):
                    return cr.find_periodic_points(psi, p, precision=precision, grid=4)

                def check(points, name=name, psi=psi, p=p, precision=precision):
                    if p == 2:
                        counts.setdefault(f"{name}@{precision}", []).append(len(points))
                    else:
                        with mp.workdps(precision + 10):
                            v = inputs["canonical"][name]
                            got = [canonical_point(mp, v, pp.point) for pp in points]
                            require(points_match(mp, got, inputs["fixed_points"][name],
                                                 mp.mpf(10) ** (-(precision - 30))),
                                    "fixed points differ from their closed forms")
                    check_points(mp, psi, p, points, precision)
                results.append(timed_case(ctx, f"{name}:p{p}@{precision}", work, check))
        # The seed picks the leaf (x3, x4) the closed-form orbits start on.
        rng = random.Random(f"closed-form:{ctx.seed}")
        x3, x4 = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        for family, factor, steps in (("principal", 1, 22), ("general", 2, 45)):
            def closed(family=family, factor=factor, steps=steps, precision=precision):
                with mp.workdps(precision):
                    r = cr.plastic_root(precision)
                    lam = factor * mp.sqrt(r)
                    a, b = mp.mpf(x3.numerator) / x3.denominator, mp.mpf(x4.numerator) / x4.denominator
                    start = cr.somos5_constrained_start(a, b, lam, r, precision)
                    orbit = cr.iterate_orbit(inputs["somos5_phi"], start, steps,
                                             mode="float", precision=precision)
                    return cr.verify_closed_form(orbit, family, a, b, lam, r, n_max=20)
            results.append(timed_case(
                ctx, f"closed-form:{family}@{precision}", closed,
                lambda report, family=family: require(report.ok, f"closed form {family} not ok")))
    return results


# ---------------------------------------------------------------------------
# ladder


def ladder_child(cr, clock, case: str, seed: int, quiet=contextlib.nullcontext) -> dict:
    """Body of one ladder case, run in its own process; timed by ``clock``."""
    cli = importlib.import_module(cr.__name__ + ".cli")
    b = cases.ladder_matrix(cr, case)
    begin = clock.read()
    try:
        report = cli.run_pipeline(b, cli.WorkflowConfig(seed=seed))
    except Exception as exc:  # recorded as a failed case
        return {"case": case, "seconds": clock.read() - begin,
                "status": "error", "detail": f"{type(exc).__name__}: {exc}"}
    seconds = clock.read() - begin
    with quiet():
        try:
            check_report(cr, case, report, seed)
            status, detail = "ok", ""
        except Exception as exc:  # a check that cannot read the report fails too
            status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    if report.errors and status == "ok":
        status, detail = "error", f"pipeline errors: {report.errors}"
    return {"case": case, "seconds": seconds, "status": status, "detail": detail}


def check_report(cr, case: str, report, seed: int) -> None:
    ref = reference()["cases"][case]
    n = report.matrix.rows
    discovered = [cr.IntMatrix.from_json_dict(d["matrix"]) for d in report.discovered]
    rows = [[[int(x) for x in row] for row in red["exponents"]] for red in report.reductions]
    lattices = [hnf_key(cr, r, n) for r in rows]
    exponents = dict(zip(lattices, rows))
    check_structure(cr, case, report.period, report.rank, report.map_components,
                    hnf_key(cr, [skew_vector(m) for m in discovered], n * (n - 1) // 2),
                    lattices)
    require(report.presymplectic_invariant is True, "presymplectic form reported not invariant")
    points = spot_points(seed, case, n)
    for red, r in zip(report.reductions, rows):
        require(red["verified"], "reduction not verified")
        check_reduction(report.map_components, r, red["psi"], points)
    require(all(c["verified"] for c in report.chained), "chained reduction not verified")
    if len(report.dynamics) != len(report.reductions):
        raise CheckFailed("a reduced map has no dynamics entry")
    for key, dyn in zip(lattices, report.dynamics):
        if key in ref.get("global_periods", {}):
            require(dyn.get("global_period") == ref["global_periods"][key],
                    f"global period {dyn.get('global_period')} on {dyn['kind']}")
        if key in ref.get("fixed_points", {}):
            import mpmath as mp

            with mp.workdps(40):
                v = to_canonical(cr, exponents[key])
                got = [canonical_point(mp, v, p) for p in dyn.get("fixed_points", [])]
                want = [[mp.mpf(x) for x in p] for p in ref["fixed_points"][key]]
                require(points_match(mp, got, want, mp.mpf(FIXED_POINT_TOL)),
                        f"fixed points of {dyn['kind']}({dyn['dimension']}) differ")


def run_child(cmd, budget: float, trace: bool):
    """Run a child to its end or its budget; returns (stdout, stderr, code, charged).

    ``charged`` is the time until the kill, or None when the child ended in
    time.  A traced child gets SIGTERM and first prints its spans, open
    ones included.  The child never outlives this call.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        try:
            out, err = proc.communicate(timeout=budget)
            return out, err, proc.returncode, None
        except subprocess.TimeoutExpired:
            charged = time.perf_counter() - start
        if trace:
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=TRACE_GRACE_S)
                return out, err, proc.returncode, charged
            except subprocess.TimeoutExpired:
                pass
        proc.kill()
        out, err = proc.communicate()
        return out, err, proc.returncode, charged
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def ladder_pass(run_py: Path, seed: int, trace: bool, only=None,
                between=lambda: None) -> tuple[list, list]:
    """Each case (all, or those in ``only``) in a fresh child, killed at its budget.

    A finished case is timed by the child's work clock; a timed-out case is
    charged the wall time until the kill.  ``between`` runs after each case,
    outside its timing.
    """
    results, dumps = [], []
    for case in only or cases.LADDER:
        cmd = [sys.executable, str(run_py), "--case", case, "--seed", str(seed),
               "--trace", str(int(trace))]
        start = time.perf_counter()
        out, err, code, charged = run_child(cmd, cases.BUDGET_S[case], trace)
        line = out.strip().splitlines()[-1] if out.strip() else ""
        try:
            child = json.loads(line) if line else {}
        except json.JSONDecodeError:
            child = {}
        if "trace" in child:
            dumps.append(child.pop("trace"))
        if charged is not None:
            result = {"case": case, "seconds": charged, "status": "timeout",
                      "detail": f"killed at its {cases.BUDGET_S[case]:g} s budget"}
            if dumps and dumps[-1]["case"] == case:
                result["open"] = dumps[-1]["open"]
        elif code != 0 or "status" not in child:
            result = {"case": case, "seconds": time.perf_counter() - start, "status": "error",
                      "detail": f"child exited {code}: {err.strip()[-300:]}"}
        else:
            result = child
        results.append(result)
        between()
    return results, dumps


def child_main(cr, clock, case: str, seed: int, trace: bool) -> None:
    """Entry of a ladder child: run the case, print one JSON line."""
    # SIGALRM's default action ends the child even if its parent is gone.
    signal.setitimer(signal.ITIMER_REAL, cases.BUDGET_S[case] + TRACE_GRACE_S + 5)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(case)
        tracer.install(cr)

        def on_term(signum, frame):
            sys.stdout.write(json.dumps({"case": case, "trace": tracer.dump()}) + "\n")
            sys.stdout.flush()
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)
    result = ladder_child(cr, clock, case, seed,
                          tracer.paused if tracer else contextlib.nullcontext)
    if tracer is not None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        result["trace"] = tracer.dump()
    print(json.dumps(result))
