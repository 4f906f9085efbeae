"""Dynamics of birational maps: orbits, periodicity, periodic points,
leaf itineraries, and closed-form solution checks.

Exact mode iterates with big rationals and makes exact claims; float mode
uses arbitrary-precision floats (default 64 significant decimal digits)
and reports tolerances.

Periodicity, periodic-point scans and exact itinerary periods run on one
lifted orbit.  Every orbit of a reduced system (phi, pi, psi) is sampled
in the space of its source phi: a start x is drawn there, and the
level's orbit is read as the labels psi^k(pi(x)) = pi(phi^k(x)), so it
follows the cluster map phi (a few monomials per component) instead of
psi (expanded binomial powers).  A bare map f is the lift (f,
identity).  A sampled orbit belongs to phi: phi's orbit mod p from
each start a seed draws is walked once, as far as the longest horizon
asked, and kept on phi until another seed is asked, so period
detection and the scan of every level reduced from phi read one walk.
That orbit is followed in two arithmetics, and each statement says
which one it rests on:

* returns are screened with residues mod a prime (Roberts & Vivaldi,
  PRL 90 (2003) 034102 on orbits over finite fields).  An exact return
  is a return mod p whenever every coordinate and denominator along the
  orbit is a unit mod p, so a step that does not return mod p is a sound
  negative; when a unit test fails, a second prime and then exact
  arithmetic take over for that orbit;
* a return that a scan or an itinerary reports is confirmed on the
  exact rational orbit, computed only as far as it is read when the
  residues cover the orbit (its denominators are then units mod p, so
  not 0).

Global periodicity is certified symbolically, with no exact orbit: the
first returns mod p propose the candidate period c, a sample that does
not return mod p at step d shows that a proper divisor d of c is not a
period, and the certificate is the normal-form identity f^(c) = id,
f^(c) formed by repeated squaring.  What the
residues cannot decide is confirmed on the exact orbit, as returns are
elsewhere.  So every verdict equals the one exact iteration would give.
Degree growth is not read off orbits: it is exact, from the exchange
matrix (``quiver.degree_growth``).

Exact and float orbits, Newton steps and interval enclosures evaluate
the map by the kernel of ``maps``: ``_step`` on the map's cached
compiled terms, which runs ``laurent._terms`` or, once the compiled map
is hot, the straight-line step generated from them, with the same bits.
Only the residue screen has its own arithmetic, as units mod p with
explicit inverses are not a number type of the kernel: steps generated
once per map and prime make one inversion per step, with inverses
carried along the orbit (5-8 us a step on the ladder cluster maps).

Periodic points are located by damped Newton on the compiled map:
f^(p)(x) is p steps of f, its Jacobian the chain-rule product of J_f
along those steps, so the composite f^(p) is never formed.  Once the
compiled map is hot, f^(p)(x) - x, J(f^(p)) - I and the linear solve
run as straight-line code generated from their references, with their
bits (``_newton_kernel``).  Each start
runs in hardware floats until the residual max|f^(p)(x) - x| is below
1e-10 or the floats stop, and continues at the working precision from
the last float iterate: one Newton trajectory per start.  There a step
must also lower the acceptance residual, below tol exactly when the
residual test and its relative form both hold, and the run stops on it;
each point is evaluated by value first, and J(f^(p)) is formed only
where another step follows.  Copies of one root are merged, and the
``mpf`` distance test of a pair runs only when their ``float`` images
cannot prove them apart (``_apart``).  Each point found gets a candidate
box; when a later start's float run converges in it, Krawczyk's test on
``mpmath`` intervals is run once, and a certified box, which holds
exactly one solution, makes every start converging in it a duplicate
with no full-precision run.  A box's ``mpf`` endpoints are built only
when the point's ``float`` image cannot prove an iterate outside it
(``_outside``).

There is one periodic-point search, ``find_periodic_points_over``, on
the fibers of a monomial projection.  A finer level of a flag of
reductions is searched there: a flag projection p with psi_coarse o
p = p o psi_fine carries every fixed point of psi_fine onto a fixed
point of psi_coarse, so the Newton runs start on the fibers p^-1(z)
over the coarse fixed points z only, and the fine list is complete
relative to the coarse one.  ``find_periodic_points`` on a bare map is
the same search over the projection to a point, whose one fiber is the
whole space and whose starts are the plain grid.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, product
from math import inf, lcm

import mpmath as mp
from mpmath.ctx_iv import MPIntervalContext

from .geometry import ReducedSystem
from .intlinalg import IntMatrix, kernel_lattice, right_inverse
from .laurent import _to_mpf
from .maps import BirationalMap, MonomialMap, random_positive_point, rng_substream
from .maps import (_LIBMPF, _LIBMPF_NAMES, _MPF, _PYTHON, _RAW, _Numbers, _Spelling, _boxed,
                   _hot_steps, _libmpf, _modular_source, _raw, _step)

__all__ = [
    "DynamicsError",
    "DEFAULT_PRECISION",
    "Orbit",
    "PeriodReport",
    "PeriodicPoint",
    "LeafItinerary",
    "ScanReport",
    "ClosedFormReport",
    "iterate_orbit",
    "orbit_sequence",
    "detect_global_periodicity",
    "find_periodic_points",
    "find_periodic_points_over",
    "leaf_itinerary",
    "first_integral_check",
    "no_periodic_points_scan",
    "verify_closed_form",
    "somos5_constrained_start",
    "plastic_root",
    "golden_ratio",
]

DEFAULT_PRECISION = 64
# Least working precision of the periodic-point search: below it the merge
# radius max(10^-(P/2), 100 tol) of ``find_periodic_points`` is 10^(26-P),
# at least 10^-3 (and at least 1 up to 26 digits), so distinct points merge.
MIN_SEARCH_PRECISION = 30


class DynamicsError(RuntimeError):
    """Orbit iteration or root finding failed; message records the step."""


# ---------------------------------------------------------------------------
# Orbits


@dataclass(frozen=True)
class Orbit:
    """points[0] = start; points[k+1] = map(points[k])."""

    map: BirationalMap
    start: tuple
    points: tuple
    mode: str
    precision: int | None = None

    def __len__(self) -> int:
        return len(self.points)


def iterate_orbit(
    f: BirationalMap,
    x0,
    n: int,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
) -> Orbit:
    """Iterate f for n steps from x0.

    Exact mode keeps rational coordinates (`BirationalMap.evaluate`);
    float mode evaluates with `precision` significant decimal digits
    (`evaluate_mp`), by the same stepping loop.  A vanishing denominator
    raises DynamicsError naming the failing step.
    """
    if f.dim_out != f.dim_in:
        raise DynamicsError("orbits require a self-map")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    with nullcontext() if exact else mp.workdps(precision):
        convert, step_map = (Fraction, f.evaluate) if exact else (_to_mpf, f.evaluate_mp)
        points = [tuple(convert(v) for v in x0)]
        for step in range(n):
            try:
                points.append(tuple(step_map(points[-1])))
            except ZeroDivisionError as exc:
                raise DynamicsError(f"denominator vanished at step {step + 1}") from exc
    return Orbit(f, points[0], tuple(points), mode, None if exact else precision)


def orbit_sequence(orbit: Orbit) -> list:
    """The scalar sequence of a shift-like orbit.

    For a map whose first N-1 components shift the window (as cluster
    maps of 1-periodic quivers do), the orbit encodes the sequence
    x_1, x_2, ...: the full first window followed by the last coordinate
    of each subsequent point.
    """
    seq = list(orbit.points[0])
    for p in orbit.points[1:]:
        seq.append(p[-1])
    return seq


# ---------------------------------------------------------------------------
# The lifted orbit engine

# Primes of the residue screen, tried in this order (both Mersenne primes).
SCREEN_PRIMES = (2**61 - 1, 2**89 - 1)


def _inverses_mod(xs, p: int) -> list[int]:
    """[pow(v, -1, p) for v in xs] with one modular inversion (Montgomery,
    Math. Comp. 48 (1987)): invert the product of all, then peel off one
    factor at a time by the prefix products.  Every v must be a unit."""
    prefix = [1]
    for v in xs:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * xs[i] % p
    return out


@cache
def _residues(p: int) -> _Numbers:
    """Residues mod the prime p as a number type of the map compiler; a
    rational whose denominator is not a unit converts to None."""

    def residue(q):
        q = Fraction(q)
        den = q.denominator % p
        return q.numerator * pow(den, -1, p) % p if den else None

    return _Numbers(0, 1, residue, lambda: ("mod", p))


def _modular(f, p: int, carry: bool):
    """f's step mod p (`_modular_source`), built once and cached on f
    compiled mod p; None when a coefficient is not a unit mod p."""
    compiled = f._compiled(_residues(p))
    if compiled is None:
        return None
    kernels = compiled.modular = compiled.modular or [None, None]
    if kernels[carry] is None:
        names = {}
        exec(compile(_modular_source(compiled.components, p, carry), "<map mod p>", "exec"), names)
        kernels[carry] = names["step"]
    return kernels[carry]


def _residue_orbit(phi: BirationalMap, x0, steps: int, p: int, walks: dict | None = None):
    """(points, inverses): x_k = phi^k(x0) and its coordinatewise inverse
    mod p for k = 0..steps, or None.

    None when a coordinate of the rational start x0, a coefficient, a
    component numerator or denominator is not a unit mod p by step
    steps: only while all of them are units are the residues those of
    the exact orbit.  A step is phi's generated step (`_modular`): one
    inversion, inverses carried along the orbit; the start takes one.

    walks, when given, keeps the walk from x0 mod p (under p and x0's
    numerators and denominators), which is only walked on past its last
    step: the residues up to a horizon are a prefix of those up to any
    longer one, so every orbit of phi from x0 shares one walk.  The step
    at which the walk leaves the units holds None, and every horizon
    from there on is None.
    """
    step = _modular(phi, p, True)
    if step is None:
        return None
    walks = {} if walks is None else walks
    # ints, whose hash takes no modular inverse as a Fraction's does
    start = tuple((v.numerator, v.denominator) for v in x0)
    walk = walks.get((p, start))
    if walk is None:
        nums = [n % p for n, _ in start]
        dens = [d % p for _, d in start]
        walk = [None], [None]  # a start that is not in the units
        if all(nums) and all(dens):
            inv = _inverses_mod(nums + dens, p)
            walk = ([tuple(n * i % p for n, i in zip(nums, inv[len(nums):]))],
                    [[d * i % p for d, i in zip(dens, inv)]])
        walks[p, start] = walk
    points, inverses = walk
    while len(points) <= steps and points[-1] is not None:
        x, inv = step(points[-1], inverses[-1]) or (None, None)
        points.append(x)
        inverses.append(inv)
    if len(points) <= steps or points[steps] is None:
        return None
    return points[:steps + 1], inverses[:steps + 1]


class _LiftedOrbit:
    """x_k = phi^k(x0) for k = 0..steps, each arithmetic computed on first use.

    start is x0; the labels of a reduced system's orbit are pi(x_k) =
    psi^k(pi(x0)).  residues: (p, points, inverses) for the first screen
    prime that keeps the orbit in units mod p up to step steps, or None,
    read off the walk from x0 mod p in walks (`_residue_orbit`), which
    the orbits of every horizon from x0 share, or off a walk of its own
    without walks (one inversion for the start and one per step walked,
    inverses carried along the orbit); exact(k): the exact rational
    point, from ``iterate_orbit``.
    """

    def __init__(self, phi: BirationalMap, start, steps: int, walks: dict | None = None) -> None:
        self.phi = phi
        self.steps = steps
        self.start = tuple(Fraction(v) for v in start)
        self.walks = walks
        self._exact = [self.start]

    @cached_property
    def residues(self):
        for p in SCREEN_PRIMES:
            orbit = _residue_orbit(self.phi, self.start, self.steps, p, self.walks)
            if orbit is not None:
                return (p, *orbit)
        return None

    def exact(self, k: int) -> tuple:
        """x_k.  With residues, every numerator and denominator along the
        orbit is a unit mod p, so not 0: the exact orbit is computed as
        far as k, and extended on a later call.  Without them the first
        call past x0 computes the whole exact orbit, so an orbit that
        leaves the domain raises DynamicsError there."""
        points = self._exact
        if k >= len(points):
            horizon = k if self.residues is not None else self.steps
            points += iterate_orbit(self.phi, points[-1], horizon + 1 - len(points)).points[1:]
        return points[k]

    def label(self, pi: MonomialMap | None, k: int) -> tuple:
        """The exact label pi(x_k); pi None is the identity."""
        x = self.exact(k)
        return x if pi is None else pi.evaluate(x)

    def label_residues(self, pi: MonomialMap | None):
        """pi(x_k) mod p for k = 0..steps, or None without residues."""
        if self.residues is None:
            return None
        p, points, inverses = self.residues
        if pi is None:
            return points
        label = _modular(pi, p, False)
        return [label(x, inv) for x, inv in zip(points, inverses)]


class _Lift:
    """psi^k(pi(x)) = pi(phi^k(x)) for a reduced system (phi, pi, psi).

    The orbits are sampled in phi's space and labelled by pi.  A bare map
    f, or a reduced system without its source, is the lift (f, identity).
    A sampled orbit belongs to phi: its walk mod p is kept on phi for the
    seed that drew its start, so every level reduced from phi, and period
    detection and the scan of each, read one set of phi-orbits.
    """

    def __init__(self, f) -> None:
        self.psi = f.map if isinstance(f, ReducedSystem) else f
        if self.psi.dim_out != self.psi.dim_in:
            raise DynamicsError("orbits require a self-map")
        self.phi, self.pi = self.psi, None
        if isinstance(f, ReducedSystem) and f.source is not None:
            self.phi, self.pi = f.source, f.submersion.map

    def orbits(self, m: int, samples: int, seed):
        """The orbits of m steps from the sampled starts x0 of
        ``rng_substream(seed, i)``, i = 0..samples-1, in phi's space, each
        made when drawn.  Their walks mod p are kept on phi for the last
        seed asked, so that every level of phi and every stage reads one
        walk from each start, and a new seed drops the walks of the last."""
        seeded = self.phi._cache.get("walks")
        if seeded is None or seeded[0] != seed:
            seeded = self.phi._cache["walks"] = seed, {}
        for i in range(samples):
            x0 = random_positive_point(self.phi.dim_in, rng_substream(seed, i))
            yield _LiftedOrbit(self.phi, x0, m, seeded[1])

    def first_returns(self, m: int, samples: int, seed):
        """(orbit, least k <= m with psi^k(y0) = y0, or None) for the
        orbits of ``orbits``, y0 = pi(x0) their start labels; y0 is
        computed only to confirm a return mod p."""
        for orbit in self.orbits(m, samples, seed):
            yield orbit, next(_returns(orbit, self.pi, m), None)


def _returns(orbit: _LiftedOrbit, pi: MonomialMap | None, m: int):
    """The steps k = 1..m with pi(x_k) = pi(x_0), in increasing order.

    A step whose label does not return mod p cannot return exactly, so it
    is skipped; every step that returns mod p is confirmed on the exact
    orbit, against the exact start label, which only such a step computes.
    Without residues every step is checked on the exact orbit.
    """
    screened = orbit.label_residues(pi)
    start = None
    for k in range(1, m + 1):
        if screened is not None and screened[k] != screened[0]:
            continue
        if start is None:
            start = orbit.label(pi, 0)
        if orbit.label(pi, k) == start:
            yield k


# ---------------------------------------------------------------------------
# Global periodicity


@dataclass(frozen=True)
class PeriodReport:
    """kind "global": f^(period) = id certified symbolically, and no
    proper divisor of period is a period.
    kind "none": no global period up to p_max.  The negative rests on a
    sampled orbit with no return within p_max steps (no return mod p is
    a sound negative), on first returns whose lcm passes p_max, on an
    orbit that left the domain, or on a candidate that failed the
    symbolic certificate; see note.  certificate is "symbolic" or
    "sampled" accordingly."""

    kind: str
    period: int | None
    p_max: int
    certificate: str
    samples: int
    note: str = ""

    @property
    def is_periodic(self) -> bool:
        return self.kind == "global"


def detect_global_periodicity(
    f: BirationalMap | ReducedSystem,
    p_max: int = 12,
    samples: int = 25,
    seed: int = 0,
) -> PeriodReport:
    """Certified minimal global period up to p_max, or a negative report.

    f is a map, or a reduced system whose orbits are sampled in the
    space of its source map and labelled by pi.  The sampled orbits are
    followed mod p only: the first sample with no return mod p within
    p_max steps is a sound negative, as an exact return is a return mod
    p while the orbit stays in units.  Otherwise the candidate c is the
    lcm of the first returns mod p.  It is minimal when, for every proper
    divisor d of c, some sample's label mod p at step d is not its
    start, and certified by f^(c) = id in normal form, with f^(c) formed
    by repeated squaring.  So c is a period and no proper divisor of c
    is one.

    What the residues cannot decide (a sample with no screen prime, an
    lcm above p_max, a return mod p at every sample's step d, a failed
    certificate) goes to ``_confirmed_period``, which confirms every
    return on the exact orbit and gives the report of exact iteration.
    samples < 1 raises DynamicsError.
    """
    if samples < 1:
        raise DynamicsError("periodicity detection needs at least one sampled orbit")
    lift = _Lift(f)
    sampled = lift.orbits(p_max, samples, seed)
    orbits, screens, candidate = [], [], 1
    for orbit in sampled:
        orbits.append(orbit)
        screened = orbit.label_residues(lift.pi)
        if screened is None:
            break
        first_return = next((k for k in range(1, p_max + 1) if screened[k] == screened[0]), None)
        if first_return is None:
            return PeriodReport("none", None, p_max, "sampled", samples)
        candidate = lcm(candidate, first_return)
        if candidate > p_max:
            break
        screens.append(screened)
    else:
        minimal = all(any(s[d] != s[0] for s in screens)
                      for d in range(1, candidate) if candidate % d == 0)
        if minimal and lift.psi.iterate(candidate).is_identity():
            return PeriodReport("global", candidate, p_max, "symbolic", samples)
    return _confirmed_period(lift, chain(orbits, sampled), p_max, samples)


def _confirmed_period(lift: _Lift, orbits, p_max: int, samples: int) -> PeriodReport:
    """The report of exact iteration on the sampled orbits.

    The candidate is the lcm of the exact first returns (screened mod p,
    confirmed on the exact orbit), and it is certified by f^(c) = id in
    normal form, with f^(c) formed by repeated squaring
    (``BirationalMap.iterate``).  Minimality is automatic: any global
    period is a multiple of every observed first-return time.
    """
    candidate = 1
    try:
        for orbit in orbits:
            first_return = next(_returns(orbit, lift.pi, p_max), None)
            if first_return is None:
                return PeriodReport("none", None, p_max, "sampled", samples)
            candidate = lcm(candidate, first_return)
            if candidate > p_max:
                return PeriodReport("none", None, p_max, "sampled", samples)
    except DynamicsError:
        return PeriodReport("none", None, p_max, "sampled", samples, "an orbit left the domain")
    if lift.psi.iterate(candidate).is_identity():
        return PeriodReport("global", candidate, p_max, "symbolic", samples)
    return PeriodReport(
        "none",
        None,
        p_max,
        "sampled",
        samples,
        f"sampled candidate {candidate} failed the symbolic identity check",
    )


def first_integral_check(f: BirationalMap, pi: MonomialMap, p: int) -> bool:
    """Symbolic check that pi o f^(p) = pi.

    True exactly when every component of pi is invariant under the p-th
    iterate, i.e. pi is a vector-valued first integral of f^(p).  The
    composition proceeds one step at a time so intermediate expressions
    stay in reduced normal form.
    """
    if pi.dim_in != f.dim_in or f.dim_out != f.dim_in:
        raise DynamicsError("dimension mismatch in first-integral check")
    comps = list(pi.components())
    f_comps = list(f.components)
    for _ in range(p):
        comps = [c.compose(f_comps) for c in comps]
    return comps == list(pi.components())


# ---------------------------------------------------------------------------
# Periodic points (numeric, low dimension)


@dataclass(frozen=True)
class PeriodicPoint:
    """Numerically located solution of f^(p)(x) = x with minimal period p.

    When the solutions of f^(p)(x) = x form a curve rather than isolated
    points, J(f^(p)) - I is singular along it and a point is one sample
    of that curve, not an isolated periodic point.
    """

    point: tuple
    residual: object
    period: int
    precision: int


_FLOAT = _Numbers(0.0, 1.0, float, lambda: "float")


@cache
def _interval_context(prec: int) -> MPIntervalContext:
    """A private mpmath.iv context at prec bits, so callers' iv precision
    is untouched, and an mpf of prec bits converts to it exactly."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _intervals() -> _Numbers:
    """Outward-rounded intervals at the working precision, for the map kernel."""
    ctx = _interval_context(mp.mp.prec)

    def enclose(q):
        q = Fraction(q)
        return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)

    return _Numbers(ctx.mpf(0), ctx.mpf(1), enclose, lambda: ("iv", ctx.prec))


# Newton runs in floats until max|f^p(x) - x| is below this, about the
# square root of the float unit roundoff; from there each full-precision
# step roughly doubles the correct digits.
_HANDOFF = 1e-10
# Newton steps per start, shared by its float and full-precision phases.
_MAX_ITER = 120
# Periodic-point starts form a grid over this box in every fiber coordinate.
_START_BOX = (Fraction(1, 2), Fraction(3))


def _residual_tol(precision: int):
    """10^-(precision - 24): the residual and relative-error tolerance at a
    working precision, as an mpf at the current one."""
    return mp.mpf(10) ** (-(precision - 24))


def _power(comps, x, p: int, jacobian: bool = False, num: _Numbers = _MPF):
    """(g(x), J_g(x) or None) for g = f^p, by stepping f p times; J_g is the
    chain-rule product J_f(x_(p-1)) ... J_f(x_0) along the same steps,
    each entry summed from zero."""
    ops = num.arithmetic(0)
    jac = None
    for _ in range(p):
        x, step = _step(comps, x, jacobian, num)
        if jacobian:
            jac = step if jac is None else [
                [reduce(ops.add, map(ops.mul, row, col), num.zero) for col in zip(*jac)]
                for row in step
            ]
    return x, jac


def _less_identity(jac, num: _Numbers) -> list:
    """J - I for a square list of rows J: the Jacobian of F = f^p - id.
    Only the diagonal is subtracted from: v - 0 is v, bit for bit, in
    every number type."""
    sub = num.arithmetic(0).sub
    return [[sub(v, num.one) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(jac)]


_SINGULAR = "matrix is numerically singular"


def _lu_solve(a, b, num: _Numbers = _MPF) -> list:
    """x with a x = b for a square list of rows a, as ``mpmath.lu_solve``.

    The same Gaussian elimination with 10 extra bits (num's arithmetic at
    the working precision + 10; mpf objects run as ``_RAW`` values): the
    pivot of column j is the row k >= j with the largest |a_kj| /
    sum_(l >= j) |a_kl|, and a row sum or pivot at most mnorm(a, 1) eps
    raises ZeroDivisionError ("numerically singular").  A column that is
    zero from row j down is singular too, where ``mpmath.lu_solve``
    raises TypeError.  Floats have eps 2^-52 and no extra bits.
    """
    boxed = num is _MPF
    if boxed:
        a, b, num = [_raw(row) for row in a], _raw(b), _RAW
    ops = num.arithmetic(10)
    add, sub, mul, div, absolute, gt = ops.add, ops.sub, ops.mul, ops.div, ops.abs, ops.gt
    n = len(a)
    a = [list(row) for row in a]
    x = list(b)
    tol = mul(ops.eps, ops.max([ops.abs_sum([row[j] for row in a]) for j in range(n)]))

    def check(value):
        if ops.le(absolute(value), tol):
            raise ZeroDivisionError(_SINGULAR)

    for j in range(n - 1):
        biggest, pivot = num.zero, None
        for k in range(j, n):
            s = ops.abs_sum(a[k][j:])
            check(s)
            current = mul(div(num.one, s), absolute(a[k][j]))
            if gt(current, biggest):
                biggest, pivot = current, k
        if pivot is None:
            raise ZeroDivisionError(_SINGULAR)
        a[j], a[pivot] = a[pivot], a[j]
        x[j], x[pivot] = x[pivot], x[j]
        check(a[j][j])
        for i in range(j + 1, n):
            a[i][j] = div(a[i][j], a[j][j])
            for k in range(j + 1, n):
                a[i][k] = sub(a[i][k], mul(a[i][j], a[j][k]))
    check(a[n - 1][n - 1])
    for i in range(1, n):
        for j in range(i):
            x[i] = sub(x[i], mul(a[i][j], x[j]))
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] = sub(x[i], mul(a[i][j], x[j]))
        x[i] = div(x[i], a[i][i])
    return _boxed(x) if boxed else x


def _acceptance_residual(diff, x, num: _Numbers = _MPF):
    """max_i |diff_i| / min(1, x_i) for positive x: below tol exactly when
    both max|diff_i| < tol and max_i |diff_i| / x_i < tol, also rounded,
    as dividing by 1 is exact and rounding keeps order."""
    ops, one = num.arithmetic(0), num.one
    return ops.max([ops.div(ops.abs(d), v if ops.lt(v, one) else one) for d, v in zip(diff, x)])


def _kernel(comps, p: int, n: int, num: _Numbers):
    """(system, solve) of the Newton runs of f^p on points of n coordinates
    in num's type (floats or ``_RAW``), f compiled as comps.

    system(x, jacobian) is (f^p(x) - x, residuals, J(f^p)(x) - I or
    None); residuals is (max|f^p(x) - x|,) in floats and adds the
    acceptance residual r(x) otherwise.  solve(a, b) is ``_lu_solve``.
    While comps is cold they are `_power`, `_less_identity`,
    `_acceptance_residual` and `_lu_solve`; once hot, the straight-line
    code `_newton_kernel` generated for n and the working precision, on
    comps's generated steps, with the same bits and the same exceptions.
    """
    steps = _hot_steps(comps, n, num)
    if steps is not None:
        make, solve = _newton_kernel(n, None if num is _FLOAT else mp.mp.prec)
        return make(steps, p), solve
    ops = num.arithmetic(0)

    def system(x, jacobian):
        image, jac = _power(comps, x, p, jacobian, num)
        diff = [ops.sub(image[i], x[i]) for i in range(n)]
        res = (ops.max([ops.abs(d) for d in diff]),)
        if num is not _FLOAT:
            res += (_acceptance_residual(diff, x, num),)
        return diff, res, jac and _less_identity(jac, num)

    return system, lambda a, b: _lu_solve(a, b, num)


def _maximum(name: str, values, gt) -> list[str]:
    """Lines setting name to the first largest of values, as `max` and
    `_Arithmetic.max` take it, with the comparison gt."""
    lines = [f"{name} = {values[0]}"]
    for v in values[1:]:
        lines += [f"if {gt(v, name)}:", f"    {name} = {v}"]
    return lines


def _rows(name: str, n: int) -> str:
    """The n x n locals name0_0, name0_1, ... as a target of rows."""
    return "".join(f"({''.join(f'{name}{i}_{k}, ' for k in range(n))}), " for i in range(n))


def _system_source(n: int, spell: _Spelling, acceptance: bool) -> str:
    """Python source of ``make(steps, p)``, whose result is the system of
    `_kernel` for f^p at points of n coordinates, on f's generated steps
    [by value, with the Jacobian], written as spell has it; with
    acceptance, the residuals add r(x).  Each entry of the chain-rule
    product is the left fold from zero of `_power`, and a maximum keeps
    the first largest value."""
    add, sub, mul, div, absolute, lt, gt = (
        form.format for form in (spell.add, spell.sub, spell.mul, spell.div, spell.abs,
                                 spell.lt, spell.gt))
    idx = range(n)
    product = ", ".join(reduce(add, [mul(f"s{i}_{m}", f"j{m}_{k}") for m in idx], "zero")
                        for i in idx for k in idx)
    body = ["run = steps[jacobian]", "y, rows = run(x)", "if jacobian:",
            f"    {_rows('j', n)}= rows", "for _ in range(1, p):", "    y, rows = run(y)",
            "    if jacobian:", f"        {_rows('s', n)}= rows",
            f"        {', '.join(f'j{i}_{k}' for i in idx for k in idx)} = {product}",
            f"{''.join(f'x{i}, ' for i in idx)}= x", f"{''.join(f'y{i}, ' for i in idx)}= y"]
    body += [f"d{i} = {sub(f'y{i}', f'x{i}')}" for i in idx]
    body += [f"e{i} = {absolute(f'd{i}')}" for i in idx]
    body += _maximum("m", [f"e{i}" for i in idx], gt)
    res = "(m,)"
    if acceptance:
        body += [f"q{i} = {div(f'e{i}', '(x{0} if {1} else one)'.format(i, lt(f'x{i}', 'one')))}"
                 for i in idx]
        body += _maximum("r", [f"q{i}" for i in idx], gt)
        res = "(m, r)"
    diff = f"[{', '.join(f'd{i}' for i in idx)}]"
    less = ", ".join("[" + ", ".join(sub(f"j{i}_{k}", "one") if i == k else f"j{i}_{k}"
                                     for k in idx) + "]" for i in idx)
    body += ["if not jacobian:", f"    return {diff}, {res}, None",
             f"return {diff}, {res}, [{less}]"]
    return ("def make(steps, p):\n    def system(x, jacobian):\n"
            + "".join(f"        {line}\n" for line in body) + "    return system\n")


def _solve_source(n: int, spell: _Spelling) -> str:
    """Python source of ``solve(a, b)``: `_lu_solve` for n equations as
    straight-line code, written as spell has it, with the globals eps,
    zero, one and SINGULAR; the pivot search compares as it does, a row
    exchange swaps the locals of the two rows, and each absolute sum is
    the abs_sum of the type's `_Arithmetic` (``sum`` for floats, as in
    the reference, and ``mpf_sum`` for mpf)."""
    sub, mul, div, absolute, le, gt, abs_sum = (
        form.format for form in (spell.sub, spell.mul, spell.div, spell.abs, spell.le, spell.gt,
                                 spell.abs_sum))
    idx = range(n)
    a = [[f"a{i}_{k}" for k in idx] for i in idx]

    def check(value: str) -> list[str]:
        return [f"if {le(absolute(value), 'tol')}:", "    raise ZeroDivisionError(SINGULAR)"]

    lines = [f"{_rows('a', n)}= a", f"{''.join(f'x{i}, ' for i in idx)}= b"]
    lines += [f"t{k} = {abs_sum(', '.join(row[k] for row in a))}" for k in idx]
    lines += [*_maximum("tol", [f"t{k}" for k in idx], gt), f"tol = {mul('eps', 'tol')}"]
    for j in range(n - 1):
        lines.append("big, pivot = zero, None")
        for k in range(j, n):
            lines += [f"s = {abs_sum(', '.join(a[k][j:]))}", *check("s"),
                      f"c = {mul(div('one', 's'), absolute(a[k][j]))}",
                      f"if {gt('c', 'big')}:", f"    big, pivot = c, {k}"]
        lines += ["if pivot is None:", "    raise ZeroDivisionError(SINGULAR)"]
        for k in range(j + 1, n):
            here, there = [*a[j], f"x{j}"], [*a[k], f"x{k}"]
            lines += [f"{'if' if k == j + 1 else 'elif'} pivot == {k}:",
                      f"    {', '.join(here + there)} = {', '.join(there + here)}"]
        lines += check(a[j][j])
        for i in range(j + 1, n):
            lines.append(f"{a[i][j]} = {div(a[i][j], a[j][j])}")
            lines += [f"{a[i][k]} = {sub(a[i][k], mul(a[i][j], a[j][k]))}"
                      for k in range(j + 1, n)]
    lines += check(a[n - 1][n - 1])
    lines += [f"x{i} = {sub(f'x{i}', mul(a[i][j], f'x{j}'))}" for i in idx for j in range(i)]
    for i in reversed(idx):
        lines += [f"x{i} = {sub(f'x{i}', mul(a[i][j], f'x{j}'))}" for j in range(i + 1, n)]
        lines.append(f"x{i} = {div(f'x{i}', a[i][i])}")
    lines.append(f"return [{', '.join(f'x{i}' for i in idx)}]")
    return "def solve(a, b):\n" + "".join(f"    {line}\n" for line in lines)


@cache
def _newton_kernel(n: int, prec: int | None) -> tuple:
    """(make, solve) of `_system_source` and `_solve_source` for points of
    n coordinates, built once: in floats for prec None, else as libmpf
    calls on raw values at prec bits, the solve at prec + 10 as
    `_lu_solve`'s.  Both make the reference's operations on the same
    operands in the same order, by the rules of `maps._source`, so their
    results and exceptions are the reference's bit for bit."""
    num, spell = (_FLOAT, _PYTHON) if prec is None else (_RAW, _LIBMPF)

    def built(source: str, extra: int) -> dict:
        ops = _FLOAT.arithmetic(0) if prec is None else _libmpf(prec + extra)
        scope = {"eps": ops.eps, "zero": num.zero, "one": num.one, "SINGULAR": _SINGULAR}
        if prec is not None:
            scope.update(_LIBMPF_NAMES, prec=prec + extra)
        exec(compile(source, "<newton kernel>", "exec"), scope)
        return scope

    return (built(_system_source(n, spell, prec is not None), 0)["make"],
            built(_solve_source(n, spell), 10)["solve"])


def _newton_solve(comps, p: int, start, tol, max_iter: int, num: _Numbers = _MPF):
    """Damped Newton for f^p(x) = x from start, in num's number type (f
    compiled, and start given, in that type).

    Every run of a periodic-point start goes through here: in floats
    down to the hand-off residual, then in ``mpf`` down to tol.  Each
    step solves (J(f^p) - I) dx = x - f^p(x) and halves dx until x + dx
    stays positive and lowers max|f^p(x) - x| and, in ``mpf``, also the
    acceptance residual r(x) of ``_acceptance_residual``.  The run stops
    when r, in floats max|f^p(x) - x|, is below tol; a run that creeps
    towards a coordinate 0 lowers max|f^p(x) - x| but raises r, so it
    stops at its first step.  f^p, its Jacobian and the solve are those
    of `_kernel`: the reference while f is cold, generated code once it
    is hot.  In floats the full step is evaluated with its Jacobian and
    a halved one by value only.  In ``mpf`` every point, the start and
    the full step too, is evaluated by value first, and J(f^p) is formed
    at an accepted point only when another step follows, so a run that
    converges never forms the Jacobian at its last point; at a positive
    point a step with the Jacobian fails only where one by value does,
    on the same denominators.  Returns (x, f^p(x) - x, r(x) or in floats
    max|f^p(x) - x|, steps taken) for the last iterate x, the first below
    tol or the one where Newton stopped (a singular system, no descent
    after 40 halvings, max_iter steps spent): the caller tests it.  A
    start outside the domain gives (start, None, inf, 0).  Only a start
    can have a non-finite residual: an inf or nan one never descends.  A
    float overflow raises OverflowError.  An mpf run computes on the
    ``_RAW`` values of start and tol, and returns mpf objects.
    """
    boxed = num is _MPF
    if boxed:
        start, tol, num = _raw(start), tol._mpf_, _RAW
    ops = num.arithmetic(0)
    add, mul, div, lt = ops.add, ops.mul, ops.div, ops.lt
    one, two = num.one, add(num.one, num.one)
    n = len(start)
    x = list(start)
    system, solve = _kernel(comps, p, n, num)
    full = num is _FLOAT  # whether a full step is evaluated with its Jacobian
    try:
        fvec, res, jac = system(x, full)
    except (ZeroDivisionError, ValueError):
        return tuple(_boxed(x) if boxed else x), None, inf, 0
    steps = 0
    while steps < max_iter and not lt(res[-1], tol):
        if jac is None:
            jac = system(x, True)[2]
        try:
            step = solve(jac, [ops.neg(v) for v in fvec])
        except ZeroDivisionError:
            break
        damping = one
        for halvings in range(40):
            trial = [add(x[i], mul(damping, step[i])) for i in range(n)]
            damping = div(damping, two)
            if all(ops.gt(v, num.zero) for v in trial):
                try:
                    tvec, tres, tjac = system(trial, full and halvings == 0)
                except (ZeroDivisionError, ValueError):
                    continue
                # r alone would accept steps that raise max|f^p(x) - x|
                # where a coordinate is below 1, and move the samples of
                # a curve of periodic points (psi_1, p = 2)
                if all(lt(t, r) for t, r in zip(tres, res)):
                    x, fvec, res, jac = trial, tvec, tres, tjac
                    break
        else:
            break
        steps += 1
    if boxed:
        return tuple(_boxed(x)), _boxed(fvec), mp.make_mpf(res[-1]), steps
    return tuple(x), fvec, res[-1], steps


def _periodic_point_newton(comps, fcomps, p: int, start, tol, known):
    """The ``_newton_solve`` result of the run from start at the working
    precision (comps), or None when the start duplicates a known point.

    Newton runs in floats (fcomps) until the residual is below
    ``_HANDOFF`` or the floats stop, then continues at the working
    precision from the last float iterate with the iterations left: one
    trajectory per start.  A float phase that took no step or overflowed,
    and a map with no float compilation, leave the whole run to the
    working precision from start.  When the float run converged and
    known(x) holds for its iterate x, the start duplicates a point
    already found: None, with no full-precision run.
    """
    used = 0
    if fcomps is not None:
        try:
            rough, _, res, used = _newton_solve(
                fcomps, p, [float(v) for v in start], _HANDOFF, _MAX_ITER, _FLOAT
            )
        except OverflowError:
            pass
        else:
            if res < _HANDOFF and known(rough):
                return None
            if used:
                start = [mp.mpf(v) for v in rough]
    return _newton_solve(comps, p, start, tol, _MAX_ITER - used)


# Half-width of the candidate uniqueness box around a found point y, in
# units of max(1, |y_i|).  It is wide enough to hold the float iterates
# of later starts bound for y (residual below _HANDOFF) and narrow enough
# that J(f^p) varies little over it, which Krawczyk's test needs.
_BOX_RADIUS = 1e-6


def _candidate_box(point) -> list:
    """[(lo, hi)]: the mpf endpoints of the box of half-width
    _BOX_RADIUS max(1, |y_i|) around point."""
    box = []
    for y in point:
        radius = _BOX_RADIUS * max(1, abs(y))
        box.append((y - radius, y + radius))
    return box


def _outside(rough, image) -> bool:
    """Whether the float image u of a found point y proves the float
    iterate v = rough outside y's candidate box at a working precision of
    at least 99 bits: whether |v_i - u_i| > 2 _BOX_RADIUS (1 + |u_i| +
    |v_i|) in floats for some i.

    Proof.  With R = _BOX_RADIUS (the float, within 10^-12 of 10^-6), the
    box's endpoints y_i -+ R max(1, |y_i|), each rounded twice at 99 bits
    or more, lie within W = 1.0001 10^-6 max(1, |y_i|) of y_i, so v_i is
    outside when |v_i - y_i| > W.  float() rounds y_i to nearest, so
    |u_i - y_i| <= 2^-53 |y_i| + 2^-1075.  Each float operation of the
    test is exact or rounds to nearest, and the bound's sum is at least
    1, so the exact |v_i - u_i| exceeds 2R (1 + |u_i| + |v_i|) (1 -
    2^-53)^4 > 1.9999 10^-6 (1 + |u_i|), and |v_i - y_i| > 1.9999 10^-6
    (1 + |u_i|) - 2^-53 |y_i| - 2^-1075 > 1.9998 10^-6 (1 + |y_i|) > W.
    A difference that overflows is above 2^1023, far beyond W, and an
    inf or nan coordinate makes every comparison false: the box is then
    left to ``mpf``.
    """
    return any(abs(v - u) > 2 * _BOX_RADIUS * (1.0 + abs(u) + abs(v)) for v, u in zip(rough, image))


def _krawczyk(f: BirationalMap, p: int, point, box) -> bool:
    """Whether Krawczyk's test proves that box X holds exactly one zero
    of F = f^p - id (Krawczyk, Computing 4 (1969); Rump, Acta Numerica 19
    (2010)).

    With y the point and Y the ``mpf`` inverse of J_F(y), X is certified
    when K(X) = y - Y F(y) + (I - Y J_F(X)) (X - y) lies in the interior
    of X.  F(y) is enclosed on the degenerate interval [y, y] and J_F(X)
    is the interval chain-rule product of ``_power``, both outward-rounded
    at the working precision; Y need not be exact.  A singular J_F(y), as
    on a curve of period-p points, leaves X uncertified, and so do a
    denominator that may vanish on X and an unbounded enclosure.
    """
    n = len(point)
    iv = _intervals()
    ctx = _interval_context(mp.mp.prec)
    icomps = f._compiled(iv)
    ys = [ctx.mpf(v) for v in point]
    xs = [ctx.mpf([lo, hi]) for lo, hi in box]
    try:
        jac = _less_identity(_power(f._compiled(_MPF), list(point), p, True)[1], _MPF)
        columns = [_lu_solve(jac, [_MPF.one if i == j else _MPF.zero for i in range(n)])
                   for j in range(n)]
        image = _power(icomps, ys, p, False, iv)[0]
        jbox = _less_identity(_power(icomps, xs, p, True, iv)[1], iv)
    except ZeroDivisionError:
        return False
    inverse = [[ctx.mpf(col[i]) for col in columns] for i in range(n)]
    fy = [a - b for a, b in zip(image, ys)]
    for i, row in enumerate(inverse):
        k = ys[i] - sum(row[j] * fy[j] for j in range(n)) + sum(
            ((1 if i == m else 0) - sum(row[j] * jbox[j][m] for j in range(n))) * (xs[m] - ys[m])
            for m in range(n)
        )
        lo, hi = (mp.mpf(end) for end in k._mpi_)
        if not (box[i][0] < lo and hi < box[i][1]):
            return False
    return True


def _close(a, b, merge_tol) -> bool:
    """The merge rule: max_i |a_i - b_i| < merge_tol, in ``mpf``."""
    return max(abs(u - v) for u, v in zip(a, b)) < merge_tol


def _apart(fa, fb, gap: float) -> bool:
    """Whether the float images fa, fb of two points a, b prove
    ``_close(a, b, merge_tol)`` false, for gap = 2 float(merge_tol) and
    merge_tol >= 2^-1000: whether |fa_i - fb_i| > gap + 2^-50 (|fa_i| +
    |fb_i|) in floats for some i.

    Proof.  float() of an mpf c is within 2^-51 |float(c)| + 2^-1073 of c,
    so with S = |fa_i| + |fb_i|, |a_i - b_i| >= |fa_i - fb_i| - 2^-51 S -
    2^-1072.  Each float operation of the test is exact or rounds to
    nearest, so the exact |fa_i - fb_i| exceeds (2t + 2^-50 S) (1 - 2^-51)
    - 2^-1074 with t = float(merge_tol), and |a_i - b_i| > 2t (1 - 2^-51)
    - 2^-1071 >= 2 merge_tol (1 - 2^-50) - 2^-1070 > merge_tol.  Rounding
    a_i - b_i to merge_tol's precision is monotone and keeps merge_tol,
    so the ``mpf`` distance is at least merge_tol too.  An inf or nan
    image makes every comparison false, and the pair is left to ``mpf``.
    """
    return any(abs(u - v) > gap + 2.0**-50 * (abs(u) + abs(v)) for u, v in zip(fa, fb))


def find_periodic_points(
    f: BirationalMap,
    p: int,
    precision: int = DEFAULT_PRECISION,
    grid: int = 5,
) -> list[PeriodicPoint]:
    """Positive solutions of f^(p)(x) = x with minimal period exactly p,
    from the grid^n starts over [1/2, 3]^n.

    This is ``find_periodic_points_over`` on the projection of f's space
    to a point (P the 0 x n matrix, one base point ()): its one fiber is
    the whole space, V is empty and W = I, so the starts are the grid
    itself, the last coordinate varying fastest.
    """
    to_point = MonomialMap(IntMatrix.zeros(0, f.dim_in))
    return find_periodic_points_over(f, p, to_point, [()], precision, grid)


def find_periodic_points_over(
    f: BirationalMap,
    p: int,
    projection: MonomialMap,
    base_points,
    precision: int = DEFAULT_PRECISION,
    grid: int = 5,
) -> list[PeriodicPoint]:
    """Positive solutions of f^(p)(x) = x with minimal period exactly p
    that lie over base_points, searched on those fibers of projection.

    projection is a monomial map y -> y^P with g o projection =
    projection o f for a self-map g of its target, as a flag projection
    relates the reduced maps of a finer and a coarser level.  Then
    projection carries a point of minimal period p of f onto a point of
    g whose period divides p, so base_points must list those points of
    g (for p = 1, its fixed points): the result is then complete
    relative to that list.  Each base point z spans the fiber
    projection^-1(z) = {z^V t^W}, with V an integer right inverse of P
    (P V = I), the rows of W a basis of the integer kernel of P and t
    positive; the starts are z^V t^W for t on the grid^k start grid over
    [1/2, 3]^k, k = dim f - dim g, the last coordinate of t varying
    fastest, base point by base point.

    Damped Newton runs from each start; roots whose period properly
    divides p are filtered out and duplicates merged.  f^(p) is never
    formed: f is compiled once, f^(p)(x) is p steps of f and its
    Jacobian the chain-rule product along those steps.  Desk-scale
    only: dimension at most 3.

    Each start runs Newton in hardware floats until max|f^(p)(x) - x|
    is below 1e-10 or the floats stop (a singular system, no descent,
    the iteration budget spent), then continues at the working precision
    from the last float iterate with the iterations left.  A start whose
    float phase took no step (a non-finite residual, a singular system
    or no descent at the start) or overflowed runs at the working
    precision from the start itself.  At the working precision a step
    must lower both max|f^(p)(x) - x| and the acceptance residual
    max_i |f^(p)(x)_i - x_i| / min(1, x_i), and the run stops when the
    latter is below tol = 10^-(precision - 24): every returned point
    passes both the absolute test max|f^(p)(x) - x| < tol and the
    relative test max|f^(p)(x)_i - x_i| / x_i < tol.  A run that creeps
    towards a coordinate 0 lowers only the absolute residual and stops
    at its first step.  Halved float steps are evaluated without their
    Jacobian; at the working precision every point is evaluated by value
    first, and J(f^(p)) is formed only where another step follows.  A
    point's ``residual`` is the absolute max|f^(p)(x) - x|.
    Two points merge when they are closer than 10^-(precision/2), or than
    100 tol where that is larger (below 52 digits), the distance within
    which a residual below tol leaves the copies of a root with |J_F^-1|
    < 50, F = f^(p) - id; a pair whose ``float`` images prove it
    farther apart (``_apart``) skips the ``mpf`` distance test.  The list
    is sorted by coordinates.

    A found point y gets a candidate box of half-width 1e-6 max(1,
    |y_i|).  The first time a later start's float run converges in it
    (compared with the box's ``mpf`` endpoints, which are built only
    when y's float image cannot prove the iterate outside the box,
    ``_outside``), Krawczyk's test is run
    on the box and the verdict kept.  A certified box holds exactly one
    solution, so every start whose float run converges in it is y's
    duplicate and is dropped with no full-precision run; the list is
    the one those runs would give, as y is still the first start's.

    Where the solutions form a curve (J(f^(p)) - I singular along it, as
    for the period-2 points of the Casimir-reduced somos5 and c7-pair
    maps), no box is certified, and each start lands somewhere on the
    curve, at a place that depends on its Newton path: the list samples
    the curve and its length is not a count of periodic points.

    Raises DynamicsError when f is not a self-map of dimension at most
    3, when p < 1, grid < 1 or the precision is below
    ``MIN_SEARCH_PRECISION`` (30 digits), when the projection's source
    is not f's space, unless every base point has projection.dim_out
    coordinates, all positive, and when P has no integer right inverse
    (rows dependent or not saturated).
    """
    if f.dim_in > 3:
        raise DynamicsError("periodic-point search is supported for dimension <= 3")
    if f.dim_out != f.dim_in:
        raise DynamicsError("periodic points require a self-map")
    if p < 1:
        raise DynamicsError("the period must be at least 1")
    if grid < 1:
        raise DynamicsError("the grid must have at least one start per coordinate")
    if precision < MIN_SEARCH_PRECISION:
        raise DynamicsError(f"the search needs at least {MIN_SEARCH_PRECISION} digits")
    if projection.dim_in != f.dim_in:
        raise DynamicsError(
            f"the projection has source dimension {projection.dim_in}, the map has {f.dim_in}"
        )
    base_points = [tuple(z) for z in base_points]
    for z in base_points:
        if len(z) != projection.dim_out or not all(v > 0 for v in z):
            raise DynamicsError(
                f"a base point needs {projection.dim_out} positive coordinates, got {z}"
            )
    inverse = right_inverse(projection.exponents)
    if inverse is None:
        raise DynamicsError("the projection's exponent rows have no integer right inverse")
    section = MonomialMap(inverse)
    fiber = MonomialMap(kernel_lattice(projection.exponents).matrix().transpose())
    n = f.dim_in
    with mp.workdps(precision):
        low, high = (_to_mpf(v) for v in _START_BOX)
        ticks = ([low + (high - low) * k / (grid - 1) for k in range(grid)] if grid > 1
                 else [(low + high) / 2])
        # fiber.evaluate_mp at each grid point, from the ticks' powers: a
        # row's value is the product of its powers in row order, as
        # `_terms` computes it (its coefficient 1 and its start at 0
        # change no bit of a working-precision value)
        rows = [mono for ((_, mono),), _ in fiber._compiled(_MPF).components]
        powers = {k: [t if k == 1 else t ** k for t in ticks] for mono in rows for _, k in mono}
        offsets = []
        for index in product(range(len(ticks)), repeat=fiber.dim_in):
            offset = []
            for mono in rows:
                factors = [powers[k][index[i]] for i, k in mono] or [_MPF.one]
                v = factors[0]
                for w in factors[1:]:
                    v *= w
                offset.append(v)
            offsets.append(offset)
        bases = [section.evaluate_mp(z) for z in base_points]
        starts = [[b * w for b, w in zip(base, offset)] for base in bases for offset in offsets]
        tol = _residual_tol(precision)
        # A residual below tol puts a point within |J_F^-1| tol of its
        # root, so copies of a root with |J_F^-1| < 50 are less than
        # 100 tol apart.  That bound is the larger one below 52 digits.
        merge_tol = max(mp.mpf(10) ** (-precision // 2), 100 * tol)
        # a point within this of its image under f^d has period dividing d
        root_tol = mp.sqrt(tol)
        # the float images of found points screen the merge test
        # (`_apart`); past about 600 digits no pair is screened
        gap = 2 * float(merge_tol) if merge_tol > mp.mpf(2) ** -1000 else inf
        comps = f._compiled(_MPF)
        try:
            fcomps = f._compiled(_FLOAT)
        except OverflowError:
            fcomps = None
        found: list[PeriodicPoint] = []
        images, boxes, certified = [], {}, {}

        def known(rough) -> bool:
            """Whether the float iterate rough lies in the certified box
            of a found point.  A box that the point's float image proves
            rough outside of (`_outside`) is passed over; the others are
            built on first use and compared in ``mpf``, and a box is
            tested when an iterate first lands in it, the verdict kept."""
            x = None
            for k, image in enumerate(images):
                if _outside(rough, image):
                    continue
                if x is None:
                    with mp.workprec(53):  # the floats as mpf values, exactly
                        x = [mp.mpf(v) for v in rough]
                if k not in boxes:
                    boxes[k] = _candidate_box(found[k].point)
                box = boxes[k]
                if all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
                    if k not in certified:
                        certified[k] = _krawczyk(f, p, found[k].point, box)
                    if certified[k]:
                        return True
            return False

        for start in starts:
            result = _periodic_point_newton(comps, fcomps, p, start, tol, known)
            if result is None or not result[2] < tol:
                continue
            point, diff, _, _ = result
            # f^d(point) for each proper divisor d of p, stepping f; these
            # steps cannot leave the domain, as they repeat, with the same
            # bits, the first p - 1 steps of the f^p evaluation that
            # accepted the point
            minimal, image = True, point
            for d in range(1, p):
                image, _ = _step(comps, image, False, _MPF)
                if p % d == 0 and max(abs(image[i] - point[i]) for i in range(n)) < root_tol:
                    minimal = False
                    break
            if not minimal:
                continue
            fpoint = [float(v) for v in point]
            if any(not _apart(fpoint, fother, gap) and _close(point, other.point, merge_tol)
                   for other, fother in zip(found, images)):
                continue
            found.append(PeriodicPoint(point, max(map(abs, diff)), p, precision))
            images.append(fpoint)
        found.sort(key=lambda pp: tuple(float(v) for v in pp.point))
        return found


# ---------------------------------------------------------------------------
# Leaf itineraries


@dataclass(frozen=True)
class LeafItinerary:
    """Per-step leaf labels of an orbit under several submersions.

    labels[s][k] is the label tuple of orbit point k under submersion s;
    periods[s] is the minimal label-sequence period observed within the
    orbit (None when the sequence never repeats with the data at hand).
    The orbit and the labels are computed on first access: the periods
    do not need them, and exact labels of a map with exponential degree
    growth are too large to compute by default.
    """

    map: BirationalMap
    submersions: tuple
    start: tuple
    steps: int
    mode: str
    precision: int
    names: tuple[str, ...]
    periods: tuple

    @cached_property
    def orbit(self) -> Orbit:
        return iterate_orbit(self.map, self.start, self.steps, self.mode, self.precision)

    @cached_property
    def labels(self) -> tuple:
        points = self.orbit.points
        exact = self.mode == "exact"
        with nullcontext() if exact else mp.workdps(self.precision):
            return tuple(tuple((s.evaluate if exact else s.evaluate_mp)(p) for p in points)
                         for s in self.submersions)

    def summary(self) -> str:
        lines = []
        for name, period in zip(self.names, self.periods):
            if period == 1:
                lines.append(f"{name}: orbit stays on a single leaf")
            elif period is not None:
                lines.append(f"{name}: orbit circulates between {period} leaves")
            else:
                lines.append(f"{name}: no leaf-cycle observed within the orbit")
        return "\n".join(lines)


def _label_period(labels, equal) -> int | None:
    count = len(labels)
    for d in range(1, count):
        if all(equal(labels[k], labels[k + d]) for k in range(count - d)):
            return d
    return None


def _exact_label_period(orbit: _LiftedOrbit, pi: MonomialMap, n: int) -> int | None:
    """Minimal period of the exact labels pi(x_0..x_n), or None.

    A period d is a return of the first label, so only the confirmed
    returns are tried, and each against the whole sequence.
    """
    for d in _returns(orbit, pi, n):
        if all(orbit.label(pi, k) == orbit.label(pi, k + d) for k in range(1, n + 1 - d)):
            return d
    return None


def _reduces(level, phi: BirationalMap) -> bool:
    """Whether level is a verified reduced system of phi."""
    return isinstance(level, ReducedSystem) and level.verified and level.source == phi


def leaf_itinerary(
    phi: BirationalMap,
    submersions,
    x0,
    n: int,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
    names=None,
) -> LeafItinerary:
    """Labels pi(orbit point) per step for each submersion, with cycle lengths.

    Each entry of submersions is a submersion pi, or a reduced system
    (psi, pi) of phi.  In exact mode label equality is exact: label
    returns are screened mod p on the lifted orbit and confirmed on
    exact labels.  The labels of a verified reduced system of phi are
    the orbit psi^k(pi(x0)), as psi o pi = pi o phi, so its first return
    is the period; under any other submersion a return is the period
    only when the labels repeat with it along the whole orbit.  In float
    mode two labels are equal when all coordinates agree within
    10^-(precision/2).  A submersion whose source dimension is not the
    map's raises DynamicsError.
    """
    if phi.dim_out != phi.dim_in:
        raise DynamicsError("orbits require a self-map")
    levels = tuple(submersions)
    submersions = tuple(s.submersion if isinstance(s, ReducedSystem) else s for s in levels)
    for s in submersions:
        if s.dim_in != phi.dim_in:
            raise DynamicsError(
                f"submersion {s.kind}-{s.dim_out}d has source dimension "
                f"{s.dim_in}, the map has {phi.dim_in}"
            )
    if names is None:
        names = [f"{s.kind}-{s.dim_out}d" for s in submersions]
    itinerary = LeafItinerary(
        phi, submersions, tuple(x0), n, mode, precision, tuple(names), ()
    )
    if mode == "exact":
        orbit = _LiftedOrbit(phi, x0, n)
        periods = [next(_returns(orbit, s.map, n), None) if _reduces(level, phi)
                   else _exact_label_period(orbit, s.map, n)
                   for level, s in zip(levels, submersions)]
    elif mode == "float":
        with mp.workdps(precision):
            tol = mp.mpf(10) ** (-precision // 2)
            equal = lambda a, b: all(abs(u - v) < tol for u, v in zip(a, b))
            periods = [_label_period(labels, equal) for labels in itinerary.labels]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # set after construction so that float labels computed above stay cached
    object.__setattr__(itinerary, "periods", tuple(periods))
    return itinerary


# ---------------------------------------------------------------------------
# Negative evidence scan


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a sampled periodic-point scan; evidence, not proof.

    period_found is an exact return of a sampled orbit: returns are
    screened mod p (no return mod p is a sound negative) and confirmed
    on the exact orbit.  witness is that orbit's start; of a reduced
    system, the label pi(x0) of its start x0 in the source's space.
    There is no growth statement here; see ``quiver.degree_growth``.
    """

    period_found: int | None
    witness: tuple | None
    p_max: int
    samples: int
    seed: int
    note: str = (
        "sampled evidence only: absence of periodic points among random "
        "starts does not prove there are none"
    )


def no_periodic_points_scan(
    f: BirationalMap | ReducedSystem,
    p_max: int = 20,
    samples: int = 25,
    seed: int = 0,
) -> ScanReport:
    """Scan for periodic points along random orbits.

    f is a map, or a reduced system whose orbits are sampled in the
    space of its source map and labelled by pi.  Each sampled orbit is
    followed for p_max steps and checked for an exact return to its
    start (a return reports the period and the start as witness).
    samples < 1 raises DynamicsError.
    """
    if samples < 1:
        raise DynamicsError("the scan needs at least one sampled orbit")
    lift = _Lift(f)
    for orbit, k in lift.first_returns(p_max, samples, seed):
        if k is not None:
            return ScanReport(k, orbit.label(lift.pi, 0), p_max, samples, seed,
                              note="periodic point found by the scan")
    return ScanReport(None, None, p_max, samples, seed)


# ---------------------------------------------------------------------------
# Somos-5 closed forms


def plastic_root(precision: int = DEFAULT_PRECISION):
    """The real root of x^3 = 1 + x (about 1.3247), at the given precision."""
    with mp.workdps(precision):
        return mp.findroot(lambda t: t**3 - t - 1, mp.mpf("1.3"))


def golden_ratio(precision: int = DEFAULT_PRECISION):
    """(1 + sqrt 5)/2 at the given precision."""
    with mp.workdps(precision):
        return (1 + mp.sqrt(5)) / 2


def somos5_constrained_start(x3, x4, lam, r, precision: int = DEFAULT_PRECISION):
    """Initial data (x1..x5) satisfying x1 x4 = r x2 x3, x2 x5 = r x3 x4,
    x3 x5 = lam x4^2 — the constraints of the singular Somos-5 solutions.

    The constrained set is carried into itself by the recurrence exactly
    when r is the plastic root (r^3 = r + 1); for other r the constraints
    hold at the start but are destroyed by the first step.
    """
    with mp.workdps(precision):
        x3 = mp.mpf(x3)
        x4 = mp.mpf(x4)
        lam = mp.mpf(lam)
        r = mp.mpf(r)
        x5 = lam * x4**2 / x3
        x2 = r * x3 * x4 / x5
        x1 = r * x2 * x3 / x4
        return (x1, x2, x3, x4, x5)


@dataclass(frozen=True)
class ClosedFormReport:
    """Comparison of an orbit against a closed-form solution family."""

    family: str
    ok: bool
    n_checked: int
    max_rel_error: object
    tol: object


def verify_closed_form(
    orbit: Orbit,
    family: str,
    x3,
    x4,
    lam,
    r,
    n_max: int = 20,
) -> ClosedFormReport:
    """Check orbit terms of the Somos-5 recurrence against a closed form.

    Valid for orbits started on the constrained set of
    ``somos5_constrained_start`` with r the plastic root (r^3 = r + 1);
    lam is the free leaf parameter.

    family "principal" (lam = sqrt r):
        x_{n+5} = r^((n+2)(n+1)/4) x4^(n+2) / x3^(n+1),  n >= 1.
    family "general" (lam != sqrt r):
        x_{2n+4} = lam^n r^(n^2) x4^(2n+1) / x3^(2n),
        x_{2n+5} = lam^(n+1) r^(n(n+1)) x4^(2n+2) / x3^(2n+1),  n >= 1.

    The orbit must be in float mode and long enough to cover the terms;
    it matches when every relative error is below 10^-(precision - 24).
    """
    if orbit.mode != "float":
        raise DynamicsError("closed-form verification expects a float-mode orbit")
    precision = orbit.precision or DEFAULT_PRECISION
    with mp.workdps(precision):
        tol = _residual_tol(precision)
        x3 = mp.mpf(x3)
        x4 = mp.mpf(x4)
        lam = mp.mpf(lam)
        r = mp.mpf(r)
        seq = orbit_sequence(orbit)

        def term(index_1based):
            if index_1based > len(seq):
                raise DynamicsError(
                    f"orbit too short: need term {index_1based}, have {len(seq)}"
                )
            return seq[index_1based - 1]

        max_err = mp.mpf(0)
        checked = 0
        if family == "principal":
            for n in range(1, n_max + 1):
                predicted = r ** (mp.mpf((n + 2) * (n + 1)) / 4) * x4 ** (n + 2) / x3 ** (n + 1)
                actual = term(n + 5)
                max_err = max(max_err, abs(predicted - actual) / abs(actual))
                checked += 1
        elif family == "general":
            for n in range(1, n_max + 1):
                even = lam**n * r ** (n * n) * x4 ** (2 * n + 1) / x3 ** (2 * n)
                odd = lam ** (n + 1) * r ** (n * (n + 1)) * x4 ** (2 * n + 2) / x3 ** (2 * n + 1)
                for predicted, idx in ((even, 2 * n + 4), (odd, 2 * n + 5)):
                    actual = term(idx)
                    max_err = max(max_err, abs(predicted - actual) / abs(actual))
                    checked += 1
        else:
            raise ValueError(f"unknown family {family!r}")
        return ClosedFormReport(family, max_err < tol, checked, max_err, tol)
