"""The exact core against an independent implementation (sympy).

Small random polynomials in 2-3 variables, drawn by Hypothesis: the
primitive gcd agrees with ``sympy.gcd`` up to sign and content, with the
heuristic gcd and with it switched off (and in 1-3 variables the gcd and
cofactors on integer polynomials, and the integer PRS alone, give the
`Fraction` PRS of ``reference.prs_gcd`` term for term, and the one
division undoes a product), and the rational-function normal form with
``sympy.cancel`` up to a constant factor shared by numerator and
denominator.  The operations that skip
the final gcd (product, quotient, inverse) or take a single normal form
(composition) also equal, term for term, the full normal form of their
unreduced numerator and denominator.  The residue screen's one-inversion
arithmetic is checked against one ``pow(v, -1, p)`` per coordinate, its
generated steps and label rows against the term-by-term screen of
``reference.residue_orbit`` on random Laurent maps, global period
detection from residues and f^c = id alone against the exact-confirmed
loop it falls back to, on screens with collisions and under screen
primes 2 and 3, and
the periodic-point Newton's acceptance residual against the absolute and
relative residual tests it stands for, and its linear solver on raw mpf
values against ``mpmath.lu_solve`` bit for bit (in floats, against the
solver as it was before it ran on raw values).  The congruences of the geometry
checks, on a log-Jacobian cleared to integers, give the verdicts of the
rational identities, and the integer discovery rows have the kernel of
the rows cleared from `Fraction` coefficients.  The log-Jacobian formed
on ints from cleared term lists is the quotient-rule Jacobian's, cleared
from `Fraction`s, with the same verdicts at edge points, on random
rational and monomial maps.  The generated
straight-line step of a hot compiled map gives the interpreter's values,
Jacobians and exceptions bit for bit, on random maps in every number
type of the kernel, raw mpf values of the libmpf step included, and so
do the generated Newton kernels of a hot map against `_power`,
`_less_identity` and `_lu_solve`, in floats and on raw mpf values.
"""

import gc
from functools import cache
from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cluster_reduce import DynamicsError, dynamics, iterate_orbit, random_positive_point  # noqa: E402
from cluster_reduce import IntMatrix, cluster_map, detect_period, geometry  # noqa: E402
from cluster_reduce import BirationalMap, MonomialMap, laurent, maps  # noqa: E402
from cluster_reduce import find_invariant_poisson, kernel_lattice, rng_substream  # noqa: E402
from cluster_reduce.fixtures import somos5_matrix  # noqa: E402
from cluster_reduce.intlinalg import _congruent  # noqa: E402
from cluster_reduce.laurent import LaurentPoly, RationalFunction, parse_rational, poly_gcd  # noqa: E402
from reference import as_birational, is_polynomial, label_residues, residue_orbit  # noqa: E402
from reference import compose as reference_compose, prs_gcd  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SYMBOLS = sympy.symbols("x1:4")


def _polys(nvars: int, low: int):
    """Nonzero polynomials with 1-4 terms, exponents low..2, coefficients in
    -5..5 (a negative low gives Laurent polynomials)."""
    exponents = st.tuples(*[st.integers(low, 2)] * nvars)
    coefficients = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=4).map(
        lambda terms: LaurentPoly(nvars, terms)
    )


def _triples(low: int = 0):
    """(a, b, c) in a common space of 2 or 3 variables."""
    return st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(_polys(n, low), _polys(n, low), _polys(n, 0))
    )


def _sympy(p: LaurentPoly):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[x**k for x, k in zip(SYMBOLS, e)])
        for e, c in p.terms.items()
    ])


def _constant_ratio(a, b):
    """a / b when it is a nonzero constant, else None."""
    ratio = sympy.cancel(a / b)
    return ratio if ratio.is_number and ratio != 0 else None


@pytest.mark.parametrize("points", [laurent._HEU_POINTS, 0])
@SETTINGS
@given(_triples())
def test_poly_gcd_matches_sympy(points, polys):
    # with no evaluation point the heuristic gives up at once, so the
    # trial division and the integer PRS answer
    a, b, c = polys
    f, g = a * c, b * c
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_HEU_POINTS", points)
        ours = poly_gcd(f, g)
    assert all(k.denominator == 1 for k in ours.terms.values())
    assert ours.content() == 1
    assert _constant_ratio(_sympy(ours), sympy.gcd(_sympy(f), _sympy(g))) is not None


def _rational_polys(nvars: int):
    """Nonzero polynomials with 1-4 terms, exponents 0..2 and `Fraction`
    coefficients of absolute value at most 5 and denominator at most 4."""
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    coefficients = st.fractions(-5, 5, max_denominator=4).filter(bool)
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=4).map(
        lambda terms: LaurentPoly(nvars, terms)
    )


def _integer(p: LaurentPoly) -> dict:
    """The integer primitive part of p, as {exponents: int}."""
    return laurent._integer_primitive(p)[1]


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _rational_polys(n), _rational_polys(n), _rational_polys(n), st.booleans()
)))
def test_heuristic_gcd_is_the_prs_gcd(case):
    # with and without a planted common factor c; the cofactors are the
    # exact quotients, and every coefficient is an int
    a, b, c, planted = case
    f, g = (a * c, b * c) if planted else (a, b)
    pf, pg = _integer(f), _integer(g)
    h, cf, cg = laurent._cofactors(pf, pg, f.nvars)
    assert h == prs_gcd(f, g).terms
    assert laurent._mul_terms(h, cf) == pf and laurent._mul_terms(h, cg) == pg
    assert all(type(v) is int for p in (h, cf, cg) for v in p.values())


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _polys(n, 0), _polys(n, 0), _polys(n, 0), st.booleans(),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(all),
    st.tuples(*[st.integers(0, 2)] * n), st.tuples(*[st.integers(0, 2)] * n),
)))
def test_integer_prs_is_the_fraction_prs(case):
    # integer polynomials with any content and sign, monomial factors and,
    # with planted, a common factor c: the same gcd, term for term
    a, b, c, planted, (k, m), u, v = case
    f, g = (a * c, b * c) if planted else (a, b)
    pf = {tuple(map(sum, zip(e, u))): k * int(x) for e, x in f.terms.items()}
    pg = {tuple(map(sum, zip(e, v))): m * int(x) for e, x in g.terms.items()}
    h = laurent._prs(pf, pg)
    assert h == prs_gcd(LaurentPoly(f.nvars, pf), LaurentPoly(f.nvars, pg)).terms
    assert all(type(x) is int for x in h.values())


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_rational_polys(n), _rational_polys(n))))
def test_exact_division_undoes_a_product(case):
    # on integer primitive parts (a b) / b is a term for term, in ints; a b
    # + 1 is not divisible by a non-constant b; zero is divided by
    # anything, and a zero denominator raises
    a, b = case
    pa, pb = _integer(a), _integer(b)
    q = laurent._divide(_integer(a * b), pb)
    assert q == pa
    assert all(type(v) is int for v in q.values())
    if any(map(any, pb)):
        one = {(0,) * a.nvars: 1}
        assert laurent._divide(laurent._add_terms(_integer(a * b), one), pb) is None
    assert laurent._divide({}, pb) == {}
    with pytest.raises(ZeroDivisionError):
        laurent._integer_normal_form(pa, {}, a.nvars, Fraction(1))


def _matches_cancel(ours: RationalFunction, expr) -> None:
    """ours is sympy.cancel(expr) up to a constant shared by numerator and
    denominator, in the canonical representative: true polynomials, the
    denominator with integer coefficients, content 1 and a positive
    leading coefficient."""
    theirs_num, theirs_den = sympy.fraction(sympy.cancel(expr))
    scale = _constant_ratio(_sympy(ours.num), theirs_num)
    assert scale is not None
    assert _constant_ratio(_sympy(ours.den), theirs_den) == scale
    assert is_polynomial(ours.num) and is_polynomial(ours.den)
    assert all(k.denominator == 1 for k in ours.den.terms.values())
    assert ours.den.content() == 1
    assert ours.den.leading_coefficient() > 0


def _laurent(expr, nvars: int) -> LaurentPoly:
    """A sympy polynomial in x1..x<nvars> as a LaurentPoly."""
    poly = sympy.Poly(expr, *SYMBOLS[:nvars])
    return LaurentPoly(nvars, {
        e: Fraction(int(c.p), int(c.q)) for e, c in zip(poly.monoms(), poly.coeffs())
    })


def _rational(r: RationalFunction):
    return _sympy(r.num) / _sympy(r.den)


@SETTINGS
@given(_triples(low=-1))
def test_normal_form_matches_sympy_cancel(polys):
    a, b, c = polys
    num, den = a * c, b * c
    _matches_cancel(RationalFunction(num, den), _sympy(num) / _sympy(den))


@SETTINGS
@given(_triples(low=-1))
def test_gcd_free_operations_match_the_full_normal_form(polys):
    # b is f's denominator and g's numerator, so f * g and f / h
    # cross-cancel it
    a, b, c = polys
    f, g, h = RationalFunction(a, b), RationalFunction(b, c), RationalFunction(c, b)
    cases = [
        (f * g, f.num * g.num, f.den * g.den, _rational(f) * _rational(g)),
        (f / h, f.num * h.den, f.den * h.num, _rational(f) / _rational(h)),
        (f.inverse(), f.den, f.num, 1 / _rational(f)),
    ]
    for ours, raw_num, raw_den, expr in cases:
        _matches_cancel(ours, expr)
        full = RationalFunction(raw_num, raw_den)
        assert (ours.num.terms, ours.den.terms) == (full.num.terms, full.den.terms)


@SETTINGS
@given(_triples(low=-1))
def test_compose_matches_the_full_normal_form(polys):
    # x1 -> b / x1 in a / c, the other coordinates kept, as in an exchange
    # relation: the common denominator, a power of x1, cancels
    a, b, c = polys
    n = a.nvars
    x1 = LaurentPoly.variable(0, n)
    f = RationalFunction(a, c)
    args = [RationalFunction(b, x1)] + [RationalFunction.coordinate(i, n) for i in range(1, n)]
    ours = f.compose(args)
    expr = _rational(f).subs(
        {x: _rational(arg) for x, arg in zip(SYMBOLS, args)}, simultaneous=True
    )
    _matches_cancel(ours, expr)
    raw_num, raw_den = sympy.fraction(sympy.together(expr))
    full = RationalFunction(_laurent(raw_num, n), _laurent(raw_den, n))
    assert (ours.num.terms, ours.den.terms) == (full.num.terms, full.den.terms)


def _monomials(nvars: int):
    """c x^e with a `Fraction` c != 0 and exponents -2..2, as a normal form."""
    return st.tuples(st.tuples(*[st.integers(-2, 2)] * nvars),
                     st.fractions(-5, 5, max_denominator=4).filter(bool)).map(
        lambda t: RationalFunction(LaurentPoly.monomial(t[0], nvars, t[1])))


def _arguments(nvars: int):
    """Substitution arguments in nvars variables: monomials, constants, zero
    and quotients of polynomials with `Fraction` coefficients."""
    return st.one_of(
        _monomials(nvars),
        st.fractions(-3, 3, max_denominator=3).map(lambda c: RationalFunction.constant(c, nvars)),
        st.tuples(_rational_polys(nvars), _rational_polys(nvars)).map(
            lambda t: RationalFunction(*t)),
    )


@st.composite
def _compositions(draw, top: int = 3):
    """(f, args): f a monomial or a quotient of polynomials in n = 1..top
    variables, args n arguments in m = 1..top variables."""
    n, m = draw(st.integers(1, top)), draw(st.integers(1, top))
    f = draw(st.one_of(_monomials(n), st.tuples(_rational_polys(n), _rational_polys(n)).map(
        lambda t: RationalFunction(*t))))
    return f, draw(st.lists(_arguments(m), min_size=n, max_size=n))


def _terms_in_order(f: RationalFunction) -> tuple:
    return list(f.num.terms.items()), list(f.den.terms.items())


@settings(SETTINGS, max_examples=300)
@given(_compositions())
# x1^-1 at 0: a zero argument raised to a negative power, alone and beside
# a nonzero power of another; (x1 + 1)/(x1 + x2) at (0, 0) clears to 1/0
@example((RationalFunction.monomial([-1], 1), [RationalFunction.constant(0, 2)]))
@example((RationalFunction.monomial([2, -1], 2),
          [parse_rational("x1 + 1", 1), RationalFunction.constant(0, 1)]))
@example((parse_rational("(x1 + 1)/(x1 + x2)"), [RationalFunction.constant(0, 1)] * 2))
# zero composed with anything, a zero argument included, is zero
@example((RationalFunction.constant(0, 2), [RationalFunction.constant(0, 1), parse_rational("x1")]))
# monomial arguments with rational coefficients and negative exponents
# shifted against a product that leaves x1 common to both sides
@example((RationalFunction.monomial([1, 1, -2], 3),
          [parse_rational("3/2*x1^2/x2", 2), parse_rational("(x2 + 1)/x1", 2),
           parse_rational("-2*x1/x2^3", 2)]))
def test_compose_is_the_fraction_reference(case):
    # the same terms in the same order, as Fractions, or the same error
    f, args = case
    try:
        want = reference_compose(f, args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.compose(args)
        return
    got = f.compose(args)
    assert _terms_in_order(got) == _terms_in_order(want)
    assert all(type(v) is Fraction for p in (got.num, got.den) for v in p.terms.values())


@settings(SETTINGS, max_examples=40)
@given(_compositions(2), st.sampled_from([("_HEU_POINTS", 0), ("_HEU_MAX_BITS", 8)]))
def test_compose_without_the_heuristic_is_the_reference(case, setting):
    # where the heuristic gcd gives up, the normal form of a composition
    # takes the trial division or the PRS (in at most 2 variables, as the
    # PRS of the reference takes seconds on some compositions in 3)
    f, args = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, *setting)
        try:
            want = reference_compose(f, args)
        except ZeroDivisionError:
            return
        got = f.compose(args)
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
    assert all(type(v) is Fraction for p in (got.num, got.den) for v in p.terms.values())


@SETTINGS
@given(
    st.sampled_from([7, *dynamics.SCREEN_PRIMES]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(1, p - 1), max_size=8))
    )
)
def test_inverses_mod_match_one_pow_each(case):
    p, xs = case
    assert dynamics._inverses_mod(xs, p) == [pow(v, -1, p) for v in xs]


def _residue_orbit_reference(phi, x0, steps: int, p: int):
    """The exact orbit reduced mod p, each coordinate inverted by its own pow."""
    points = [
        tuple(v.numerator * pow(v.denominator, -1, p) % p for v in x)
        for x in iterate_orbit(phi, x0, steps, "exact").points
    ]
    return points, [[pow(v, -1, p) for v in x] for x in points]


def test_residue_orbit_matches_per_coordinate_inverses(ladder_systems):
    # the lifted orbits of the pipeline: each rung's cluster map carries
    # its own orbits and those of each of its reduced systems
    for phi, systems, _ in ladder_systems.values():
        for system in [phi, *systems]:
            lift = dynamics._Lift(system)
            assert lift.phi is phi
            (orbit,) = lift.orbits(8, 1, 0)
            for p in dynamics.SCREEN_PRIMES:
                got = dynamics._residue_orbit(phi, orbit.start, 8, p)
                assert got == _residue_orbit_reference(phi, orbit.start, 8, p)
            p, *got = orbit.residues
            assert tuple(got) == _residue_orbit_reference(phi, orbit.start, 8, p)


@st.composite
def _screen_cases(draw):
    """(phi, x0, steps, p, pi): a Laurent map of 1-4 variables, its
    components coordinates or quotients with exponents -3..3 and
    polynomial denominators, coefficients and start coordinates whose
    numerator or denominator may be 0 mod p, and a label projection."""
    p = draw(st.sampled_from([5, 7, *dynamics.SCREEN_PRIMES]))
    n = draw(st.integers(1, 4))
    rationals = st.builds(Fraction, st.sampled_from([*range(-9, 0), *range(1, 10), p]),
                          st.sampled_from([*range(1, 10), p]))
    polys = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * n), rationals,
                            min_size=1, max_size=3).map(lambda t: LaurentPoly(n, t))
    # the terms as drawn, not a normal form, which would clear the
    # negative exponents
    quotients = st.builds(RationalFunction._raw, polys,
                          st.one_of(st.just(LaurentPoly.constant(1, n)), polys))
    coordinates = st.integers(0, n - 1).map(lambda i: RationalFunction.coordinate(i, n))
    phi = BirationalMap(n, draw(st.lists(st.one_of(coordinates, quotients),
                                         min_size=n, max_size=n)))

    def rows(cols: int, count: int):
        row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
        return st.lists(row, min_size=count, max_size=count)

    x0 = draw(st.lists(rationals, min_size=n, max_size=n))
    pi = MonomialMap.from_rows(draw(rows(n, draw(st.integers(1, 3)))), n)
    return phi, x0, draw(st.integers(0, 5)), p, pi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_screen_cases())
def test_residue_kernels_match_the_term_by_term_screen(case):
    # the generated steps, which carry inverses along the orbit with one
    # inversion per step, and the generated label rows give the screen's
    # residues, inverses and labels, and its None, exactly
    phi, x0, steps, p, pi = case
    want = residue_orbit(phi, x0, steps, p)
    got = dynamics._residue_orbit(phi, x0, steps, p)
    assert got == want
    if want is not None:
        orbit = dynamics._LiftedOrbit(phi, x0, steps)
        orbit.residues = (p, *got)
        assert orbit.label_residues(pi) == label_residues(pi, p, *want)


# x -> (x1 + a, (x2 + b)/x1) from x1 = -a j, 0 at step j, reaches 0 at
# step j exactly and leaves the domain at step j + 1; from x1 = P - a j,
# P the first screen prime, it leaves the units mod P only
_TRANSLATION = "x1 + {a}", "(x2 + {b})/x1"


@st.composite
def _walk_cases(draw):
    """(phi, x0, horizons, reads): a map of `_TRANSLATION`, its first
    coordinate drawn to leave the units at a step j = 0..8, or at no
    step, with horizons up to 12; or a map of `_screen_cases` and its
    start, with horizons up to 3, past which exact orbits grow too
    large.  The horizons are asked in the order drawn, and at each the
    exact steps of reads up to it, in the order drawn."""
    if draw(st.booleans()):
        a, b, j = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 8))
        phi = BirationalMap.from_strings([form.format(a=a, b=b) for form in _TRANSLATION])
        x1 = draw(st.sampled_from([-a * j, dynamics.SCREEN_PRIMES[0] - a * j,
                                   Fraction(j + 1, a + b)]))
        x0, top = (Fraction(x1), draw(st.fractions(1, 9, max_denominator=9))), 12
    else:
        phi, x0, *_ = draw(_screen_cases())
        x0, top = tuple(x0), 3
    horizons = draw(st.lists(st.integers(0, top), min_size=1, max_size=5))
    return phi, x0, horizons, draw(st.lists(st.integers(0, top), max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_walk_cases())
# grow, shrink and grow again across step 5, where the orbit leaves the
# units mod the first screen prime only: the second prime takes over
@example((BirationalMap.from_strings([form.format(a=1, b=2) for form in _TRANSLATION]),
          (Fraction(dynamics.SCREEN_PRIMES[0] - 5), Fraction(3, 4)), [3, 8, 2, 12, 4],
          [7, 2, 12]))
def test_shared_residue_walks_are_the_unshared_walks(case):
    # one walk per prime and start, kept in walks and extended on demand,
    # gives at every horizon the residues, inverses and None of a walk of
    # its own, and the orbit of each horizon the first prime that walk
    # would give; the exact orbit, computed only as far as read where
    # residues exist, is iterate_orbit's, and where that leaves the
    # domain no prime keeps the orbit in units
    phi, x0, horizons, reads = case
    exact = [x0]  # the exact orbit, as far as it stays in the domain
    try:
        while len(exact) <= max(horizons):
            exact.append(iterate_orbit(phi, exact[-1], 1).points[1])
    except DynamicsError:
        pass
    walks = {}
    for h in horizons:
        for p in dynamics.SCREEN_PRIMES:
            got = dynamics._residue_orbit(phi, list(x0), h, p, walks)
            assert got == residue_orbit(phi, x0, h, p)
        assert len(walks) <= len(dynamics.SCREEN_PRIMES)  # none for a coefficient not a unit
        unshared = ((p, residue_orbit(phi, x0, h, p)) for p in dynamics.SCREEN_PRIMES)
        orbit = dynamics._LiftedOrbit(phi, x0, h, walks)
        assert orbit.residues == next(((p, *w) for p, w in unshared if w is not None), None)
        assert h < len(exact) or orbit.residues is None
        for k in reads:
            if k > h:
                continue
            if h < len(exact):
                assert orbit.exact(k) == exact[k]
            elif k > 0:
                with pytest.raises(DynamicsError):
                    orbit.exact(k)


def test_no_kernel_outlives_its_map():
    # each map's kernels live on its compiled form: a cache keyed by id()
    # would hand a freed map's kernel to a new map at the same address
    p, x0 = dynamics.SCREEN_PRIMES[0], (Fraction(2, 3), Fraction(5, 7))
    for c in range(1, 9):
        a = BirationalMap.from_strings(["x2", f"(x2 + {c})/x1"])
        assert dynamics._residue_orbit(a, x0, 6, p) == residue_orbit(a, x0, 6, p)
        components = BirationalMap.from_strings(["x2", f"(x2 + {c + 1})/x1"]).components
        del a
        gc.collect()
        b = BirationalMap(2, components)
        assert dynamics._residue_orbit(b, x0, 6, p) == residue_orbit(b, x0, 6, p)


# The maps of the period property test: each is drawn as its scaling
# conjugate x -> D^-1 f(D x), which has the same periods.
_PERIOD_MAPS = {
    "lyness": ["x2", "(x2 + 1)/x1"],
    "psi_1": ["x2", "(x2 + 1)/x1", "(x2^2 + x2)/x3"],
    "psi_hat5": ["x2", "(x2 + 1)/(x1*x2)"],
    "identity": ["x1", "x2"],
}


def _order_six_map() -> BirationalMap:
    """x1 -> a^2/x1 with a the first seed-0 start's x1, and a scaled
    3-cycle fixing the second start's (x2, x3, x4): period 6."""
    a = random_positive_point(4, rng_substream(0, 0))[0]
    u, v, w = random_positive_point(4, rng_substream(0, 1))[1:]
    return BirationalMap.from_strings([f"({a})^2/x1", f"{u / v}*x3", f"{v / w}*x4",
                                       f"{w / u}*x2"])


@st.composite
def _period_cases(draw):
    """(f, p_max, samples, seed, collisions): a scaling conjugate of a map
    of _PERIOD_MAPS, with D's entries n/d for n, d in 1..6, or the
    order-6 map; p_max 1..12, 1..4 samples, and the (sample, step) pairs
    at which the screen also reports a return, as labels colliding mod p
    would."""
    name = draw(st.sampled_from([*_PERIOD_MAPS, "order_six"]))
    if name == "order_six":
        f = _order_six_map()
    else:
        f = BirationalMap.from_strings(_PERIOD_MAPS[name])
        d = draw(st.lists(st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
                          min_size=f.dim_in, max_size=f.dim_in))
        scale = BirationalMap.from_strings([f"{v}*x{i + 1}" for i, v in enumerate(d)])
        unscale = BirationalMap.from_strings([f"{1 / v}*x{i + 1}" for i, v in enumerate(d)])
        f = unscale.compose(f.compose(scale))
    p_max, samples = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    collisions = draw(st.sets(st.tuples(st.integers(0, samples - 1), st.integers(1, p_max)),
                              max_size=3))
    return f, p_max, samples, draw(st.integers(0, 2)), collisions


@settings(SETTINGS, max_examples=150)
@given(_period_cases(), st.sampled_from([dynamics.SCREEN_PRIMES, (2, 3)]))
# LYNESS (period 5) with a collision at step 2 of the first orbit: the
# first returns mod p 2, 5, 5 give c = 10, a period, and every orbit
# returns at 5, a proper divisor of 10, so only the minimality test
# keeps 10 from the report
@example((BirationalMap.from_strings(_PERIOD_MAPS["lyness"]), 12, 3, 0, {(0, 2)}),
         dynamics.SCREEN_PRIMES)
def test_period_detection_is_the_exact_confirmed_loop(case, primes):
    # the certificate from residues and f^c = id alone gives the report of
    # the loop that confirms every return on the exact orbit, also on a
    # screen with collisions and under screen primes as small as 2 and 3,
    # where most returns mod p are not exact
    f, p_max, samples, seed, collisions = case
    starts = {random_positive_point(f.dim_in, rng_substream(seed, i)): i
              for i in range(samples)}
    screen = dynamics._LiftedOrbit.label_residues

    def colliding(orbit, pi):
        screened = screen(orbit, pi)
        if screened is None:
            return None
        screened = list(screened)
        for i, k in collisions:
            if starts.get(orbit.start) == i:
                screened[k] = screened[0]
        return screened

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "SCREEN_PRIMES", primes)
        patch.setattr(dynamics._LiftedOrbit, "label_residues", colliding)
        got = dynamics.detect_global_periodicity(f, p_max, samples, seed)
        lift = dynamics._Lift(f)
        want = dynamics._confirmed_period(lift, lift.orbits(p_max, samples, seed), p_max,
                                          samples)
    assert got == want


@st.composite
def _residual_cases(draw):
    """(x, diff, tol) as 64-digit mpf values: x positive with coordinates
    below and above 1, diff signed, tol positive."""
    below = draw(st.floats(1e-8, 1, exclude_max=True))
    above = draw(st.floats(1, 1e3, exclude_min=True))
    rest = draw(st.lists(st.one_of(st.just(1.0), st.floats(1e-8, 1e3)), max_size=1))
    x = draw(st.permutations([below, above, *rest]))
    diff = draw(st.lists(st.floats(-10, 10), min_size=len(x), max_size=len(x)))
    tol = draw(st.floats(1e-12, 1e3))
    return [mp.mpf(v) for v in x], [mp.mpf(v) for v in diff], mp.mpf(tol)


@SETTINGS
@given(_residual_cases())
def test_acceptance_residual_is_the_absolute_and_relative_tests(case):
    # the drawn tol, and as tol each quotient |diff_i| and |diff_i| / x_i
    # itself, where one of the two tests fails by a tie
    x, diff, drawn = case
    with mp.workdps(64):
        absolute = [abs(d) for d in diff]
        relative = [abs(d) / v for d, v in zip(diff, x)]
        residual = dynamics._acceptance_residual(diff, x)
        for tol in [drawn, *absolute, *relative]:
            both = max(absolute) < tol and max(relative) < tol
            assert (residual < tol) == both


def _float_lu_solve_reference(a, b):
    """``dynamics._lu_solve`` on floats as it was before it ran on a number
    type's arithmetic (eps 2^-52, absolute sums by ``sum``), kept as the
    reference of the float path."""
    n = len(a)
    a = [list(row) for row in a]
    x = list(b)
    tol = 2.0**-52 * max(sum(map(abs, (row[j] for row in a))) for j in range(n))

    def check(value):
        if abs(value) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")

    for j in range(n - 1):
        biggest, pivot = 0, None
        for k in range(j, n):
            s = sum(map(abs, a[k][j:]))
            check(s)
            current = 1 / s * abs(a[k][j])
            if current > biggest:
                biggest, pivot = current, k
        if pivot is None:
            raise ZeroDivisionError("matrix is numerically singular")
        a[j], a[pivot] = a[pivot], a[j]
        x[j], x[pivot] = x[pivot], x[j]
        check(a[j][j])
        for i in range(j + 1, n):
            a[i][j] /= a[j][j]
            for k in range(j + 1, n):
                a[i][k] -= a[i][j] * a[j][k]
    check(a[n - 1][n - 1])
    for i in range(1, n):
        for j in range(i):
            x[i] -= a[i][j] * x[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] -= a[i][j] * x[j]
        x[i] /= a[i][i]
    return x


@st.composite
def _lu_systems(draw):
    """(a, b) with n = 1..3 equations of exact Fraction entries: random
    (small integers or p/q), singular (the last row an integer
    combination of the others, or a zero column) or near-singular (the
    last row another one with an entry moved by s 2^-e, e from 40 to
    440, across the singularity tolerance of floats and of 30 to 128
    digits)."""
    n = draw(st.integers(1, 3))
    small = st.integers(-5, 5).map(Fraction)
    ratio = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20))
    entry = draw(st.sampled_from([small, ratio]))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "singular", "zero column", "near-singular"]))
    if kind == "singular" and n > 1:
        weights = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        a[-1] = [sum(w * row[j] for w, row in zip(weights, a)) for j in range(n)]
    elif kind == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = Fraction(0)
    elif kind == "near-singular" and n > 1:
        j = draw(st.integers(0, n - 1))
        a[-1] = list(a[0])
        a[-1][j] += Fraction(draw(st.integers(-64, 64)), 2 ** draw(st.integers(40, 440)))
    return a, draw(st.lists(entry, min_size=n, max_size=n))


def _solution(solve, *args):
    """solve(*args), or ZeroDivisionError for a singular system."""
    try:
        return solve(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lu_systems(), st.sampled_from([30, 64, 128]))
def test_raw_solver_is_mpmath_lu_solve_bit_for_bit(system, digits):
    # mpmath raises TypeError on a zero pivot column, where the solver
    # reports a singular matrix
    rows, b = system
    with mp.workdps(digits):
        a = [[mp.mpf(v.numerator) / v.denominator for v in row] for row in rows]
        rhs = [mp.mpf(v.numerator) / v.denominator for v in b]
        got = _solution(dynamics._lu_solve, [maps._raw(row) for row in a], maps._raw(rhs),
                        maps._RAW)
        try:
            want = maps._raw(mp.lu_solve(mp.matrix(a), mp.matrix(rhs)))
        except (ZeroDivisionError, TypeError):
            want = ZeroDivisionError
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lu_systems())
def test_float_solver_is_the_reference_bit_for_bit(system):
    rows, b = system
    a, rhs = [[float(v) for v in row] for row in rows], [float(v) for v in b]
    got = _solution(dynamics._lu_solve, a, rhs, dynamics._FLOAT)
    want = _solution(_float_lu_solve_reference, a, rhs)
    assert (got if got is ZeroDivisionError else [v.hex() for v in got]) == (
        want if want is ZeroDivisionError else [v.hex() for v in want])


@cache
def _small_maps():
    """(phi, structures) for the cluster maps of dimension <= 5: the
    Somos-5 family up to (2, 2) and the period-3 B3, each with its
    exchange matrix and its invariant tensors."""
    b3 = IntMatrix.from_rows([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    small = []
    for b in [somos5_matrix(r, s) for r in range(3) for s in range(3)] + [b3]:
        phi = cluster_map(b, detect_period(b))
        small.append((phi, [b, *find_invariant_poisson(phi)]))
    return small


def _skews(n: int):
    upper = st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    return upper.map(lambda vec: [list(r) for r in geometry.unvectorize_skew(vec, n).entries])


@st.composite
def _log_jacobian_cases(draw):
    """(M, S): an n x n rational M (n <= 5) with a random integer skew S,
    or the log-Jacobian M(p)_ij = p_j d_j phi_i(p) / phi_i(p) of a small
    cluster map with its exchange matrix or an invariant tensor as S,
    possibly with one entry moved."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        return m, draw(_skews(n))
    phi, structures = draw(st.sampled_from(_small_maps()))
    p = random_positive_point(phi.dim_in, rng_substream(0, draw(st.integers(0, 99))))
    image = phi.evaluate(p)
    hypothesis.assume(all(image))
    m = [[v * x / y for v, x in zip(row, p)] for row, y in zip(phi.jacobian(p), image)]
    s = [list(r) for r in draw(st.sampled_from(structures)).entries]
    if draw(st.booleans()):
        s[0][1] += 1
        s[1][0] -= 1
    return m, s


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _fraction_poisson_rows(m):
    """The rows of M C M^T = C in the unknowns c_kl (k < l), with Fraction
    coefficients, each multiplied by the lcm of its denominators."""
    pairs = [(k, l) for k in range(len(m)) for l in range(k + 1, len(m))]
    rows = []
    for a, b in pairs:
        coeffs = [m[a][k] * m[b][l] - m[a][l] * m[b][k] - ((k, l) == (a, b)) for k, l in pairs]
        denom = lcm(*(c.denominator for c in coeffs))
        rows.append([int(c * denom) for c in coeffs])
    return rows


@SETTINGS
@given(_log_jacobian_cases())
def test_cleared_congruences_match_the_rational_identities(case):
    # M(p) = dM / d: M^T B M = B and M C M^T = C are dM^T B dM = d^2 B and
    # dM C dM^T = d^2 C, each row of the discovery system a multiple of the
    # cleared rational row
    m, s = case
    d = lcm(*(v.denominator for row in m for v in row))
    cleared = [[int(v * d) for v in row] for row in m]
    scaled = [[d * d * v for v in row] for row in s]
    m_t = [list(col) for col in zip(*m)]
    assert _congruent(cleared, s, scaled) == (_product(_product(m, s), m_t) == s)
    assert _congruent(list(zip(*cleared)), s, scaled) == (_product(_product(m_t, s), m) == s)
    unknowns = len(m) * (len(m) - 1) // 2
    ours = geometry._poisson_equations_at((cleared, d))
    assert all(type(v) is int for row in ours for v in row)
    assert kernel_lattice(IntMatrix.from_rows(ours, cols=unknowns)) == kernel_lattice(
        IntMatrix.from_rows(_fraction_poisson_rows(m), cols=unknowns)
    )


def _rational_components(n: int):
    """Coordinates x_i and quotients of Laurent polynomials with 1-3 terms,
    exponents -1..2 and `Fraction` coefficients, in n variables."""
    exponents = st.tuples(*[st.integers(-1, 2)] * n)
    coefficients = st.fractions(-5, 5, max_denominator=4).filter(bool)
    poly = st.dictionaries(exponents, coefficients, min_size=1, max_size=3).map(
        lambda terms: LaurentPoly(n, terms))
    return st.one_of(st.integers(0, n - 1).map(lambda i: RationalFunction.coordinate(i, n)),
                     st.builds(RationalFunction, poly, poly))


@st.composite
def _log_jacobian_maps(draw):
    """(f, p): a `BirationalMap` of 1-3 random components or a
    `MonomialMap` with exponents -2..2, in 1-3 variables, and a point of
    rationals in -5..5, 0 drawn often."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = BirationalMap(n, draw(st.lists(_rational_components(n), min_size=1, max_size=3)))
    else:
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        f = MonomialMap.from_rows(draw(st.lists(row, min_size=1, max_size=3)), n)
    coordinate = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=7))
    return f, tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))


def _quotient_rule_log_jacobian(f, p):
    """(dM, d) for M = J(p) p_j / f_i(p) in Fractions, J by
    `BirationalMap.jacobian`, cleared by the lcm d of M's denominators; None
    where f(p) has a zero coordinate, ZeroDivisionError where f is
    undefined at p.  A `MonomialMap` is taken as its birational map."""
    g = f if isinstance(f, BirationalMap) else as_birational(f)
    try:
        image, jac = g.evaluate(p), g.jacobian(p)
    except ZeroDivisionError:
        return ZeroDivisionError
    if not all(image):
        return None
    m = [[v * x / y for v, x in zip(row, p)] for row, y in zip(jac, image)]
    d = lcm(*(v.denominator for row in m for v in row))
    return [[int(v * d) for v in row] for row in m], d


def _cleared_log_jacobian(f, p):
    try:
        return maps._log_jacobian(f, p)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(SETTINGS, max_examples=300)
@given(_log_jacobian_maps())
# zero image coordinates: x1 divides x1^2 + x1 x2 at x1 = 0, and
# x1 x2 - 1 vanishes at (1/2, 2)
@example((BirationalMap.from_strings(["x1^2 + x1*x2", "x2"]), (Fraction(0), Fraction(3))))
@example((BirationalMap.from_strings(["x1*x2 - 1", "x2"]), (Fraction(1, 2), Fraction(2))))
# vanishing denominators: x1 - x2 at (2, 2), and x1 at x1 = 0
@example((BirationalMap.from_strings(["x2/(x1 - x2)", "x1"]), (Fraction(2), Fraction(2))))
@example((BirationalMap.from_strings(["x2/x1", "x1"]), (Fraction(0), Fraction(1))))
# x2^-1 at x2 = 0, and after a zero image coordinate x1 x2^2 at x2 = 0
@example((MonomialMap.from_rows([[1, -1], [0, 1]], 2), (Fraction(1), Fraction(0))))
@example((MonomialMap.from_rows([[1, 2], [0, -1]], 2), (Fraction(1), Fraction(0))))
def test_cleared_log_jacobian_is_the_quotient_rule_reference(case):
    # the integer (dM, d) of maps._log_jacobian is the reference cleared
    # from Fractions, and its verdict at an edge point is the reference's;
    # no row it returns is shared with the map's cache
    f, p = case
    got = _cleared_log_jacobian(f, p)
    assert got == _quotient_rule_log_jacobian(f, p)
    if isinstance(got, tuple):
        dm, d = got
        assert d > 0 and all(type(v) is int for row in dm for v in row)
        for row in dm:
            row.append(None)
        assert _cleared_log_jacobian(f, p) == _quotient_rule_log_jacobian(f, p)


@st.composite
def _composition_cases(draw):
    """(m, f, points): a `BirationalMap` f of 1-3 random components in 1-3
    variables, a `MonomialMap` m on its target with exponents -2..2, and
    three positive rational points."""
    n = draw(st.integers(1, 3))
    f = BirationalMap(n, draw(st.lists(_rational_components(n), min_size=1, max_size=3)))
    row = st.lists(st.integers(-2, 2), min_size=f.dim_out, max_size=f.dim_out)
    m = MonomialMap.from_rows(draw(st.lists(row, min_size=1, max_size=3)), f.dim_out)
    coordinate = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    point = st.tuples(*[coordinate] * n)
    return m, f, draw(st.lists(point, min_size=3, max_size=3))


@settings(SETTINGS, max_examples=150)
@given(_composition_cases())
def test_monomial_after_birational_is_pointwise_composition(case):
    # m . f from compose equals m(f(p)) wherever the right side is defined;
    # a normal form is defined wherever an unreduced form of it is
    m, f, points = case
    composite = m.after(f)
    assert composite.dim_in == f.dim_in and composite.dim_out == m.dim_out
    for p in points:
        try:
            want = m.evaluate(f.evaluate(p))
        except ZeroDivisionError:
            continue
        assert composite.evaluate(p) == want
    wider = MonomialMap.from_rows([[1] * (f.dim_out + 1)], f.dim_out + 1)
    with pytest.raises(ValueError):
        wider.after(f)


# Coordinates of the generated-step property: 0 (for -0.0 totals and
# vanishing denominators), signs, and magnitudes whose powers overflow
# floats (10^100 ** 4, (10^-150) ** -3).
_COORDINATES = [0.0, 1.0, -2.0, 0.5, 1e-150, 1e100, 3.25, -0.125]


def _term_list(nvars: int):
    """1-4 terms with Fraction coefficients and exponents -3..4."""
    coefficients = st.fractions(-5, 5, max_denominator=7).filter(bool)
    exponents = st.lists(st.integers(-3, 4), min_size=nvars, max_size=nvars)
    return st.lists(st.tuples(coefficients, exponents.map(laurent._sparse)),
                    min_size=1, max_size=4)


@st.composite
def _step_cases(draw):
    """(components, point): a random map of 1-3 variables, bare coordinates
    among its components, and a point of floats."""
    n = draw(st.integers(1, 3))
    component = st.one_of(
        st.integers(0, n - 1),
        st.tuples(_term_list(n), st.one_of(st.none(), _term_list(n))),
    )
    comps = draw(st.lists(component, min_size=1, max_size=3))
    point = draw(st.lists(st.one_of(st.sampled_from(_COORDINATES), st.floats(-4, 4)),
                          min_size=n, max_size=n))
    return comps, point


def _bits(v):
    """v exactly: a raw mpf tuple, an interval's endpoints, an mpf's tuple,
    a float's hex."""
    if isinstance(v, tuple):
        return v
    if hasattr(v, "_mpi_"):
        return v._mpi_
    if hasattr(v, "_mpf_"):
        return v._mpf_
    return v.hex() if isinstance(v, float) else (v.numerator, v.denominator)


def _fresh_compiled(comps, num, hot: bool):
    """comps compiled for num with its coefficients converted, cold or hot."""
    compiled = maps._Compiled([
        comp if isinstance(comp, int) else tuple(
            None if terms is None else [(num.convert(c), mono) for c, mono in terms]
            for terms in comp)
        for comp in comps
    ])
    if hot:
        compiled.steps = maps._HOT_STEPS
    return compiled


def _step_outcome(comps, x, jacobian: bool, num, hot: bool):
    """maps._step on a fresh compilation of comps, interpreted or, with
    hot, generated: its values and Jacobian rows as bits, or the type and
    message of what it raised."""
    compiled = _fresh_compiled(comps, num, hot)
    try:
        image, rows = maps._step(compiled, x, jacobian, num)
    except Exception as exc:  # the same exception must come from both paths
        outcome = type(exc), str(exc)
    else:
        outcome = ([(type(v), _bits(v)) for v in image],
                   rows and [[(type(v), _bits(v)) for v in row] for row in rows])
    assert (compiled.generated[jacobian] is not None) == hot
    return outcome


# (digits, number type at those digits) of the property
_NUMBER_TYPES = [(15, lambda: dynamics._FLOAT), (15, lambda: maps._EXACT),
                 (30, lambda: maps._MPF), (64, lambda: maps._MPF), (128, lambda: maps._MPF),
                 (30, lambda: maps._RAW), (64, lambda: maps._RAW), (128, lambda: maps._RAW),
                 (64, dynamics._intervals)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_step_cases())
# 3/x1 and -2 x2^2/x1 / x2^-3: Jacobian parts c * -1 * x ** -2 and
# c * -3 * x ** -4, negative int literals of the libmpf step
@example(([([(Fraction(3), ((0, -1),))], None)], [2.0]))
@example(([([(Fraction(-2), ((0, -1), (1, 2)))], [(Fraction(1), ((1, -3),))])], [0.5, -2.0]))
# x1/(x1 - 1) at x1 = 1: the denominator vanishes, and the zero test
# raises before the division does
@example(([([(Fraction(1), ((0, 1),))], [(Fraction(1), ((0, 1),)), (Fraction(-1), ())])], [1.0]))
def test_generated_steps_are_the_interpreted_steps_bit_for_bit(case):
    # floats, mpf objects and raw mpf values at 30, 64 and 128 digits,
    # Fraction and intervals; the values and Jacobians, or the
    # exception, of the interpreter and of the generated straight-line
    # step, which for mpf is written as libmpf calls on raw values
    comps, point = case
    for digits, number_type in _NUMBER_TYPES:
        with mp.workdps(digits):
            num = number_type()
            x = [num.convert(Fraction(v)) for v in point]
            if num is maps._RAW:  # its convert makes the compiled form's mpf objects
                x = maps._raw(x)
            for jacobian in (False, True):
                want = _step_outcome(comps, x, jacobian, num, hot=False)
                assert _step_outcome(comps, x, jacobian, num, hot=True) == want


# The number types of the Newton kernels: floats, and raw mpf values at
# 30, 64 and 128 digits
_NEWTON_TYPES = [(15, dynamics._FLOAT), (30, maps._RAW), (64, maps._RAW), (128, maps._RAW)]


@st.composite
def _newton_cases(draw):
    """(components, point, p): a random self-map of n = 1-3 variables, bare
    coordinates among its components, a point of floats and p = 1-3."""
    n = draw(st.integers(1, 3))
    component = st.one_of(
        st.integers(0, n - 1),
        st.tuples(_term_list(n), st.one_of(st.none(), _term_list(n))),
    )
    comps = draw(st.lists(component, min_size=n, max_size=n))
    point = draw(st.lists(st.one_of(st.sampled_from(_COORDINATES), st.floats(0.25, 4)),
                          min_size=n, max_size=n))
    return comps, point, draw(st.integers(1, 3))


def _system_outcome(comps, x, p: int, jacobian: bool, num, hot: bool):
    """The Newton system of f^p at x from `dynamics._kernel` on a fresh
    compilation, the reference (`_power`, `_less_identity`) while cold,
    the generated code once hot: its difference, residuals and J - I as
    bits, or the type and message of what it raised."""
    compiled = _fresh_compiled(comps, num, hot)
    system, _ = dynamics._kernel(compiled, p, len(x), num)
    try:
        diff, res, jac = system(x, jacobian)
    except Exception as exc:  # the same exception must come from both kernels
        outcome = type(exc), str(exc)
    else:
        outcome = ([_bits(v) for v in diff], [_bits(v) for v in res],
                   jac and [[_bits(v) for v in row] for row in jac])
    assert (compiled.generated != [None, None]) == hot
    return outcome


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_newton_cases())
# x1 -> (x1^2 - 2)/(x1 - 1) at its pole, and x1 -> 2 x1 at 10^100 (an
# overflow of 10^100^2 only in the product of p = 3)
@example(([([(Fraction(1), ((0, 2),)), (Fraction(-2), ())],
            [(Fraction(1), ((0, 1),)), (Fraction(-1), ())])], [1.0], 1))
@example(([([(Fraction(1), ((0, 1),))], None)], [1e100], 3))
def test_generated_newton_systems_are_the_reference_bit_for_bit(case):
    # f^p(x) - x, its residuals and J(f^p)(x) - I, with and without the
    # Jacobian, in floats and on raw mpf values: the reference's values
    # or exception, from the generated kernel of a hot map
    comps, point, p = case
    for digits, num in _NEWTON_TYPES:
        with mp.workdps(digits):
            x = [num.convert(Fraction(v)) for v in point]
            if num is maps._RAW:
                x = maps._raw(x)
            for jacobian in (False, True):
                want = _system_outcome(comps, x, p, jacobian, num, hot=False)
                assert _system_outcome(comps, x, p, jacobian, num, hot=True) == want


def _solve_outcome(solve, a, b):
    """solve(a, b) as bits, or the type and message of what it raised."""
    try:
        return [_bits(v) for v in solve(a, b)]
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def _generated_solve_agrees(a, b, num) -> object:
    """Assert that the generated solve of a x = b is `_lu_solve`'s, bit for
    bit, at the working precision; return the outcome."""
    prec = None if num is dynamics._FLOAT else mp.mp.prec
    _, solve = dynamics._newton_kernel(len(a), prec)
    want = _solve_outcome(lambda a, b: dynamics._lu_solve(a, b, num), a, b)
    assert _solve_outcome(solve, a, b) == want
    return want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lu_systems())
def test_generated_solves_are_the_reference_bit_for_bit(system):
    # random, singular, zero-column and near-singular systems of 1-3
    # equations, in floats and on raw mpf values at 30, 64 and 128 digits
    rows, b = system
    for digits, num in _NEWTON_TYPES:
        with mp.workdps(digits):
            convert = float if num is dynamics._FLOAT else lambda v: maps._raw([num.convert(v)])[0]
            _generated_solve_agrees([[convert(v) for v in row] for row in rows],
                                    [convert(v) for v in b], num)


@pytest.mark.parametrize("digits, num", _NEWTON_TYPES)
def test_generated_solves_at_the_singularity_tolerance(digits, num):
    # After one elimination step the pivot of [[1, 1], [1, 1 + d]] is d,
    # against the tolerance mnorm(a, 1) eps: d at or just below it is
    # singular, d just above it is not (2^-51 and 2^-50 in floats; 15/16
    # and 17/16 of 2^-(prec + 8) at prec bits with 10 extra bits); and a
    # zero column is singular at its pivot
    with mp.workdps(digits):
        if num is dynamics._FLOAT:
            corners = [(1.0 + 2.0**-51, True), (1.0 + 2.0**-50, False)]
            zero, one, two = 0.0, 1.0, 2.0
        else:
            unit = mp.mpf(2) ** -(mp.mp.prec + 8)
            with mp.workprec(mp.mp.prec + 30):
                corners = [((1 + unit * k / 16)._mpf_, k == 15) for k in (15, 17)]
            zero, one, two = (mp.mpf(v)._mpf_ for v in (0, 1, 2))
        for corner, singular in corners:
            got = _generated_solve_agrees([[one, one], [one, corner]], [one, two], num)
            assert (got[0] is ZeroDivisionError) == singular
        for n in (2, 3):
            a = [[zero, *[one if i == j else two for j in range(n - 1)]] for i in range(n)]
            assert _generated_solve_agrees(a, [one] * n, num)[0] is ZeroDivisionError


def test_generated_float_sums_fold_left_to_right():
    # Python 3.12's sum() of floats is compensated: it adds (1e16, 1, -1e16)
    # to 1.0 where the fold from zero of the reference gives 0.0, and
    # (1e16, 1, 1) to 1e16 + 2 where the fold gives 1e16.  A kernel that
    # summed otherwise than its reference would differ from it there.
    # x -> A x with rows (1e16, 1, -1e16), (1, 1, 1), (1, 1, 1): the entry
    # (0, 1) of J(f^2) = A A has the terms 1e16, 1 and -1e16
    rows = [[1e16, 1.0, -1e16], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    comps = [([(Fraction(c), ((j, 1),)) for j, c in enumerate(row)], None) for row in rows]
    x = [1.0, 2.0, 3.0]
    want = _system_outcome(comps, x, 2, True, dynamics._FLOAT, hot=False)
    assert _system_outcome(comps, x, 2, True, dynamics._FLOAT, hot=True) == want
    assert want[2][0][1] == (0.0).hex()
    # the row sums 1e16 + 1 + 1 of the pivot search and the tolerance
    a = [[1e16, 1.0, 1.0], [1.0, 1e16, 1.0], [1.0, 1.0, 1e16]]
    _generated_solve_agrees(a, [1e16, 1.0, -1e16], dynamics._FLOAT)
