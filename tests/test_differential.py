"""The exact core against an independent implementation (sympy).

Small random polynomials in 2-3 variables, drawn by Hypothesis: the
primitive gcd agrees with ``sympy.gcd`` up to sign and content (and the
heuristic gcd with its cofactors, in 1-3 variables, with the primitive
PRS term for term, and exact division undoes a product), and the
rational-function normal form with
``sympy.cancel`` up to a constant factor shared by numerator and
denominator.  The operations that skip
the final gcd (product, quotient, inverse) or take a single normal form
(composition) also equal, term for term, the full normal form of their
unreduced numerator and denominator.  The residue screen's one-inversion
arithmetic is checked against one ``pow(v, -1, p)`` per coordinate, its
generated steps and label rows against the term-by-term screen of
``reference.residue_orbit`` on random Laurent maps, and
the periodic-point Newton's acceptance residual against the absolute and
relative residual tests it stands for, and its linear solver on raw mpf
values against ``mpmath.lu_solve`` bit for bit (in floats, against the
solver as it was before it ran on raw values).  The congruences of the geometry
checks, on a log-Jacobian cleared to integers, give the verdicts of the
rational identities, and the integer discovery rows have the kernel of
the rows cleared from `Fraction` coefficients.  The generated
straight-line step of a hot compiled map gives the interpreter's values,
Jacobians and exceptions bit for bit, on random maps in every number
type of the kernel, raw mpf values of the libmpf step included.
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

from cluster_reduce import dynamics, iterate_orbit, random_positive_point  # noqa: E402
from cluster_reduce import IntMatrix, cluster_map, detect_period, geometry  # noqa: E402
from cluster_reduce import BirationalMap, MonomialMap, laurent, maps  # noqa: E402
from cluster_reduce import find_invariant_poisson, kernel_lattice, rng_substream  # noqa: E402
from cluster_reduce.fixtures import somos5_matrix  # noqa: E402
from cluster_reduce.intlinalg import _congruent  # noqa: E402
from cluster_reduce.laurent import LaurentPoly, RationalFunction, poly_gcd  # noqa: E402
from reference import is_polynomial, label_residues, residue_orbit  # noqa: E402

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


@SETTINGS
@given(_triples())
def test_poly_gcd_matches_sympy(polys):
    a, b, c = polys
    f, g = a * c, b * c
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


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _rational_polys(n), _rational_polys(n), _rational_polys(n), st.booleans()
)))
def test_heuristic_gcd_is_the_prs_gcd(case):
    # with and without a planted common factor c; the cofactors are the
    # exact quotients, and every coefficient is a Fraction
    a, b, c, planted = case
    f, g = (a * c, b * c) if planted else (a, b)
    h, cf, cg = laurent._gcd_cofactors(f, g)
    want = laurent._prs_gcd(f, g)
    assert h.terms == want.terms
    assert h * cf == f and h * cg == g
    assert all(type(v) is Fraction for p in (h, cf, cg) for v in p.terms.values())


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_rational_polys(n), _rational_polys(n))))
def test_exact_division_undoes_a_product(case):
    # (a b) / b is a term for term, in Fractions; a b + 1 is not divisible
    # by a non-constant b; zero divides nothing and is divided by anything
    a, b = case
    n = a.nvars
    q = laurent._exact_divide(a * b, b)
    assert q.terms == a.terms
    assert all(type(v) is Fraction for v in q.terms.values())
    if not b.is_constant():
        with pytest.raises(ArithmeticError):
            laurent._exact_divide(a * b + LaurentPoly.constant(1, n), b)
    zero = LaurentPoly(n)
    with pytest.raises(ZeroDivisionError):
        laurent._exact_divide(a, zero)
    assert laurent._exact_divide(zero, b) == zero


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
    # the lifted orbits of the pipeline: each rung's cluster map, and the
    # cluster map from the section y^V of each of its reduced systems
    for phi, systems, _ in ladder_systems.values():
        for system in [phi, *systems]:
            lift = dynamics._Lift(system)
            y0 = random_positive_point(lift.psi.dim_in, rng_substream(0, 0))
            orbit = lift.orbit(y0, 8)
            for p in dynamics.SCREEN_PRIMES:
                got = dynamics._residue_orbit(lift.phi, orbit.exact(0), 8, p)
                assert got == _residue_orbit_reference(lift.phi, orbit.exact(0), 8, p)
            # the lifted orbit reduces its start y0^V mod p from y0 mod p
            p, *got = orbit.residues
            assert tuple(got) == _residue_orbit_reference(lift.phi, orbit.exact(0), 8, p)


@st.composite
def _screen_cases(draw):
    """(phi, x0, steps, p, section, pi): a Laurent map of 1-4 variables,
    its components coordinates or quotients with exponents -3..3 and
    polynomial denominators, coefficients and start coordinates whose
    numerator or denominator may be 0 mod p, an optional section and a
    label projection."""
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

    r = draw(st.integers(1, 4))
    section = draw(st.one_of(st.none(), rows(r, n).map(lambda v: MonomialMap.from_rows(v, r))))
    dim = n if section is None else r
    x0 = draw(st.lists(rationals, min_size=dim, max_size=dim))
    pi = MonomialMap.from_rows(draw(rows(n, draw(st.integers(1, 3)))), n)
    return phi, x0, draw(st.integers(0, 5)), p, section, pi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_screen_cases())
def test_residue_kernels_match_the_term_by_term_screen(case):
    # the generated steps, which carry inverses along the orbit with one
    # inversion per step, and the generated label rows give the screen's
    # residues, inverses and labels, and its None, exactly
    phi, x0, steps, p, section, pi = case
    want = residue_orbit(phi, x0, steps, p, section)
    got = dynamics._residue_orbit(phi, x0, steps, p, section)
    assert got == want
    if want is not None:
        orbit = dynamics._LiftedOrbit(phi, x0, steps, section)
        orbit.residues = (p, *got)
        assert orbit.label_residues(pi) == label_residues(pi, p, *want)


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


def _step_outcome(comps, x, jacobian: bool, num, hot: bool):
    """maps._step on a fresh compilation of comps, interpreted or, with
    hot, generated: its values and Jacobian rows as bits, or the type and
    message of what it raised."""
    compiled = maps._Compiled([
        comp if isinstance(comp, int) else tuple(
            None if terms is None else [(num.convert(c), mono) for c, mono in terms]
            for terms in comp)
        for comp in comps
    ])
    if hot:
        compiled.steps = maps._HOT_STEPS
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
