"""Exact Laurent-polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from cluster_reduce import (
    LaurentPoly,
    RationalFunction,
    format_rational,
    parse_rational,
)
from cluster_reduce import laurent
from cluster_reduce.laurent import poly_gcd
from reference import is_polynomial


def _random_poly(rng, nvars, terms=4, low=-3, high=3):
    p = LaurentPoly.constant(0, nvars)
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(low, high) for _ in range(nvars))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = p + LaurentPoly.monomial(exp, nvars, coeff)
    return p


class TestLaurentPoly:
    def test_zero_terms_dropped(self):
        p = LaurentPoly.monomial((1, 0), 2, 1) + LaurentPoly.monomial((1, 0), 2, -1)
        assert p.is_zero()
        assert p.terms == {}

    def test_constant_and_variable(self):
        one = LaurentPoly.constant(1, 2)
        assert one.is_one()
        x = LaurentPoly.variable(0, 2)
        assert x.terms == {(1, 0): Fraction(1)}

    def test_negative_exponents(self):
        p = LaurentPoly.monomial((-2, 1), 2, 3)
        assert not is_polynomial(p)
        assert p.is_monomial()
        assert p.evaluate((Fraction(2), Fraction(5))) == Fraction(15, 4)

    def test_ring_axioms_random(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 3)
            a, b, c = (_random_poly(rng, n) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + LaurentPoly.constant(0, n) == a
            assert a * LaurentPoly.constant(1, n) == a
            assert a - a == LaurentPoly.constant(0, n)
            assert a ** 0 == LaurentPoly.constant(1, n) and a ** 1 is a
            cube = a ** 3
            assert cube == a * a * a
            assert all(type(v) is Fraction for v in cube.terms.values())

    def test_derivative_product_rule(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(1, 3)
            var = rng.randrange(n)
            a = _random_poly(rng, n)
            b = _random_poly(rng, n)
            lhs = (a * b).derivative(var)
            rhs = a.derivative(var) * b + a * b.derivative(var)
            assert lhs == rhs

    def test_derivative_of_monomial(self):
        p = LaurentPoly.monomial((-2,), 1, 5)
        assert p.derivative(0) == LaurentPoly.monomial((-3,), 1, -10)

    def test_evaluate_matches_mp(self):
        import mpmath as mp

        rng = random.Random(23)
        for _ in range(10):
            p = _random_poly(rng, 2)
            point = (Fraction(3, 2), Fraction(7, 5))
            exact = p.evaluate(point)
            with mp.workdps(40):
                approx = p.evaluate_mp([mp.mpf(3) / 2, mp.mpf(7) / 5])
                assert abs(approx - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(
                    "1e-35"
                )

    def test_leading_data(self):
        p = LaurentPoly.monomial((2, 0), 2, 3) + LaurentPoly.monomial((0, 1), 2, -1)
        assert p.leading_exponent() == (2, 0)
        assert p.leading_coefficient() == 3
        assert p.min_exponents() == (0, 0)


class TestPolyGcd:
    def test_divides_both(self):
        rng = random.Random(24)
        for _ in range(15):
            n = rng.randint(1, 2)
            g = _random_poly(rng, n, terms=2, low=0, high=2)
            if g.is_zero():
                continue
            a = g * _random_poly(rng, n, terms=2, low=0, high=2)
            b = g * _random_poly(rng, n, terms=2, low=0, high=2)
            if a.is_zero() or b.is_zero():
                continue
            d = poly_gcd(a, b)
            # d divides a and b: the quotients are exact Laurent polynomials
            assert RationalFunction(a, d).den.is_monomial()
            assert RationalFunction(b, d).den.is_monomial()

    def test_gcd_of_coprime(self):
        x = LaurentPoly.variable(0, 2)
        y = LaurentPoly.variable(1, 2)
        one = LaurentPoly.constant(1, 2)
        d = poly_gcd(x + one, y + one)
        assert d.is_monomial() and len(d.terms) == 1

    def test_gcd_with_common_factor(self):
        x = LaurentPoly.variable(0, 1)
        one = LaurentPoly.constant(1, 1)
        a = (x + one) * (x + one)
        b = (x + one) * (x - one)
        d = poly_gcd(a, b)
        q = RationalFunction(a, d)
        assert q.den.is_monomial()
        # x + 1 divides the gcd
        assert not RationalFunction(d, x + one).num.is_zero()
        assert RationalFunction(d, x + one).den.is_monomial()

    def test_gcd_with_zero_is_the_primitive_part(self):
        x, y = (LaurentPoly.variable(i, 2) for i in range(2))
        p = (x * y).scale(Fraction(-3, 2)) + x.scale(6)
        zero = LaurentPoly(2)
        want = x * y - x.scale(4)
        assert poly_gcd(zero, p) == want == poly_gcd(p, zero)
        assert poly_gcd(zero, zero).is_zero()

    def test_prs_multiplies_in_the_gcd_of_the_contents(self):
        # in the main variable x2, f and g have content 2x1 + 2 and x1 + 1
        # and primitive parts (x2 + x1)(x2 + 1) and (x2 + x1)(x2 - 3)
        x1, x2 = (LaurentPoly.variable(i, 2) for i in range(2))
        one = LaurentPoly.constant(1, 2)
        common = x2 + x1
        f = (x1 + one).scale(2) * common * (x2 + one)
        g = (x1 + one) * common * (x2 - one.scale(3))
        want = (x1 + one) * common
        assert laurent._prs(_integer(f), _integer(g)) == want.terms
        assert poly_gcd(f, g) == want


def _integer(p: LaurentPoly) -> dict:
    """The integer primitive part of p, as {exponents: int}."""
    return laurent._integer_primitive(p)[1]


def _counting_prs(monkeypatch) -> list:
    """Record every call of the integer PRS, the heuristic gcd's fallback,
    its recursive calls included."""
    calls = []
    core = laurent._prs

    def counting(f, g):
        calls.append((f, g))
        return core(f, g)

    monkeypatch.setattr(laurent, "_prs", counting)
    return calls


class TestHeuristicGcd:
    """`_cofactors` of integer primitive parts, the heuristic gcd with its
    trial division and PRS fallbacks, gives the PRS's gcd, and each
    cofactor is the exact quotient; see test_differential for the property
    on random polynomials."""

    @staticmethod
    def _check(f, g, want):
        pf, pg = _integer(f), _integer(g)
        h, cf, cg = laurent._cofactors(pf, pg, f.nvars)
        assert h == want
        assert laurent._mul_terms(h, cf) == pf and laurent._mul_terms(h, cg) == pg
        assert all(type(v) is int for p in (h, cf, cg) for v in p.values())

    @pytest.mark.parametrize("setting", [("_HEU_POINTS", 0), ("_HEU_MAX_BITS", 8)])
    def test_giving_up_takes_the_prs(self, monkeypatch, setting):
        # no evaluation point at all, or an evaluated integer over 8 bits
        # one level down (the inputs' coefficients have at most 4)
        x, y, z = (LaurentPoly.variable(i, 3) for i in range(3))
        one = LaurentPoly.constant(1, 3)
        c = x * y + z.scale(2) + one
        f, g = c * (x - y), c * c * (x * z + one.scale(3))
        want = laurent._prs(_integer(f), _integer(g))
        assert want == c.terms
        calls = _counting_prs(monkeypatch)
        monkeypatch.setattr(laurent, *setting)
        self._check(f, g, want)
        assert calls

    @pytest.mark.parametrize("setting", [("_HEU_POINTS", 0), ("_HEU_MAX_BITS", 8)])
    def test_giving_up_tries_the_shorter_argument_first(self, monkeypatch, setting):
        # g = 3/2 c divides f = c (x - y), so its primitive part c is the
        # gcd, found by one trial division with no PRS
        x, y, z = (LaurentPoly.variable(i, 3) for i in range(3))
        c = x * y + z.scale(2) + LaurentPoly.constant(1, 3)
        f, g = c * (x - y), c.scale(Fraction(3, 2))
        heu, gave_up = laurent._heu_gcd, []

        def recording(a, b, n):
            found = heu(a, b, n)
            gave_up.append(found is None)
            return found

        calls = _counting_prs(monkeypatch)
        monkeypatch.setattr(laurent, "_heu_gcd", recording)
        monkeypatch.setattr(laurent, *setting)
        self._check(f, g, c.terms)
        assert gave_up == [True] and not calls

    @pytest.mark.parametrize("f, g", [
        # 3 + 8x and 3x + 4 at xi = 37 are 299 = 13 * 23 and 115 = 5 * 23,
        # whose gcd 23 has the digits of x - 14
        (LaurentPoly(1, {(1,): Fraction(1, 2), (2,): Fraction(4, 3)}),
         LaurentPoly(1, {(2,): Fraction(-3, 4), (1,): -1})),
        (LaurentPoly(2, {(2, 0): Fraction(-1, 2), (1, 0): -5}),
         LaurentPoly(2, {(2, 2): -1, (0, 2): Fraction(-2, 3), (2, 1): Fraction(3, 4)})),
    ])
    def test_a_candidate_that_does_not_divide_is_rejected(self, monkeypatch, f, g):
        divide = laurent._divide
        rejected = []

        def recording(a, b):
            q = divide(a, b)
            rejected.append(q is None)
            return q

        want = laurent._prs(_integer(f), _integer(g))
        calls = _counting_prs(monkeypatch)
        monkeypatch.setattr(laurent, "_divide", recording)
        self._check(f, g, want)
        assert any(rejected) and not calls

    def test_division_rejects_a_non_divisor(self):
        # 3x + 1 by 2x + 1: the leading exponents divide, the coefficients not
        assert laurent._divide({(1,): 3, (0,): 1}, {(1,): 2, (0,): 1}) is None
        assert laurent._divide({(1, 1): 1}, {(0, 2): 1}) is None
        assert laurent._divide({(2,): 4, (0,): -1}, {(1,): 2, (0,): 1}) == {(1,): 2, (0,): -1}

    def test_monomial_argument(self):
        f = LaurentPoly(3, {(2, 0, 1): 3})
        g = LaurentPoly(3, {(1, 2, 3): Fraction(1, 2), (4, 1, 0): -2})
        pf, pg = _integer(f), _integer(g)
        h, cf, cg = laurent._cofactors(pf, pg, 3)
        assert h == {(1, 0, 0): 1}
        assert (laurent._mul_terms(h, cf), laurent._mul_terms(h, cg)) == (pf, pg)
        assert poly_gcd(g, f).terms == h == laurent._prs(pf, pg)
        assert poly_gcd(LaurentPoly.constant(5, 3), g).is_one()

    def test_a_coprime_normal_form_takes_no_prs(self, monkeypatch):
        # a^2 / (b c) for a random coprime triple (3 variables, exponents
        # -1..2, coefficients +-1..5) on which the PRS alone ran past 3 s
        a = LaurentPoly(3, {(2, -1, -1): 5, (0, 0, -1): -4, (0, 2, 2): -4, (-1, 0, 1): -4})
        b = LaurentPoly(3, {(0, -1, 0): -2, (0, 2, 0): -3, (0, -1, 2): 1, (-1, 2, 0): -1})
        c = LaurentPoly(3, {(2, 0, 2): -1, (2, 0, 0): 2})
        calls = _counting_prs(monkeypatch)
        r = RationalFunction(a * a, b * c)
        assert calls == []
        assert r.num * b * c == r.den * a * a
        assert is_polynomial(r.num) and r.den.content() == 1

    def test_a_moderate_composition_stays_on_the_heuristic(self, monkeypatch):
        # the cleared numerator and denominator have 35 and 18 terms, and
        # the heuristic's innermost integers reach 5448 bits; past its cap
        # the trial division fails and the PRS ran for minutes
        f = [parse_rational(t, 3) for t in (
            "(4*x1^2*x2^3 - 6*x1*x2^3*x3^3 + 4/3*x2*x3^3)"
            "/(2*x1^2*x2^2*x3^3 - 2*x1^2*x2*x3^2 + 5*x1*x3)",
            "(32/3*x1^3*x2^3*x3^2 + 20*x3^2 + 10)/(11*x1^2*x2*x3^2 + 4*x2^3 + 6*x2*x3)")]
        calls = []

        def no_prs(a, b):
            calls.append((a, b))
            raise AssertionError("the heuristic gcd fell through to the PRS")

        monkeypatch.setattr(laurent, "_prs", no_prs)
        outer = parse_rational("x2^2/x1 + 1", 2)
        g = outer.compose(f)
        assert calls == []
        assert (len(g.num.terms), len(g.den.terms)) == (35, 18)
        point = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
        assert g.evaluate(point) == outer.evaluate([h.evaluate(point) for h in f])


class TestRationalFunction:
    def test_normal_form_equality(self):
        x = RationalFunction.coordinate(0, 2)
        y = RationalFunction.coordinate(1, 2)
        left = (x * x - y * y) / (x - y)
        assert left == x + y

    def test_cancellation_to_one(self):
        x = RationalFunction.coordinate(0, 1)
        one = RationalFunction.constant(1, 1)
        f = (x + one) / (x + one)
        assert f.is_one()

    def test_field_axioms_random(self):
        rng = random.Random(25)
        for _ in range(15):
            n = rng.randint(1, 2)
            a = RationalFunction(_random_poly(rng, n), LaurentPoly.constant(1, n))
            b = RationalFunction(_random_poly(rng, n), LaurentPoly.constant(1, n))
            if b.is_zero():
                continue
            assert (a / b) * b == a
            assert a - a == RationalFunction.constant(0, n)
            assert b * b.inverse() == RationalFunction.constant(1, n)

    def test_monomial_is_its_normal_form(self):
        m = RationalFunction.monomial([2, -1, 0], 3)
        want = RationalFunction(LaurentPoly.monomial((2, 0, 0), 3), LaurentPoly.monomial((0, 1, 0), 3))
        assert (m.num.terms, m.den.terms) == (want.num.terms, want.den.terms)
        assert all(type(c) is Fraction for p in (m.num, m.den) for c in p.terms.values())
        assert all(type(k) is int for p in (m.num, m.den) for e in p.terms for k in e)
        with pytest.raises(ValueError):
            RationalFunction.monomial((1, 2), 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(
                LaurentPoly.constant(1, 1), LaurentPoly.constant(0, 1)
            )

    def test_compose(self):
        # f(u, v) = (u + v)/u composed with u = x^2, v = 1/x
        f = parse_rational("(x1 + x2)/x1", 2)
        g = f.compose(
            [parse_rational("x1^2", 1), parse_rational("1/x1", 1)]
        )
        assert g == parse_rational("(x1^3 + 1)/x1^3", 1)

    def test_derivative_quotient_rule(self):
        f = parse_rational("(x1 + 1)/x2", 2)
        assert f.derivative(0) == parse_rational("1/x2", 2)
        assert f.derivative(1) == parse_rational("-(x1 + 1)/x2^2", 2)

    def test_evaluate(self):
        f = parse_rational("(x1*x2 + 1)/(x1 - x2)", 2)
        assert f.evaluate((Fraction(3), Fraction(2))) == Fraction(7)

    def test_nvars(self):
        assert parse_rational("x3", 5).nvars == 5


class TestParseFormat:
    def test_round_trip_simple(self):
        for text in [
            "x1",
            "x2/x1",
            "(x2 + 1)/x1",
            "(x2*x5 + x3*x4)/x1",
            "x3*x5^2/(x2*x4)",
            "2/x1",
            "(x2^2 + x2)/x1",
        ]:
            f = parse_rational(text)
            assert format_rational(f) == text

    def test_round_trip_random(self):
        rng = random.Random(26)
        for _ in range(25):
            n = rng.randint(1, 3)
            num = _random_poly(rng, n, low=0, high=3)
            den = _random_poly(rng, n, low=0, high=2)
            if num.is_zero() or den.is_zero():
                continue
            f = RationalFunction(num, den)
            assert parse_rational(format_rational(f), n) == f

    def test_parse_fractions_and_powers(self):
        f = parse_rational("3/2*x1^2", 1)
        assert f.evaluate((Fraction(2),)) == Fraction(6)

    def test_parse_negative_powers(self):
        f = parse_rational("x1^-2", 1)
        assert f.evaluate((Fraction(2),)) == Fraction(1, 4)

    def test_custom_names(self):
        f = parse_rational("(x2 + 1)/x1", 2)
        assert format_rational(f, names=["y1", "y2"]) == "(y2 + 1)/y1"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x1 +", 1)
        with pytest.raises(ValueError):
            parse_rational("q7", 1)

    def test_parse_rejects_nesting_too_deep(self):
        assert parse_rational("(" * 20 + "x1" + ")" * 20) == parse_rational("x1")
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_rational("(" * 400 + "x1" + ")" * 400)

    def test_explicit_nvars_widens(self):
        f = parse_rational("x1", 4)
        assert f.nvars == 4
