"""The exact core against an independent implementation (sympy).

Small random polynomials in 2-3 variables, drawn by Hypothesis: the
primitive gcd agrees with ``sympy.gcd`` up to sign and content, and the
rational-function normal form with ``sympy.cancel`` up to a constant
factor shared by numerator and denominator.
"""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cluster_reduce.laurent import LaurentPoly, RationalFunction, poly_gcd  # noqa: E402

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


@SETTINGS
@given(_triples(low=-1))
def test_normal_form_matches_sympy_cancel(polys):
    a, b, c = polys
    num, den = a * c, b * c
    ours = RationalFunction(num, den)
    theirs_num, theirs_den = sympy.fraction(sympy.cancel(_sympy(num) / _sympy(den)))
    scale = _constant_ratio(_sympy(ours.num), theirs_num)
    assert scale is not None
    assert _constant_ratio(_sympy(ours.den), theirs_den) == scale
    # the canonical representative: true polynomials, the denominator with
    # integer coefficients, content 1 and a positive leading coefficient
    assert ours.num.is_polynomial() and ours.den.is_polynomial()
    assert all(k.denominator == 1 for k in ours.den.terms.values())
    assert ours.den.content() == 1
