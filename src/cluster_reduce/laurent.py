"""Exact multivariate Laurent polynomial and rational function arithmetic.

Coefficients are rationals (`fractions.Fraction`), exponents arbitrary
integers.  A rational function is always held in a canonical normal
form: numerator and denominator are true polynomials with no common
factor, and the denominator has integer coefficients with content 1 and
positive leading coefficient (lexicographic order).  Because the form is
canonical, equality of values is equality of representations, which is
what lets the geometry layer certify identities symbolically.

Every gcd, cofactor and normal form is computed by one routine,
`_cofactors`, on integer polynomials {exponent tuple: int} of content 1.
It shifts off the monomial factors, and a gcd with a monomial argument
is read off the exponents.  Any other gcd is first tried by the
heuristic GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): one
variable at a time is set to a large integer down to an integer gcd,
and a candidate is rebuilt from the digits of the image gcds.  The
exact divisions of both arguments by the candidate certify it as the
gcd, and their quotients are the cofactors, with no second division.
When the heuristic gives up (too many evaluation points or too large
integers), the argument with fewer terms is tried as a divisor of the
other, and only when it does not divide does the classic primitive
polynomial remainder sequence answer, on ints too: recurse on the
contents one variable at a time and run a pseudo-division Euclid in the
main variable.

There is one polynomial division, `_divide`, on integer polynomials.
By Gauss's lemma a primitive divisor divides over Q exactly when it
divides over Z, so the heuristic's certificate, the trial division, the
PRS's contents and its cofactors all divide integer polynomials, and no
gcd, content or remainder is taken on `Fraction` coefficients.

Sums, derivatives and new fractions take the full normal form, on ints:
`_integer_normal_form` divides out the integer contents, reduces by
`_cofactors`, and builds `Fraction` coefficients only for the result.
Every composition (an exchange relation, a reduction's pi o phi, an
iterate) is `RationalFunction.compose`.  A monomial is a product of
powers of the arguments: the powers of monomial arguments fold into one
coefficient and one exponent shift, applied last, and only the others
are multiplied.  Any other function takes exactly one normal form: its
numerator and denominator are brought over one common denominator,
which cancels, as sums of products of the arguments' integer primitive
parts, each power formed once by repeated squaring.  A product
cross-cancels its two normal forms (Henrici, J. ACM 3, 1956), as the
normal forms of each numerator over the other denominator, and takes no
final gcd: each numerator factor left is coprime to each denominator
factor left, and by Gauss's lemma the product of the two denominator
factors, each primitive with a positive lead, is primitive with a
positive lead too.  An inverse only rescales by the numerator's
content.  Products and powers of term dicts, `Fraction` or int, make
their terms in one order (`_mul_terms`, `_power_terms`), so a result's
terms, and the float evaluations that sum them, do not depend on the
arithmetic that formed it.
The two ``_raw`` constructors store their arguments unchecked:
``LaurentPoly._raw`` must be given nonzero `Fraction` coefficients, and
``RationalFunction._raw`` a normal form.

The package's one point-evaluation kernel lives here: `_terms` gives the
value and optional gradient of a sparse term list in any number type.
`LaurentPoly.evaluate(_mp)` call it, and `maps` compiles maps into such
term lists; a hot compiled map runs straight-line code generated from
them that makes `_terms`' operations in its order, with `_terms` as
the reference it must equal bit for bit.  `maps` also runs it on Python
ints, with its gradient, on a map's term lists cleared of a rational
point's numerators and denominators: that forms the sampled integer
log-Jacobian d M(p) of `geometry` with no `Fraction` and no generated
step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add, neg, sub

import mpmath as mp

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "poly_gcd",
    "parse_rational",
    "format_rational",
]


def _to_mpf(v):
    """v at the working precision; a Fraction as mpf(numerator) / denominator."""
    return mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mp.mpf(v)


def _shifted(terms: dict, exp) -> dict:
    """The terms {exponents: coefficient} times x^exp, in their order."""
    if not any(exp):
        return terms
    return {tuple(map(add, e, exp)): c for e, c in terms.items()}


def _mul_terms(f: dict, g: dict) -> dict:
    """The product of the terms {exponents: coefficient} f and g, for any
    nonzero coefficients: a term of g times each term of f in turn, each
    sum kept where it is nonzero and dropped where it cancels, so the
    product's terms come in the same order for ints and `Fraction`s."""
    if len(g) == 1:
        ((e2, c2),) = g.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in f.items()}
    if len(f) == 1:
        ((e1, c1),) = f.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in g.items()}
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _add_terms(f: dict, g: dict) -> dict:
    """The sum of the terms {exponents: coefficient} f and g: f's terms in
    their order, then g's new ones, with the sums that cancel dropped."""
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _power_terms(squares: list, k: int) -> dict:
    """p^k for k >= 1 of the terms p = squares[0]: the product of the
    squares p^(2^i) of k's binary digits, from the lowest.  squares holds
    p^(2^i) at i and keeps those formed here."""
    result = None
    i = 0
    while True:
        if k & 1:
            result = squares[i] if result is None else _mul_terms(result, squares[i])
        k >>= 1
        if not k:
            return result
        i += 1
        if i == len(squares):
            squares.append(_mul_terms(squares[-1], squares[-1]))


def _sparse(exponents) -> tuple:
    """The nonzero (variable, exponent) pairs of an exponent vector."""
    return tuple((i, k) for i, k in enumerate(exponents) if k)


def _terms(terms, x, zero, grad=None):
    """sum c x^e over the sparse terms [(c, ((i, k), ...))] at x, from
    zero, in any number type; with grad, also add its gradient into grad,
    using d(c x^e)/dx_j = e_j c x^(e - e_j)."""
    total = zero
    for coeff, mono in terms:
        powers = [x[i] if k == 1 else x[i] ** k for i, k in mono]
        term = coeff
        for v in powers:
            term *= v
        total += term
        if grad is None:
            continue
        for j, (i, k) in enumerate(mono):
            part = coeff if k == 1 else coeff * k * x[i] ** (k - 1)
            for m, v in enumerate(powers):
                if m != j:
                    part *= v
            grad[i] += part
    return total


class LaurentPoly:
    """A Laurent polynomial stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                e = tuple(int(x) for x in exp)
                if len(e) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                clean[e] = c
        self.terms = clean

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "LaurentPoly":
        """The polynomial with these terms, unchecked: every coefficient
        must be a nonzero Fraction and every exponent an nvars-tuple."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = nvars
        res.terms = terms
        return res

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c, nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(i: int, nvars: int) -> "LaurentPoly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        exp = tuple(int(j == i) for j in range(nvars))
        return LaurentPoly(nvars, {exp: Fraction(1)})

    @staticmethod
    def monomial(exp, nvars: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple(int(x) for x in exp): Fraction(coeff)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: Fraction(1)}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly._raw(self.nvars, _add_terms(self.terms, other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly._raw(self.nvars, _mul_terms(self.terms, other.terms))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly(self.nvars)
        return LaurentPoly._raw(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if self.is_monomial():
                (e, c), = self.terms.items()
                return LaurentPoly(self.nvars, {tuple(n * x for x in e): Fraction(1) / c ** (-n)})
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        if n == 0:
            return LaurentPoly.constant(1, self.nvars)
        if n == 1:
            return self
        scale, primitive = _integer_primitive(self)
        return _from_integer(_power_terms([primitive], n), self.nvars, scale ** n)

    # -- calculus -----------------------------------------------------

    def derivative(self, var: int) -> "LaurentPoly":
        # e -> e - e_var is injective and c k != 0, so no terms meet or cancel
        return LaurentPoly._raw(self.nvars, {
            tuple(x - 1 if j == var else x for j, x in enumerate(e)): c * e[var]
            for e, c in self.terms.items() if e[var]
        })

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point) -> Fraction:
        return self._evaluate(point, Fraction, Fraction(0))

    def evaluate_mp(self, point):
        """Evaluate at a point of mpmath numbers (uses the caller's precision)."""
        return self._evaluate(point, _to_mpf, mp.mp.zero)

    def _evaluate(self, point, convert, zero):
        """The value at point, with coordinates and coefficients through convert."""
        x = [convert(v) for v in point]
        if len(x) != self.nvars:
            raise ValueError("point dimension mismatch")
        return _terms([(convert(c), _sparse(e)) for e, c in self.terms.items()], x, zero)

    # -- support queries ----------------------------------------------

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return tuple(map(min, zip(*self.terms)))

    def leading_exponent(self) -> tuple[int, ...]:
        return max(self.terms)  # lexicographic on exponent tuples

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_exponent()]

    def content(self) -> Fraction:
        """Rational content carrying the sign of the leading coefficient."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        cont = Fraction(num, den)
        if self.leading_coefficient() < 0:
            cont = -cont
        return cont

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Polynomial gcd on integer polynomials (heuristic, with a trial division
# and the primitive PRS as fallbacks)
# ---------------------------------------------------------------------------


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Primitive gcd of two polynomials (non-negative exponents).

    The result has integer coefficients with content 1 and positive
    leading coefficient; constants collapse to 1, and the gcd of 0 and p
    is p's primitive part.  It is `_cofactors`' gcd of the two integer
    primitive parts.
    """
    n = f.nvars
    if n != g.nvars:
        raise ValueError("variable count mismatch")
    if any(x < 0 for p in (f, g) for e in p.terms for x in e):
        raise ValueError("gcd requires true polynomials")
    pf, pg = _integer_primitive(f)[1], _integer_primitive(g)[1]
    if pf and pg:
        h = _cofactors(pf, pg, n)[0]
    else:
        h = _primitive(pf or pg) if pf or pg else {}
    return _from_integer(h, n, 1)


def _cofactors(f: dict, g: dict, n: int):
    """(h, f / h, g / h) for h = gcd(f, g), for nonzero integer Laurent
    polynomials {exponent n-tuple: int} of content 1: h has content 1, a
    positive lead and the least exponents common to f and g, and the
    quotients are exact true polynomials.

    The monomial factors are shifted off first.  A monomial's divisors
    are monomials, so with a monomial argument h is the common monomial
    factor.  Otherwise the heuristic gcd answers; when it gives up, the
    argument with fewer terms is tried as a divisor of the other, and
    only when it does not divide does the primitive PRS answer.
    """
    low_f, low_g = tuple(map(min, zip(*f))), tuple(map(min, zip(*g)))
    common = tuple(map(min, low_f, low_g))
    if len(f) == 1 or len(g) == 1:
        back = tuple(map(neg, common))
        return {common: 1}, _shifted(f, back), _shifted(g, back)
    f = _shifted(f, tuple(map(neg, low_f)))
    g = _shifted(g, tuple(map(neg, low_g)))
    found = _heu_gcd(f, g, n)
    if found is None:
        found = _quotients(f, g, _primitive(f if len(f) <= len(g) else g))
    if found is None:
        h = _prs(f, g)
        # f and g have no monomial factor, so neither has h
        found = (h, f, g) if len(h) == 1 else _quotients(f, g, h)
    h, f, g = found
    return (_shifted(h, common), _shifted(f, tuple(map(sub, low_f, common))),
            _shifted(g, tuple(map(sub, low_g, common))))


def _quotients(f: dict, g: dict, h: dict):
    """(h, f / h, g / h) for integer polynomials, or None when h does not
    divide both."""
    cf = _divide(f, h)
    cg = None if cf is None else _divide(g, h)
    return None if cg is None else (h, cf, cg)


def _primitive(p: dict) -> dict:
    """The nonzero integer polynomial p over its content, with a positive
    lead."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    return p if c == 1 else {e: v // c for e, v in p.items()}


# The heuristic gcd tries _HEU_POINTS values of xi and gives up on an
# evaluated integer of over _HEU_MAX_BITS bits.  The largest one in a
# ladder pass plus a symbolic pass has 116 bits; a gcd of two 8192-bit
# integers takes about 110 us, against 40 us at 4096 bits (CPython 3.11,
# 2-vCPU Xeon), so the cap stops a blow-up and no gcd of those passes.
# A moderate 3-variable composition reaches 5448 bits, and at a 4096-bit
# cap its gcd fell through to a PRS that ran for minutes.
_HEU_POINTS = 6
_HEU_MAX_BITS = 8192


def _heu_gcd(f: dict, g: dict, n: int):
    """(h, f / h, g / h) for h = gcd(f, g) by the heuristic gcd, or None
    when it gives up, for integer polynomials {exponent n-tuple: int} of
    content 1, neither constant nor with a monomial factor.  h has content
    1 and a positive lead; for coprime f and g it is 1 and the cofactors
    are f and g themselves.  The variables in neither are dropped for the
    heuristic."""
    used = [j for j, top in enumerate(map(max, *f, *g)) if top]
    pf, pg = f, g
    if len(used) < n:
        pf = {tuple(e[j] for j in used): c for e, c in f.items()}
        pg = {tuple(e[j] for j in used): c for e, c in g.items()}
    found = _heu(pf, pg, len(used))
    if found is None:
        return None
    h, cf, cg = found
    lead = max(h)  # lex order is kept when the unused variables are dropped
    if len(h) == 1 and not any(lead):
        return {(0,) * n: 1}, f, g
    sign = 1 if h[lead] > 0 else -1
    return tuple(_embedded(p, n, used, sign) for p in (h, cf, cg))


def _embedded(p: dict, n: int, used: list, sign: int) -> dict:
    """sign * p in n variables, for an integer polynomial p {exponents:
    int} on the variables used."""
    if len(used) == n:
        return p if sign > 0 else {e: -c for e, c in p.items()}
    out = {}
    for e, c in p.items():
        x = [0] * n
        for j, k in zip(used, e):
            x[j] = k
        out[tuple(x)] = sign * c
    return out


def _integer_primitive(p: LaurentPoly) -> tuple[Fraction, dict]:
    """(c, q) with p = c q, c > 0 and q an integer polynomial of content
    1, as {exponents: int}; (1, {}) for p = 0."""
    num, den = 0, 1
    for c in p.terms.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    if not num:
        return Fraction(1), {}
    return Fraction(num, den), {e: c.numerator * (den // c.denominator) // num
                                for e, c in p.terms.items()}


def _from_integer(p: dict, n: int, scale) -> LaurentPoly:
    """scale * p in n variables, for an integer polynomial p {exponents:
    int}."""
    return LaurentPoly._raw(n, {e: Fraction(c) * scale for e, c in p.items()})


def _heu(f: dict, g: dict, k: int):
    """(h, f / h, g / h) for h = gcd(f, g) in Z[x_1..x_k], up to sign, for
    nonzero integer polynomials {exponent k-tuple: int}; None when the
    heuristic gives up.

    With their common integer content divided out, gcd(f, g) is
    primitive.  x_k is set to xi >= 2 min(|f|, |g|) + 2 (max norms) and
    the gcd of the images, found by recursion, is read as symmetric
    xi-adic digits, one per power of x_k.  A primitive candidate so
    rebuilt that divides f and g is gcd(f, g) (Char, Geddes & Gonnet,
    J. Symb. Comp. 7, 1989), so the two exact divisions certify it.
    xi starts at 2 min(|f|, |g|) + 29 and grows by about xi^(1/4), as
    in sympy's dmp_zz_heu_gcd.
    """
    if k == 0:
        a, b = f[()], g[()]
        if max(abs(a), abs(b)).bit_length() > _HEU_MAX_BITS:
            return None
        h = gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    cont = gcd(*f.values(), *g.values())
    if cont > 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    norm_f = max(map(abs, f.values()))
    norm_g = max(map(abs, g.values()))
    if max(norm_f, norm_g).bit_length() > _HEU_MAX_BITS:
        return None
    one = (0,) * k
    xi = 2 * min(norm_f, norm_g) + 29
    for _ in range(_HEU_POINTS):
        ff, gg = _evaluate_last(f, xi), _evaluate_last(g, xi)
        if ff and gg:
            found = _heu(ff, gg, k - 1)
            if found is None:
                return None
            h = _interpolate(found[0], xi)
            c = gcd(*h.values())
            if c > 1:
                h = {e: v // c for e, v in h.items()}
            if len(h) == 1 and abs(h.get(one, 0)) == 1:
                return {one: cont}, f, g
            cf = _divide(f, h)
            cg = None if cf is None else _divide(g, h)
            if cg is not None:
                return {e: v * cont for e, v in h.items()}, cf, cg
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate_last(f: dict, xi: int) -> dict:
    """f with its last variable set to xi."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        key = e[:-1]
        out[key] = out.get(key, 0) + c * xi ** e[-1]
    return {e: c for e, c in out.items() if c}


def _interpolate(image: dict, xi: int) -> dict:
    """The polynomial in one more variable, the last, whose coefficients
    in it are the symmetric xi-adic digits of image's coefficients."""
    half = xi // 2
    out = {}
    for e, c in image.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e + (k,)] = d
            c = (c - d) // xi
            k += 1
    return out


def _divide(f: dict, g: dict):
    """f / g for integer polynomials {exponents: int}, or None when g does
    not divide f in Z[x]."""
    top = tuple(map(sub, map(max, zip(*f)), map(max, zip(*g))))
    if min(top, default=0) < 0:
        return None
    lead = max(g)
    lc = g[lead]
    rest = [(e, c) for e, c in g.items() if e != lead]
    rem = dict(f)
    quo = {}
    while rem:
        e = max(rem)
        q, r = divmod(rem.pop(e), lc)
        d = tuple(map(sub, e, lead))
        # deg q = deg f - deg g in each variable when the division is exact
        if r or any(x < 0 or x > t for x, t in zip(d, top)):
            return None
        quo[d] = q
        for eg, c in rest:
            t = tuple(map(add, eg, d))
            v = rem.get(t, 0) - q * c
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
    return quo


def _prs(f: dict, g: dict) -> dict:
    """gcd(f, g) with content 1 and a positive lead, for nonzero integer
    polynomials {exponents: int}, by the primitive PRS: with the common
    monomial factor shifted off, the gcd of the contents in the main
    variable, the last one either depends on, times the last nonzero
    pseudo-remainder of the primitive parts, each remainder made
    primitive in that variable.  It is the heuristic gcd's fallback."""
    low_f, low_g = tuple(map(min, zip(*f))), tuple(map(min, zip(*g)))
    common = tuple(map(min, low_f, low_g))
    if len(f) == 1 or len(g) == 1:
        return {common: 1}
    f = _shifted(f, tuple(map(neg, low_f)))
    g = _shifted(g, tuple(map(neg, low_g)))
    var = max(j for j, top in enumerate(map(max, zip(*f, *g))) if top)
    cont_f, cont_g = _content_in(f, var), _content_in(g, var)
    a, b = _divide(f, cont_f), _divide(g, cont_g)
    if max(e[var] for e in a) < max(e[var] for e in b):
        a, b = b, a
    # a remainder free of var leaves b = 1: the primitive parts are coprime
    while max(e[var] for e in b):
        r = _prem(a, b, var)
        if not r:
            break
        a, b = b, _primitive(_divide(r, _content_in(r, var)))
    return _shifted(_mul_terms(_primitive(b), _prs(cont_f, cont_g)), common)


def _content_in(f: dict, var: int) -> dict:
    """The gcd, with content 1 and a positive lead, of the coefficients of
    the integer polynomial f in x_var."""
    coefficients: dict[int, dict] = {}
    for e, c in f.items():
        coefficients.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1:]] = c
    return _primitive(reduce(_prs, coefficients.values()))


def _prem(f: dict, g: dict, var: int) -> dict:
    """prem(f, g) in x_var: lc(g)^(df - dg + 1) f reduced modulo g, for
    integer polynomials f and g of degrees df >= dg in x_var."""
    dg = max(e[var] for e in g)
    down = tuple(-dg if j == var else 0 for j in range(len(next(iter(g)))))
    lc = {tuple(map(add, e, down)): c for e, c in g.items() if e[var] == dg}
    tail = {e: c for e, c in g.items() if e[var] < dg}
    rem = f
    for k in range(max(e[var] for e in f), dg - 1, -1):
        # lc rem - lead x_var^(k - dg) g, lead rem's coefficient of x_var^k,
        # whose x_var^k terms cancel and are not formed
        lead = {tuple(map(add, e, down)): -c for e, c in rem.items() if e[var] == k}
        rem = _mul_terms({e: c for e, c in rem.items() if e[var] < k}, lc)
        if lead:
            rem = _add_terms(rem, _mul_terms(tail, lead))
    return rem


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of Laurent polynomials kept in canonical normal form.

    The constructor normalises with a gcd.  Products, quotients, powers
    and inverses of normal forms are normal forms with no final gcd (see
    the module docstring) and are built by ``_raw``, which must only be
    given a normal form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.constant(1, num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _normal_form(num, den)

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        obj = cls.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c, nvars: int) -> "RationalFunction":
        return RationalFunction._raw(
            LaurentPoly.constant(c, nvars), LaurentPoly.constant(1, nvars)
        )

    @staticmethod
    def coordinate(i: int, nvars: int) -> "RationalFunction":
        return RationalFunction._raw(
            LaurentPoly.variable(i, nvars), LaurentPoly.constant(1, nvars)
        )

    @staticmethod
    def monomial(exp, nvars: int) -> "RationalFunction":
        e = tuple(int(x) for x in exp)
        if len(e) != nvars:
            raise ValueError("exponent tuple has wrong length")
        one = Fraction(1)
        return RationalFunction._raw(
            LaurentPoly._raw(nvars, {tuple(max(x, 0) for x in e): one}),
            LaurentPoly._raw(nvars, {tuple(max(-x, 0) for x in e): one}),
        )

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction(p)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_coordinate(self, i: int) -> bool:
        return self.den.is_one() and self.num == LaurentPoly.variable(i, self.nvars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- field operations ---------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        # the cross-cancelled normal forms multiply to a normal form
        a, d = _normal_form(self.num, other.den)
        c, b = _normal_form(other.num, self.den)
        return RationalFunction._raw(a * c, b * d)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        scale = 1 / self.num.content()
        return RationalFunction._raw(self.den.scale(scale), self.num.scale(scale))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RationalFunction":
        if n == 0:
            return RationalFunction.constant(1, self.nvars)
        if n == 1:
            return self
        base = self if n > 0 else self.inverse()
        k = abs(n)
        # numerator and denominator are coprime, so powers stay coprime
        num = base.num ** k
        den = base.den ** k
        return RationalFunction._raw(num, den)

    # -- calculus -----------------------------------------------------

    def derivative(self, var: int) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    # -- evaluation and composition -----------------------------------

    def evaluate(self, point) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(point) / den

    def compose(self, args: "list[RationalFunction]") -> "RationalFunction":
        """Substitute args[i] = n_i / d_i for variable i; args live in their
        own space.

        A monomial c x^a / x^b is c times the product of the powers
        args[i]^(a_i - b_i).  The powers of monomial arguments fold into
        one coefficient and one exponent shift; the others multiply as
        normal forms, which cross-cancel pairwise, and the shift is
        applied to that product last, less the monomial factor it leaves
        common to numerator and denominator.  Otherwise numerator and
        denominator, polynomials, are brought over the one common
        denominator prod_i d_i^(h_i), h_i the largest exponent of x_i in
        either: x^e becomes prod_i n_i^(e_i) d_i^(h_i - e_i).  That
        denominator cancels from the quotient, which takes a single
        normal form.  Both sums are formed on ints, each n_i as a
        rational scale times its integer primitive part, and the normal
        form is `_integer_normal_form`'s.
        """
        if len(args) != self.nvars:
            raise ValueError("wrong number of substitution arguments")
        if not args:
            raise ValueError("composition needs at least one argument")
        m = args[0].nvars
        if any(a.nvars != m for a in args):
            raise ValueError("substitution arguments live in different spaces")
        if self.is_zero():
            return RationalFunction.constant(0, m)
        if self.num.is_monomial() and self.den.is_monomial():
            return self._compose_monomial(args, m)
        return self._compose_cleared(args, m)

    def _compose_monomial(self, args, m: int) -> "RationalFunction":
        ((a, coeff),), (b,) = self.num.terms.items(), self.den.terms
        shift = [0] * m
        product = None
        for arg, k in zip(args, map(sub, a, b)):
            if not k:
                continue
            if len(arg.num.terms) == 1 == len(arg.den.terms):
                # c x^u / x^v, its denominator's coefficient 1
                ((u, c),), (v,) = arg.num.terms.items(), arg.den.terms
                if c != 1:
                    coeff *= c ** k
                shift = [s + k * (x - y) for s, x, y in zip(shift, u, v)]
            else:
                power = arg ** k
                product = power if product is None else product * power
        if product is None:
            num = den = {(0,) * m: Fraction(1)}
        elif product.is_zero():
            return product
        else:
            num, den = product.num.terms, product.den.terms
        # x^shift num / den = num x^up / (den x^down), num and den coprime:
        # their only common factor is the monomial of the least exponents
        up = [max(s, 0) for s in shift]
        down = [max(-s, 0) for s in shift]
        common = tuple(map(min, map(add, map(min, zip(*num)), up),
                           map(add, map(min, zip(*den)), down)))
        num = _shifted(num, tuple(map(sub, up, common)))
        if coeff != 1:
            num = {e: c * coeff for e, c in num.items()}
        return RationalFunction._raw(LaurentPoly._raw(m, num),
                                     LaurentPoly._raw(m, _shifted(den, tuple(map(sub, down, common)))))

    def _compose_cleared(self, args, m: int) -> "RationalFunction":
        exps = [*self.num.terms, *self.den.terms]
        high = [max(e[i] for e in exps) for i in range(self.nvars)]
        # n_i = scales[i] * squares[i, 1][0], where that scale is not 1, and
        # d_i = squares[i, -1][0], whose coefficients in a normal form are
        # integers of content 1
        scales, squares, powers = {}, {}, {}
        for i, h in enumerate(high):
            if h:
                scale, primitive = _integer_primitive(args[i].num)
                squares[i, 1] = [primitive]
                squares[i, -1] = [{e: c.numerator for e, c in args[i].den.terms.items()}]
                if scale != 1:
                    scales[i] = scale

        def power(i: int, k: int) -> dict:
            # (n_i / scale)^k for k > 0, d_i^(-k) for k < 0
            if (i, k) not in powers:
                powers[i, k] = _power_terms(squares[i, 1 if k > 0 else -1], abs(k))
            return powers[i, k]

        def cleared(p: LaurentPoly) -> tuple[int, dict]:
            # (L, L * p(args) * prod_i d_i^(h_i)) on ints, L the lcm of the
            # denominators of the terms' scales
            terms = []
            for e, c in p.terms.items():
                for i, k in enumerate(e):
                    if k and i in scales:
                        c *= scales[i] ** k
                factors = [power(i, q) for i, k in enumerate(e) for q in (k, k - high[i]) if q]
                terms.append((reduce(_mul_terms, factors), c))
            common = lcm(*(c.denominator for _, c in terms))
            total = {}
            for term, c in terms:
                k = c.numerator * (common // c.denominator)
                for e, v in term.items():
                    v = total.get(e, 0) + k * v
                    if v:
                        total[e] = v
                    else:
                        del total[e]
            return common, total

        lcm_num, num = cleared(self.num)
        lcm_den, den = cleared(self.den)
        return RationalFunction._raw(*_integer_normal_form(num, den, m, Fraction(lcm_den, lcm_num)))

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational(self)!r})"


def _normal_form(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The normal form of num / den, den nonzero, by `_integer_normal_form`
    of their integer primitive parts."""
    cont_num, pn = _integer_primitive(num)
    cont_den, pd = _integer_primitive(den)
    return _integer_normal_form(pn, pd, num.nvars, cont_num / cont_den)


def _integer_normal_form(num: dict, den: dict, n: int, ratio: Fraction):
    """(numerator, denominator) of the normal form of ratio * num / den
    for integer Laurent polynomials {exponent n-tuple: int}; a zero den
    raises ZeroDivisionError.

    num and den are divided by their contents, den's taking the sign of
    its lead, and their `_cofactors` are the reduced fraction.  Only the
    result's coefficients are `Fraction`s: the denominator's are
    integers of content 1 with a positive lead, and ratio goes into the
    numerator's.
    """
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return LaurentPoly(n), LaurentPoly.constant(1, n)
    cont_num, cont_den = gcd(*num.values()), gcd(*den.values())
    if den[max(den)] < 0:
        cont_den = -cont_den
    if cont_num != 1 or cont_den != 1:
        ratio *= Fraction(cont_num, cont_den)
        num = {e: c // cont_num for e, c in num.items()}
        den = {e: c // cont_den for e, c in den.items()}
    _, num, den = _cofactors(num, den, n)
    return (LaurentPoly._raw(n, {e: c * ratio for e, c in num.items()}),
            LaurentPoly._raw(n, {e: Fraction(c) for e, c in den.items()}))


# ---------------------------------------------------------------------------
# Parsing and canonical serialization
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for rational function strings.

    Accepts `+ - * / ^`, integer constants, parentheses, and variables of
    the form <letters><index> with 1-based indices, e.g. ``x1`` or ``y3``.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.max_index = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                tokens.append((ch, ch))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(("int", text[i:j]))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                k = j
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j:
                    raise ValueError(f"variable name without index near {text[i:k+8]!r}")
                tokens.append(("var", text[j:k]))
                i = k
                continue
            raise ValueError(f"unexpected character {ch!r}")
        tokens.append(("end", ""))
        return tokens

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> str:
        tk, value = self.tokens[self.pos]
        if tk != kind:
            raise ValueError(f"expected {kind}, found {value!r}")
        self.pos += 1
        return value

    def parse(self, nvars: int | None):
        # first pass records the largest variable index when nvars is None
        save = self.pos
        self._scan_vars()
        n = nvars if nvars is not None else self.max_index
        if n == 0:
            n = 1  # constants still need an ambient space
        self.pos = save
        expr = self.expr(n)
        self.take("end")
        return expr

    def _scan_vars(self) -> None:
        for kind, value in self.tokens:
            if kind == "var":
                self.max_index = max(self.max_index, int(value))

    def expr(self, n: int):
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take(self.peek()) == "-":
                sign = -1
        value = self.term(n)
        if sign < 0:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.take(self.peek())
            rhs = self.term(n)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self, n: int):
        value = self.factor(n)
        while self.peek() in ("*", "/"):
            op = self.take(self.peek())
            rhs = self.factor(n)
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self, n: int):
        if self.peek() == "-":
            self.take("-")
            return -self.factor(n)
        base = self.atom(n)
        if self.peek() == "^":
            self.take("^")
            neg = False
            if self.peek() == "-":
                self.take("-")
                neg = True
            k = int(self.take("int"))
            base = base ** (-k if neg else k)
        return base

    def atom(self, n: int):
        kind = self.peek()
        if kind == "(":
            self.take("(")
            value = self.expr(n)
            self.take(")")
            return value
        if kind == "int":
            return RationalFunction.constant(int(self.take("int")), n)
        if kind == "var":
            idx = int(self.take("var"))
            if idx < 1 or idx > n:
                raise ValueError(f"variable index {idx} out of range 1..{n}")
            return RationalFunction.coordinate(idx - 1, n)
        raise ValueError(f"unexpected token in expression: {self.tokens[self.pos][1]!r}")


def parse_rational(text: str, nvars: int | None = None) -> RationalFunction:
    """Parse a rational function string such as ``(x2*x5 + x3*x4)/x1``."""
    return _Parser(text).parse(nvars)


def _format_term(exp: tuple[int, ...], coeff: Fraction, names: list[str]) -> str:
    factors = []
    for name, k in zip(names, exp):
        if k == 0:
            continue
        factors.append(name if k == 1 else f"{name}^{k}")
    c = abs(coeff)
    if not factors:
        return str(c)
    if c == 1:
        return "*".join(factors)
    return "*".join([str(c)] + factors)


def _format_poly(p: LaurentPoly, names: list[str]) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exp in sorted(p.terms, reverse=True):
        coeff = p.terms[exp]
        term = _format_term(exp, coeff, names)
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)


def _needs_parens_as_denominator(p: LaurentPoly) -> bool:
    # a monomial denominator in normal form has coefficient 1
    if len(p.terms) != 1:
        return True
    (exp,) = p.terms
    return sum(1 for k in exp if k != 0) != 1


def format_rational(f: RationalFunction, names: list[str] | None = None) -> str:
    """Canonical string form; round-trips through parse_rational."""
    if names is None:
        names = [f"x{i+1}" for i in range(f.nvars)]
    num_str = _format_poly(f.num, names)
    if f.den.is_one():
        return num_str
    if len(f.num.terms) > 1 or num_str.startswith("-"):
        num_str = f"({num_str})"
    den_str = _format_poly(f.den, names)
    if _needs_parens_as_denominator(f.den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
