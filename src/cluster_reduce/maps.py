"""Birational and monomial maps built on exact rational function arithmetic.

A `BirationalMap` is a tuple of rational functions of the source
coordinates; composition and iteration are symbolic.  A `MonomialMap` is
the special case x -> x^U for an integer exponent matrix U, which is how
submersions onto leaf spaces are represented: row i of U is the exponent
vector of the monomial y_i.

Points are evaluated by one kernel in every number type (`_Numbers`): a
map is compiled once per coefficient type into sparse term lists, cached
on the map, and `_step` runs `laurent._terms` on them.  Jacobians are
exact values of the quotient rule on the compiled terms, with gradients
carried forward term by term; no symbolic derivative is formed.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .intlinalg import IntMatrix, LatticeBasis
from .laurent import RationalFunction, format_rational, parse_rational
from .laurent import _sparse, _terms, _to_mpf

__all__ = [
    "PositivePoint",
    "positive_point",
    "random_positive_point",
    "rng_substream",
    "BirationalMap",
    "MonomialMap",
]


PositivePoint = tuple[Fraction, ...]


def positive_point(values) -> PositivePoint:
    """Validate and convert to a tuple of positive exact rationals."""
    pt = tuple(Fraction(v) for v in values)
    if any(x <= 0 for x in pt):
        raise ValueError("point has a non-positive coordinate")
    return pt


def rng_substream(seed, index: int) -> random.Random:
    """Deterministic per-sample generator; independent of call order."""
    return random.Random(f"{seed}:{index}")


def random_positive_point(nvars: int, rng: random.Random) -> PositivePoint:
    """Random positive rational with numerator and denominator in 1..1000."""
    return tuple(
        Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(nvars)
    )


@dataclass(frozen=True)
class _Numbers:
    """A number type of the kernel: zero, one, convert (a coefficient or
    coordinate into the type) and key(), the cache entry of coefficients so
    converted; the mpf key holds the working precision, so 1/3 rounded at
    64 digits is never reused at 128.  The Newton solver of `dynamics` also
    reads the unit roundoff eps() and the absolute sum abs_sum."""

    zero: object
    one: object
    convert: Callable
    key: Callable
    eps: Callable | None = None
    abs_sum: Callable | None = None


_EXACT = _Numbers(Fraction(0), Fraction(1), Fraction, lambda: "exact")
_MPF = _Numbers(mp.mp.zero, mp.mp.one, _to_mpf, lambda: ("mpf", mp.mp.prec),
                lambda: mp.eps, lambda xs: mp.fsum(xs, absolute=True))


def _compile(f: BirationalMap, convert):
    """f's components for repeated evaluation, or None.

    A component is the index i when it is the coordinate x_i, else a pair
    (num, den) of term lists [(coefficient, sparse exponents)], den None
    when it is 1.  Coefficients pass through convert; None from convert
    makes the result None.
    """
    comps = []
    for c in f.components:
        if c.den.is_one() and list(c.num.terms.values()) == [1]:
            (mono,) = [_sparse(e) for e in c.num.terms]
            if len(mono) == 1 and mono[0][1] == 1:
                comps.append(mono[0][0])
                continue
        num, den = (
            [(convert(coeff), _sparse(e)) for e, coeff in poly.terms.items()]
            for poly in (c.num, c.den)
        )
        if any(coeff is None for coeff, _ in num + den):
            return None
        comps.append((num, None if c.den.is_one() else den))
    return comps


def _step(comps, x, jacobian: bool, num: _Numbers):
    """(f(x), J_f(x) as rows or None) for f compiled with coefficients of
    num's type; J_f by the quotient rule (a - f b) / d on the gradients a
    and b of numerator and denominator d."""
    n = len(x)
    image, rows = [], [] if jacobian else None
    for comp in comps:
        if isinstance(comp, int):
            image.append(x[comp])
            if jacobian:
                rows.append([num.one if j == comp else num.zero for j in range(n)])
            continue
        num_terms, den = comp
        gnum, gden = ([num.zero] * n, [num.zero] * n) if jacobian else (None, None)
        v = _terms(num_terms, x, num.zero, gnum)
        if den is not None:
            d = _terms(den, x, num.zero, gden)
            if d == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            v /= d
            if jacobian:
                gnum = [(a - v * b) / d for a, b in zip(gnum, gden)]
        image.append(v)
        if jacobian:
            rows.append(gnum)
    return image, rows


def _apply(f, point, num: _Numbers, jacobian: bool):
    """_step of map f at point, its coordinates converted to num's type."""
    x = [num.convert(v) for v in point]
    if len(x) != f.dim_in:
        raise ValueError("point dimension mismatch")
    return _step(f._compiled(num), x, jacobian, num)


class BirationalMap:
    """A tuple of rational functions of common source coordinates."""

    __slots__ = ("dim_in", "components", "_cache")

    def __init__(self, dim_in: int, components) -> None:
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, RationalFunction):
                raise TypeError("components must be rational functions")
            if c.nvars != dim_in:
                raise ValueError("component variable count does not match dim_in")
        self.dim_in = dim_in
        self.components = comps
        self._cache = {}

    @property
    def dim_out(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(n: int) -> "BirationalMap":
        return BirationalMap(n, [RationalFunction.coordinate(i, n) for i in range(n)])

    @staticmethod
    def from_strings(strings, nvars: int | None = None) -> "BirationalMap":
        if nvars is None:
            nvars = len(strings)
        comps = [parse_rational(s, nvars) for s in strings]
        return BirationalMap(nvars, comps)

    def to_strings(self, names=None) -> list[str]:
        return [format_rational(c, names) for c in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BirationalMap):
            return NotImplemented
        return self.dim_in == other.dim_in and self.components == other.components

    def is_identity(self) -> bool:
        return self.dim_out == self.dim_in and all(
            c.is_coordinate(i) for i, c in enumerate(self.components)
        )

    # -- application --------------------------------------------------

    def _compiled(self, num: _Numbers):
        """The components compiled for num's type, cached under num.key()."""
        key = num.key()
        if key not in self._cache:
            self._cache[key] = _compile(self, num.convert)
        return self._cache[key]

    def evaluate(self, point) -> tuple[Fraction, ...]:
        return tuple(_apply(self, point, _EXACT, False)[0])

    def evaluate_mp(self, point):
        return tuple(_apply(self, point, _MPF, False)[0])

    def compose(self, inner: "BirationalMap") -> "BirationalMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        args = list(inner.components)
        return BirationalMap(inner.dim_in, [c.compose(args) for c in self.components])

    def iterate(self, p: int) -> "BirationalMap":
        """The p-fold composite; stepwise so intermediates stay reduced."""
        if self.dim_out != self.dim_in:
            raise ValueError("only self-maps can be iterated")
        if p < 0:
            raise ValueError("iteration count must be non-negative")
        result = BirationalMap.identity(self.dim_in)
        for _ in range(p):
            result = self.compose(result)
        return result

    # -- derivatives --------------------------------------------------

    def jacobian(self, point) -> list[list[Fraction]]:
        """Exact J[i][j] = d f_i / d x_j at point."""
        return _apply(self, point, _EXACT, True)[1]

    def jacobian_mp(self, point):
        return _apply(self, point, _MPF, True)[1]

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "dim_in": self.dim_in,
            "components": self.to_strings(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "BirationalMap":
        return BirationalMap.from_strings(data["components"], int(data["dim_in"]))

    def __repr__(self) -> str:
        return f"BirationalMap({self.to_strings()!r})"


class MonomialMap:
    """x -> (x^u_1, ..., x^u_r) for integer exponent rows u_i."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: IntMatrix) -> None:
        self.exponents = exponents

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None) -> "MonomialMap":
        return MonomialMap(IntMatrix.from_rows(rows, cols=ambient_dim))

    @property
    def dim_in(self) -> int:
        return self.exponents.cols

    @property
    def dim_out(self) -> int:
        return self.exponents.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return self.exponents == other.exponents

    def lattice(self) -> LatticeBasis:
        """The (unnormalized) lattice basis given by the exponent rows."""
        return LatticeBasis(self.dim_in, self.exponents.entries, saturated=False)

    def components(self) -> tuple[RationalFunction, ...]:
        n = self.dim_in
        return tuple(
            RationalFunction.monomial(row, n) for row in self.exponents.entries
        )

    def as_birational(self) -> BirationalMap:
        return BirationalMap(self.dim_in, self.components())

    def _compiled(self, num: _Numbers):
        """The rows as components of `_compile`: one term, coefficient 1."""
        return [([(num.one, _sparse(row))], None) for row in self.exponents.entries]

    def evaluate(self, point) -> tuple[Fraction, ...]:
        return tuple(_apply(self, point, _EXACT, False)[0])

    def evaluate_mp(self, point):
        return tuple(_apply(self, point, _MPF, False)[0])

    def after(self, inner: BirationalMap) -> BirationalMap:
        """self . inner as a birational map: components prod_j inner_j^(u_ij)."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        comps = []
        for row in self.exponents.entries:
            acc = RationalFunction.constant(1, inner.dim_in)
            for j, k in enumerate(row):
                if k:
                    acc = acc * inner.components[j] ** k
            comps.append(acc)
        return BirationalMap(inner.dim_in, comps)

    def after_monomial(self, inner: "MonomialMap") -> "MonomialMap":
        """Monomial composition: exponent matrices multiply."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        return MonomialMap(self.exponents @ inner.exponents)

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "dim_in": self.dim_in,
            "exponents": [[str(x) for x in row] for row in self.exponents.entries],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialMap":
        rows = [[int(x) for x in row] for row in data["exponents"]]
        return MonomialMap(IntMatrix.from_rows(rows, cols=int(data["dim_in"])))

    def __repr__(self) -> str:
        return f"MonomialMap({self.exponents.entries!r})"
