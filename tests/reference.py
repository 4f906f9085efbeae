"""Reference forms the tests check the package against, which the package
itself never needs: a monomial map as a birational map, a Darboux basis
summed back into its skew form, the pointwise matrices of log-canonical
structures, and the polynomial test of a Laurent polynomial."""

from fractions import Fraction

from cluster_reduce import BirationalMap, IntMatrix


def as_birational(m) -> BirationalMap:
    """The `MonomialMap` m as a `BirationalMap` of its monomial components."""
    return BirationalMap(m.dim_in, m.components())


def reconstruct(d) -> IntMatrix:
    """sum_m lam_m (u v^T - v u^T) over the pairs of the `DarbouxBasis` d;
    raises ArithmeticError on an entry that is not an integer."""
    n = d.ambient_dim
    acc = [[Fraction(0)] * n for _ in range(n)]
    for m, lam in enumerate(d.scales):
        u, v = d.vectors[2 * m], d.vectors[2 * m + 1]
        for i in range(n):
            for j in range(n):
                acc[i][j] += lam * (u[i] * v[j] - v[i] * u[j])
    if any(x.denominator != 1 for row in acc for x in row):
        raise ArithmeticError("Darboux reconstruction produced a non-integer entry")
    return IntMatrix(n, n, tuple(tuple(int(x) for x in row) for row in acc))


def coefficients_at(form, point) -> list[list[Fraction]]:
    """The matrix [b_ij / (x_i x_j)] of the `PresymplecticForm` form at point."""
    b = form.matrix.entries
    return [[Fraction(b[i][j]) / (point[i] * point[j]) for j in range(form.dim)]
            for i in range(form.dim)]


def tensor_at(structure, point) -> list[list[Fraction]]:
    """The matrix [c_ij x_i x_j] of the `PoissonStructure` structure at point."""
    c = structure.matrix.entries
    return [[Fraction(c[i][j]) * point[i] * point[j] for j in range(structure.dim)]
            for i in range(structure.dim)]


def is_polynomial(p) -> bool:
    """Whether the `LaurentPoly` p has no negative exponent."""
    return all(all(x >= 0 for x in e) for e in p.terms)
