"""Built-in example data: exchange matrices, Poisson coefficient matrices,
and the classical monomial coordinates that go with them.

Two families are shipped:

* the five-node family behind the Somos-5 recurrence
  x(n+5) x(n) = x(n+1)^r x(n+4)^s + x(n+2) x(n+3),
  mutation-periodic with period 1 when r = s and period 2 otherwise, and
* a seven-node quiver whose cluster map is the Somos-7 recurrence with
  vanishing middle coefficient, x(n+7) x(n) = x(n+1) x(n+6) + x(n+3) x(n+4),
  which carries two invariant Poisson structures of different ranks on
  top of its presymplectic form.

``fordy_marsh`` builds any period-1 quiver from its first row.

The y-coordinate exponent tables are the standard choices used in the
literature for these examples; every library computation is basis-free,
but golden tests and demos compare against these specific coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix

__all__ = [
    "somos5_matrix",
    "somos5_poisson",
    "somos5_null_exponents",
    "somos5_casimir_exponents",
    "seven_node_matrix",
    "seven_node_c1",
    "seven_node_c2",
    "seven_node_null_exponents",
    "seven_node_casimir1_exponents",
    "seven_node_casimir2_exponents",
    "skew_toeplitz",
    "fordy_marsh",
    "Fixture",
    "all_fixtures",
    "get_fixture",
]


def somos5_matrix(r: int = 1, s: int = 1) -> IntMatrix:
    """Five-node exchange matrix of the Somos-5 family.

    Period 1 when r == s, period 2 otherwise.  The default (1, 1) is the
    quiver of the classical Somos-5 recurrence.
    """
    return IntMatrix.from_rows(
        [
            [0, r, -1, -1, s],
            [-r, 0, r + s, r - 1, -1],
            [1, -(r + s), 0, r + s, -1],
            [1, 1 - r, -(r + s), 0, r],
            [-s, 1, 1, -r, 0],
        ]
    )


def skew_toeplitz(n: int, offsets: tuple[int, ...]) -> IntMatrix:
    """Skew-symmetric n x n matrix with constant superdiagonals.

    offsets[d-1] is the value on the d-th superdiagonal (entries (i, i+d));
    missing trailing offsets default to 0.
    """
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            d = abs(j - i)
            val = offsets[d - 1] if 0 < d <= len(offsets) else 0
            row.append(val if j > i else (-val if j < i else 0))
        rows.append(row)
    return IntMatrix.from_rows(rows)


def fordy_marsh(first_row) -> IntMatrix:
    """Exchange matrix of the mutation-period-1 quiver with this first row.

    Fordy & Marsh, J. Algebr. Comb. 34 (2011): with b_{1,j+1} =
    first_row[j], the rows follow from
    b_{i+1,j+1} = b_{i,j} + b_{1,i+1} [-b_{1,j+1}]_+ - b_{1,j+1} [-b_{1,i+1}]_+
    and skew-symmetry.  The first row of a period-1 quiver is
    palindromic; any other row raises ValueError.  (1, -1, -1, 1) gives
    the Somos-5 quiver.
    """
    row = [int(v) for v in first_row]
    if row != row[::-1]:
        raise ValueError(f"first row {tuple(row)} is not palindromic")
    top = [0, *row]
    n = len(top)
    b = [top] + [[0] * n for _ in range(n - 1)]
    for i in range(1, n):
        b[i][0] = -top[i]
        for j in range(1, n):
            b[i][j] = (
                b[i - 1][j - 1]
                + top[i] * max(-top[j], 0)
                - top[j] * max(-top[i], 0)
            )
    return IntMatrix.from_rows(b)


def somos5_poisson() -> IntMatrix:
    """Invariant Poisson coefficients c_ij = j - i for the Somos-5 map."""
    return skew_toeplitz(5, (1, 2, 3, 4))


def somos5_null_exponents() -> IntMatrix:
    """Exponents of y1 = x1 x4/(x2 x3), y2 = x2 x5/(x3 x4)."""
    return IntMatrix.from_rows([[1, -1, -1, 1, 0], [0, 1, -1, -1, 1]])


def somos5_casimir_exponents() -> IntMatrix:
    """Exponents of (y1, y2, y3) with y3 = x3 x5/x4^2."""
    return IntMatrix.from_rows(
        [[1, -1, -1, 1, 0], [0, 1, -1, -1, 1], [0, 0, 1, -2, 1]]
    )


def seven_node_matrix() -> IntMatrix:
    """Seven-node rank-2 exchange matrix of the Somos-7 (middle term zero) map."""
    return IntMatrix.from_rows(
        [
            [0, 1, 0, -1, -1, 0, 1],
            [-1, 0, 1, 1, 0, -1, 0],
            [0, -1, 0, 1, 1, 0, -1],
            [1, -1, -1, 0, 1, 1, -1],
            [1, 0, -1, -1, 0, 1, 0],
            [0, 1, 0, -1, -1, 0, 1],
            [-1, 0, 1, 1, 0, -1, 0],
        ]
    )


def seven_node_c1() -> IntMatrix:
    """Rank-4 invariant Poisson coefficients for the seven-node map."""
    return skew_toeplitz(7, (1, 1, 2, 3, 3, 4))


def seven_node_c2() -> IntMatrix:
    """Rank-2 invariant Poisson coefficients for the seven-node map."""
    return skew_toeplitz(7, (1, -1, 0, 1, -1, 0))


def seven_node_null_exponents() -> IntMatrix:
    """Exponents of y1 = x1 x6/(x3 x4), y2 = x2 x7/(x4 x5)."""
    return IntMatrix.from_rows(
        [[1, 0, -1, -1, 0, 1, 0], [0, 1, 0, -1, -1, 0, 1]]
    )


def seven_node_casimir1_exponents() -> IntMatrix:
    """Exponents of (y1, y2, y3) with y3 = x1 x7/x4^2."""
    return IntMatrix.from_rows(
        [
            [1, 0, -1, -1, 0, 1, 0],
            [0, 1, 0, -1, -1, 0, 1],
            [1, 0, 0, -2, 0, 0, 1],
        ]
    )


def seven_node_casimir2_exponents() -> IntMatrix:
    """Exponents of (y1, ..., y5) with y4 = x1 x2 x3, y5 = x2 x3 x4."""
    return IntMatrix.from_rows(
        [
            [1, 0, -1, -1, 0, 1, 0],
            [0, 1, 0, -1, -1, 0, 1],
            [1, 0, 0, -2, 0, 0, 1],
            [1, 1, 1, 0, 0, 0, 0],
            [0, 1, 1, 1, 0, 0, 0],
        ]
    )


@dataclass(frozen=True)
class Fixture:
    """Named bundle of matrices and exponent tables for one example."""

    name: str
    description: str
    matrices: tuple[tuple[str, IntMatrix], ...]
    exponents: tuple[tuple[str, IntMatrix], ...] = ()

    def matrix(self, label: str) -> IntMatrix:
        for key, value in self.matrices:
            if key == label:
                return value
        raise KeyError(f"fixture {self.name!r} has no matrix {label!r}")

    def exponent(self, label: str) -> IntMatrix:
        for key, value in self.exponents:
            if key == label:
                return value
        raise KeyError(f"fixture {self.name!r} has no exponent table {label!r}")


def all_fixtures() -> tuple[Fixture, ...]:
    return (
        Fixture(
            "somos5",
            "Somos-5: five-node period-1 quiver, invariant Poisson "
            "coefficients c_ij = j - i, and the usual y-coordinates",
            (("B", somos5_matrix(1, 1)), ("C", somos5_poisson())),
            (
                ("null", somos5_null_exponents()),
                ("casimir", somos5_casimir_exponents()),
            ),
        ),
        Fixture(
            "somos5-2periodic",
            "Five-node period-2 quiver of the same family with (r, s) = (1, 2)",
            (("B", somos5_matrix(1, 2)),),
        ),
        Fixture(
            "c7-pair",
            "Seven-node period-1 quiver with two invariant Poisson "
            "structures C1 (rank 4) and C2 (rank 2) and the y-coordinates "
            "of its three reductions",
            (
                ("B", seven_node_matrix()),
                ("C1", seven_node_c1()),
                ("C2", seven_node_c2()),
            ),
            (
                ("null", seven_node_null_exponents()),
                ("casimir1", seven_node_casimir1_exponents()),
                ("casimir2", seven_node_casimir2_exponents()),
            ),
        ),
    )


def get_fixture(name: str) -> Fixture:
    for fixture in all_fixtures():
        if fixture.name == name:
            return fixture
    known = ", ".join(f.name for f in all_fixtures())
    raise KeyError(f"unknown fixture {name!r}; available: {known}")
