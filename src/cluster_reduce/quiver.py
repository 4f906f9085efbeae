"""Quiver (exchange matrix) mutation and mutation-periodic cluster maps.

A quiver is encoded by its skew-symmetric integer exchange matrix B.
Mutation-periodicity with period m means that mutating nodes 1..m in
order reproduces B up to the cyclic relabelling (1,...,N) -> (2,...,N,1)
applied m times; the associated cluster map is the composite of the m
exchange relations followed by that relabelling, so one application of
the map advances the underlying recurrence by m steps.

Node indices in the public API are 1-based, matching the usual labelling
of quiver nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intlinalg import IntMatrix
from .laurent import RationalFunction
from .maps import BirationalMap

__all__ = [
    "CertificateError",
    "Quiver",
    "Seed",
    "PeriodicityCertificate",
    "mutate_matrix",
    "mutate_seed",
    "shifted_matrix",
    "detect_period",
    "cluster_map",
    "GROWTH_STEPS",
    "degree_growth",
    "growth_class",
]

# Iterates of phi whose degrees degree_growth returns; growth_class is tuned to it.
GROWTH_STEPS = 60


class CertificateError(ValueError):
    """A periodicity certificate does not match the matrix it claims."""


@dataclass(frozen=True)
class Quiver:
    """Skew-symmetric integer exchange matrix with node count."""

    matrix: IntMatrix

    def __post_init__(self) -> None:
        if not self.matrix.is_skew_symmetric():
            raise ValueError("exchange matrix must be skew-symmetric")

    @property
    def n(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class Seed:
    """Exchange matrix together with cluster variables.

    Cluster entries are rational functions of the initial cluster, so a
    sequence of seed mutations accumulates the full birational change of
    variables.
    """

    matrix: IntMatrix
    cluster: tuple[RationalFunction, ...]

    @staticmethod
    def initial(matrix: IntMatrix) -> "Seed":
        n = matrix.rows
        if not matrix.is_skew_symmetric():
            raise ValueError("exchange matrix must be skew-symmetric")
        return Seed(matrix, tuple(RationalFunction.coordinate(i, n) for i in range(n)))


@dataclass(frozen=True)
class PeriodicityCertificate:
    """Witness that mutating nodes 1..period reproduces the shifted matrix."""

    n: int
    period: int

    @property
    def mutation_sequence(self) -> tuple[int, ...]:
        return tuple(range(1, self.period + 1))

    def verify(self, b: IntMatrix) -> bool:
        m = b
        for k in self.mutation_sequence:
            m = mutate_matrix(m, k)
        return m == shifted_matrix(b, self.period)


def _check_node(b: IntMatrix, k: int) -> None:
    if not 1 <= k <= b.rows:
        raise IndexError(f"node index {k} out of range 1..{b.rows}")


def mutate_matrix(b: IntMatrix, k: int) -> IntMatrix:
    """Matrix mutation at node k (1-based).

    Entries in row or column k flip sign; all others receive the
    standard correction (|b_ik| b_kj + b_ik |b_kj|) / 2, which is always
    an integer.
    """
    if not b.is_skew_symmetric():
        raise ValueError("mutation requires a skew-symmetric matrix")
    _check_node(b, k)
    kk = k - 1
    n = b.rows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == kk or j == kk:
                row.append(-b.entries[i][j])
            else:
                bik = b.entries[i][kk]
                bkj = b.entries[kk][j]
                row.append(b.entries[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        rows.append(tuple(row))
    return IntMatrix(n, n, tuple(rows))


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at node k: exchange relation plus matrix mutation."""
    b = seed.matrix
    _check_node(b, k)
    kk = k - 1
    n = b.rows
    plus = RationalFunction.constant(1, n)
    minus = RationalFunction.constant(1, n)
    for j in range(n):
        e = b.entries[kk][j]
        if e > 0:
            plus = plus * seed.cluster[j] ** e
        elif e < 0:
            minus = minus * seed.cluster[j] ** (-e)
    new_var = (plus + minus) / seed.cluster[kk]
    cluster = tuple(
        new_var if j == kk else seed.cluster[j] for j in range(n)
    )
    return Seed(mutate_matrix(b, k), cluster)


def shifted_matrix(b: IntMatrix, m: int) -> IntMatrix:
    """Conjugate of b by the m-th power of the cyclic node relabelling."""
    n = b.rows
    return IntMatrix(
        n,
        n,
        tuple(
            tuple(b.entries[(i - m) % n][(j - m) % n] for j in range(n))
            for i in range(n)
        ),
    )


def detect_period(b: IntMatrix, m_max: int = 8) -> PeriodicityCertificate | None:
    """Smallest m <= m_max with mu_m ... mu_1 (B) equal to the shifted B.

    Returns None when no period up to min(m_max, N) works.
    """
    if not b.is_skew_symmetric():
        raise ValueError("periodicity detection requires a skew-symmetric matrix")
    n = b.rows
    current = b
    for m in range(1, min(m_max, n) + 1):
        current = mutate_matrix(current, m)
        if current == shifted_matrix(b, m):
            return PeriodicityCertificate(n, m)
    return None


def cluster_map(b: IntMatrix, cert: PeriodicityCertificate) -> BirationalMap:
    """The birational map of a mutation-periodic quiver.

    Applies the m exchange relations recorded in the certificate and
    then the cyclic relabelling, so for a 1-periodic quiver the result
    is (x_2, ..., x_N, exchange(x)).
    """
    if cert.n != b.rows or not cert.verify(b):
        raise CertificateError("certificate does not verify against this matrix")
    seed = Seed.initial(b)
    for k in cert.mutation_sequence:
        seed = mutate_seed(seed, k)
    n = b.rows
    m = cert.period
    comps = tuple(seed.cluster[(i + m) % n] for i in range(n))
    return BirationalMap(n, comps)


def _d_vectors(b: IntMatrix, cert: PeriodicityCertificate):
    """d-vectors of phi, phi^2, ...: row i of the k-th tuple of N rows is the
    denominator vector of component i of phi^k.  From d_i = -e_i, mutation
    at k sets d_k to max(sum [b_kl]+ d_l, sum [-b_kl]+ d_l) - d_k, b_k the
    k-th exchange row of the period, and each period ends with the
    relabelling of ``cluster_map``.  This max-plus relation is exact: the
    two monomials of an exchange relation have positive coefficients and
    never cancel (Lee & Schiffler, Ann. Math. 182, 2015)."""
    if cert.n != b.rows or not cert.verify(b):
        raise CertificateError("certificate does not verify against this matrix")
    n, m, current, rows = b.rows, cert.period, b, []
    for k in range(m):
        row = current.entries[k]
        rows.append((k, [(l, e) for l, e in enumerate(row) if e > 0],
                     [(l, -e) for l, e in enumerate(row) if e < 0]))
        current = mutate_matrix(current, k + 1)
    d = [[-int(i == j) for j in range(n)] for i in range(n)]
    while True:
        for k, plus, minus in rows:
            d[k] = [max(sum(e * d[l][c] for l, e in plus), sum(e * d[l][c] for l, e in minus))
                    - d[k][c] for c in range(n)]
        d = d[m:] + d[:m]
        yield tuple(d)


def degree_growth(b: IntMatrix, cert: PeriodicityCertificate) -> list[int]:
    """deg_1..deg_GROWTH_STEPS of the cluster map: deg_k is the largest total
    degree sum_i [d_i]+ of the denominator of a component of phi^k, in
    integers."""
    vectors = _d_vectors(b, cert)
    return [max(sum(v for v in row if v > 0) for row in next(vectors))
            for _ in range(GROWTH_STEPS)]


def growth_class(degrees: list[int]) -> tuple[str, float]:
    """(class, entropy) of the degrees d_1..d_60 from ``degree_growth``: the
    class is read off d_60 / d_59 (exponential, with entropy its log) and
    r = log2(d_60 / d_30) (bounded, linear or quadratic).  The thresholds
    hold for 60 degrees only, so any other length is rejected."""
    if len(degrees) != GROWTH_STEPS:
        raise ValueError(f"growth_class reads {GROWTH_STEPS} degrees, got {len(degrees)}")
    last, prev, half = degrees[-1], degrees[-2], degrees[GROWTH_STEPS // 2 - 1]
    if not last:
        return "bounded", 0.0
    if prev and 10 * last >= 11 * prev:
        return "exponential", round(math.log(last / prev), 4)
    r = math.log2(last / half) if half else math.inf
    for bound, name in ((0.5, "bounded"), (1.5, "linear"), (2.5, "quadratic")):
        if r <= bound:
            return name, 0.0
    return "unclassified", 0.0
