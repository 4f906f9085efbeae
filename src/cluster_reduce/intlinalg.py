"""Exact integer linear algebra for lattices of monomial exponents.

Everything here runs over the integers, on one core of unimodular row
and column operations (never rationals or floats): Hermite and Smith
normal forms with unimodular transforms, saturated kernel/image
lattices, membership tests, and Darboux-paired bases of skew-symmetric
forms.  Saturation matters because downstream code rewrites Laurent
monomials in lattice coordinates, which is only well behaved when a
basis generates the full intersection of its rational span with the
integer lattice.

Deterministic output is part of the contract: lattice bases are
normalized by the Hermite form of their stacked rows, so equal lattices
always produce identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = [
    "IntMatrix",
    "LatticeBasis",
    "DarbouxBasis",
    "hermite_normal_form",
    "smith_normal_form",
    "kernel_lattice",
    "image_lattice",
    "sublattice_subset",
    "solve_in_lattice",
    "saturation_index",
    "right_inverse",
    "darboux_basis",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape.

    The shape is stored separately so degenerate matrices (zero rows or
    zero columns) keep their ambient dimensions, which the lattice
    routines rely on.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        ent = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not ent:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(ent[0])
        return IntMatrix(len(ent), cols, ent)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ent = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return IntMatrix(self.rows, other.cols, ent)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def rank(self) -> int:
        h, _ = hermite_normal_form(self)
        return sum(1 for row in h.entries if any(row))

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IntMatrix":
        rows = int(data["rows"])
        cols = int(data["cols"])
        ent = tuple(tuple(int(x) for x in row) for row in data["entries"])
        return IntMatrix(rows, cols, ent)


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^ambient_dim, one vector per row."""

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.vectors, cols=self.ambient_dim)

    @cached_property
    def _echelon(self) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
        """((row, pivot column, Hermite row) per nonzero row of H, U) for
        the Hermite form U @ B = H of the basis rows B; computed once per
        basis for `solve_in_lattice`."""
        h, u = hermite_normal_form(self.matrix())
        pivots = []
        for i, hrow in enumerate(h.entries):
            col = next((j for j, x in enumerate(hrow) if x != 0), None)
            if col is not None:
                pivots.append((i, col, hrow))
        return tuple(pivots), u.entries


@dataclass(frozen=True)
class DarbouxBasis:
    """Darboux-paired integer vectors u_1, ..., u_2k with scales.

    The pairing means  sum_m scales[m] * (u_{2m} u_{2m+1}^T - u_{2m+1} u_{2m}^T)
    reconstructs the skew form the basis was computed from (0-based pairs).
    Each scale is positive; darboux_basis always returns integral ones.
    """

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]
    scales: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.vectors) != 2 * len(self.scales):
            raise ValueError("Darboux basis needs exactly two vectors per scale")
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")

    def __len__(self) -> int:
        return len(self.vectors)

    def basis(self) -> LatticeBasis:
        return LatticeBasis(self.ambient_dim, self.vectors)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def _swap(rows, cols, i: int, j: int) -> None:
    """Swap rows i, j of every matrix in rows, then columns i, j of every one in cols."""
    for m in rows:
        m[i], m[j] = m[j], m[i]
    for m in cols:
        for row in m:
            row[i], row[j] = row[j], row[i]


def _add(rows, cols, i: int, j: int, q: int) -> None:
    """row_i += q * row_j in every matrix in rows, then col_i += q * col_j in cols."""
    for m in rows:
        ri, rj = m[i], m[j]
        for t, y in enumerate(rj):
            if y:
                ri[t] += q * y
    for m in cols:
        for row in m:
            row[i] += q * row[j]


def _negate(rows, i: int) -> None:
    """Negate row i of every matrix in rows."""
    for m in rows:
        m[i] = [-x for x in m[i]]


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ m == H.  H is in row echelon
    form with positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows collected at the bottom.  This form is the
    canonical representative of the row space, which is what makes
    lattice bases reproducible.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = _identity_rows(nr)
    tracked = (a, u)

    r = 0
    for c in range(nc):
        if r == nr:
            break
        # gcd cascade: repeatedly reduce below-pivot entries until they vanish
        while True:
            candidates = [i for i in range(r, nr) if a[i][c] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                _swap(tracked, (), r, i0)
            if a[r][c] < 0:
                _negate(tracked, r)
            finished = True
            for i in range(r + 1, nr):
                if a[i][c] != 0:
                    _add(tracked, (), i, r, -(a[i][c] // a[r][c]))
                    if a[i][c] != 0:
                        finished = False
            if finished:
                break
        if a[r][c] != 0:
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    _add(tracked, (), i, r, -q)
            r += 1

    h = IntMatrix(nr, nc, tuple(tuple(row) for row in a))
    uu = IntMatrix(nr, nr, tuple(tuple(row) for row in u))
    return h, uu


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, U, V) with U @ m @ V == S.

    U and V are unimodular; S is diagonal with non-negative entries
    satisfying the divisibility chain d_1 | d_2 | ... .
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = _identity_rows(nr)
    v = _identity_rows(nc)
    by_row, by_col = (a, u), (a, v)

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap(by_row, (), t, pi)
        if pj != t:
            _swap((), by_col, t, pj)
        if a[t][t] < 0:
            _negate(by_row, t)

        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                _add(by_row, (), i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                _add((), by_col, j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # a strictly smaller pivot appeared; reselect

        # the pivot now divides everything it cleared; enforce divisibility
        # of the remaining block before moving on
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add(by_row, (), t, offender, 1)
            continue
        t += 1

    s = IntMatrix(nr, nc, tuple(tuple(row) for row in a))
    uu = IntMatrix(nr, nr, tuple(tuple(row) for row in u))
    vv = IntMatrix(nc, nc, tuple(tuple(row) for row in v))
    return s, uu, vv


# ---------------------------------------------------------------------------
# Lattice constructions
# ---------------------------------------------------------------------------


def _normalized_basis(ambient: int, vectors) -> LatticeBasis:
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return LatticeBasis(ambient, ())
    h, _ = hermite_normal_form(IntMatrix.from_rows(vecs, cols=ambient))
    rows = tuple(row for row in h.entries if any(row))
    return LatticeBasis(ambient, rows)


def kernel_lattice(m: IntMatrix) -> LatticeBasis:
    """Saturated basis of the integer kernel {v in Z^cols : m v = 0}.

    Works through the Hermite form of the transpose: rows of the
    unimodular transform that map to zero rows span the kernel, and being
    rows of a unimodular matrix they generate the full (saturated)
    kernel lattice.
    """
    h, u = hermite_normal_form(m.transpose())
    vecs = [urow for urow, hrow in zip(u.entries, h.entries) if not any(hrow)]
    return _normalized_basis(m.cols, vecs)


def _narrowed_kernel(kernel: LatticeBasis, equations) -> LatticeBasis:
    """Saturated basis of the solutions in `kernel` of further integer
    equations (rows over Z^ambient), without re-eliminating the system
    that `kernel` solves.

    The kernel K must be saturated: every integer solution of the old
    system is then y K with y integral, and y K solves the new rows E
    exactly when E K^T y = 0.  So the new kernel is Y K for
    Y = kernel_lattice(E K^T), a Hermite form of at most dim K rows,
    normalized so that equal lattices give identical bases.
    """
    k = kernel.matrix()
    y = kernel_lattice(IntMatrix.from_rows(equations, cols=k.cols) @ k.transpose())
    return _normalized_basis(k.cols, (y.matrix() @ k).entries)


def image_lattice(m: IntMatrix) -> LatticeBasis:
    """Saturated basis of (column span of m) intersected with Z^rows.

    The span generated by the columns alone need not be saturated (think
    of a single column (2,0)); taking the kernel of the orthogonal
    complement closes it up.
    """
    comp = kernel_lattice(m.transpose())
    comp_matrix = IntMatrix.from_rows(comp.vectors, cols=m.rows) if comp.vectors else IntMatrix.zeros(0, m.rows)
    return kernel_lattice(comp_matrix)


def solve_in_lattice(basis: LatticeBasis, v) -> tuple[int, ...] | None:
    """Integer coefficients c with sum_i c_i basis[i] == v, or None.

    None means v is not in the lattice generated by the basis; membership
    in the rational span alone is not enough.
    """
    vec = tuple(int(x) for x in v)
    if len(vec) != basis.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    if not basis.vectors:
        return () if not any(vec) else None
    pivots, u = basis._echelon
    n = len(u)
    residual = list(vec)
    coeffs_h = [0] * n
    for i, pivot_col, hrow in pivots:
        q, r = divmod(residual[pivot_col], hrow[pivot_col])
        if r != 0:
            return None
        if q:
            coeffs_h[i] = q
            for j in range(basis.ambient_dim):
                residual[j] -= q * hrow[j]
    if any(residual):
        return None
    return tuple(sum(coeffs_h[i] * u[i][t] for i in range(n)) for t in range(n))


def sublattice_subset(a: LatticeBasis, b: LatticeBasis) -> bool:
    """True when every basis vector of a lies in the lattice spanned by b.

    For the saturated bases produced in this module this is exactly
    containment of the rational spans.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(solve_in_lattice(b, v) is not None for v in a.vectors)


def saturation_index(basis: LatticeBasis) -> int:
    """Index of the lattice inside (rational span) intersect Z^N.

    Computed as the product of the elementary divisors of the stacked
    basis rows; 1 means the basis is saturated.
    """
    if not basis.vectors:
        return 1
    s, _, _ = smith_normal_form(basis.matrix())
    idx = 1
    for t in range(min(s.rows, s.cols)):
        d = s.entries[t][t]
        if d == 0:
            raise ValueError("basis vectors are linearly dependent")
        idx *= d
    return idx


def right_inverse(m: IntMatrix) -> IntMatrix | None:
    """An integer matrix V with m @ V = I, or None when there is none.

    It exists exactly when the rows of m are independent and saturated,
    i.e. when every elementary divisor is 1.  With U m Q = S = [I 0] from
    the Smith form, V is the first m.rows columns of Q times U.
    """
    r = m.rows
    if r > m.cols:
        return None
    s, u, q = smith_normal_form(m)
    if any(s.entries[t][t] != 1 for t in range(r)):
        return None
    first = IntMatrix.from_rows([row[:r] for row in q.entries], cols=r)
    return first @ u


# ---------------------------------------------------------------------------
# Congruence of skew-symmetric forms, and their Darboux bases
# ---------------------------------------------------------------------------


def _congruent(a, m, b) -> bool:
    """Whether A M A^T == B for skew M and B, given as rows of integer
    entries.  A M A^T is then skew, so only entries above the diagonal are
    compared.  The package's one congruence test (Darboux bases here,
    isotropy and invariance under a map in `geometry`, the latter on the
    log-Jacobian cleared to integers)."""
    am = []
    for arow in a:
        acc = [0] * len(m)
        for x, mrow in zip(arow, m):
            if x:
                for k, y in enumerate(mrow):
                    if y:
                        acc[k] += x * y
        am.append(acc)
    return all(
        sum(x * y for x, y in zip(am[i], a[j]) if x and y) == b[i][j]
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


def _skew_congruence_blocks(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Unimodular congruence of a nonsingular integer skew matrix into 2x2
    blocks.

    Returns (q, ds) with q unimodular and q^T m q equal to the block
    diagonal  [[0, d_1], [-d_1, 0]], ...; every d_m > 0.  Each step leaves
    the first t rows and columns in blocks and the trailing block of rank
    n - t, so the pivot search always finds a nonzero entry.
    """
    n = len(m)
    a = [list(row) for row in m]
    q = _identity_rows(n)
    # a congruence acts on the rows and columns of a, and on the columns of q
    rows, cols = (a,), (a, q)

    ds: list[int] = []
    for t in range(0, n, 2):
        best = None
        for i in range(t, n):
            for j in range(i + 1, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        # pj > pi >= t, so moving row pi to t leaves row pj in place
        pi, pj = pivot
        if pi != t:
            _swap(rows, cols, pi, t)
        if pj != t + 1:
            _swap(rows, cols, pj, t + 1)
        if a[t][t + 1] < 0:
            _swap(rows, cols, t, t + 1)

        # make the pivot divide the rest of its two rows, then clear them;
        # each reduction moves a remainder 0 < r < p to (t, t + 1), the
        # first as r, the second as -r, which swapping t and t + 1 makes r
        while True:
            p = a[t][t + 1]
            progressed = False
            for j in range(t + 2, n):
                if a[t][j] % p:
                    _add(rows, cols, j, t + 1, -(a[t][j] // p))
                    _swap(rows, cols, j, t + 1)
                    progressed = True
                    break
                if a[t + 1][j] % p:
                    _add(rows, cols, j, t, a[t + 1][j] // p)
                    _swap(rows, cols, j, t)
                    _swap(rows, cols, t, t + 1)
                    progressed = True
                    break
            if not progressed:
                break
        p = a[t][t + 1]
        for j in range(t + 2, n):
            if a[t][j]:
                _add(rows, cols, j, t + 1, -(a[t][j] // p))
            if a[t + 1][j]:
                _add(rows, cols, j, t, a[t + 1][j] // p)
        ds.append(a[t][t + 1])
    return q, ds


def darboux_basis(b: IntMatrix) -> DarbouxBasis:
    """Darboux-paired saturated basis of the image lattice of a skew form.

    The returned vectors generate the saturation of Im b and come in
    pairs (u_1, u_2), (u_3, u_4), ... with positive scales lam_m such
    that  sum_m lam_m (u_{2m-1} u_{2m}^T - u_{2m} u_{2m-1}^T)  equals b
    exactly.

    With S the saturated image basis and V its integer right inverse,
    b = S^T G S for G = V^T b V, an integer skew matrix of size and rank
    r = rank b.  A unimodular congruence q^T G q into r/2 blocks gives the
    vectors as the rows of q^-1 S and the scales as the block entries, so
    every scale is a positive integer (kept as a Fraction).
    """
    if not b.is_skew_symmetric():
        raise ValueError("Darboux basis requires a skew-symmetric matrix")
    n = b.rows
    img = image_lattice(b)
    if img.dim == 0:
        return DarbouxBasis(n, (), ())
    s = img.matrix()

    v = right_inverse(s)
    if v is None:
        raise ArithmeticError("image basis has no integer right inverse")
    g = v.transpose() @ b @ v
    if not _congruent(s.transpose().entries, g.entries, b.entries):
        raise ArithmeticError("image basis does not carry the skew form")

    q, ds = _skew_congruence_blocks([list(row) for row in g.entries])
    q_inv = right_inverse(IntMatrix.from_rows(q))
    return DarbouxBasis(n, (q_inv @ s).entries, tuple(Fraction(d) for d in ds))
