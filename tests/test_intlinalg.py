"""Exact integer linear algebra: normal forms, lattices, Darboux bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cluster_reduce import (
    DarbouxBasis,
    IntMatrix,
    LatticeBasis,
    darboux_basis,
    hermite_normal_form,
    image_lattice,
    kernel_lattice,
    saturation_index,
    smith_normal_form,
    solve_in_lattice,
    sublattice_subset,
)
from cluster_reduce import intlinalg
from reference import reconstruct


def _det(m: IntMatrix) -> Fraction:
    n = m.rows
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def _random_skew(rng, n, bound=6):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = rng.randint(-bound, bound)
            entries[j][i] = -entries[i][j]
    return IntMatrix.from_rows(entries)


class TestIntMatrix:
    def test_constructors_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[0, 1] == 2
        assert m.row(1) == (3, 4)
        assert m.column(0) == (1, 3)
        assert IntMatrix.identity(3)[2, 2] == 1
        assert IntMatrix.zeros(2, 3).is_zero()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_arithmetic(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert (a + b).entries == ((1, 3), (4, 4))
        assert (a - a).is_zero()
        assert a.scale(2).entries == ((2, 4), (6, 8))
        assert a.transpose().entries == ((1, 3), (2, 4))

    def test_skew_detection(self):
        assert IntMatrix.from_rows([[0, 5], [-5, 0]]).is_skew_symmetric()
        assert not IntMatrix.from_rows([[0, 5], [5, 0]]).is_skew_symmetric()
        assert not IntMatrix.from_rows([[1, 0], [0, 0]]).is_skew_symmetric()

    def test_rank(self):
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
        assert IntMatrix.identity(4).rank() == 4
        assert IntMatrix.zeros(3, 3).rank() == 0

    def test_json_round_trip(self):
        m = IntMatrix.from_rows([[0, -7], [7, 0]])
        doc = m.to_json_dict()
        assert doc["schema"] == "v1"
        assert doc["entries"] == [["0", "-7"], ["7", "0"]]
        assert IntMatrix.from_json_dict(doc) == m


class TestHermite:
    def test_known_form(self):
        m = IntMatrix.from_rows([[2, 4], [1, 3]])
        h, u = hermite_normal_form(m)
        assert h.entries == ((1, 1), (0, 2))
        assert u @ m == h

    def test_random_properties(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = _random_matrix(rng, rows, cols)
            h, u = hermite_normal_form(m)
            assert u @ m == h
            assert abs(_det(u)) == 1
            # echelon with positive pivots and reduced entries above them
            last_pivot = -1
            for i in range(rows):
                row = h.row(i)
                nz = [j for j, x in enumerate(row) if x]
                if not nz:
                    continue
                pivot_col = nz[0]
                assert pivot_col > last_pivot
                last_pivot = pivot_col
                pivot = row[pivot_col]
                assert pivot > 0
                for above in range(i):
                    assert 0 <= h[above, pivot_col] < pivot

    def test_matches_sympy(self):
        # differential test on the same random matrices as
        # test_random_properties.  sympy's form is column-style (Cohen):
        # the columns of H(m^T) span the row space of m, each pivot is the
        # last nonzero entry of its column, and the entries right of it are
        # reduced.  Reversing the coordinates and the order of the basis
        # vectors turns it into the row form here; sympy drops zero columns.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = _random_matrix(rng, rows, cols)
            h, _ = hermite_normal_form(IntMatrix.from_rows([row[::-1] for row in m.entries]))
            mine = [row[::-1] for row in h.entries if any(row)][::-1]
            ref = sympy_hnf(sympy.Matrix(m.entries).T)
            columns = [tuple(int(x) for x in ref.col(j)) for j in range(ref.cols)]
            assert mine == [c for c in columns if any(c)]

    def test_row_space_canonical(self):
        rng = random.Random(8)
        for _ in range(20):
            m = _random_matrix(rng, 3, 3)
            # permuting the rows leaves the Hermite form unchanged
            perm = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
            h1, _ = hermite_normal_form(m)
            h2, _ = hermite_normal_form(perm @ m)
            assert h1 == h2


class TestSmith:
    def test_known_form(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        d, u, v = smith_normal_form(m)
        assert d.entries == ((1, 0), (0, 6))
        assert u @ m @ v == d

    def test_random_properties(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = _random_matrix(rng, rows, cols)
            d, u, v = smith_normal_form(m)
            assert u @ m @ v == d
            assert abs(_det(u)) == 1
            assert abs(_det(v)) == 1
            diag = [d[i, i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i, j] == 0
            for a, b in zip(diag, diag[1:]):
                assert a >= 0
                if a == 0:
                    assert b == 0
                if a and b:
                    assert b % a == 0

    def test_diagonal_matches_sympy(self):
        # differential test of the shared row-operation core on the same
        # random matrices as test_random_properties
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(9)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = _random_matrix(rng, rows, cols)
            d, _, _ = smith_normal_form(m)
            ref = sympy_snf(sympy.Matrix(m.entries), domain=sympy.ZZ)
            diag = min(rows, cols)
            assert [d[i, i] for i in range(diag)] == [abs(int(ref[i, i])) for i in range(diag)]


class TestLattices:
    def test_kernel_of_row(self):
        m = IntMatrix.from_rows([[1, 2, 3]])
        ker = kernel_lattice(m)
        assert ker.dim == 2
        for v in ker.vectors:
            assert sum(a * b for a, b in zip(m.row(0), v)) == 0
        assert saturation_index(ker) == 1

    def test_kernel_of_full_rank(self):
        assert kernel_lattice(IntMatrix.identity(3)).dim == 0

    def test_image_contains_columns(self):
        m = IntMatrix.from_rows([[2, 4], [0, 6]])
        img = image_lattice(m)
        assert img.dim == 2
        for j in range(m.cols):
            assert solve_in_lattice(img, m.column(j)) is not None

    def test_solve_round_trip(self):
        basis = LatticeBasis(2, ((2, 0), (0, 3)))
        assert solve_in_lattice(basis, (4, 3)) == (2, 1)
        assert solve_in_lattice(basis, (1, 0)) is None
        assert solve_in_lattice(basis, (0, 0)) == (0, 0)

    def test_solve_random_round_trip(self):
        rng = random.Random(10)
        for _ in range(30):
            m = _random_matrix(rng, 3, 5)
            basis = image_lattice(m.transpose())  # row-space lattice
            coeffs = [rng.randint(-5, 5) for _ in range(basis.dim)]
            v = [
                sum(c * basis.vectors[k][j] for k, c in enumerate(coeffs))
                for j in range(5)
            ]
            sol = solve_in_lattice(basis, v)
            assert sol is not None
            rebuilt = [
                sum(c * basis.vectors[k][j] for k, c in enumerate(sol))
                for j in range(5)
            ]
            assert rebuilt == v

    def test_sublattice_subset(self):
        fine = LatticeBasis(2, ((1, 0), (0, 1)))
        coarse = LatticeBasis(2, ((2, 0), (0, 2)))
        assert sublattice_subset(coarse, fine)
        assert not sublattice_subset(fine, coarse)
        assert sublattice_subset(coarse, coarse)

    def test_saturation_index(self):
        assert saturation_index(LatticeBasis(2, ((1, 0),))) == 1
        assert saturation_index(LatticeBasis(2, ((2, 0),))) == 2
        assert (
            saturation_index(LatticeBasis(3, ((2, 0, 0), (0, 3, 0))))
            == 6
        )


# zeros, units and non-units
_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, -6])


@st.composite
def _stacked_systems(draw):
    """(cols, E1, E2) over Z^cols: E1 zero (its kernel is all of Z^cols),
    triangular with a nonzero diagonal (its kernel is empty) or at random."""
    cols = draw(st.integers(1, 5))

    def rows(low, high):
        row = st.lists(_ENTRIES, min_size=cols, max_size=cols)
        return st.lists(row, min_size=low, max_size=high)

    nonzero = _ENTRIES.filter(bool)
    triangular = st.tuples(
        st.lists(nonzero, min_size=cols, max_size=cols), rows(cols, cols)
    ).map(lambda t: [[t[0][i] if i == j else t[1][i][j] * (j > i) for j in range(cols)]
                     for i in range(cols)])
    e1 = draw(st.one_of(st.just([[0] * cols]), triangular, rows(0, 4)))
    return cols, e1, draw(rows(0, 3))


class TestNarrowedKernel:
    """Solving further equations inside a saturated kernel gives the kernel
    of the stacked system, basis for basis."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_stacked_systems())
    @example((3, [[0, 0, 0]], [[2, -3, 0], [4, 0, 6]]))
    @example((2, [[1, 4], [0, 2]], [[1, 1]]))
    @example((3, [[2, 4, 0]], [[0, 3, 6]]))
    # Y K is not in Hermite form here, and only the normalization makes it so
    @example((4, [[1, 2, 4, 4]], [[-3, 2, -6, -1]]))
    def test_narrowed_kernel_is_the_stacked_kernel(self, system):
        cols, e1, e2 = system
        k = kernel_lattice(IntMatrix.from_rows(e1, cols=cols))
        stacked = kernel_lattice(IntMatrix.from_rows(e1 + e2, cols=cols))
        assert intlinalg._narrowed_kernel(k, e2) == stacked


class TestDarboux:
    def test_two_by_two(self):
        b = IntMatrix.from_rows([[0, 2], [-2, 0]])
        d = darboux_basis(b)
        assert len(d.scales) == 1
        assert reconstruct(d) == b

    def test_scale_is_positive(self):
        b = IntMatrix.from_rows([[0, -3], [3, 0]])
        d = darboux_basis(b)
        assert all(s > 0 for s in d.scales)
        assert reconstruct(d) == b

    def test_random_reconstruction(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 12)
            b = _random_skew(rng, n, bound=9)
            d = darboux_basis(b)
            assert len(d) == b.rank()
            assert all(lam > 0 and lam.denominator == 1 for lam in d.scales)
            assert reconstruct(d) == b
            # the Darboux vectors generate exactly the saturated image lattice
            image = image_lattice(b)
            assert sublattice_subset(d.basis(), image)
            assert sublattice_subset(image, d.basis())

    @pytest.mark.parametrize(
        "wrong", [lambda v: v.scale(2), lambda v: None], ids=["doubled", "missing"]
    )
    def test_wrong_right_inverse_detected(self, monkeypatch, wrong):
        b = IntMatrix.from_rows([[0, 2, -1, 3], [-2, 0, 4, 1], [1, -4, 0, 5], [-3, -1, -5, 0]])
        true_inverse = intlinalg.right_inverse
        monkeypatch.setattr(intlinalg, "right_inverse", lambda m: wrong(true_inverse(m)))
        with pytest.raises(ArithmeticError):
            darboux_basis(b)

    def test_zero_form(self):
        d = darboux_basis(IntMatrix.zeros(3, 3))
        assert len(d) == 0
        assert reconstruct(d).is_zero()

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            darboux_basis(IntMatrix.from_rows([[0, 1], [1, 0]]))

    def test_pairing_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DarbouxBasis(2, ((1, 0),), (Fraction(1),))
