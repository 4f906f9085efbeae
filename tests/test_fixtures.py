"""Built-in example data: shapes, symmetries, and lattice relations."""

import pytest

from cluster_reduce import (
    all_fixtures,
    detect_period,
    fordy_marsh,
    get_fixture,
    image_lattice,
    kernel_lattice,
)
from cluster_reduce.fixtures import skew_toeplitz
from cluster_reduce.intlinalg import sublattice_subset


class TestCatalogue:
    def test_names(self):
        names = [f.name for f in all_fixtures()]
        assert names == ["somos5", "somos5-2periodic", "c7-pair"]

    def test_get_by_name(self):
        assert get_fixture("somos5").name == "somos5"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_fixture("nope")

    def test_unknown_matrix_label(self):
        with pytest.raises(KeyError):
            get_fixture("somos5").matrix("Q")


class TestSkewToeplitz:
    def test_offsets_fill_superdiagonals(self):
        m = skew_toeplitz(4, (1, 2, 3))
        assert m.entries == (
            (0, 1, 2, 3),
            (-1, 0, 1, 2),
            (-2, -1, 0, 1),
            (-3, -2, -1, 0),
        )
        assert m.is_skew_symmetric()


class TestSomos5:
    def test_shapes(self):
        fix = get_fixture("somos5")
        b = fix.matrix("B")
        c = fix.matrix("C")
        assert (b.rows, c.rows) == (5, 5)
        assert b.is_skew_symmetric() and c.is_skew_symmetric()
        assert fix.exponent("null").rows == 2
        assert fix.exponent("casimir").rows == 3

    def test_poisson_coefficients(self):
        c = get_fixture("somos5").matrix("C")
        for i in range(5):
            for j in range(5):
                assert c[i, j] == j - i

    def test_ranks(self):
        fix = get_fixture("somos5")
        assert fix.matrix("B").rank() == 2
        assert fix.matrix("C").rank() == 2

    def test_image_of_b_inside_kernel_of_c(self):
        fix = get_fixture("somos5")
        img = image_lattice(fix.matrix("B"))
        ker = kernel_lattice(fix.matrix("C"))
        assert sublattice_subset(img, ker)

    def test_exponent_rows_annihilate(self):
        # null rows lie in the row space of B; casimir rows in ker C
        fix = get_fixture("somos5")
        c = fix.matrix("C")
        for row in fix.exponent("casimir").entries:
            assert all(
                sum(c[i, j] * row[j] for j in range(5)) == 0 for i in range(5)
            )


class TestSevenNode:
    def test_shapes(self):
        fix = get_fixture("c7-pair")
        for label in ("B", "C1", "C2"):
            m = fix.matrix(label)
            assert m.rows == 7 and m.is_skew_symmetric()

    def test_ranks_and_coranks(self):
        fix = get_fixture("c7-pair")
        assert fix.matrix("B").rank() == 2
        assert fix.matrix("C1").rank() == 4
        assert fix.matrix("C2").rank() == 2

    def test_compatibility(self):
        # C B = 0 for both invariant structures
        fix = get_fixture("c7-pair")
        b = fix.matrix("B")
        for label in ("C1", "C2"):
            assert (fix.matrix(label) @ b).is_zero()

    def test_kernel_nesting(self):
        fix = get_fixture("c7-pair")
        img_b = image_lattice(fix.matrix("B"))
        ker1 = kernel_lattice(fix.matrix("C1"))
        ker2 = kernel_lattice(fix.matrix("C2"))
        assert sublattice_subset(img_b, ker1)
        assert sublattice_subset(img_b, ker2)
        assert sublattice_subset(ker1, ker2)
        assert not sublattice_subset(ker2, ker1)

    def test_exponent_shapes(self):
        fix = get_fixture("c7-pair")
        assert fix.exponent("null").rows == 2
        assert fix.exponent("casimir1").rows == 3
        assert fix.exponent("casimir2").rows == 5


class TestFordyMarsh:
    def test_reproduces_somos5(self):
        assert fordy_marsh((1, -1, -1, 1)) == get_fixture("somos5").matrix("B")

    @pytest.mark.parametrize("row", [
        (1, -1, 0, -1, 1),
        (1, -1, 0, 0, -1, 1),
        (1, -1, 0, 0, 0, -1, 1),
        (1, 0, -1, 0, 0, -1, 0, 1),
    ])
    def test_first_rows_give_period_one(self, row):
        b = fordy_marsh(row)
        assert b.rows == len(row) + 1
        assert b.is_skew_symmetric()
        assert detect_period(b, 1).period == 1

    def test_rejects_non_palindromic_row(self):
        with pytest.raises(ValueError, match="palindromic"):
            fordy_marsh((1, -1, 0))
