"""Matrix mutation, mutation periodicity, and the induced cluster maps."""

import math
import random

import pytest

from cluster_reduce import (
    CertificateError,
    IntMatrix,
    PeriodicityCertificate,
    Quiver,
    Seed,
    cluster_map,
    degree_growth,
    detect_period,
    fordy_marsh,
    get_fixture,
    growth_class,
    mutate_matrix,
    mutate_seed,
    shifted_matrix,
)
from cluster_reduce.quiver import _d_vectors

# genuinely non-mutation-periodic: every cyclic shift up to 4 fails
NON_PERIODIC = IntMatrix.from_rows(
    [(0, 3, 0, 3), (-3, 0, 0, -3), (0, 0, 0, -1), (-3, 3, 1, 0)]
)


def _random_skew(rng, n, bound=4):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = rng.randint(-bound, bound)
            entries[j][i] = -entries[i][j]
    return IntMatrix.from_rows(entries)


class TestMutation:
    def test_sign_flips_on_mutated_row(self):
        b = get_fixture("somos5").matrix("B")
        m = mutate_matrix(b, 1)
        for j in range(5):
            assert m[0, j] == -b[0, j]
            assert m[j, 0] == -b[j, 0]

    def test_involution(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(2, 6)
            b = _random_skew(rng, n)
            k = rng.randint(1, n)
            assert mutate_matrix(mutate_matrix(b, k), k) == b

    def test_stays_skew(self):
        rng = random.Random(42)
        for _ in range(50):
            b = _random_skew(rng, 5)
            k = rng.randint(1, 5)
            assert mutate_matrix(b, k).is_skew_symmetric()

    def test_permutation_conjugation(self):
        # relabelling nodes commutes with mutation at the relabelled node
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(3, 5)
            b = _random_skew(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            p = IntMatrix.from_rows(
                [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            )
            conj = p @ b @ p.transpose()
            k = rng.randint(1, n)
            lhs = mutate_matrix(conj, perm.index(k - 1) + 1)
            rhs = p @ mutate_matrix(b, k) @ p.transpose()
            assert lhs == rhs

    def test_node_out_of_range(self):
        b = get_fixture("somos5").matrix("B")
        with pytest.raises(IndexError):
            mutate_matrix(b, 0)
        with pytest.raises(IndexError):
            mutate_matrix(b, 6)

    def test_quiver_requires_skew(self):
        with pytest.raises(ValueError):
            Quiver(IntMatrix.from_rows([[0, 1], [1, 0]]))


class TestShift:
    def test_shift_by_zero(self):
        b = get_fixture("somos5").matrix("B")
        assert shifted_matrix(b, 0) == b

    def test_shift_composes(self):
        b = get_fixture("c7-pair").matrix("B")
        assert shifted_matrix(shifted_matrix(b, 1), 1) == shifted_matrix(b, 2)

    def test_full_shift_is_identity(self):
        b = get_fixture("somos5").matrix("B")
        assert shifted_matrix(b, 5) == b


class TestDetectPeriod:
    def test_somos5_has_period_one(self):
        cert = detect_period(get_fixture("somos5").matrix("B"))
        assert cert is not None and cert.period == 1
        assert cert.mutation_sequence == (1,)

    def test_two_periodic_variant(self):
        cert = detect_period(get_fixture("somos5-2periodic").matrix("B"))
        assert cert is not None and cert.period == 2

    def test_seven_node_has_period_one(self):
        cert = detect_period(get_fixture("c7-pair").matrix("B"))
        assert cert is not None and cert.period == 1

    def test_non_periodic_returns_none(self):
        assert detect_period(NON_PERIODIC) is None

    def test_bound_respected(self):
        cert = detect_period(get_fixture("somos5-2periodic").matrix("B"), m_max=1)
        assert cert is None

    def test_certificate_verify(self):
        b = get_fixture("somos5").matrix("B")
        cert = detect_period(b)
        assert cert.verify(b)
        # a period-1 matrix satisfies the period-m relation for every m
        assert PeriodicityCertificate(5, 3).verify(b)

    def test_certificate_verify_two_periodic(self):
        b = get_fixture("somos5-2periodic").matrix("B")
        assert not PeriodicityCertificate(5, 1).verify(b)
        assert PeriodicityCertificate(5, 2).verify(b)
        assert not PeriodicityCertificate(5, 3).verify(b)
        assert PeriodicityCertificate(5, 4).verify(b)


class TestClusterMap:
    def test_somos5_map(self):
        b = get_fixture("somos5").matrix("B")
        phi = cluster_map(b, detect_period(b))
        assert phi.to_strings() == [
            "x2",
            "x3",
            "x4",
            "x5",
            "(x2*x5 + x3*x4)/x1",
        ]

    def test_seven_node_map(self):
        b = get_fixture("c7-pair").matrix("B")
        phi = cluster_map(b, detect_period(b))
        assert phi.to_strings() == [
            "x2",
            "x3",
            "x4",
            "x5",
            "x6",
            "x7",
            "(x2*x7 + x4*x5)/x1",
        ]

    def test_somos5_general_weights(self):
        from cluster_reduce.fixtures import somos5_matrix

        b = somos5_matrix(2, 2)
        phi = cluster_map(b, detect_period(b))
        assert phi.to_strings()[-1] == "(x2^2*x5^2 + x3*x4)/x1"

    def test_two_periodic_map(self):
        b = get_fixture("somos5-2periodic").matrix("B")
        phi = cluster_map(b, detect_period(b))
        assert phi.to_strings() == [
            "x3",
            "x4",
            "x5",
            "(x2*x5^2 + x3*x4)/x1",
            "(x1*x4*x5 + x2*x3^2*x5^2 + x3^3*x4)/(x1*x2)",
        ]

    def test_zero_matrix_empty_exchange(self):
        b = IntMatrix.zeros(2, 2)
        phi = cluster_map(b, detect_period(b))
        assert phi.to_strings() == ["x2", "2/x1"]

    def test_mismatched_certificate_rejected(self):
        b = get_fixture("somos5-2periodic").matrix("B")
        with pytest.raises(CertificateError):
            cluster_map(b, PeriodicityCertificate(5, 3))
        with pytest.raises(CertificateError):
            cluster_map(b, PeriodicityCertificate(4, 1))
        with pytest.raises(CertificateError):
            degree_growth(b, PeriodicityCertificate(5, 3))

    def test_recurrence_structure(self):
        # the map acts as a shift: first n-1 components are coordinates
        b = get_fixture("somos5").matrix("B")
        phi = cluster_map(b, detect_period(b))
        for i, comp in enumerate(phi.components[:-1]):
            assert comp.is_coordinate(i + 1)


def _ladder_matrix(name):
    rows = {"fm-n6": (1, -1, 0, -1, 1), "fm-n7": (1, -1, 0, 0, -1, 1),
            "fm-n8": (1, -1, 0, 0, 0, -1, 1), "fm-n9": (1, 0, -1, 0, 0, -1, 0, 1)}
    return fordy_marsh(rows[name]) if name in rows else get_fixture(name).matrix("B")


def _growth(b):
    return growth_class(degree_growth(b, detect_period(b)))


class TestDegreeGrowth:
    # phi^3 of somos5-2periodic (six exchanges, degree 17) does not finish in
    # 90 s, all of it in the normal form's multivariate gcd, so that rung
    # stops at k = 2
    @pytest.mark.parametrize("name, steps", [
        ("somos5", 5), ("c7-pair", 5), ("somos5-2periodic", 2),
        ("fm-n6", 3), ("fm-n7", 3), ("fm-n8", 3), ("fm-n9", 3),
    ])
    def test_d_vectors_are_the_exact_denominators(self, name, steps):
        # d_i of a component of phi^k: its denominator exponent of x_i minus
        # the least exponent of x_i in its numerator
        b = _ladder_matrix(name)
        cert = detect_period(b)
        phi = cluster_map(b, cert)
        vectors = _d_vectors(b, cert)
        iterate = phi
        for k in range(1, steps + 1):
            if k > 1:
                iterate = phi.compose(iterate)
            exact = []
            for comp in iterate.components:
                assert comp.den.is_monomial()
                exact.append([d - c for d, c in zip(comp.den.min_exponents(),
                                                    comp.num.min_exponents())])
            assert list(next(vectors)) == exact, (name, k)

    def test_somos5_degrees(self):
        b = get_fixture("somos5").matrix("B")
        degrees = degree_growth(b, detect_period(b))
        assert degrees[:9] == [1, 2, 3, 5, 8, 10, 13, 17, 21]
        assert degrees[-1] == 685

    @pytest.mark.parametrize("first_row, kind", [
        ((1, 1), "linear"), ((1, 0, 1), "linear"), ((1, 0, 0, 1), "linear"),
        ((0, 1, 0), "bounded"), ((1, -2, 1), "quadratic"),
        ((1, -1, 0, -1, 1), "quadratic"), ((1, -1, 0, 0, -1, 1), "quadratic"),
        ((1, -1, 0, 0, 0, -1, 1), "quadratic"), ((1, 0, -1, 0, 0, -1, 0, 1), "quadratic"),
        ((2, 2), "exponential"), ((1, 1, 1), "exponential"),
    ])
    def test_fordy_hone_classes(self, first_row, kind):
        found, entropy = _growth(fordy_marsh(first_row))
        assert found == kind
        assert (entropy > 0) == (kind == "exponential")

    @pytest.mark.parametrize("name, kind", [
        ("somos5", "quadratic"), ("c7-pair", "quadratic"), ("somos5-2periodic", "exponential"),
    ])
    def test_fixture_classes(self, name, kind):
        assert _growth(get_fixture(name).matrix("B"))[0] == kind

    def test_entropy_is_log_of_golden_ratio_squared(self):
        # d_(k+1) / d_k tends to (3 + sqrt 5)/2 for both (2, 2) and somos5-2periodic
        entropy = round(math.log((3 + math.sqrt(5)) / 2), 4)
        assert entropy == 0.9624
        assert _growth(fordy_marsh((2, 2)))[1] == entropy
        assert _growth(get_fixture("somos5-2periodic").matrix("B"))[1] == entropy

    @pytest.mark.parametrize("degrees, kind", [
        ([0] * 60, "bounded"), ([3] * 60, "bounded"), (list(range(1, 61)), "linear"),
        ([k**3 for k in range(1, 61)], "unclassified"), ([0] * 30 + [1] * 30, "unclassified"),
    ])
    def test_class_rule(self, degrees, kind):
        assert growth_class(degrees) == (kind, 0.0)

    def test_class_rule_rejects_other_lengths(self):
        # d_10 / d_9 = 24 / 21 of somos5 would pass the exponential threshold
        # tuned for d_60 / d_59, so a prefix is refused, not misclassified
        b = get_fixture("somos5").matrix("B")
        degrees = degree_growth(b, detect_period(b))
        assert len(degrees) == 60
        for short in (degrees[:10], degrees[:1], []):
            with pytest.raises(ValueError):
                growth_class(short)
        with pytest.raises(ValueError):
            growth_class(degrees + [degrees[-1]])


class TestSeedMutation:
    def test_initial_seed(self):
        b = get_fixture("somos5").matrix("B")
        seed = Seed.initial(b)
        assert len(seed.cluster) == 5
        for i, var in enumerate(seed.cluster):
            assert var.is_coordinate(i)

    def test_seed_mutation_involution(self):
        b = get_fixture("somos5").matrix("B")
        seed = Seed.initial(b)
        again = mutate_seed(mutate_seed(seed, 1), 1)
        assert again.matrix == seed.matrix
        assert again.cluster == seed.cluster

    def test_exchange_relation(self):
        b = get_fixture("somos5").matrix("B")
        seed = mutate_seed(Seed.initial(b), 1)
        # x1' x1 = x2 x5 + x3 x4 for the Somos-5 exchange at node 1
        from cluster_reduce import parse_rational

        assert seed.cluster[0] == parse_rational("(x2*x5 + x3*x4)/x1", 5)
