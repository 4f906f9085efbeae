"""Birational maps, monomial maps, and exact Jacobians."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from cluster_reduce import (
    BirationalMap,
    MonomialMap,
    PoissonStructure,
    casimir_submersion,
    cluster_map,
    derive_reduced_map,
    detect_period,
    get_fixture,
    positive_point,
    random_positive_point,
    rng_substream,
)
from cluster_reduce import laurent
from cluster_reduce.quiver import degree_growth

LYNESS = ["x2", "(x2 + 1)/x1"]


class TestBirationalMap:
    def test_identity(self):
        ident = BirationalMap.identity(3)
        assert ident.is_identity()
        assert ident.evaluate((Fraction(1), Fraction(2), Fraction(3))) == (
            Fraction(1),
            Fraction(2),
            Fraction(3),
        )

    def test_from_to_strings(self):
        f = BirationalMap.from_strings(LYNESS)
        assert f.dim_in == 2
        assert f.to_strings() == LYNESS
        assert f.to_strings(names=["u", "v"]) == ["v", "(v + 1)/u"]

    def test_evaluate(self):
        f = BirationalMap.from_strings(LYNESS)
        assert f.evaluate((Fraction(1), Fraction(1))) == (Fraction(1), Fraction(2))
        assert f.evaluate((Fraction(1), Fraction(2))) == (Fraction(2), Fraction(3))

    def test_compose_vs_pointwise(self):
        rng = random.Random(31)
        f = BirationalMap.from_strings(LYNESS)
        g = f.compose(f)
        for i in range(10):
            p = random_positive_point(2, rng_substream(31, i))
            assert g.evaluate(p) == f.evaluate(f.evaluate(p))

    def test_iterate_lyness_period_five(self):
        f = BirationalMap.from_strings(LYNESS)
        assert not f.is_identity()
        assert not f.iterate(2).is_identity()
        assert not f.iterate(3).is_identity()
        assert not f.iterate(4).is_identity()
        assert f.iterate(5).is_identity()
        assert f.iterate(10).is_identity()

    def test_iterate_zero_is_identity(self):
        f = BirationalMap.from_strings(LYNESS)
        assert f.iterate(0).is_identity()
        assert f.iterate(1) == f

    def test_evaluate_mp(self):
        f = BirationalMap.from_strings(LYNESS)
        with mp.workdps(50):
            out = f.evaluate_mp([mp.mpf(1), mp.mpf(1)])
            assert abs(out[1] - 2) < mp.mpf("1e-45")

    def test_jacobian_against_finite_differences(self):
        f = BirationalMap.from_strings(
            ["x2", "x3", "(x2*x3 + 1)/(x1*x3)"]
        )
        rng = random.Random(32)
        for i in range(5):
            p = random_positive_point(3, rng_substream(32, i))
            jac = f.jacobian(p)
            with mp.workdps(64):
                h = mp.mpf("1e-21")
                base = [mp.mpf(v.numerator) / v.denominator for v in p]
                for col in range(3):
                    up, down = list(base), list(base)
                    up[col] += h
                    down[col] -= h
                    fu = f.evaluate_mp(up)
                    fd = f.evaluate_mp(down)
                    for row in range(3):
                        exact = jac[row][col]
                        approx = (fu[row] - fd[row]) / (2 * h)
                        target = mp.mpf(exact.numerator) / exact.denominator
                        assert abs(approx - target) < mp.mpf("1e-30")

    def test_jacobian_mp_matches_exact(self):
        f = BirationalMap.from_strings(LYNESS)
        p = (Fraction(3, 2), Fraction(5, 3))
        exact = f.jacobian(p)
        with mp.workdps(40):
            approx = f.jacobian_mp([mp.mpf(3) / 2, mp.mpf(5) / 3])
            for i in range(2):
                for j in range(2):
                    target = mp.mpf(exact[i][j].numerator) / exact[i][j].denominator
                    assert abs(approx[i][j] - target) < mp.mpf("1e-35")

    def test_json_round_trip(self):
        f = BirationalMap.from_strings(LYNESS)
        doc = f.to_json_dict()
        assert doc["schema"] == "v1"
        assert BirationalMap.from_json_dict(doc) == f

    def test_dimension_mismatch_rejected(self):
        f = BirationalMap.from_strings(LYNESS)
        with pytest.raises(ValueError):
            f.evaluate((Fraction(1),))

    @pytest.mark.parametrize("point", [[2], [2, 3, 5]])
    def test_every_evaluator_rejects_wrong_length_points(self, point):
        maps = (BirationalMap.from_strings(LYNESS), MonomialMap.from_rows([[1, -1], [0, 2]], 2))
        checked = 0
        for f in maps:
            for name in ("evaluate", "evaluate_mp", "jacobian", "jacobian_mp"):
                if hasattr(f, name):
                    with mp.workdps(30), pytest.raises(ValueError, match="dimension"):
                        getattr(f, name)(point)
                    checked += 1
        assert checked == 6
        with pytest.raises(ValueError, match="dimension"):
            MonomialMap.from_rows([[1, -1, 2]], 3).evaluate_mp([2, 3])


class TestExactComposition:
    """Composites that the one-normal-form composition makes cheap."""

    def test_phi_cubed_of_somos5_2periodic(self):
        # the Laurent phenomenon: every denominator is a monomial, whose
        # largest total degree is the tropical d-vector degree deg_3
        b = get_fixture("somos5-2periodic").matrix("B")
        cert = detect_period(b)
        phi = cluster_map(b, cert)
        cube = phi.compose(phi.compose(phi))
        dens = [c.den.terms for c in cube.components]
        assert all(list(den.values()) == [1] for den in dens)
        assert list(dens[-1]) == [(6, 6, 2, 2, 1)]
        assert max(sum(e) for den in dens for e in den) == degree_growth(b, cert)[2] == 17

    def test_iterate_of_somos5_casimir_map_in_both_orders(self):
        fixture = get_fixture("somos5")
        b = fixture.matrix("B")
        sub = casimir_submersion(PoissonStructure(fixture.matrix("C")))
        f = derive_reduced_map(cluster_map(b, detect_period(b)), sub).map
        assert f.iterate(3) == f.iterate(2).compose(f)

    def test_gcds_of_non_constants_are_bounded(self, monkeypatch):
        # a gcd with a constant argument is 1 without any work, and the
        # products and inverses of normal forms need no final gcd: this
        # composite makes 78 core calls on two non-constants, of 207 in
        # all (136 of 780 without those shortcuts)
        core = laurent._poly_gcd_core
        calls = []

        def counted(f, g):
            calls.append(not (f.is_constant() or g.is_constant()))
            return core(f, g)

        monkeypatch.setattr(laurent, "_poly_gcd_core", counted)
        f = BirationalMap.from_strings(["(x2^2 + x2)/x1", "(x2*x3 + x3)/x1", "(x2 + 1)/x1"])
        f.iterate(10)
        assert sum(calls) <= 78


class TestOneKernel:
    """Values and Jacobians of every map come from its compiled term lists."""

    def test_values_and_jacobians_match_the_symbolic_reference(self, ladder_maps):
        assert len(ladder_maps) == 22
        for name, f in ladder_maps.items():
            partials = [[c.derivative(j) for j in range(f.dim_in)] for c in f.components]
            for i in range(3):
                p = random_positive_point(f.dim_in, rng_substream(name, i))
                assert f.evaluate(p) == tuple(c.evaluate(p) for c in f.components), name
                exact = f.jacobian(p)
                assert exact == [[d.evaluate(p) for d in row] for row in partials], name
                with mp.workdps(64):
                    approx = f.jacobian_mp(p)
                    for a, e in zip(sum(approx, []), sum(exact, [])):
                        e = mp.mpf(e.numerator) / e.denominator
                        assert abs(a - e) <= mp.mpf(10) ** -60 * max(1, abs(e)), name

    def test_mpf_coefficients_are_cached_per_precision(self):
        # 1/3 rounded at 30 digits must not be reused at 100
        text = ["x1/3 + x2", "x1*x2/3"]
        f = BirationalMap.from_strings(text)
        with mp.workdps(30):
            f.evaluate_mp([2, 5])
            f.jacobian_mp([2, 5])
        with mp.workdps(100):
            fresh = BirationalMap.from_strings(text)
            pairs = [(f.evaluate_mp([2, 5]), fresh.evaluate_mp([2, 5])),
                     (sum(f.jacobian_mp([2, 5]), []), sum(fresh.jacobian_mp([2, 5]), []))]
            for got, want in pairs:
                assert all(abs(a - b) < mp.mpf(10) ** -95 for a, b in zip(got, want))
            assert abs(f.evaluate_mp([2, 5])[0] - (mp.mpf(2) / 3 + 5)) < mp.mpf(10) ** -95

    def test_monomial_map_matches_its_birational_form(self):
        m = MonomialMap.from_rows([[1, -1, 2], [0, 0, 0], [-3, 0, 1]], 3)
        f = m.as_birational()
        for i in range(5):
            p = random_positive_point(3, rng_substream("monomial", i))
            assert m.evaluate(p) == f.evaluate(p)
            with mp.workdps(64):
                for a, b in zip(m.evaluate_mp(p), f.evaluate_mp(p)):
                    assert abs(a - b) <= mp.mpf(10) ** -60 * abs(b)


class TestMonomialMap:
    def test_components(self):
        m = MonomialMap.from_rows([(1, -1, 0), (0, 1, -2)], 3)
        assert (m.dim_in, m.dim_out) == (3, 2)
        assert m.as_birational().to_strings() == ["x1/x2", "x2/x3^2"]

    def test_evaluate(self):
        m = MonomialMap.from_rows([(2, -1)], 2)
        assert m.evaluate((Fraction(3), Fraction(2))) == (Fraction(9, 2),)

    def test_after_birational(self):
        m = MonomialMap.from_rows([(1, 1)], 2)
        f = BirationalMap.from_strings(LYNESS)
        pulled = m.after(f)
        assert pulled.to_strings() == ["(x2^2 + x2)/x1"]

    def test_after_monomial_multiplies_exponents(self):
        outer = MonomialMap.from_rows([(1, -1)], 2)
        inner = MonomialMap.from_rows([(1, 0, 1), (0, 2, 0)], 3)
        combined = outer.after_monomial(inner)
        assert combined.exponents.entries == ((1, -2, 1),)

    def test_lattice(self):
        m = MonomialMap.from_rows([(2, 0), (0, 2)], 2)
        assert m.lattice().dim == 2

    def test_json_round_trip(self):
        m = MonomialMap.from_rows([(1, -2, 1)], 3)
        doc = m.to_json_dict()
        assert MonomialMap.from_json_dict(doc) == m


class TestPoints:
    def test_positive_point_validation(self):
        with pytest.raises(ValueError):
            positive_point((Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            positive_point((Fraction(-1),))

    def test_substream_determinism(self):
        a = random_positive_point(4, rng_substream(5, 0))
        b = random_positive_point(4, rng_substream(5, 0))
        c = random_positive_point(4, rng_substream(5, 1))
        assert a == b
        assert a != c
        assert all(v > 0 for v in a)
