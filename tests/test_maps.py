"""Birational maps, monomial maps, and exact Jacobians."""

import ast
import io
import operator
import random
import tokenize
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from cluster_reduce import (
    BirationalMap,
    IntMatrix,
    MonomialMap,
    PoissonStructure,
    casimir_submersion,
    cluster_map,
    derive_reduced_map,
    detect_period,
    get_fixture,
    random_positive_point,
    rng_substream,
)
from cluster_reduce import laurent, maps
from cluster_reduce.quiver import degree_growth
import reference
from reference import as_birational

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

    def test_phi_fourth_of_somos5_2periodic_takes_two_trial_divisions(self, monkeypatch):
        # phi^4 = phi^2 o phi^2: the heuristic gcd gives up on two gcds, of
        # 2182 terms against 7 and of 5452 against 27 (stepwise, phi o
        # phi^3 gives up on 4650 against 15, where the PRS ran past 120 s);
        # each time the shorter argument's primitive part divides the
        # other, so it is the gcd and no PRS runs
        heu, core = laurent._heu_gcd, laurent._poly_gcd_core
        gave_up, fallbacks = [], []

        def recording_heu(f, g, n):
            found = heu(f, g, n)
            if found is None:
                gave_up.append((len(f), len(g)))
            return found

        def counting_core(f, g):
            fallbacks.append((f, g))
            return core(f, g)

        monkeypatch.setattr(laurent, "_heu_gcd", recording_heu)
        monkeypatch.setattr(laurent, "_poly_gcd_core", counting_core)
        b = get_fixture("somos5-2periodic").matrix("B")
        phi = cluster_map(b, detect_period(b))
        fourth = phi.iterate(4)
        assert gave_up == [(2182, 7), (5452, 27)]
        assert fallbacks == []
        assert [len(c.num.terms) for c in fourth.components] == [12, 74, 131, 1502, 2796]
        assert all(c.den.is_monomial() for c in fourth.components)
        x = start = tuple(Fraction(k, 3) for k in range(1, 6))
        for _ in range(4):
            x = phi.evaluate(x)
        assert fourth.evaluate(start) == x

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

    # the ladder's reduced maps of dimension <= 3 and the largest power
    # checked of each: the somos5 Casimir map has no period, and its
    # fourth iterate alone takes 3-4.5 s either way, as the heuristic gcd
    # gives up on its normal forms and the PRS answers
    SMALL_LEVELS = {"somos5:null0": 6, "somos5:casimir1": 3, "c7-pair:null0": 6,
                    "c7-pair:casimir1": 6}

    @pytest.mark.parametrize("name", SMALL_LEVELS)
    def test_iterates_by_squaring_are_the_stepwise_iterates(self, ladder_maps, name):
        assert {k for k, f in ladder_maps.items() if ":" in k and f.dim_in <= 3} == set(
            self.SMALL_LEVELS)
        f = ladder_maps[name]
        for p in range(self.SMALL_LEVELS[name] + 1):
            want = reference.iterate(f, p)
            got = f.iterate(p)
            assert got == want
            assert all(type(c) is Fraction for comp in got.components
                       for poly in (comp.num, comp.den) for c in poly.terms.values())


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

    def test_a_zero_component_runs_hot_as_it_runs_cold(self):
        # a component with no terms is 0: the generated step, exact and as
        # libmpf calls, writes its total as zero, and its gradient is zero
        f = BirationalMap.from_strings(["x2", "0"])
        point = (Fraction(2, 3), Fraction(5, 7))
        with mp.workdps(64):
            cold = [f.evaluate(point), f.jacobian(point), f.evaluate_mp(point),
                    f.jacobian_mp(point)]
            assert cold[:2] == [(Fraction(5, 7), 0), [[0, 1], [0, 0]]]
            for _ in range(maps._HOT_STEPS):
                f.evaluate(point)
                f.evaluate_mp(point)
            hot = [f.evaluate(point), f.jacobian(point), f.evaluate_mp(point),
                   f.jacobian_mp(point)]
            for num in (maps._EXACT, maps._MPF):
                assert f._compiled(num).generated != [None, None]
        assert hot == cold

    def test_generated_source_holds_no_coefficient(self):
        # coefficients reach a generated step as a list argument: its
        # source has no string and only the int literals of indices and
        # exponents (0, 1 and 2 here), never -7/3 or 10^-50 in any form
        f = BirationalMap.from_strings(["(-7/3*x1^2 + x2)/(x1 + 1)", "x1*x2/10^50", "x2"], 2)
        with mp.workdps(64):
            for num in (maps._EXACT, maps._MPF):
                compiled = f._compiled(num)
                for c in (Fraction(-7, 3), Fraction(1, 10**50)):
                    assert num.convert(c) in compiled.coeffs
                for jacobian, spell in product((False, True), (maps._PYTHON, maps._LIBMPF)):
                    source = maps._source(compiled.components, 2, jacobian, spell)
                    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
                    assert not [t for t in tokens if t.type == tokenize.STRING]
                    numbers = {t.string for t in tokens if t.type == tokenize.NUMBER}
                    assert numbers <= {"0", "1", "2"}

    def test_monomial_map_matches_its_birational_form(self):
        m = MonomialMap.from_rows([[1, -1, 2], [0, 0, 0], [-3, 0, 1]], 3)
        f = as_birational(m)
        for i in range(5):
            p = random_positive_point(3, rng_substream("monomial", i))
            assert m.evaluate(p) == f.evaluate(p)
            with mp.workdps(64):
                for a, b in zip(m.evaluate_mp(p), f.evaluate_mp(p)):
                    assert abs(a - b) <= mp.mpf(10) ** -60 * abs(b)


def _written(spell, expression) -> str:
    """expression, an operand or a tuple (operation, operand, ...) of
    nested expressions, written as spell writes it."""
    if not isinstance(expression, tuple):
        return str(expression)
    operation, *operands = expression
    return getattr(spell, operation).format(*(_written(spell, v) for v in operands))


class TestSpellings:
    """How `maps._source` writes the operations of a step: Python's
    operators (`_PYTHON`), or the libmpf calls that the mpf operators make
    (`_LIBMPF`), which a generated mpf step runs on raw values."""

    @pytest.mark.parametrize("expression", [
        ("add", "zero", ("mul", "c0", "x0")),             # a term added into its total
        ("div", ("sub", "a", ("mul", "v", "b")), "d"),    # a quotient-rule entry
        ("mul", ("mul_int", "c0", 2), "x0_1"),            # * by an int literal (a gradient part)
        ("mul", ("mul_int", "c0", -1), "x0_m2"),          # * by a negative int literal
        ("pow_int", "x0", 3),                             # ** by an int literal
        ("pow_int", "x0", -2),                            # ** by a negative int literal
    ])
    def test_libmpf_calls_are_the_mpf_operators(self, expression):
        with mp.workdps(64):
            names = ["c0", "x0", "a", "v", "b", "d", "x0_1", "x0_m2"]
            values = {name: mp.mpf(k) / 7 for k, name in zip([-4, -3, -2, -1, 1, 2, 3, 5], names)}
            values["zero"] = mp.mp.zero
            want = eval(_written(maps._PYTHON, expression), {}, values)
            raw = {name: v._mpf_ for name, v in values.items()}
            got = eval(_written(maps._LIBMPF, expression),
                       {**maps._LIBMPF_NAMES, "prec": mp.mp.prec}, raw)
            assert got == want._mpf_

    @pytest.mark.parametrize("expression", [
        ("div", ("sub", "a", ("mul", "v", "b")), "d"),    # not a - v * b / d
        ("div", "a", ("mul", "v", "b")),                  # not a / v * b
        ("sub", "a", ("sub", "v", "b")),                  # not a - v - b
        ("mul", ("add", "a", "b"), "d"),                  # not a + b * d
        ("mul_int", ("add", "a", "b"), -1),               # not a + b * -1
        ("pow_int", ("sub", "a", "b"), 2),                # not a - b ** 2
    ])
    def test_python_operations_nest_as_written(self, expression):
        # each Python-spelled operation keeps its operands whole, so the
        # written expression evaluates as its tree does
        values = {name: Fraction(k, 7) for k, name in zip([-4, -1, 2, 5], "avbd")}
        apply = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv, "mul_int": operator.mul, "pow_int": operator.pow}

        def value(e):
            if not isinstance(e, tuple):
                return values.get(e, e)
            return apply[e[0]](*map(value, e[1:]))

        assert eval(_written(maps._PYTHON, expression), {}, values) == value(expression)

    @pytest.mark.parametrize("value",[mp.mpf(0), mp.mpf(1) / 7, mp.mpf("1e-300")])
    def test_the_zero_tests_agree(self, value):
        # an mpf equals 0 exactly when its raw value is fzero
        want = eval(maps._PYTHON.is_zero.format("d"), {}, {"d": value})
        got = eval(maps._LIBMPF.is_zero.format("d"), maps._LIBMPF_NAMES, {"d": value._mpf_})
        assert got == want == (value == 0)

    def test_a_whole_libmpf_step_has_no_operator(self):
        # -7/3 x1^-1 x2^2 / (x1 + 2) and x2, with the Jacobian: the Python
        # step has operators and the zero test d0 == 0; the libmpf step
        # has only libmpf calls, negative int literals as their arguments,
        # and d0 == fzero
        comps = [([(Fraction(-7, 3), ((0, -1), (1, 2)))],
                  [(Fraction(1), ((0, 1),)), (Fraction(2), ())]), 1]
        python = ast.parse(maps._source(comps, 2, True, maps._PYTHON))
        kinds = {type(node) for node in ast.walk(python)}
        assert {ast.BinOp, ast.Compare, ast.If, ast.Raise, ast.Return} <= kinds
        nodes = list(ast.walk(ast.parse(maps._source(comps, 2, True, maps._LIBMPF))))
        assert not [n for n in nodes if isinstance(n, ast.BinOp)]
        unary = [n for n in nodes if isinstance(n, ast.UnaryOp)]
        assert unary and all(type(ast.literal_eval(n)) is int for n in unary)
        assert [ast.unparse(n) for n in nodes if isinstance(n, ast.Compare)] == ["d0 == fzero"]
        calls = {n.func.id for n in nodes if isinstance(n, ast.Call)}
        assert calls == {"mpf_add", "mpf_sub", "mpf_mul", "mpf_div", "mpf_mul_int",
                         "mpf_pow_int", "ZeroDivisionError"}


class TestMonomialMap:
    def test_components(self):
        m = MonomialMap.from_rows([(1, -1, 0), (0, 1, -2)], 3)
        assert (m.dim_in, m.dim_out) == (3, 2)
        assert as_birational(m).to_strings() == ["x1/x2", "x2/x3^2"]

    def test_evaluate(self):
        m = MonomialMap.from_rows([(2, -1)], 2)
        assert m.evaluate((Fraction(3), Fraction(2))) == (Fraction(9, 2),)

    def test_after_birational(self):
        m = MonomialMap.from_rows([(1, 1)], 2)
        f = BirationalMap.from_strings(LYNESS)
        pulled = m.after(f)
        assert pulled.to_strings() == ["(x2^2 + x2)/x1"]

    def test_after_a_map_with_no_components(self):
        # with no source coordinates every row is the empty monomial: the
        # composite is 1 in each of m's components, on f's space
        m = MonomialMap(IntMatrix.zeros(2, 0))
        f = BirationalMap(3, [])
        pulled = m.after(f)
        assert (pulled.dim_in, pulled.to_strings()) == (3, ["1", "1"])
        point = (Fraction(2), Fraction(3, 5), Fraction(7))
        assert pulled.evaluate(point) == m.evaluate(f.evaluate(point)) == (1, 1)

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
    def test_substream_determinism(self):
        a = random_positive_point(4, rng_substream(5, 0))
        b = random_positive_point(4, rng_substream(5, 0))
        c = random_positive_point(4, rng_substream(5, 1))
        assert a == b
        assert a != c
        assert all(v > 0 for v in a)
