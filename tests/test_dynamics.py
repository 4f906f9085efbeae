"""Orbits, global periodicity, periodic points, itineraries, closed forms."""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import to_rational

from cluster_reduce import (
    BirationalMap,
    DynamicsError,
    IntMatrix,
    MonomialMap,
    PoissonStructure,
    PresymplecticForm,
    build_flag,
    casimir_submersion,
    cluster_map,
    derive_reduced_map,
    detect_global_periodicity,
    detect_period,
    find_invariant_poisson,
    fordy_marsh,
    find_periodic_points,
    find_periodic_points_over,
    first_integral_check,
    get_fixture,
    golden_ratio,
    kernel_lattice,
    iterate_orbit,
    leaf_itinerary,
    no_periodic_points_scan,
    orbit_sequence,
    null_submersion,
    plastic_root,
    random_positive_point,
    rng_substream,
    somos5_constrained_start,
    submersion_from_rows,
    verify_closed_form,
)
from cluster_reduce import dynamics, maps
from cluster_reduce.intlinalg import right_inverse
from cluster_reduce.pipeline import (
    AnalysisReport,
    InputError,
    WorkflowConfig,
    _foliations,
    run_pipeline,
)

LYNESS = BirationalMap.from_strings(["x2", "(x2 + 1)/x1"])
PSI_HAT5 = BirationalMap.from_strings(["x2", "(x2 + 1)/(x1*x2)"])
PSI_1 = BirationalMap.from_strings(["x2", "(x2 + 1)/x1", "(x2^2 + x2)/x3"])
PSI_2 = BirationalMap.from_strings(
    ["x2", "(x2 + 1)/x1", "(x2^2 + x2)/x3", "x5", "x3*x5^2/(x2*x4)"]
)

DATA = Path(__file__).parent / "data"

C7_Y = [
    (1, 0, -1, -1, 0, 1, 0),
    (0, 1, 0, -1, -1, 0, 1),
    (1, 0, 0, -2, 0, 0, 1),
]


def _phi(name: str) -> BirationalMap:
    b = get_fixture(name).matrix("B")
    return cluster_map(b, detect_period(b))


def _ladder_matrices():
    """The benchmark ladder: the fixtures and Fordy-Marsh quivers N = 6..9."""
    rows = [
        (1, -1, 0, -1, 1),
        (1, -1, 0, 0, -1, 1),
        (1, -1, 0, 0, 0, -1, 1),
        (1, 0, -1, 0, 0, -1, 0, 1),
    ]
    names = ("somos5", "c7-pair", "somos5-2periodic")
    return [get_fixture(n).matrix("B") for n in names] + [fordy_marsh(r) for r in rows]


def _reduced(case: str, label: str):
    phi = _phi(case)
    rows = get_fixture(case).exponent(label).entries
    return derive_reduced_map(phi, submersion_from_rows(rows, phi.dim_in, kind="casimir"))


def _ones(n: int):
    return tuple(Fraction(1) for _ in range(n))


@cache
def _low_dimensional_maps() -> dict:
    """LYNESS, PSI_1, PSI_HAT5 and the reduced maps of dimension <= 3 of
    somos5 and c7-pair, by their null and Casimir submersions."""
    maps = {"lyness": LYNESS, "psi_1": PSI_1, "psi_hat5": PSI_HAT5}
    for case, casimir in (("somos5", "C"), ("c7-pair", "C1")):
        fixture = get_fixture(case)
        phi = _phi(case)
        for sub in (null_submersion(PresymplecticForm(fixture.matrix("B"))),
                    casimir_submersion(PoissonStructure(fixture.matrix(casimir)))):
            maps[f"{case}:{sub.kind}{sub.dim_out}"] = derive_reduced_map(phi, sub).map
    return maps


@cache
def _period_two_samples(name: str) -> list:
    """find_periodic_points(f, 2, grid=4) at 64 digits for a map of
    _low_dimensional_maps, computed once for the tests that read it."""
    return find_periodic_points(_low_dimensional_maps()[name], 2, precision=64, grid=4)


def _symbolic_powers(f: BirationalMap, count: int) -> list:
    """[f, f^2, ..., f^count] in normal form, each composed as f^(p-1) o f.

    These are the composites f.iterate(p) forms as f o f^(p-1);
    substituting f into the composite is the cheaper order here (about
    3 times faster for p = 3 on the somos5 Casimir map).
    """
    powers = [f]
    while len(powers) < count:
        powers.append(powers[-1].compose(f))
    return powers


def _mp_point(point) -> list:
    return [mp.mpf(v.numerator) / v.denominator for v in point]


def _search_digest(points) -> str:
    """SHA-256 of the repr of [([point's mpf tuples], residual's mpf tuple)],
    each tuple's entries as Python ints."""
    bits = [([tuple(int(b) for b in v._mpf_) for v in pp.point],
             tuple(int(b) for b in pp.residual._mpf_)) for pp in points]
    return hashlib.sha256(repr(bits).encode()).hexdigest()


def _relative_error(got, want):
    return max(abs(a - b) for a, b in zip(got, want)) / max(abs(b) for b in want)


class TestOrbits:
    def test_somos5_sequence(self):
        orbit = iterate_orbit(_phi("somos5"), _ones(5), 8)
        seq = orbit_sequence(orbit)
        assert seq == [1, 1, 1, 1, 1, 2, 3, 5, 11, 37, 83, 274, 1217]

    def test_exact_orbit_structure(self):
        orbit = iterate_orbit(LYNESS, (Fraction(1), Fraction(1)), 5)
        assert len(orbit) == 6
        assert orbit.mode == "exact"
        assert orbit.points[0] == (1, 1)
        assert orbit.points[5] == orbit.points[0]

    def test_float_orbit(self):
        orbit = iterate_orbit(LYNESS, (Fraction(1), Fraction(1)), 5, mode="float", precision=50)
        assert orbit.mode == "float"
        assert orbit.precision == 50
        with mp.workdps(50):
            assert abs(orbit.points[5][0] - 1) < mp.mpf("1e-45")

    def test_vanishing_denominator_reported(self):
        f = BirationalMap.from_strings(["x2", "(x2 + 1)/(x1 - 1)"])
        with pytest.raises(DynamicsError, match="step"):
            iterate_orbit(f, (Fraction(2), Fraction(1)), 5)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            iterate_orbit(LYNESS, (Fraction(1), Fraction(1)), 2, mode="sloppy")


class TestGlobalPeriodicity:
    def test_lyness_is_five_periodic(self):
        report = detect_global_periodicity(LYNESS)
        assert report.is_periodic
        assert (report.kind, report.period) == ("global", 5)
        assert report.certificate == "symbolic"

    def test_psi1_is_ten_periodic(self):
        report = detect_global_periodicity(PSI_1)
        assert report.period == 10

    def test_identity_has_period_one(self):
        report = detect_global_periodicity(BirationalMap.identity(2))
        assert report.period == 1

    def test_psi_hat5_is_not_periodic(self):
        report = detect_global_periodicity(PSI_HAT5)
        assert report.kind == "none"
        assert report.period is None
        assert not report.is_periodic

    def test_bound_respected(self):
        report = detect_global_periodicity(PSI_1, p_max=8)
        assert report.kind == "none"

    def test_first_returns_whose_lcm_passes_the_bound(self):
        # x1 -> a^2/x1 has order 2 and fixes a, the first start's x1; the
        # scaled 3-cycle on (x2, x3, x4) has order 3 and fixes the second
        # start's (x2, x3, x4): the two starts return at 3 and 2, and f
        # has global period 6
        a = random_positive_point(4, rng_substream(0, 0))[0]
        u, v, w = random_positive_point(4, rng_substream(0, 1))[1:]
        f = BirationalMap.from_strings([f"({a})^2/x1", f"{u / v}*x3", f"{v / w}*x4",
                                        f"{w / u}*x2"])
        assert [r for _, r in dynamics._Lift(f).first_returns(5, 2, 0)] == [3, 2]
        report = detect_global_periodicity(f, p_max=5, samples=2)
        assert (report.kind, report.certificate, report.note) == ("none", "sampled", "")
        assert detect_global_periodicity(f, p_max=6, samples=2).period == 6

    def test_an_orbit_leaving_the_domain_is_a_negative(self):
        # the first start is c, where 1/(x1 - c) is undefined
        c = random_positive_point(1, rng_substream(0, 0))[0]
        report = detect_global_periodicity(BirationalMap.from_strings([f"1/(x1 - {c})"]),
                                           samples=1)
        assert (report.kind, report.period) == ("none", None)
        assert report.note == "an orbit left the domain"

    def test_a_candidate_failing_the_certificate_is_a_negative(self):
        # the first start c is a fixed point of x1 + (x1 - c)^2, which is
        # not the identity
        c = random_positive_point(1, rng_substream(0, 0))[0]
        report = detect_global_periodicity(BirationalMap.from_strings([f"x1 + (x1 - {c})^2"]),
                                           samples=1)
        assert (report.kind, report.certificate) == ("none", "sampled")
        assert report.note == "sampled candidate 1 failed the symbolic identity check"

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        # with no orbit sampled, LYNESS (5-periodic) used to come back "none"
        with pytest.raises(DynamicsError, match="at least one sampled orbit"):
            detect_global_periodicity(LYNESS, samples=samples)


class TestFirstIntegrals:
    def test_labels_return_after_global_period(self):
        phi = _phi("c7-pair")
        pi_null = MonomialMap.from_rows(C7_Y[:2], 7)
        pi_cas = MonomialMap.from_rows(C7_Y, 7)
        assert first_integral_check(phi, pi_null, 5)
        assert first_integral_check(phi, pi_cas, 10)

    def test_wrong_power_fails(self):
        phi = _phi("c7-pair")
        pi_null = MonomialMap.from_rows(C7_Y[:2], 7)
        assert not first_integral_check(phi, pi_null, 3)


class TestPeriodicPoints:
    def test_lyness_fixed_point_is_golden(self):
        points = find_periodic_points(LYNESS, 1)
        assert len(points) == 1
        fp = points[0]
        with mp.workdps(64):
            g = golden_ratio()
            assert abs(fp.point[0] - g) < mp.mpf("1e-40")
            assert abs(fp.point[1] - g) < mp.mpf("1e-40")
            assert fp.residual < mp.mpf("1e-40")
        assert fp.period == 1

    def test_psi_hat5_fixed_point_is_plastic(self):
        points = find_periodic_points(PSI_HAT5, 1)
        assert len(points) == 1
        with mp.workdps(64):
            r = plastic_root()
            assert abs(points[0].point[0] - r) < mp.mpf("1e-40")
            assert abs(points[0].point[1] - r) < mp.mpf("1e-40")
            # r is the real root of t^3 = t + 1
            assert abs(r**3 - r - 1) < mp.mpf("1e-60")

    def test_psi1_fixed_point(self):
        points = find_periodic_points(PSI_1, 1, grid=4)
        assert len(points) == 1
        with mp.workdps(64):
            g = golden_ratio()
            expected = mp.sqrt(g**3)
            assert abs(points[0].point[0] - g) < mp.mpf("1e-40")
            assert abs(points[0].point[1] - g) < mp.mpf("1e-40")
            assert abs(points[0].point[2] - expected) < mp.mpf("1e-40")

    def test_dimension_cap(self):
        with pytest.raises(DynamicsError):
            find_periodic_points(PSI_2, 1)

    @pytest.mark.parametrize("grid", [0, -2])
    def test_grid_must_be_positive(self, grid):
        with pytest.raises(DynamicsError, match="grid"):
            find_periodic_points(_low_dimensional_maps()["somos5:null2"], 1, grid=grid)

    def test_precision_scales_residual(self):
        points = find_periodic_points(LYNESS, 1, precision=128)
        with mp.workdps(128):
            assert points[0].residual < mp.mpf("1e-100")

    def test_no_symbolic_composite_or_mpmath_matrices(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called inside find_periodic_points")

        expected = find_periodic_points(LYNESS, 1)
        for owner, name in ((BirationalMap, "iterate"), (BirationalMap, "evaluate_mp"),
                            (BirationalMap, "jacobian_mp"), (mp, "lu_solve"), (mp, "matrix")):
            monkeypatch.setattr(owner, name, forbidden)
        assert find_periodic_points(LYNESS, 1) == expected
        assert find_periodic_points(LYNESS, 2) == []
        assert len(find_periodic_points(PSI_HAT5, 1)) == 1

    @pytest.mark.parametrize("name", ["somos5:casimir3", "c7-pair:casimir3"])
    def test_period_two_points_sample_a_curve(self, name):
        # J(f^2) - I has exactly one vanishing singular value at every
        # point found: the period-2 points form a curve, and the list
        # holds samples of it
        f = _low_dimensional_maps()[name]
        points = _period_two_samples(name)
        assert len(points) > 3
        g = _symbolic_powers(f, 2)[1]
        with mp.workdps(64):
            for pp in points:
                jac = g.jacobian_mp(pp.point)
                a = mp.matrix([[jac[i][j] - (i == j) for j in range(3)] for i in range(3)])
                low, mid, _ = sorted(mp.svd_r(a, compute_uv=False))
                assert low < mp.mpf(10) ** -35
                assert mid > mp.mpf(10) ** -1

    @pytest.mark.parametrize("name", ["somos5:casimir3", "c7-pair:casimir3"])
    def test_period_two_samples_are_pinned(self, name):
        # where a start lands on the curve depends on its whole Newton
        # path, floats included: the 61 samples of each map to 30 digits
        want = json.loads((DATA / "period2-samples.json").read_text())[name]
        with mp.workdps(64):
            got = [[mp.nstr(v, 30) for v in pp.point] for pp in _period_two_samples(name)]
        assert got == want

    @pytest.mark.parametrize("precision, p", [(64, 1), (64, 2), (128, 1), (30, 1), (30, 2)])
    @pytest.mark.parametrize("name", ["somos5:null2", "somos5:casimir3",
                                      "c7-pair:null2", "c7-pair:casimir3"])
    def test_search_bits_are_pinned(self, name, precision, p):
        # every bit of every point and residual the search returns, as
        # a SHA-256 of their raw mpf tuples (tests/data/README.md)
        want = json.loads((DATA / "search-digests.json").read_text())[f"{name}:p{p}@{precision}"]
        points = find_periodic_points(_low_dimensional_maps()[name], p, precision=precision, grid=4)
        assert {"points": len(points), "sha256": _search_digest(points)} == want


class TestPeriodicPointKernel:
    """The stepped f^p and its chain-rule Jacobian, and the list LU solver."""

    @pytest.mark.parametrize("name", [
        "lyness", "psi_1", "psi_hat5",
        "somos5:null2", "somos5:casimir3", "c7-pair:null2", "c7-pair:casimir3",
    ])
    def test_stepped_power_matches_symbolic_composite(self, name):
        f = _low_dimensional_maps()[name]
        for p, g in enumerate(_symbolic_powers(f, 3), start=1):
            for precision in (64, 128):
                with mp.workdps(precision):
                    comps = maps._compile(f, lambda c: mp.mpf(c.numerator) / c.denominator)
                    tol = mp.mpf(10) ** (10 - precision)
                    for i in range(3):
                        x = _mp_point(random_positive_point(f.dim_in, rng_substream(p, i)))
                        value, jac = dynamics._power(comps, x, p, jacobian=True)
                        assert dynamics._power(comps, x, p) == (value, None)
                        assert _relative_error(value, g.evaluate_mp(x)) < tol
                        assert _relative_error(sum(jac, []), sum(g.jacobian_mp(x), [])) < tol

    @staticmethod
    def _both(a, b):
        """(_lu_solve, mpmath.lu_solve) on the same system; None for a raise."""
        try:
            got = dynamics._lu_solve(a, b)
        except ZeroDivisionError:
            got = None
        try:
            want = list(mp.lu_solve(mp.matrix(a), mp.matrix(b)))
        except ZeroDivisionError:
            want = None
        return got, want

    def test_solver_matches_mpmath_lu_solve(self):
        rng = random.Random(4)

        def entry():
            return mp.mpf(rng.randint(-10**30, 10**30)) / rng.randint(1, 10**30)

        with mp.workdps(64):
            for n in (2, 3) * 25:
                a = [[entry() for _ in range(n)] for _ in range(n)]
                got, want = self._both(a, [entry() for _ in range(n)])
                assert got is not None and got == want

    def test_singular_systems_raise_as_in_mpmath(self):
        with mp.workdps(64):
            for rows in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 2, 3], [2, 4, 6], [1, 1, 1]]):
                a = [[mp.mpf(v) for v in row] for row in rows]
                assert self._both(a, [mp.mpf(1)] * 3) == (None, None)
            # After one elimination step the pivot of [[1, 1], [1, 1 + d]]
            # is d; the tolerance mnorm(a, 1) eps, at 10 extra bits, is
            # just above 2^-(prec + 8), so d = 15/16 of that is singular
            # and 17/16 of it is not.
            unit = mp.mpf(2) ** -(mp.mp.prec + 8)
            for sixteenths, singular in ((15, True), (17, False)):
                with mp.workprec(mp.mp.prec + 30):
                    corner = 1 + unit * sixteenths / 16
                a = [[mp.mpf(1), mp.mpf(1)], [mp.mpf(1), corner]]
                got, want = self._both(a, [mp.mpf(1), mp.mpf(2)])
                assert got == want
                assert (got is None) == singular

    def test_zero_pivot_column_is_singular(self):
        # mpmath.lu_solve raises TypeError here; the list solver reports
        # the singular matrix, which aborts the Newton start
        with mp.workdps(64):
            with pytest.raises(ZeroDivisionError):
                dynamics._lu_solve([[mp.mpf(0), mp.mpf(1)], [mp.mpf(0), mp.mpf(2)]],
                                   [mp.mpf(1), mp.mpf(1)])


def _all_mpf_search(monkeypatch, f, p: int, **kwargs) -> list:
    """find_periodic_points with every start run only at the working
    precision, from the start: the search before it had a float phase."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_periodic_point_newton",
                  lambda comps, fcomps, p, start, tol, known:
                  dynamics._newton_solve(comps, p, start, tol, dynamics._MAX_ITER))
        return find_periodic_points(f, p, **kwargs)


def _singular_floats(monkeypatch):
    """Make every float Newton system singular, so no float step is taken."""
    solve = dynamics._lu_solve

    def patched(a, b, num=dynamics._MPF):
        if num is dynamics._FLOAT:
            raise ZeroDivisionError("matrix is numerically singular")
        return solve(a, b, num)

    monkeypatch.setattr(dynamics, "_lu_solve", patched)


def _newton_runs(monkeypatch, float_steps: int) -> list:
    """Record every _newton_solve run as (num, start, max_iter, result),
    each float run stopping after at most float_steps steps (its
    tolerance is 0)."""
    solve = dynamics._newton_solve
    runs = []

    def recording(comps, p, start, tol, max_iter, num=dynamics._MPF):
        if num is dynamics._FLOAT:
            tol, max_iter = 0.0, float_steps
        result = solve(comps, p, start, tol, max_iter, num)
        runs.append((num, list(start), max_iter, result))
        return result

    monkeypatch.setattr(dynamics, "_newton_solve", recording)
    return runs


def _float_step(monkeypatch, image):
    """Make every float step of f return image(f(x)) in place of f(x)."""
    step = dynamics._step

    def patched(comps, x, jacobian, num=dynamics._MPF):
        value, rows = step(comps, x, jacobian, num)
        return (image(value), rows) if num is dynamics._FLOAT else (value, rows)

    monkeypatch.setattr(dynamics, "_step", patched)


def _overflow(value):
    raise OverflowError("float overflow")


REDUCED_MAPS = ["somos5:null2", "somos5:casimir3", "c7-pair:null2", "c7-pair:casimir3"]


class TestMixedPrecisionNewton:
    """One Newton trajectory per start: in floats up to the hand-off or
    until the floats stop, then at the working precision from the last
    float iterate; from the start itself when the floats took no step."""

    @pytest.mark.parametrize("name", [
        "lyness", "psi_1", "psi_hat5", *REDUCED_MAPS,
    ])
    def test_float_and_mpf_kernels_agree(self, name):
        f = _low_dimensional_maps()[name]
        fcomps = maps._compile(f, float)
        with mp.workdps(64):
            comps = maps._compile(f, lambda c: mp.mpf(c.numerator) / c.denominator)
            for p in (1, 2, 3):
                for i in range(3):
                    x = _mp_point(random_positive_point(f.dim_in, rng_substream(p, i)))
                    value, jac = dynamics._power(comps, x, p, jacobian=True)
                    fvalue, fjac = dynamics._power(
                        fcomps, [float(v) for v in x], p, True, dynamics._FLOAT
                    )
                    assert all(type(v) is float for v in fvalue + sum(fjac, []))
                    assert _relative_error(fvalue, value) < 1e-12
                    assert _relative_error(sum(fjac, []), sum(jac, [])) < 1e-12

    def test_float_solver(self):
        rng = random.Random(5)
        with mp.workdps(64):
            for n in (2, 3) * 10:
                a = [[mp.mpf(rng.uniform(-10, 10)) for _ in range(n)] for _ in range(n)]
                b = [mp.mpf(rng.uniform(-10, 10)) for _ in range(n)]
                got = dynamics._lu_solve([[float(v) for v in row] for row in a],
                                         [float(v) for v in b], dynamics._FLOAT)
                assert all(type(v) is float for v in got)
                assert _relative_error(got, dynamics._lu_solve(a, b)) < 1e-12
        # the tolerance is mnorm(a, 1) 2^-52, about 2^-51 here, so the
        # second pivot 2^-52 is singular and 2^-48 is not
        with pytest.raises(ZeroDivisionError):
            dynamics._lu_solve([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]], [1.0, 2.0], dynamics._FLOAT)
        got = dynamics._lu_solve([[1.0, 1.0], [1.0, 1.0 + 2.0**-48]], [1.0, 2.0], dynamics._FLOAT)
        assert got == [1.0 - 2.0**48, 2.0**48]

    @pytest.mark.parametrize("failure", ["no float root", "overflow", "non-finite residual"])
    @pytest.mark.parametrize("name, p", [("lyness", 1), ("somos5:null2", 1), ("psi_1", 2)])
    def test_failed_float_phase_gives_the_all_mpf_search(self, monkeypatch, failure, name, p):
        # a float phase that takes no step leaves the start to the
        # working precision, from the start itself
        f = _low_dimensional_maps()[name]
        expected = _all_mpf_search(monkeypatch, f, p, grid=4)
        assert expected
        if failure == "no float root":
            _singular_floats(monkeypatch)
        elif failure == "overflow":
            _float_step(monkeypatch, _overflow)
        else:
            _float_step(monkeypatch, lambda value: [float("inf")] * len(value))
        assert find_periodic_points(f, p, grid=4) == expected

    def test_float_coefficient_overflow_runs_at_full_precision(self, monkeypatch):
        huge = 10**400
        f = BirationalMap.from_strings([f"(x1^2 + {huge})/(x1 + {huge})"])
        with pytest.raises(OverflowError):
            maps._compile(f, float)
        points = find_periodic_points(f, 1, grid=4)
        assert [pp.point for pp in points] == [(1,)]
        assert points == _all_mpf_search(monkeypatch, f, 1, grid=4)

    @pytest.mark.parametrize("precision", [30, 64, 128])
    @pytest.mark.parametrize("name", ["lyness", "psi_1", "psi_hat5", *REDUCED_MAPS])
    def test_fixed_points_match_the_all_mpf_search(self, monkeypatch, name, precision):
        f = _low_dimensional_maps()[name]
        got = find_periodic_points(f, 1, precision=precision, grid=4)
        want = _all_mpf_search(monkeypatch, f, 1, precision=precision, grid=4)
        assert len(got) == len(want) == 1
        with mp.workdps(precision):
            # one root: closer than the merge radius 100 tol (at 30
            # digits the float iterate already passes tol = 10^-6)
            tol = dynamics._residual_tol(precision)
            assert max(abs(a - b) for a, b in zip(got[0].point, want[0].point)) < 100 * tol
            assert got[0].residual < tol

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("name, p", [("lyness", 1), ("somos5:casimir3", 1), ("psi_1", 2)])
    def test_working_precision_continues_the_float_run(self, monkeypatch, name, p, k):
        runs = _newton_runs(monkeypatch, float_steps=k)
        find_periodic_points(_low_dimensional_maps()[name], p, grid=4)
        continued = 0
        for (num, start, _, (rough, _, res, steps)), after in zip(runs, runs[1:] + [None]):
            if num is not dynamics._FLOAT:
                continue
            if after is None or after[0] is dynamics._FLOAT:
                # only a float run that reached the hand-off residual
                # within its k steps can end its start, in a certified box
                assert res < dynamics._HANDOFF
                continue
            _, mstart, budget, _ = after
            if steps:
                assert mstart == [mp.mpf(v) for v in rough]
                assert budget == dynamics._MAX_ITER - steps
                continued += steps == k
            else:
                assert [float(v) for v in mstart] == start
                assert budget == dynamics._MAX_ITER
        assert continued

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ["lyness", "psi_1", "psi_hat5", *REDUCED_MAPS])
    def test_one_newton_trajectory_per_start(self, monkeypatch, name, p):
        # "f" and "m" mark a float and an mpf run, "." each linear solve
        # of a run (Krawczyk's solves are not Newton steps)
        f = _low_dimensional_maps()[name]
        solve, lu = dynamics._newton_solve, dynamics._lu_solve
        events, inside = [], []

        def marking(comps, p, start, tol, max_iter, num=dynamics._MPF):
            events.append("f" if num is dynamics._FLOAT else "m")
            inside.append(True)
            try:
                return solve(comps, p, start, tol, max_iter, num)
            finally:
                inside.pop()

        def counting(a, b, num=dynamics._MPF):
            if inside:
                events.append(".")
            return lu(a, b, num)

        monkeypatch.setattr(dynamics, "_newton_solve", marking)
        monkeypatch.setattr(dynamics, "_lu_solve", counting)
        find_periodic_points(f, p, precision=64, grid=4)
        starts = "".join(events).split("f")
        assert starts[0] == "" and len(starts) == 1 + 4**f.dim_in
        for run in starts[1:]:
            # at most one mpf run, and one step budget for the whole
            # trajectory: each run solves one system per step, plus at
            # most one whose step did not descend
            assert run.count("m") <= 1
            assert run.count(".") <= dynamics._MAX_ITER + 2

    def test_few_full_precision_jacobians_per_start(self, monkeypatch):
        f = _low_dimensional_maps()["somos5:casimir3"]
        power = dynamics._power
        full = []

        def counting(comps, x, p, jacobian=False, num=dynamics._MPF):
            full.append(jacobian and num.key()[0] == "mpf")
            return power(comps, x, p, jacobian, num)

        monkeypatch.setattr(dynamics, "_power", counting)
        assert len(find_periodic_points(f, 1, grid=4)) == 1
        # 4 for the 64 starts: one finish of 3 evaluations, and Krawczyk's
        # test, which drops the other starts
        assert sum(full) <= 6

    @pytest.mark.parametrize("name", ["somos5:casimir3", "c7-pair:casimir3"])
    def test_creeping_starts_end_early(self, monkeypatch, name):
        # a run creeping towards a coordinate 0 lowers max|f^2(x) - x|
        # but raises the acceptance residual, so its first step finds no
        # descent: at most the start, the full step and 40 halvings.  With
        # descent in the absolute residual alone such starts take 58-88
        # evaluations, and each search 810-892 Jacobian steps
        f = _low_dimensional_maps()[name]
        power, step, solve = dynamics._power, dynamics._step, dynamics._newton_solve
        evaluations, jacobian_steps, failed = [], [], []

        def counting_power(comps, x, p, jacobian=False, num=dynamics._MPF):
            evaluations.append(num.key()[0] == "mpf")
            return power(comps, x, p, jacobian, num)

        def counting_step(comps, x, jacobian, num=dynamics._MPF):
            jacobian_steps.append(jacobian and num.key()[0] == "mpf")
            return step(comps, x, jacobian, num)

        def recording(comps, p, start, tol, max_iter, num=dynamics._MPF):
            before = sum(evaluations)
            result = solve(comps, p, start, tol, max_iter, num)
            if num is dynamics._MPF and not result[2] < tol:
                failed.append(sum(evaluations) - before)
            return result

        monkeypatch.setattr(dynamics, "_power", counting_power)
        monkeypatch.setattr(dynamics, "_step", counting_step)
        monkeypatch.setattr(dynamics, "_newton_solve", recording)
        assert len(find_periodic_points(f, 2, precision=64, grid=4)) == 61
        assert failed and max(failed) <= 42
        assert sum(jacobian_steps) <= 450


def _uncertified(monkeypatch, f, p: int, **kwargs) -> list:
    """find_periodic_points with every uniqueness box left uncertified, so
    every start that converges pays its full-precision finish."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_krawczyk", lambda f, p, point, box: False)
        return find_periodic_points(f, p, **kwargs)


def _relative_residual(f, p: int, point):
    image = dynamics._power(f._compiled(dynamics._MPF), list(point), p)[0]
    return max(abs(a - b) / b for a, b in zip(image, point))


class TestUniquenessBoxes:
    """Krawczyk's test on the interval kernel, and the search that skips
    the starts landing in a certified box."""

    @pytest.mark.parametrize("p, precision", [(1, 64), (2, 64), (1, 128)])
    @pytest.mark.parametrize("name", REDUCED_MAPS)
    def test_skipped_starts_change_no_output(self, monkeypatch, name, p, precision):
        f = _low_dimensional_maps()[name]
        got = find_periodic_points(f, p, precision=precision, grid=4)
        assert got == _uncertified(monkeypatch, f, p, precision=precision, grid=4)

    def test_one_full_precision_finish_per_fixed_point(self, monkeypatch):
        f = _low_dimensional_maps()["somos5:casimir3"]
        solve = dynamics._newton_solve
        runs = []

        def counting(comps, p, start, tol, max_iter, num=dynamics._MPF):
            runs.append(num is dynamics._MPF)
            return solve(comps, p, start, tol, max_iter, num)

        monkeypatch.setattr(dynamics, "_newton_solve", counting)
        assert len(find_periodic_points(f, 1, grid=4)) == 1
        assert sum(runs) <= 2

    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("name", ["lyness", "psi_1", "psi_hat5", *REDUCED_MAPS])
    def test_every_fixed_point_box_is_certified(self, name, precision):
        f = _low_dimensional_maps()[name]
        (fp,) = find_periodic_points(f, 1, precision=precision, grid=4)
        with mp.workdps(precision):
            assert dynamics._krawczyk(f, 1, fp.point, dynamics._candidate_box(fp.point))

    def test_box_that_misses_the_root_is_rejected(self):
        f = _low_dimensional_maps()["somos5:casimir3"]
        (fp,) = find_periodic_points(f, 1)
        with mp.workdps(64):
            box = dynamics._candidate_box(fp.point)
            width = box[0][1] - box[0][0]
            shifted = [(lo + 2 * width, hi + 2 * width) for lo, hi in box[:1]] + box[1:]
            assert not dynamics._krawczyk(f, 1, fp.point, shifted)

    def test_sign_flipped_jacobian_is_rejected(self, monkeypatch):
        f = _low_dimensional_maps()["somos5:casimir3"]
        (fp,) = find_periodic_points(f, 1)
        power = dynamics._power

        def flipped(comps, x, p, jacobian=False, num=dynamics._MPF):
            value, jac = power(comps, x, p, jacobian, num)
            if jacobian and num.key()[0] == "iv":
                # J_F = J - I becomes I - J
                jac = [[(2 if i == j else 0) - v for j, v in enumerate(row)]
                       for i, row in enumerate(jac)]
            return value, jac

        monkeypatch.setattr(dynamics, "_power", flipped)
        with mp.workdps(64):
            assert not dynamics._krawczyk(f, 1, fp.point, dynamics._candidate_box(fp.point))

    def test_period_two_curve_sample_is_rejected(self):
        # J(f^2) - I is singular along the curve of period-2 points
        f = _low_dimensional_maps()["somos5:casimir3"]
        point = _period_two_samples("somos5:casimir3")[0].point
        with mp.workdps(64):
            assert not dynamics._krawczyk(f, 2, point, dynamics._candidate_box(point))

    @pytest.mark.parametrize("precision", [30, 35, 37, 47])
    @pytest.mark.parametrize("name", REDUCED_MAPS)
    def test_one_fixed_point_below_48_digits(self, monkeypatch, name, precision):
        # tol = 10^-(precision - 24) is looser than 10^-(precision // 2)
        # here: merging at the latter kept up to 29 copies of one root
        f = _low_dimensional_maps()[name]
        assert len(_uncertified(monkeypatch, f, 1, precision=precision, grid=4)) == 1

    def test_distinct_fixed_points_kept_from_30_digits(self):
        # the merge radius max(10^-(P/2), 100 tol) is at least 1 up to
        # 26 digits, where the fixed points 1 and 2 of this map merged
        f = BirationalMap.from_strings(["(x1^2 + 2)/3"])
        with pytest.raises(DynamicsError, match="at least 30 digits"):
            find_periodic_points(f, 1, precision=24)
        points = find_periodic_points(f, 1, precision=30)
        with mp.workdps(30):
            assert sorted(int(mp.nint(pp.point[0])) for pp in points) == [1, 2]
        with pytest.raises(InputError, match="at least 30 digits"):
            WorkflowConfig(precision=29)

    def test_pipeline_at_30_digits_reports_one_fixed_point(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_krawczyk", lambda f, p, point, box: False)
        report = run_pipeline(get_fixture("somos5").matrix("B"), WorkflowConfig(precision=30))
        assert [len(d["fixed_points"]) for d in report.dynamics] == [1, 1]

    @pytest.mark.parametrize("name, p", [
        ("somos5:null2", 3), ("somos5:casimir3", 2), ("c7-pair:casimir3", 2),
    ])
    def test_runs_creeping_to_the_boundary_are_dropped(self, name, p):
        # at 30 digits some starts creep towards a coordinate 0 and pass
        # the absolute residual test alone (somos5 null(2), p = 3, gave
        # two points with a coordinate about 3.6e-25, and nothing else);
        # the acceptance residual is relative there and drops them
        f = _low_dimensional_maps()[name]
        points = find_periodic_points(f, p, precision=30, grid=4)
        assert bool(points) == (p == 2)
        with mp.workdps(30):
            for pp in points:
                assert _relative_residual(f, p, pp.point) < mp.mpf(10) ** -6


@cache
def _flag_link(case: str):
    """(psi_coarse, psi_fine, p) for the null(2) < casimir(3) link of the
    flag of somos5 or c7-pair: the reduced maps and the flag projection
    with psi_coarse o p = p o psi_fine."""
    fixture = get_fixture(case)
    casimir = {"somos5": "C", "c7-pair": "C1"}[case]
    null = null_submersion(PresymplecticForm(fixture.matrix("B")))
    fine = casimir_submersion(PoissonStructure(fixture.matrix(casimir)))
    flag = build_flag([null, fine])
    reduced = _low_dimensional_maps()
    return reduced[f"{case}:null2"], reduced[f"{case}:casimir3"], flag.projections[0]


@cache
def _fiber_search(case: str, precision: int) -> tuple:
    """(base points, fiber points, grid points) of the casimir(3) map, the
    base points the null(2) map's fixed points."""
    coarse, fine, proj = _flag_link(case)
    base = find_periodic_points(coarse, 1, precision=precision, grid=4)
    over = find_periodic_points_over(fine, 1, proj, [fp.point for fp in base],
                                     precision=precision, grid=4)
    return base, over, find_periodic_points(fine, 1, precision=precision, grid=4)


def _merge_tol(precision: int):
    return max(mp.mpf(10) ** (-precision // 2), 100 * dynamics._residual_tol(precision))


class TestFiberSearch:
    """Fixed points of a finer flag level searched on the fibers over the
    coarser level's fixed points."""

    @pytest.mark.parametrize("precision", [30, 64, 128])
    @pytest.mark.parametrize("case", ["somos5", "c7-pair"])
    def test_fiber_points_equal_the_grid_points(self, case, precision):
        _, over, grid = _fiber_search(case, precision)
        assert len(over) == len(grid) >= 1
        with mp.workdps(precision):
            for a, b in zip(over, grid):
                assert max(abs(u - v) for u, v in zip(a.point, b.point)) < _merge_tol(precision)
                if precision > 30:
                    assert [mp.nstr(v, 30) for v in a.point] == [mp.nstr(v, 30) for v in b.point]

    @pytest.mark.parametrize("precision", [30, 64, 128])
    @pytest.mark.parametrize("case", ["somos5", "c7-pair"])
    def test_fiber_points_lie_over_base_points_and_are_certified(self, case, precision):
        base, over, _ = _fiber_search(case, precision)
        _, fine, proj = _flag_link(case)
        with mp.workdps(precision):
            for fp in over:
                image = proj.evaluate_mp(fp.point)
                assert any(max(abs(u - v) for u, v in zip(image, z.point)) < _merge_tol(precision)
                           for z in base)
                assert dynamics._krawczyk(fine, 1, fp.point, dynamics._candidate_box(fp.point))

    @pytest.mark.parametrize("case", ["somos5", "c7-pair"])
    def test_starts_lie_on_the_fibers(self, monkeypatch, case):
        precision = 64
        coarse, fine, proj = _flag_link(case)
        starts = []
        newton = dynamics._periodic_point_newton

        def recording(comps, fcomps, p, start, tol, known):
            starts.append(start)
            return newton(comps, fcomps, p, start, tol, known)

        monkeypatch.setattr(dynamics, "_periodic_point_newton", recording)
        with mp.workdps(precision):
            base = [(mp.mpf(3) / 2, mp.mpf(5) / 7), (mp.mpf(2), mp.mpf(1) / 3)]
        find_periodic_points_over(fine, 1, proj, base, precision=precision, grid=4)
        assert len(starts) == 2 * 4
        with mp.workdps(precision):
            for i, start in enumerate(starts):
                z = base[i // 4]
                image = proj.evaluate_mp(start)
                assert max(abs(u - v) for u, v in zip(image, z)) < mp.mpf(10) ** -(precision - 5)
            # the grid spans the fiber: no two starts coincide
            assert len({tuple(mp.nstr(v, 20) for v in s) for s in starts}) == len(starts)

    @pytest.mark.parametrize("precision", [30, 64])
    def test_starts_are_the_section_and_fiber_maps_bit_for_bit(self, monkeypatch, precision):
        # fiber rows of two powers with exponents 1, 2, -2 and -3: each
        # start is z^V t^W as MonomialMap.evaluate_mp computes it
        proj = MonomialMap.from_rows([(1, 3, 2)])
        starts = []
        monkeypatch.setattr(dynamics, "_periodic_point_newton",
                            lambda comps, fcomps, p, start, tol, known: starts.append(start))
        with mp.workdps(precision):
            base = [(mp.mpf(3) / 2,), (mp.mpf(2) / 7,)]
        find_periodic_points_over(PSI_1, 1, proj, base, precision=precision, grid=3)
        section = MonomialMap(right_inverse(proj.exponents))
        fiber = MonomialMap(kernel_lattice(proj.exponents).matrix().transpose())
        assert {len(mono) for mono in map(maps._sparse, fiber.exponents.entries)} == {1, 2}
        with mp.workdps(precision):
            lo, hi = mp.mpf(1) / 2, mp.mpf(3)
            ticks = [lo + (hi - lo) * k / 2 for k in range(3)]
            want = [[b * w for b, w in zip(section.evaluate_mp(z), fiber.evaluate_mp((s, t)))]
                    for z in base for s in ticks for t in ticks]
        assert [[v._mpf_ for v in x] for x in starts] == [[v._mpf_ for v in x] for x in want]

    def test_no_base_point_means_no_fiber_point(self, monkeypatch):
        _, fine, proj = _flag_link("somos5")
        monkeypatch.setattr(dynamics, "_periodic_point_newton", None)
        assert find_periodic_points_over(fine, 1, proj, []) == []

    def test_projection_needs_an_integer_right_inverse(self):
        _, fine, _ = _flag_link("somos5")
        with pytest.raises(DynamicsError, match="no integer right inverse"):
            find_periodic_points_over(fine, 1, MonomialMap.from_rows([[2, 0, 0]]), [(1,)])
        with pytest.raises(DynamicsError, match="source dimension 2"):
            find_periodic_points_over(fine, 1, MonomialMap.from_rows([[1, 0]]), [(1,)])

    @pytest.mark.parametrize("base", [(1, 2, 3), (1,), (1, 0), (2, -1)])
    def test_base_point_needs_positive_coordinates_on_the_target(self, monkeypatch, base):
        _, fine, proj = _flag_link("somos5")
        monkeypatch.setattr(dynamics, "_periodic_point_newton", None)
        with pytest.raises(DynamicsError, match="needs 2 positive coordinates"):
            find_periodic_points_over(fine, 1, proj, [(1, 1), base])

    @pytest.mark.parametrize("f, grid", [(LYNESS, 4), (PSI_1, 2)])
    def test_bare_map_starts_are_the_grid(self, monkeypatch, f, grid):
        # the search over the projection to a point starts from the grid^n
        # points of [1/2, 3]^n, the last coordinate varying fastest, each
        # tick lo + (hi - lo) k / (grid - 1) at the working precision
        precision = 64
        starts = []
        newton = dynamics._periodic_point_newton

        def recording(comps, fcomps, p, start, tol, known):
            starts.append(start)
            return newton(comps, fcomps, p, start, tol, known)

        monkeypatch.setattr(dynamics, "_periodic_point_newton", recording)
        find_periodic_points(f, 1, precision=precision, grid=grid)
        with mp.workdps(precision):
            lo, hi = mp.mpf(1) / 2, mp.mpf(3)
            ticks = [lo + (hi - lo) * k / (grid - 1) for k in range(grid)]
            grid_points = [[a] for a in ticks]
            for _ in range(f.dim_in - 1):
                grid_points = [point + [a] for point in grid_points for a in ticks]
        assert len(starts) == grid ** f.dim_in
        assert [[v._mpf_ for v in s] for s in starts] == [
            [v._mpf_ for v in point] for point in grid_points
        ]

    def test_monomial_maps_compile_once_per_number_type(self, monkeypatch):
        # the section is evaluated at each base point and the fiber at
        # each grid point, each from the one compilation cached on it
        _, fine, proj = _flag_link("somos5")
        compile_ = maps._compile
        compiled = []

        def counting(f, convert):
            if isinstance(f, MonomialMap):
                compiled.append(f)
            return compile_(f, convert)

        monkeypatch.setattr(maps, "_compile", counting)
        with mp.workdps(64):
            base = [(mp.mpf(3) / 2, mp.mpf(5) / 7), (mp.mpf(2), mp.mpf(1) / 3)]
        find_periodic_points_over(fine, 1, proj, base, precision=64, grid=4)
        assert len(compiled) == len({id(f) for f in compiled}) == 2


def _fresh(f: BirationalMap) -> BirationalMap:
    """f with no compilation cached on it."""
    return BirationalMap(f.dim_in, f.components)


def _generated(monkeypatch) -> list:
    """Record (components, Jacobian flag) of every generated step."""
    source = maps._source
    made = []

    def recording(comps, n, jacobian, spell):
        made.append((id(comps), jacobian))
        return source(comps, n, jacobian, spell)

    monkeypatch.setattr(maps, "_source", recording)
    return made


class TestGeneratedSteps:
    """Hot compiled maps run generated straight-line steps, with the
    interpreter's results; see test_differential for the bit-for-bit
    property on random maps."""

    @staticmethod
    def _point_lists() -> list:
        """The 25 lists of the numeric workload's reduced maps and LYNESS,
        p = 1, 2 at 30 and 64 digits and p = 1 at 128, as raw mpf tuples."""
        names = ["lyness", *REDUCED_MAPS]
        lists = []
        for name in names:
            f = _fresh(_low_dimensional_maps()[name])
            for p, precision in [(1, 30), (2, 30), (1, 64), (2, 64), (1, 128)]:
                points = find_periodic_points(f, p, precision=precision, grid=4)
                lists.append([([v._mpf_ for v in pp.point], pp.residual._mpf_)
                              for pp in points])
        return lists

    def test_hot_threshold_changes_no_point(self, monkeypatch):
        monkeypatch.setattr(maps, "_HOT_STEPS", 1)
        every_step = self._point_lists()
        monkeypatch.setattr(maps, "_HOT_STEPS", 10**9)
        assert len(every_step) == 25
        assert self._point_lists() == every_step

    def test_a_search_generates_each_step_once(self, monkeypatch):
        made = _generated(monkeypatch)
        f = _fresh(_low_dimensional_maps()["somos5:casimir3"])
        assert len(find_periodic_points(f, 2, precision=64, grid=4)) == 61
        assert made and len(made) == len(set(made))

    def test_the_pipeline_generates_nothing_on_somos5(self, monkeypatch):
        made = _generated(monkeypatch)
        report = run_pipeline(get_fixture("somos5").matrix("B"))
        assert report.dynamics and not report.errors
        assert made == []


class TestMergeScreen:
    """The float screen of the merge test skips only pairs the ``mpf``
    rule keeps apart."""

    @staticmethod
    def _decisions_agree(a, b, merge_tol) -> bool:
        gap = 2 * float(merge_tol)
        fa, fb = [float(v) for v in a], [float(v) for v in b]
        screened = not dynamics._apart(fa, fb, gap) and dynamics._close(a, b, merge_tol)
        return screened == dynamics._close(a, b, merge_tol)

    @pytest.mark.parametrize("precision", [30, 64])
    def test_pinned_samples(self, precision):
        samples = json.loads((DATA / "period2-samples.json").read_text())
        with mp.workdps(precision):
            merge_tol = _merge_tol(precision)
            for points in samples.values():
                points = [[mp.mpf(v) for v in point] for point in points]
                assert len(points) == 61
                for a in points:
                    for b in points:
                        assert self._decisions_agree(a, b, merge_tol)

    @pytest.mark.parametrize("precision", [30, 64])
    def test_pairs_straddling_the_merge_distance(self, precision):
        samples = json.loads((DATA / "period2-samples.json").read_text())
        skipped = 0
        with mp.workdps(precision):
            merge_tol = _merge_tol(precision)
            ulp = mp.mpf(2) ** -mp.mp.prec
            for point in samples["somos5:casimir3"][::6]:
                a = [mp.mpf(v) for v in point]
                for i in range(3):
                    for scale in (1 - 2 * ulp, 1, 1 + 2 * ulp, 2, 2 + 2**-40, 2.001, 3, 2**60):
                        for sign in (1, -1):
                            b = list(a)
                            b[i] += sign * scale * merge_tol
                            assert self._decisions_agree(a, b, merge_tol)
                            assert self._decisions_agree(b, a, merge_tol)
                            skipped += dynamics._apart([float(v) for v in a],
                                                       [float(v) for v in b],
                                                       2 * float(merge_tol))
        assert skipped

    def test_a_curve_search_makes_no_mpf_distance_test(self, monkeypatch):
        # the 61 samples are far apart: the mpf-only rule made all
        # 61 * 60 / 2 = 1830 distance tests
        calls = []
        close = dynamics._close
        monkeypatch.setattr(dynamics, "_close", lambda *args: calls.append(args) or close(*args))
        f = _fresh(_low_dimensional_maps()["somos5:casimir3"])
        assert len(find_periodic_points(f, 2, precision=64, grid=4)) == 61
        assert calls == []


class TestItineraries:
    def test_exact_label_periods(self):
        phi = _phi("c7-pair")
        subs = [
            submersion_from_rows(C7_Y[:2], 7, kind="null"),
            submersion_from_rows(C7_Y, 7, kind="casimir"),
        ]
        for start in [
            _ones(7),
            tuple(Fraction(v) for v in (1, 2, 1, 3, 1, 1, 2)),
            tuple(Fraction(v, 2) for v in (2, 3, 2, 5, 2, 7, 2)),
        ]:
            itin = leaf_itinerary(phi, subs, start, 20)
            assert itin.names == ("null-2d", "casimir-3d")
            assert itin.periods == (5, 10)

    def test_summary_mentions_periods(self):
        phi = _phi("c7-pair")
        subs = [submersion_from_rows(C7_Y[:2], 7, kind="null")]
        itin = leaf_itinerary(phi, subs, _ones(7), 20)
        text = itin.summary()
        assert "null-2d" in text and "5" in text

    def test_custom_names(self):
        phi = _phi("c7-pair")
        subs = [submersion_from_rows(C7_Y[:2], 7, kind="null")]
        itin = leaf_itinerary(phi, subs, _ones(7), 10, names=["lyness"])
        assert itin.names == ("lyness",)

    def test_non_periodic_labels(self):
        phi = _phi("somos5")
        subs = [submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5, kind="null")]
        itin = leaf_itinerary(phi, subs, _ones(5), 15)
        assert itin.periods == (None,)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_submersion_of_another_dimension_rejected(self, mode):
        phi = _phi("somos5")
        subs = [submersion_from_rows(C7_Y[:2], 7, kind="null")]
        with pytest.raises(DynamicsError, match="source dimension 7"):
            leaf_itinerary(phi, subs, _ones(5), 3, mode)


class TestScans:
    def test_lyness_scan_finds_period(self):
        scan = no_periodic_points_scan(LYNESS)
        assert scan.period_found == 5

    def test_psi2_scan_finds_nothing(self):
        scan = no_periodic_points_scan(PSI_2)
        assert scan.period_found is None
        assert scan.samples == 25
        assert "sampled evidence" in scan.note

    def test_orbits_stop_at_p_max(self, monkeypatch):
        steps = []
        lifted = dynamics._LiftedOrbit

        def recording(phi, x0, n, *section):
            steps.append(n)
            return lifted(phi, x0, n, *section)

        monkeypatch.setattr(dynamics, "_LiftedOrbit", recording)
        assert no_periodic_points_scan(PSI_2, p_max=7, samples=3).period_found is None
        assert steps == [7, 7, 7]

    def test_scan_is_seeded(self):
        a = no_periodic_points_scan(PSI_2, samples=5, seed=3)
        b = no_periodic_points_scan(PSI_2, samples=5, seed=3)
        assert a == b

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        # with no orbit sampled, LYNESS used to come back with growth evidence
        with pytest.raises(DynamicsError, match="at least one sampled orbit"):
            no_periodic_points_scan(LYNESS, samples=samples)


class TestClosedForms:
    def test_constrained_start_satisfies_recurrence(self):
        with mp.workdps(64):
            lam = mp.mpf(2)
            r = mp.mpf(3)
            start = somos5_constrained_start(mp.mpf(1), mp.mpf(1), lam, r)
            assert len(start) == 5
            # x1 x4 = r x2 x3 and x2 x5 = r x3 x4 by construction
            assert abs(start[0] * start[3] - r * start[1] * start[2]) < mp.mpf("1e-55")
            assert abs(start[1] * start[4] - r * start[2] * start[3]) < mp.mpf("1e-55")

    def test_principal_family(self):
        phi = _phi("somos5")
        with mp.workdps(64):
            r = plastic_root()
            lam = mp.sqrt(r)
            start = somos5_constrained_start(mp.mpf(1), mp.mpf(1), lam, r)
            orbit = iterate_orbit(phi, start, 22, mode="float")
            report = verify_closed_form(orbit, "principal", mp.mpf(1), mp.mpf(1), lam, r)
        assert report.ok
        assert report.family == "principal"
        assert report.n_checked == 20
        assert report.max_rel_error < mp.mpf("1e-40")

    def test_general_family(self):
        phi = _phi("somos5")
        with mp.workdps(64):
            r = plastic_root()
            lam = 2 * mp.sqrt(r)
            start = somos5_constrained_start(mp.mpf(1), mp.mpf(1), lam, r)
            orbit = iterate_orbit(phi, start, 42, mode="float")
            report = verify_closed_form(orbit, "general", mp.mpf(1), mp.mpf(1), lam, r)
        assert report.ok
        assert report.n_checked == 40
        assert report.max_rel_error < mp.mpf("1e-40")

    def test_orbit_too_short_rejected(self):
        phi = _phi("somos5")
        with mp.workdps(64):
            r = plastic_root()
            lam = mp.sqrt(r)
            start = somos5_constrained_start(mp.mpf(1), mp.mpf(1), lam, r)
            orbit = iterate_orbit(phi, start, 5, mode="float")
            with pytest.raises(DynamicsError):
                verify_closed_form(orbit, "principal", mp.mpf(1), mp.mpf(1), lam, r)

    def test_exact_orbit_rejected(self):
        orbit = iterate_orbit(_phi("somos5"), _ones(5), 5)
        with pytest.raises(DynamicsError):
            verify_closed_form(orbit, "principal", 1, 1, 2, 4)

    def test_unknown_family_rejected(self):
        phi = _phi("somos5")
        with mp.workdps(64):
            start = somos5_constrained_start(mp.mpf(1), mp.mpf(1), mp.mpf(2), mp.mpf(4))
            orbit = iterate_orbit(phi, start, 25, mode="float")
            with pytest.raises(ValueError):
                verify_closed_form(orbit, "exotic", mp.mpf(1), mp.mpf(1), mp.mpf(2), mp.mpf(4))


class TestSpecialValues:
    def test_golden_ratio(self):
        with mp.workdps(64):
            g = golden_ratio()
            assert abs(g * g - g - 1) < mp.mpf("1e-60")

    def test_plastic_root_precision(self):
        with mp.workdps(100):
            r = plastic_root(precision=100)
            assert abs(r**3 - r - 1) < mp.mpf("1e-95")


class TestLiftedOrbitEngine:
    def test_right_inverse_of_every_ladder_submersion(self):
        count = 0
        for b in _ladder_matrices():
            form = PresymplecticForm(b)
            subs = [null_submersion(form)] if 0 < form.rank < form.dim else []
            basis = find_invariant_poisson(cluster_map(b, detect_period(b)), b)
            subs += _foliations(basis, None, AnalysisReport(b, WorkflowConfig()))
            for sub in subs:
                u = sub.map.exponents
                assert u @ right_inverse(u) == IntMatrix.identity(u.rows)
                count += 1
        assert count == 15

    def test_right_inverse_needs_saturated_rows(self):
        assert right_inverse(IntMatrix.from_rows([[2, 0, 0]])) is None
        assert right_inverse(IntMatrix.from_rows([[1, 1], [2, 2]])) is None
        assert right_inverse(IntMatrix.from_rows([[1], [0]])) is None

    @pytest.mark.parametrize("case, label", [("somos5", "casimir"), ("c7-pair", "casimir2")])
    def test_lifted_orbit_equals_direct_orbit(self, case, label):
        system = _reduced(case, label)
        lift = dynamics._Lift(system)
        assert lift.phi is system.source and lift.section is not None
        for i in range(2):
            y0 = random_positive_point(system.map.dim_in, rng_substream(0, i))
            direct = iterate_orbit(system.map, y0, 20).points
            orbit = lift.orbit(y0, 20)
            assert [orbit.label(lift.pi, k) for k in range(21)] == list(direct)

    @pytest.mark.parametrize("label, period", [("null", 5), ("casimir1", 10)])
    def test_residue_returns_are_confirmed_exactly(self, label, period):
        system = _reduced("c7-pair", label)
        lift = dynamics._Lift(system)
        y0 = random_positive_point(system.map.dim_in, rng_substream(0, 0))
        orbit = lift.orbit(y0, 12)
        screened = orbit.label_residues(lift.pi)
        assert screened is not None
        candidates = [k for k in range(1, 13) if screened[k] == screened[0]]
        assert candidates[0] == period
        assert list(dynamics._returns(orbit, lift.pi, 12)) == candidates
        assert iterate_orbit(system.map, y0, period).points[period] == y0

    def test_returns_mod_p_without_exact_return_are_rejected(self, monkeypatch):
        # 2^3 = 1 mod 7, so x -> 2x returns mod 7 every third step
        monkeypatch.setattr(dynamics, "SCREEN_PRIMES", (7,))
        orbit = dynamics._LiftedOrbit(BirationalMap.from_strings(["2*x1"]), (Fraction(1),), 6)
        screened = orbit.label_residues(None)
        assert [k for k in range(1, 7) if screened[k] == screened[0]] == [3, 6]
        assert list(dynamics._returns(orbit, None, 6)) == []

    def test_vanishing_denominator_mod_p_falls_back_to_exact(self, monkeypatch):
        # an involution whose denominator x1 - 1 is 35 at x1 = 36: zero mod 5 and 7
        f = BirationalMap.from_strings(["(x1 + 2)/(x1 - 1)"])
        x0 = (Fraction(36),)
        assert dynamics._LiftedOrbit(f, x0, 4).residues is not None
        monkeypatch.setattr(dynamics, "SCREEN_PRIMES", (5, 7))
        assert dynamics._residue_orbit(f, x0, 4, 5) is None
        orbit = dynamics._LiftedOrbit(f, x0, 4)
        assert orbit.residues is None
        assert list(dynamics._returns(orbit, None, 4)) == [2, 4]
        assert iterate_orbit(f, x0, 2).points[2] == x0

    def test_small_primes_leave_verdicts_unchanged(self, monkeypatch):
        expected = no_periodic_points_scan(PSI_2, samples=5)
        monkeypatch.setattr(dynamics, "SCREEN_PRIMES", (2, 3))
        assert no_periodic_points_scan(PSI_2, samples=5) == expected
        assert detect_global_periodicity(PSI_1).period == 10

    def test_exact_orbits_lie_in_their_enclosures(self, ladder_maps):
        # 30 steps on the cluster maps; exact orbits of the reduced maps
        # cost seconds past 15 steps, and the somos5-2periodic maps grow
        # exponentially
        for name, f in ladder_maps.items():
            steps = 6 if name.startswith("somos5-2periodic") else 15 if ":" in name else 30
            x0 = random_positive_point(f.dim_in, rng_substream(name, 0))
            orbit = dynamics._LiftedOrbit(f, x0, steps)
            with mp.workdps(dynamics.DEFAULT_PRECISION):
                num = dynamics._intervals()
                comps = f._compiled(num)
                boxes = [num.convert(v) for v in x0]
                for k in range(steps + 1):
                    for q, box in zip(orbit.exact(k), boxes, strict=True):
                        lo, hi = (Fraction(*to_rational(end)) for end in box._mpi_)
                        assert lo <= q <= hi, (name, k)
                    boxes = maps._step(comps, boxes, False, num)[0]
