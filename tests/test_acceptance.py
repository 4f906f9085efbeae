"""Acceptance checklist: one test per numbered criterion.

Each test exercises an end-to-end behaviour of the package on the
shipped examples, with pinned tolerances and wall-clock budgets.  The
per-criterion PASS/FAIL lines are printed by the conftest summary hook.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from cluster_reduce import (
    LatticeBasis,
    MonomialMap,
    PoissonStructure,
    PresymplecticForm,
    IntMatrix,
    build_flag,
    chained_reduction,
    check_poisson_map,
    check_presymplectic_invariance,
    cluster_map,
    degree_growth,
    derive_reduced_map,
    detect_global_periodicity,
    detect_period,
    find_invariant_poisson,
    find_periodic_points,
    first_integral_check,
    get_fixture,
    golden_ratio,
    growth_class,
    hermite_normal_form,
    image_lattice,
    iterate_orbit,
    kernel_lattice,
    leaf_itinerary,
    mutate_matrix,
    no_periodic_points_scan,
    plastic_root,
    poisson_bracket,
    random_positive_point,
    rng_substream,
    smith_normal_form,
    solve_in_lattice,
    somos5_constrained_start,
    sublattice_subset,
    submersion_from_rows,
    verify_closed_form,
)
from cluster_reduce.geometry import vectorize_skew

# pinned tolerances and budgets
RESIDUAL_TOL = "1e-40"
DRIFT_TOL = "1e-35"
CLOSED_FORM_TOL = "1e-40"
LABEL_DRIFT_TOL = "1e-30"
JACOBIAN_REL_TOL = "1e-20"
WORKING_DIGITS = 64
DOUBLED_DIGITS = 128
PERIOD_DETECTION_BUDGET = 1.0
DISCOVERY_BUDGET = 30.0
COMPOSITION_BUDGET = 60.0


def _phi(name):
    b = get_fixture(name).matrix("B")
    return cluster_map(b, detect_period(b))


def _sub(fixture_name, label, kind):
    fix = get_fixture(fixture_name)
    exponents = fix.exponent(label)
    return submersion_from_rows(exponents.entries, exponents.cols, kind=kind)


def _perturbed(m, i, j):
    entries = [list(row) for row in m.entries]
    entries[i][j] += 1
    entries[j][i] -= 1
    return IntMatrix.from_rows(entries)


def _random_skew(rng, n, bound=4):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = rng.randint(-bound, bound)
            entries[j][i] = -entries[i][j]
    return IntMatrix.from_rows(entries)


def _det(m):
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


def test_criterion_01_period_detection():
    cases = [
        ("somos5", 1),
        ("somos5-2periodic", 2),
        ("c7-pair", 1),
    ]
    for name, expected in cases:
        b = get_fixture(name).matrix("B")
        began = time.perf_counter()
        cert = detect_period(b)
        elapsed = time.perf_counter() - began
        assert cert is not None, name
        assert cert.period == expected, name
        assert cert.verify(b), name
        assert elapsed < PERIOD_DETECTION_BUDGET, (name, elapsed)


def test_criterion_02_cluster_maps():
    expected = {
        "somos5": ["x2", "x3", "x4", "x5", "(x2*x5 + x3*x4)/x1"],
        "somos5-2periodic": [
            "x3",
            "x4",
            "x5",
            "(x2*x5^2 + x3*x4)/x1",
            "(x1*x4*x5 + x2*x3^2*x5^2 + x3^3*x4)/(x1*x2)",
        ],
        "c7-pair": ["x2", "x3", "x4", "x5", "x6", "x7", "(x2*x7 + x4*x5)/x1"],
    }
    for name, strings in expected.items():
        assert _phi(name).to_strings() == strings, name


def test_criterion_03_invariance_checks():
    somos = get_fixture("somos5")
    seven = get_fixture("c7-pair")
    phi5 = _phi("somos5")
    phi7 = _phi("c7-pair")

    assert check_presymplectic_invariance(phi5, PresymplecticForm(somos.matrix("B"))).ok
    assert check_presymplectic_invariance(phi7, PresymplecticForm(seven.matrix("B"))).ok
    assert check_poisson_map(phi5, PoissonStructure(somos.matrix("C"))).ok
    assert check_poisson_map(phi7, PoissonStructure(seven.matrix("C1"))).ok
    assert check_poisson_map(phi7, PoissonStructure(seven.matrix("C2"))).ok

    bad = check_presymplectic_invariance(
        phi5, PresymplecticForm(_perturbed(somos.matrix("B"), 0, 2))
    )
    assert not bad.ok and bad.witness is not None


def test_criterion_04_poisson_discovery():
    fix = get_fixture("c7-pair")
    phi = _phi("c7-pair")
    began = time.perf_counter()
    basis = find_invariant_poisson(phi, fix.matrix("B"))
    elapsed = time.perf_counter() - began
    assert len(basis) == 2
    span = LatticeBasis(21, tuple(vectorize_skew(m) for m in basis), saturated=True)
    for label in ("C1", "C2"):
        assert solve_in_lattice(span, vectorize_skew(fix.matrix(label))) is not None, label
    assert elapsed < DISCOVERY_BUDGET, elapsed


def test_criterion_05_rank_structure():
    somos = get_fixture("somos5")
    seven = get_fixture("c7-pair")

    assert somos.matrix("B").rank() == 2
    assert seven.matrix("B").rank() == 2
    assert kernel_lattice(somos.matrix("C")).dim == 3
    assert seven.matrix("C1").rank() == 4
    assert seven.matrix("C2").rank() == 2

    ker1 = kernel_lattice(seven.matrix("C1"))
    ker2 = kernel_lattice(seven.matrix("C2"))
    assert sublattice_subset(ker1, ker2)
    assert not sublattice_subset(ker2, ker1)

    assert sublattice_subset(image_lattice(somos.matrix("B")), kernel_lattice(somos.matrix("C")))
    img7 = image_lattice(seven.matrix("B"))
    assert sublattice_subset(img7, ker1)
    assert sublattice_subset(img7, ker2)


REDUCTION_CASES = [
    ("somos5", "null", "null", ["x2", "(x2 + 1)/(x1*x2)"]),
    (
        "somos5",
        "casimir",
        "casimir",
        ["x2", "(x2 + 1)/(x1*x2)", "(x2 + 1)/(x1*x2*x3)"],
    ),
    ("c7-pair", "null", "null", ["x2", "(x2 + 1)/x1"]),
    ("c7-pair", "casimir1", "casimir", ["x2", "(x2 + 1)/x1", "(x2^2 + x2)/x3"]),
    (
        "c7-pair",
        "casimir2",
        "casimir",
        ["x2", "(x2 + 1)/x1", "(x2^2 + x2)/x3", "x5", "x3*x5^2/(x2*x4)"],
    ),
]


def test_criterion_06_reduced_maps():
    for fixture_name, label, kind, strings in REDUCTION_CASES:
        system = derive_reduced_map(_phi(fixture_name), _sub(fixture_name, label, kind))
        assert system.verified, (fixture_name, label)
        assert system.map.to_strings() == strings, (fixture_name, label)


def test_criterion_07_foliation_flags():
    subs7 = [
        _sub("c7-pair", "null", "null"),
        _sub("c7-pair", "casimir1", "casimir"),
        _sub("c7-pair", "casimir2", "casimir"),
    ]
    flag7 = build_flag(subs7)
    assert flag7.describe() == "null(2) < casimir(3) < casimir(5)"
    for i, p in enumerate(flag7.projections):
        composed = p.after_monomial(subs7[i + 1].map)
        assert composed.exponents == subs7[i].map.exponents

    subs5 = [_sub("somos5", "null", "null"), _sub("somos5", "casimir", "casimir")]
    flag5 = build_flag(subs5)
    assert flag5.describe() == "null(2) < casimir(3)"
    composed = flag5.projections[0].after_monomial(subs5[1].map)
    assert composed.exponents == subs5[0].map.exponents

    phi7 = _phi("c7-pair")
    systems = [derive_reduced_map(phi7, s) for s in subs7]
    for i, p in enumerate(flag7.projections):
        assert chained_reduction(systems[i], systems[i + 1], p).verified


def test_criterion_08_global_periodicity():
    phi7 = _phi("c7-pair")
    lyness = derive_reduced_map(phi7, _sub("c7-pair", "null", "null")).map
    psi1 = derive_reduced_map(phi7, _sub("c7-pair", "casimir1", "casimir")).map

    report5 = detect_global_periodicity(lyness)
    assert report5.is_periodic and report5.period == 5
    assert report5.certificate == "symbolic"
    report10 = detect_global_periodicity(psi1)
    assert report10.is_periodic and report10.period == 10
    assert report10.certificate == "symbolic"

    pi_null = _sub("c7-pair", "null", "null").map
    pi_cas1 = _sub("c7-pair", "casimir1", "casimir").map
    assert first_integral_check(phi7, pi_null, 5)
    began = time.perf_counter()
    assert first_integral_check(phi7, pi_cas1, 10)
    assert time.perf_counter() - began < COMPOSITION_BUDGET


def test_criterion_09_fixed_points():
    phi7 = _phi("c7-pair")
    lyness = derive_reduced_map(phi7, _sub("c7-pair", "null", "null")).map
    psi1 = derive_reduced_map(phi7, _sub("c7-pair", "casimir1", "casimir")).map
    psi_hat5 = derive_reduced_map(_phi("somos5"), _sub("somos5", "null", "null")).map

    # 2-d systems: located at 64 digits, stable under precision doubling
    for system, target_fn in ((lyness, golden_ratio), (psi_hat5, plastic_root)):
        points = find_periodic_points(system, 1, precision=WORKING_DIGITS)
        assert len(points) == 1
        located = points[0]
        with mp.workdps(WORKING_DIGITS):
            target = target_fn()
            assert abs(located.point[0] - target) < mp.mpf(RESIDUAL_TOL)
            assert abs(located.point[1] - target) < mp.mpf(RESIDUAL_TOL)
            assert located.residual < mp.mpf(RESIDUAL_TOL)
        doubled = find_periodic_points(system, 1, precision=DOUBLED_DIGITS)
        assert len(doubled) == 1
        with mp.workdps(DOUBLED_DIGITS + 16):
            for a, b in zip(located.point, doubled[0].point):
                assert abs(a - b) < mp.mpf(DRIFT_TOL)

    # 3-d system: (g, g, sqrt(g^3)) with g the golden ratio
    points = find_periodic_points(psi1, 1, precision=WORKING_DIGITS, grid=4)
    assert len(points) == 1
    with mp.workdps(WORKING_DIGITS):
        g = golden_ratio()
        expected = (g, g, mp.sqrt(g**3))
        for a, b in zip(points[0].point, expected):
            assert abs(a - b) < mp.mpf(RESIDUAL_TOL)
        assert points[0].residual < mp.mpf(RESIDUAL_TOL)


def test_criterion_10_closed_forms():
    phi = _phi("somos5")
    cases = [
        ("principal", 1, 22, 20),  # lam = sqrt(r)
        ("general", 2, 45, 40),  # lam = 2 sqrt(r)
    ]
    for family, factor, steps, expected_checked in cases:
        with mp.workdps(WORKING_DIGITS):
            r = plastic_root()
            lam = factor * mp.sqrt(r)
            x3 = mp.mpf(1)
            x4 = mp.mpf(1)
            start = somos5_constrained_start(x3, x4, lam, r)
            orbit = iterate_orbit(phi, start, steps, mode="float")
            report = verify_closed_form(orbit, family, x3, x4, lam, r, n_max=20)
        assert report.ok, family
        assert report.family == family
        assert report.n_checked == expected_checked
        assert report.max_rel_error < mp.mpf(CLOSED_FORM_TOL), family


def test_criterion_11_orbit_taxonomy():
    phi7 = _phi("c7-pair")
    subs = [_sub("c7-pair", "null", "null"), _sub("c7-pair", "casimir1", "casimir")]

    for i in range(10):
        start = random_positive_point(7, rng_substream(0, i))
        itinerary = leaf_itinerary(phi7, subs, start, 20)
        assert itinerary.periods == (5, 10), i

    # a float start whose 2-d leaf label sits at the golden fixed point
    g = golden_ratio(40)
    start = (1, 1, 1, 1, 1, g, g)
    itinerary = leaf_itinerary(
        phi7, subs[:1], start, 20, mode="float", precision=WORKING_DIGITS
    )
    labels = itinerary.labels[0]
    with mp.workdps(WORKING_DIGITS):
        first = labels[0]
        deviation = max(
            abs(label[k] - first[k]) for label in labels for k in range(len(first))
        )
        assert deviation < mp.mpf(LABEL_DRIFT_TOL), deviation


def test_criterion_12_non_periodicity_scan():
    phi7 = _phi("c7-pair")
    psi2 = derive_reduced_map(phi7, _sub("c7-pair", "casimir2", "casimir")).map
    scan = no_periodic_points_scan(psi2, p_max=20, samples=25, seed=0)
    assert scan.period_found is None
    assert scan.samples == 25
    # the growth evidence is exact: tropical degrees of the cluster map
    b = get_fixture("c7-pair").matrix("B")
    degrees = degree_growth(b, detect_period(b))
    assert growth_class(degrees) == ("quadratic", 0.0)


def test_criterion_13_property_suites(ladder_systems):
    # mutation is an involution
    rng = random.Random(1300)
    for _ in range(200):
        n = rng.randint(2, 6)
        b = _random_skew(rng, n)
        k = rng.randint(1, n)
        assert mutate_matrix(mutate_matrix(b, k), k) == b

    # Hermite/Smith reconstruction with unimodular transforms
    rng = random.Random(1301)
    for _ in range(40):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(_det(u)) == 1
        d, uu, vv = smith_normal_form(m)
        assert uu @ m @ vv == d
        assert abs(_det(uu)) == 1
        assert abs(_det(vv)) == 1
        diagonal = [d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i]]
        for a, b in zip(diagonal, diagonal[1:]):
            assert b % a == 0

    # exact Jacobian against central finite differences
    phi5 = _phi("somos5")
    for i in range(3):
        point = random_positive_point(5, rng_substream(1302, i))
        exact = phi5.jacobian(point)
        with mp.workdps(WORKING_DIGITS):
            h = mp.mpf("1e-21")
            base = [mp.mpf(v.numerator) / v.denominator for v in point]
            for col in range(5):
                up, down = list(base), list(base)
                up[col] += h
                down[col] -= h
                f_up = phi5.evaluate_mp(up)
                f_down = phi5.evaluate_mp(down)
                for row in range(5):
                    target = mp.mpf(exact[row][col].numerator) / exact[row][col].denominator
                    approx = (f_up[row] - f_down[row]) / (2 * h)
                    scale = max(mp.mpf(1), abs(target))
                    assert abs(approx - target) / scale < mp.mpf(JACOBIAN_REL_TOL)

    # Casimir brackets vanish symbolically
    bracket_cases = [
        ("somos5", "C", "casimir"),
        ("c7-pair", "C1", "casimir1"),
        ("c7-pair", "C2", "casimir2"),
    ]
    for fixture_name, matrix_label, exponent_label in bracket_cases:
        fix = get_fixture(fixture_name)
        structure = PoissonStructure(fix.matrix(matrix_label))
        exponents = fix.exponent(exponent_label)
        casimirs = MonomialMap.from_rows(exponents.entries, exponents.cols).components()
        coordinates = MonomialMap.from_rows(
            IntMatrix.identity(exponents.cols).entries, exponents.cols
        ).components()
        for z in casimirs:
            for x in coordinates:
                assert poisson_bracket(z, x, structure).is_zero()

    # reduced systems commute with their projections pointwise
    for fixture_name, label, kind, _ in REDUCTION_CASES:
        phi = _phi(fixture_name)
        sub = _sub(fixture_name, label, kind)
        psi = derive_reduced_map(phi, sub).map
        pi = sub.map
        for i in range(100):
            x = random_positive_point(phi.dim_in, rng_substream(1313, i))
            assert pi.evaluate(phi.evaluate(x)) == psi.evaluate(pi.evaluate(x))

    # every reduction and flag link of the ladder, pointwise and as the
    # identity of rational functions that the lattice rewrite guarantees
    assert sum(len(links) for _, _, links in ladder_systems.values()) == 5
    for name, (phi, systems, links) in ladder_systems.items():
        for system in systems:
            psi, pi = system.map, system.submersion.map
            assert psi.compose(pi.as_birational()) == pi.after(phi), name
            for i in range(10):
                x = random_positive_point(phi.dim_in, rng_substream(1314, i))
                assert pi.evaluate(phi.evaluate(x)) == psi.evaluate(pi.evaluate(x)), name
        for outer, inner, p in links:
            assert outer.map.compose(p.as_birational()) == p.after(inner.map), name
