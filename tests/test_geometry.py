"""Invariant structures, monomial submersions, reduced maps, and flags."""

from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cluster_reduce import geometry, intlinalg, maps
from cluster_reduce import (
    BirationalMap,
    GeometryError,
    IntMatrix,
    InvarianceResult,
    MonomialMap,
    NotAChainError,
    NotFiberConstantError,
    NotReducibleError,
    PoissonStructure,
    PresymplecticForm,
    Submersion,
    build_flag,
    casimir_submersion,
    chained_reduction,
    check_isotropy,
    check_poisson_map,
    check_presymplectic_invariance,
    check_subfoliation,
    cluster_map,
    derive_reduced_map,
    detect_period,
    find_invariant_poisson,
    fordy_marsh,
    get_fixture,
    kernel_lattice,
    null_submersion,
    parse_rational,
    poisson_bracket,
    random_positive_point,
    rewrite_in_fiber_coordinates,
    rng_substream,
    submersion_from_rows,
)
from cluster_reduce.fixtures import somos5_matrix
from cluster_reduce.geometry import _period_poisson_basis, maximal_flag
from cluster_reduce.pipeline import AnalysisReport, WorkflowConfig, _foliations, run_pipeline
from reference import as_birational, coefficients_at, longest_chain, tensor_at


def _phi(name: str) -> BirationalMap:
    b = get_fixture(name).matrix("B")
    return cluster_map(b, detect_period(b))


def _discovered(b: IntMatrix) -> list[IntMatrix]:
    return find_invariant_poisson(cluster_map(b, detect_period(b)), b)


def _ladder_submersions():
    """(form, submersion) for every foliation the pipeline finds on the ladder."""
    rows = [
        (1, -1, 0, -1, 1),
        (1, -1, 0, 0, -1, 1),
        (1, -1, 0, 0, 0, -1, 1),
        (1, 0, -1, 0, 0, -1, 0, 1),
    ]
    names = ("somos5", "c7-pair", "somos5-2periodic")
    for b in [get_fixture(n).matrix("B") for n in names] + [fordy_marsh(r) for r in rows]:
        form = PresymplecticForm(b)
        if 0 < form.rank < form.dim:
            yield form, null_submersion(form)
        for sub in _foliations(_discovered(b), None, AnalysisReport(b, WorkflowConfig())):
            yield form, sub


def _perturbed(m: IntMatrix, di: int, dj: int) -> IntMatrix:
    entries = [list(r) for r in m.entries]
    entries[di][dj] += 1
    entries[dj][di] -= 1
    return IntMatrix.from_rows(entries)


class TestStructures:
    def test_presymplectic_data(self):
        form = PresymplecticForm(get_fixture("somos5").matrix("B"))
        assert (form.dim, form.rank) == (5, 2)
        w = coefficients_at(form, tuple(Fraction(k + 1) for k in range(5)))
        assert w[0][1] == Fraction(1, 2)  # b_12 / (x1 x2)
        assert w[1][0] == -Fraction(1, 2)

    def test_poisson_data(self):
        c = PoissonStructure(get_fixture("somos5").matrix("C"))
        assert (c.dim, c.rank, c.corank) == (5, 2, 3)
        assert c.kernel().dim == 3
        t = tensor_at(c, tuple(Fraction(k + 1) for k in range(5)))
        assert t[0][1] == Fraction(2)  # c_12 x1 x2
        assert t[1][0] == Fraction(-2)

    def test_non_skew_rejected(self):
        with pytest.raises(GeometryError):
            PresymplecticForm(IntMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(GeometryError):
            PoissonStructure(IntMatrix.from_rows([[1, 0], [0, 1]]))


class TestPoissonBracket:
    def test_log_canonical_on_coordinates(self):
        c = PoissonStructure(get_fixture("somos5").matrix("C"))
        x1 = parse_rational("x1", 5)
        x3 = parse_rational("x3", 5)
        assert poisson_bracket(x1, x3, c) == parse_rational("2*x1*x3", 5)

    def test_antisymmetry_and_leibniz(self):
        c = PoissonStructure(get_fixture("somos5").matrix("C"))
        f = parse_rational("(x1 + x2)/x3", 5)
        g = parse_rational("x4*x5", 5)
        h = parse_rational("x2 + 1", 5)
        zero = parse_rational("0", 5)
        assert poisson_bracket(f, g, c) + poisson_bracket(g, f, c) == zero
        lhs = poisson_bracket(f, g * h, c)
        rhs = poisson_bracket(f, g, c) * h + g * poisson_bracket(f, h, c)
        assert lhs == rhs

    def test_casimir_brackets_vanish(self):
        fix = get_fixture("somos5")
        c = PoissonStructure(fix.matrix("C"))
        for row in fix.exponent("casimir").entries:
            z = parse_rational(
                "*".join(f"x{i+1}^{e}" for i, e in enumerate(row) if e), 5
            )
            for j in range(5):
                assert poisson_bracket(z, parse_rational(f"x{j+1}", 5), c).is_zero()
        # symbolic brackets cross-check the integer identity C U^T = 0 that
        # casimir_submersion relies on
        c7 = get_fixture("c7-pair")
        (fm_n7,) = _discovered(fordy_marsh((1, -1, 0, 0, -1, 1)))
        for m in (c7.matrix("C1"), c7.matrix("C2"), fm_n7):
            structure = PoissonStructure(m)
            sub = casimir_submersion(structure)
            n = structure.dim
            coordinates = [parse_rational(f"x{j+1}", n) for j in range(n)]
            for z in sub.map.components():
                for x in coordinates:
                    assert poisson_bracket(z, x, structure).is_zero()


class TestInvariance:
    def test_somos5_presymplectic(self):
        result = check_presymplectic_invariance(
            _phi("somos5"), PresymplecticForm(get_fixture("somos5").matrix("B"))
        )
        assert result.ok and result.witness is None
        assert bool(result)

    def test_somos5_poisson(self):
        result = check_poisson_map(
            _phi("somos5"), PoissonStructure(get_fixture("somos5").matrix("C"))
        )
        assert result.ok

    def test_seven_node_all_structures(self):
        phi = _phi("c7-pair")
        fix = get_fixture("c7-pair")
        assert check_presymplectic_invariance(phi, PresymplecticForm(fix.matrix("B"))).ok
        assert check_poisson_map(phi, PoissonStructure(fix.matrix("C1"))).ok
        assert check_poisson_map(phi, PoissonStructure(fix.matrix("C2"))).ok

    def test_perturbed_form_fails_with_witness(self):
        bad = _perturbed(get_fixture("somos5").matrix("B"), 0, 2)
        result = check_presymplectic_invariance(_phi("somos5"), PresymplecticForm(bad))
        assert not result.ok
        assert result.witness is not None
        assert not bool(result)

    def test_perturbed_poisson_fails(self):
        bad = _perturbed(get_fixture("somos5").matrix("C"), 1, 3)
        assert not check_poisson_map(_phi("somos5"), PoissonStructure(bad)).ok

    def test_negative_image_coordinate(self):
        # M(p) is the identity, so both checks pass although phi(p) is not
        # positive
        phi = BirationalMap.from_strings(["-x1", "x2"])
        b = IntMatrix.from_rows([[0, 1], [-1, 0]])
        assert check_presymplectic_invariance(phi, PresymplecticForm(b)).ok
        assert check_poisson_map(phi, PoissonStructure(b)).ok
        assert find_invariant_poisson(phi) == [b]

    def test_points_with_a_zero_image_coordinate_skipped(self, monkeypatch):
        # M(p) does not exist where a coordinate of phi(p) is 0: the first
        # draw, (1, 1), is passed over
        phi = BirationalMap.from_strings(["x1 - x2", "x2"])
        draws = iter([(Fraction(1), Fraction(1))])
        monkeypatch.setattr(
            geometry,
            "random_positive_point",
            lambda n, rng: next(draws, None) or random_positive_point(n, rng),
        )
        points = [p for p, _ in geometry._sample_points(phi, 3, 0)]
        assert len(points) == 3 and (1, 1) not in points

    @pytest.mark.parametrize("samples", [0, -2])
    def test_no_samples_certify_nothing(self, samples):
        # with no sample point the loop never runs: refuse rather than
        # report a non-invariant structure as invariant
        phi = _phi("somos5")
        form = PresymplecticForm(_perturbed(get_fixture("somos5").matrix("B"), 0, 2))
        with pytest.raises(GeometryError, match="at least one"):
            check_presymplectic_invariance(phi, form, samples)
        structure = PoissonStructure(_perturbed(get_fixture("somos5").matrix("C"), 1, 3))
        with pytest.raises(GeometryError, match="at least one"):
            check_poisson_map(phi, structure, samples)

    def test_map_evaluated_once_per_sample(self, monkeypatch):
        # every value and Jacobian is one run of the evaluation kernel,
        # which geometry imports by name
        runs = []
        apply = maps._apply

        def counted(f, point, num, jacobian):
            runs.append(point)
            return apply(f, point, num, jacobian)

        for module in (maps, geometry):
            monkeypatch.setattr(module, "_apply", counted)
        fix = get_fixture("somos5")
        phi = _phi("somos5")
        assert check_presymplectic_invariance(phi, PresymplecticForm(fix.matrix("B"))).ok
        assert len(runs) == 20
        runs.clear()
        assert check_poisson_map(phi, PoissonStructure(fix.matrix("C"))).ok
        assert len(runs) == 20
        for name in ("somos5", "c7-pair"):
            runs.clear()
            find_invariant_poisson(_phi(name), get_fixture(name).matrix("B"))
            assert runs and len(runs) == len(set(runs))


class TestDiscovery:
    def test_somos5_space_is_one_dimensional(self):
        fix = get_fixture("somos5")
        basis = find_invariant_poisson(_phi("somos5"), fix.matrix("B"))
        assert len(basis) == 1
        found = basis[0]
        target = fix.matrix("C")
        # the basis vector is the known structure up to sign
        assert found == target or found == target.scale(-1)

    def test_seven_node_space_contains_both(self):
        fix = get_fixture("c7-pair")
        basis = find_invariant_poisson(_phi("c7-pair"), fix.matrix("B"))
        assert len(basis) == 2
        from cluster_reduce.geometry import vectorize_skew
        from cluster_reduce.intlinalg import LatticeBasis, solve_in_lattice

        span = LatticeBasis(21, tuple(vectorize_skew(m) for m in basis))
        for label in ("C1", "C2"):
            assert solve_in_lattice(span, vectorize_skew(fix.matrix(label))) is not None

    def test_identity_map_space_is_full(self):
        basis = find_invariant_poisson(BirationalMap.identity(3))
        assert len(basis) == 3

    def test_reverification_failure_is_fed_back(self, monkeypatch):
        # one discovery point leaves the kernel too large; a failing
        # re-verification point adds its equations and cuts it down
        phi = _phi("somos5")
        expected = find_invariant_poisson(phi)
        sample, equations = geometry._sample_points, geometry._poisson_equations_at
        calls = []
        monkeypatch.setattr(geometry, "_sample_points",
                            lambda f, count, seed: sample(f, 1 if seed == 0 else count, seed))
        monkeypatch.setattr(geometry, "_poisson_equations_at",
                            lambda m: calls.append(m) or equations(m))
        assert find_invariant_poisson(phi) == expected
        assert len(calls) == 2

    def test_discovered_structures_verify(self):
        phi = _phi("somos5")
        for m in find_invariant_poisson(phi, get_fixture("somos5").matrix("B")):
            assert check_poisson_map(phi, PoissonStructure(m), samples=10, seed=99).ok


# exchange matrices of the period-tracked Poisson kernel's differential test:
# the ladder, Fordy-Marsh N = 10 and 11, and the Somos-5 family up to (3, 3)
_TRACKED_CASES = {
    **{name: get_fixture(name).matrix("B") for name in ("somos5", "c7-pair", "somos5-2periodic")},
    **{f"fm{len(row) + 1}:{row}": fordy_marsh(row) for row in (
        (1, -1, 0, -1, 1),
        (1, -1, 0, 0, -1, 1),
        (1, -1, 0, 0, 0, -1, 1),
        (1, 0, -1, 0, 0, -1, 0, 1),
        (1, -1, 0, 0, 0, 0, 0, -1, 1),
        (1, 0, 0, -1, 0, 0, -1, 0, 0, 1),
    )},
    **{f"somos5({r},{s})": somos5_matrix(r, s) for r in range(4) for s in range(4)},
}

# period 3; its one invariant tensor C = B3 leaves log-canonical form
# between the mutations, and it is not compatible (B3 B3 != 0)
_B3 = IntMatrix.from_rows([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])


class TestPeriodPoissonBasis:
    """The kernel of the mutation-tracked integer system against sampled
    discovery on the map itself."""

    @pytest.mark.parametrize("name", sorted(_TRACKED_CASES))
    def test_matches_sampled_discovery(self, name):
        b = _TRACKED_CASES[name]
        cert = detect_period(b)
        phi = cluster_map(b, cert)
        exact = _period_poisson_basis(b, cert.period)
        assert exact == find_invariant_poisson(phi, b)
        for m in exact:
            assert check_poisson_map(phi, PoissonStructure(m), samples=5, seed=7).ok

    def test_without_compatibility_the_tracked_kernel_is_smaller(self):
        cert = detect_period(_B3)
        assert cert.period == 3
        phi = cluster_map(_B3, cert)
        assert find_invariant_poisson(phi) == [_B3]
        assert _period_poisson_basis(_B3, 3) == find_invariant_poisson(phi, _B3) == []

    def test_pipeline_without_compatibility_samples(self):
        report = run_pipeline(_B3, WorkflowConfig(require_compatible=False))
        assert [d["matrix"] for d in report.discovered] == [_B3.to_json_dict()]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in zip(*b)] for row in a]


def _pointwise_check(phi, matrix, samples, seed, poisson) -> InvarianceResult:
    """An invariance check by its definition, at the checks' sample points:
    J Pi(p) J^T = Pi(phi(p)) for a Poisson tensor, J^T W(phi(p)) J = W(p)
    for a presymplectic form."""
    found = index = 0
    while found < samples:
        p = random_positive_point(phi.dim_in, rng_substream(seed, index))
        index += 1
        try:
            image = phi.evaluate(p)
        except ZeroDivisionError:
            continue
        if not all(image):
            continue
        found += 1
        j = phi.jacobian(p)
        j_t = [list(col) for col in zip(*j)]
        if poisson:
            tensor = PoissonStructure(matrix)
            holds = _product(_product(j, tensor_at(tensor, p)), j_t) == tensor_at(tensor, image)
        else:
            form = PresymplecticForm(matrix)
            holds = (_product(_product(j_t, coefficients_at(form, image)), j)
                     == coefficients_at(form, p))
        if not holds:
            return InvarianceResult(False, samples, p)
    return InvarianceResult(True, samples)


class TestInvarianceReference:
    """The log-Jacobian congruences against the pointwise definitions, on
    the ladder maps and B3: the same verdicts and the same witnesses."""

    @pytest.mark.parametrize("name", list(_TRACKED_CASES)[:7] + ["B3"])
    def test_checks_match_pointwise_definitions(self, name):
        b = _B3 if name == "B3" else _TRACKED_CASES[name]
        phi = cluster_map(b, detect_period(b))
        invariant = find_invariant_poisson(phi, None if name == "B3" else b)
        matrices = [b, _perturbed(b, 0, 2)]
        matrices += invariant + [_perturbed(c, 1, 2) for c in invariant]
        verdicts = set()
        for seed in (0, 1, 2):
            for m in matrices:
                result = check_presymplectic_invariance(phi, PresymplecticForm(m), 6, seed)
                assert result == _pointwise_check(phi, m, 6, seed, False)
                verdicts.add(("presymplectic", result.ok))
                result = check_poisson_map(phi, PoissonStructure(m), 6, seed)
                assert result == _pointwise_check(phi, m, 6, seed, True)
                verdicts.add(("poisson", result.ok))
        # each check fails somewhere; B passes, and the Poisson check passes
        # where the map has an invariant tensor
        assert len(verdicts) == (4 if invariant else 3)


def _log_jacobians(phi, count, seed):
    """M(p)_ij = p_j d_j phi_i(p) / phi_i(p) in Fractions, at the sampler's
    points: the seeded draws where phi(p) has no zero coordinate."""
    found = index = 0
    while found < count:
        p = random_positive_point(phi.dim_in, rng_substream(seed, index))
        index += 1
        image = phi.evaluate(p)
        if all(image):
            found += 1
            yield [[v * x / y for v, x in zip(row, p)] for row, y in zip(phi.jacobian(p), image)]


def _stacked_discovery(phi, b, seed) -> list[IntMatrix]:
    """Invariant-tensor discovery on the whole stacked system: the rows of
    M C M^T = C at each point, with Fraction coefficients cleared of
    denominators, are added to the stack and its kernel is taken anew,
    until three points leave the dimension unchanged; a basis tensor
    failing M C M^T = C at one of 5 points of seed + 10000 adds that
    point's rows."""
    n = phi.dim_in
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    stack = [] if b is None else geometry._compatibility_equations(b)

    def kernel(m=()):
        for a, c in pairs if m else ():
            row = [m[a][k] * m[c][l] - m[a][l] * m[c][k] - ((k, l) == (a, c)) for k, l in pairs]
            denom = lcm(*(v.denominator for v in row))
            stack.append([int(v * denom) for v in row])
        return kernel_lattice(IntMatrix.from_rows(stack, cols=len(pairs)))

    basis, dims = kernel(), []
    for m in _log_jacobians(phi, len(pairs) + 6, seed) if basis.dim else ():
        basis = kernel(m)
        dims.append(basis.dim)
        if basis.dim == 0 or dims[-3:] == [basis.dim] * 3:
            break
    def invariant(m, c):
        return _product(_product(m, c), list(zip(*m))) == [list(row) for row in c]

    checks = list(_log_jacobians(phi, 5, seed + 10_000)) if basis.dim else []
    for _ in range(len(pairs) + 1):
        candidates = [geometry.unvectorize_skew(v, n) for v in basis.vectors]
        retry = next((m for c in candidates for m in checks if not invariant(m, c.entries)), None)
        if retry is None:
            return candidates
        basis = kernel(retry)
    raise AssertionError("the stacked discovery did not settle")


class TestDiscoveryReference:
    """Discovery by narrowing a saturated kernel on integer rows against
    the stacked Fraction system, with and without C B = 0."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(_TRACKED_CASES)[:7] + ["B3"])
    def test_matches_stacked_fraction_discovery(self, name, seed):
        b = _B3 if name == "B3" else _TRACKED_CASES[name]
        phi = cluster_map(b, detect_period(b))
        for compatible in (b, None):
            assert find_invariant_poisson(phi, compatible, seed) == _stacked_discovery(
                phi, compatible, seed
            )


class TestIntegerGeometry:
    """The sampled checks and discovery see each log-Jacobian once, cleared
    to integers, and discovery's Hermite forms stay within the kernel."""

    def test_sampled_log_jacobian_is_cleared_once(self):
        phi = _phi("c7-pair")
        sampled = list(geometry._sample_points(phi, 4, 3))
        for (p, (m, d)), exact in zip(sampled, _log_jacobians(phi, 4, 3)):
            assert d == lcm(*(v.denominator for row in exact for v in row))
            assert m == [[v * d for v in row] for row in exact]
            assert all(type(v) is int for row in m for v in row)

    def test_integer_congruences_and_narrow_hermite_forms(self, monkeypatch):
        congruent, hermite = geometry._congruent, intlinalg.hermite_normal_form
        normalized, equations = intlinalg._normalized_basis, geometry._poisson_equations_at
        entries, events = [], []

        def seen(a, m, b):
            entries.extend(v for matrix in (a, m, b) for row in matrix for v in row)
            return congruent(a, m, b)

        def hermite_rows(m):
            events.append(("hnf", m.rows))
            return hermite(m)

        def kernel_dim(ambient, vectors):
            basis = normalized(ambient, vectors)
            events.append(("kernel", basis.dim))
            return basis

        monkeypatch.setattr(geometry, "_congruent", seen)
        monkeypatch.setattr(intlinalg, "hermite_normal_form", hermite_rows)
        monkeypatch.setattr(intlinalg, "_normalized_basis", kernel_dim)
        monkeypatch.setattr(geometry, "_poisson_equations_at",
                            lambda scaled: events.append(("point", 0)) or equations(scaled))
        fm9 = fordy_marsh((1, 0, -1, 0, 0, -1, 0, 1))
        c7 = get_fixture("c7-pair").matrix("B")
        for b, compatible in ((fm9, None), (c7, c7)):
            events.clear()
            assert find_invariant_poisson(cluster_map(b, detect_period(b)), compatible)
            # from the first point on, every Hermite form has at most as
            # many rows as the kernel left by the step before
            assert ("point", 0) in events
            last = bound = None
            for kind, size in events:
                if kind == "kernel":
                    last = size
                elif kind == "point":
                    bound = last
                elif bound is not None:
                    assert size <= bound, (kind, size, bound)
        fix = get_fixture("somos5")
        assert check_presymplectic_invariance(_phi("somos5"), PresymplecticForm(fix.matrix("B"))).ok
        assert check_poisson_map(_phi("somos5"), PoissonStructure(fix.matrix("C"))).ok
        assert entries and all(type(v) is int for v in entries)


class TestSubmersions:
    def test_null_submersion_somos5(self):
        sub = null_submersion(PresymplecticForm(get_fixture("somos5").matrix("B")))
        assert sub.kind == "null"
        assert (sub.dim_in, sub.dim_out) == (5, 2)
        assert sub.map.exponents.entries == ((1, 0, -2, 0, 1), (0, 1, -1, -1, 1))
        assert sub.scales == (Fraction(1),)
        assert sub.saturation == 1
        assert sub.dim_out != 0 and not sub.is_local_diffeo

    def test_casimir_submersion_somos5(self):
        sub = casimir_submersion(PoissonStructure(get_fixture("somos5").matrix("C")))
        assert sub.kind == "casimir"
        assert sub.dim_out == 3
        assert sub.map.exponents.entries == (
            (1, 0, 0, -4, 3),
            (0, 1, 0, -3, 2),
            (0, 0, 1, -2, 1),
        )

    def test_casimir_needs_nontrivial_kernel(self):
        symplectic = IntMatrix.from_rows([[0, 1], [-1, 0]])
        with pytest.raises(GeometryError):
            casimir_submersion(PoissonStructure(symplectic))

    def test_submersion_from_rows_requires_full_rank(self):
        with pytest.raises(GeometryError):
            submersion_from_rows([(1, 0, 1), (2, 0, 2)], 3)

    def test_submersion_json_round_trip(self):
        sub = submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5, kind="null")
        doc = sub.to_json_dict()
        assert doc["schema"] == "v1"
        assert Submersion.from_json_dict(doc) == sub

    def test_submersion_document_is_checked_as_rows(self):
        # the rank is checked, the saturation computed and not read, and
        # the kind and scales are kept
        doc = {"kind": "null", "exponents": [["2", "0"]], "dim_in": 2,
               "scales": ["1/2"], "saturation": 1}
        sub = Submersion.from_json_dict(doc)
        assert (sub.kind, sub.scales, sub.saturation) == ("null", (Fraction(1, 2),), 2)
        doc["exponents"] = [["1", "0"], ["2", "0"]]
        with pytest.raises(GeometryError):
            Submersion.from_json_dict(doc)

    def test_trivial_and_diffeo_flags(self):
        trivial = null_submersion(PresymplecticForm(IntMatrix.zeros(2, 2)))
        assert trivial.dim_out == 0
        diffeo = null_submersion(
            PresymplecticForm(IntMatrix.from_rows([[0, 1], [-1, 0]]))
        )
        assert diffeo.is_local_diffeo


class TestRewrite:
    def test_fiber_constant_function(self):
        sub = submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5)
        f = parse_rational("x1*x4/(x2*x3)", 5)  # equals y1, fiber constant
        g = rewrite_in_fiber_coordinates(f, sub)
        assert g == parse_rational("x1", 2)

    def test_composite_expression(self):
        sub = submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5)
        f = parse_rational("(x1*x4 + x2*x3)/(x2*x3)", 5)  # y1 + 1
        assert rewrite_in_fiber_coordinates(f, sub) == parse_rational("x1 + 1", 2)

    def test_not_fiber_constant(self):
        sub = submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5)
        with pytest.raises(NotFiberConstantError):
            rewrite_in_fiber_coordinates(parse_rational("x1", 5), sub)


SOMOS5_Y = [(1, -1, -1, 1, 0), (0, 1, -1, -1, 1), (0, 0, 1, -2, 1)]
C7_Y = [
    (1, 0, -1, -1, 0, 1, 0),
    (0, 1, 0, -1, -1, 0, 1),
    (1, 0, 0, -2, 0, 0, 1),
    (1, 1, 1, 0, 0, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
]


class TestReducedMaps:
    def test_somos5_null_reduction(self):
        sub = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        system = derive_reduced_map(_phi("somos5"), sub)
        assert system.verified
        assert system.map.to_strings() == ["x2", "(x2 + 1)/(x1*x2)"]

    def test_somos5_casimir_reduction(self):
        sub = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        system = derive_reduced_map(_phi("somos5"), sub)
        assert system.map.to_strings() == [
            "x2",
            "(x2 + 1)/(x1*x2)",
            "(x2 + 1)/(x1*x2*x3)",
        ]

    def test_seven_node_null_is_lyness(self):
        sub = submersion_from_rows(C7_Y[:2], 7, kind="null")
        system = derive_reduced_map(_phi("c7-pair"), sub)
        assert system.map.to_strings() == ["x2", "(x2 + 1)/x1"]

    def test_seven_node_casimir1_reduction(self):
        sub = submersion_from_rows(C7_Y[:3], 7, kind="casimir")
        system = derive_reduced_map(_phi("c7-pair"), sub)
        assert system.map.to_strings() == [
            "x2",
            "(x2 + 1)/x1",
            "(x2^2 + x2)/x3",
        ]

    def test_seven_node_casimir2_reduction(self):
        sub = submersion_from_rows(C7_Y, 7, kind="casimir")
        system = derive_reduced_map(_phi("c7-pair"), sub)
        assert system.map.to_strings() == [
            "x2",
            "(x2 + 1)/x1",
            "(x2^2 + x2)/x3",
            "x5",
            "x3*x5^2/(x2*x4)",
        ]

    def test_not_reducible(self):
        # projecting out only one invariant leaves non-constant fibers
        sub = submersion_from_rows([(1, 0, 0, 0, 0)], 5)
        with pytest.raises(NotReducibleError):
            derive_reduced_map(_phi("somos5"), sub)

    def test_reduced_system_json(self):
        sub = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        doc = derive_reduced_map(_phi("somos5"), sub).to_json_dict()
        assert doc["schema"] == "v1"
        assert doc["verified"] is True
        assert doc["psi"] == ["x2", "(x2 + 1)/(x1*x2)"]
        assert doc["pi"]["kind"] == "null"


@st.composite
def _skew_matrices(draw, n: int | None = None) -> IntMatrix:
    """Integer skew-symmetric n x n matrices, n in 2..5 unless given,
    entries in -3..3."""
    n = n or draw(st.integers(2, 5))
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    entries = [[0] * n for _ in range(n)]
    for (i, j), v in zip(geometry._pair_index(n), upper):
        entries[i][j], entries[j][i] = v, -v
    return IntMatrix.from_rows(entries)


@st.composite
def _skew_pairs(draw) -> tuple:
    """Two skew matrices of one size and a small integer matrix T whose
    rows combine the Casimir rows of the first."""
    n = draw(st.integers(2, 5))
    t = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=3))
    return draw(_skew_matrices(n)), draw(_skew_matrices(n)), t


class TestLatticeFactsProperty:
    """The lattice facts the pipeline does not check again hold by
    construction: a Casimir row solves C u = 0 and a subfoliation
    witness recomposes."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_skew_matrices())
    def test_casimir_rows_are_in_the_kernel(self, c):
        structure = PoissonStructure(c)
        if structure.corank == 0:
            with pytest.raises(GeometryError, match="trivial kernel"):
                casimir_submersion(structure)
            return
        u = casimir_submersion(structure).map.exponents
        assert u.rows == structure.corank
        assert (c @ u.transpose()).is_zero()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_skew_pairs())
    def test_subfoliation_witness_recomposes(self, pair):
        c, d, t = pair
        subs = [null_submersion(PresymplecticForm(m)) for m in (c, d)]
        subs += [casimir_submersion(PoissonStructure(m)) for m in (c, d)
                 if PoissonStructure(m).corank]
        if PoissonStructure(c).corank:
            # integer combinations of c's Casimir rows: a coarser foliation
            u = kernel_lattice(c).matrix()
            combined = IntMatrix.from_rows([r[: u.rows] for r in t], cols=u.rows) @ u
            coarser = Submersion(MonomialMap(combined), "custom")
            assert check_subfoliation(coarser, subs[2]) is not None
            subs.append(coarser)
        for a in subs:
            for b in subs:
                p = check_subfoliation(a, b)
                if p is not None:
                    assert p.after_monomial(b.map) == a.map


class TestSubfoliationAndFlags:
    def test_somos5_projection_witness(self):
        null = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        cas = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        p = check_subfoliation(null, cas)
        assert p is not None
        assert p.exponents.entries == ((1, 0, 0), (0, 1, 0))

    def test_transverse_pair_has_no_witness(self):
        a = submersion_from_rows([(1, 0, 0)], 3)
        b = submersion_from_rows([(0, 1, 0)], 3)
        assert check_subfoliation(a, b) is None

    def test_seven_node_flag(self):
        subs = [
            submersion_from_rows(C7_Y, 7, kind="casimir"),
            submersion_from_rows(C7_Y[:2], 7, kind="null"),
            submersion_from_rows(C7_Y[:3], 7, kind="casimir"),
        ]
        flag = build_flag(subs)
        assert flag.describe() == "null(2) < casimir(3) < casimir(5)"
        assert len(flag) == 3
        assert flag.projections[0].exponents.entries == ((1, 0, 0), (0, 1, 0))
        assert flag.projections[1].exponents.entries == (
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
        )

    def test_not_a_chain(self):
        a = submersion_from_rows([(1, 0, 0)], 3)
        b = submersion_from_rows([(0, 1, 0)], 3)
        with pytest.raises(NotAChainError):
            build_flag([a, b])

    def test_equal_dimensions_are_not_a_chain(self):
        # one lattice in two bases: nested both ways, yet never "<" in a flag
        a = submersion_from_rows([(1, -1, 0), (0, 1, 1)], 3, kind="null")
        b = submersion_from_rows([(1, 0, 1), (0, 1, 1)], 3, kind="casimir")
        assert check_subfoliation(a, b) is not None
        with pytest.raises(NotAChainError):
            build_flag([a, b])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.frozensets(st.integers(0, 3), min_size=1), max_size=6, unique=True))
    def test_longest_chain_of_coordinate_subsets(self, subsets):
        # x -> (x_i)_{i in S} has the lattice spanned by e_i, i in S, so its
        # subfoliation order is inclusion of the subsets S
        subs = [submersion_from_rows([[int(i == k) for k in range(4)] for i in sorted(s)], 4)
                for s in subsets]
        flag, omitted = maximal_flag(subs)
        chain = longest_chain(subs)
        assert len(flag) == len(chain)
        assert flag.submersions == chain
        assert omitted == [s for s in sorted(subs, key=lambda s: s.dim_out) if s not in chain]
        for outer, inner, p in zip(flag.submersions, flag.submersions[1:], flag.projections):
            assert p.after_monomial(inner.map) == outer.map
        if len(chain) < len(subs):
            with pytest.raises(NotAChainError):
                build_flag(subs)
        else:
            assert build_flag(subs) == flag

    def test_auto_bases_also_chain(self):
        # the automatically computed null and Casimir bases span nested lattices
        fix = get_fixture("somos5")
        subs = [
            null_submersion(PresymplecticForm(fix.matrix("B"))),
            casimir_submersion(PoissonStructure(fix.matrix("C"))),
        ]
        assert build_flag(subs).describe() == "null(2) < casimir(3)"


class TestChainedReduction:
    def test_somos5_chain(self):
        phi = _phi("somos5")
        null = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        cas = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        outer = derive_reduced_map(phi, null)
        inner = derive_reduced_map(phi, cas)
        p = check_subfoliation(null, cas)
        chained = chained_reduction(outer, inner, p)
        assert chained.verified
        assert chained.submersion.kind == "projection"
        assert chained.map.to_strings() == outer.map.to_strings()

    def test_seven_node_double_chain(self):
        phi = _phi("c7-pair")
        subs = [
            submersion_from_rows(C7_Y[:2], 7, kind="null"),
            submersion_from_rows(C7_Y[:3], 7, kind="casimir"),
            submersion_from_rows(C7_Y, 7, kind="casimir"),
        ]
        systems = [derive_reduced_map(phi, s) for s in subs]
        flag = build_flag(subs)
        for i, p in enumerate(flag.projections):
            assert chained_reduction(systems[i], systems[i + 1], p).verified

    def test_wrong_projection_rejected(self):
        phi = _phi("somos5")
        null = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        cas = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        outer = derive_reduced_map(phi, null)
        inner = derive_reduced_map(phi, cas)
        wrong = MonomialMap.from_rows([(0, 0, 1), (0, 1, 0)], 3)
        with pytest.raises(GeometryError):
            chained_reduction(outer, inner, wrong)

    def test_systems_of_different_maps_rejected(self):
        # the witness p o pi_inner = pi_outer holds, but psi_inner reduces
        # phi^2, so p o psi_inner = psi_outer^2 o p and not psi_outer o p
        phi = _phi("somos5")
        null = submersion_from_rows(SOMOS5_Y[:2], 5, kind="null")
        cas = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        outer = derive_reduced_map(phi, null)
        inner = derive_reduced_map(phi, cas)
        p = check_subfoliation(null, cas)
        squared = derive_reduced_map(phi.compose(phi), cas)
        assert p.after(squared.map) != outer.map.compose(as_birational(p))
        unknown = replace(outer, source=None)
        for pair in ((outer, squared), (unknown, inner), (unknown, replace(inner, source=None))):
            with pytest.raises(GeometryError, match="do not reduce the same map"):
                chained_reduction(*pair, p)


class TestIsotropy:
    def test_null_fibers_are_isotropic(self):
        form = PresymplecticForm(get_fixture("somos5").matrix("B"))
        assert check_isotropy(form, null_submersion(form))

    def test_casimir_fibers_are_isotropic_here(self):
        fix = get_fixture("somos5")
        form = PresymplecticForm(fix.matrix("B"))
        sub = submersion_from_rows(SOMOS5_Y, 5, kind="casimir")
        assert check_isotropy(form, sub)

    def test_fiber_containing_a_symplectic_pair_is_not(self):
        form = PresymplecticForm(
            IntMatrix.from_rows(
                [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
            )
        )
        # fibers of x1 contain the symplectic pair (e3, e4)
        sub = submersion_from_rows([(1, 0, 0, 0)], 4)
        assert not check_isotropy(form, sub)

    @staticmethod
    def _isotropic_at(form, sub, point) -> bool:
        """The pointwise definition: W(p) vanishes on every pair of fiber tangents."""
        n = form.dim
        w = coefficients_at(form, point)
        tangents = [
            [Fraction(v[j]) * point[j] for j in range(n)]
            for v in kernel_lattice(sub.map.exponents).vectors
        ]
        return all(
            sum(ta[i] * w[i][j] * tb[j] for i in range(n) for j in range(n)) == 0
            for ta in tangents
            for tb in tangents
        )

    def test_identity_agrees_with_pointwise_definition(self):
        symplectic_pairs = PresymplecticForm(
            IntMatrix.from_rows(
                [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
            )
        )
        cases = list(_ladder_submersions()) + [
            (symplectic_pairs, submersion_from_rows([(1, 0, 0, 0)], 4)),
        ]
        assert len(cases) == 16
        verdicts = set()
        for form, sub in cases:
            verdict = check_isotropy(form, sub)
            verdicts.add(verdict)
            for i in range(3):
                point = random_positive_point(form.dim, rng_substream(5, i))
                assert self._isotropic_at(form, sub, point) == verdict
        assert verdicts == {True, False}
