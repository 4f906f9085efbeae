"""Log-canonical presymplectic and Poisson geometry for birational maps.

The structures handled here are constant in logarithmic coordinates: a
presymplectic form with coefficient matrix [b_ij/(x_i x_j)] and a Poisson
tensor with coefficients [c_ij x_i x_j], each encoded by an integer
skew-symmetric matrix.  Invariance of such a structure under a birational
self-map is a rational-function identity.  Each fact is known in one of
three ways, and only one way is used per fact:

* sampled exact points: invariance of a form or tensor under an
  arbitrary map is the congruence M^T B M = B, or M C M^T = C, of the
  log-Jacobian M(p)_ij = p_j d_j phi_i(p) / phi_i(p) at seeded random
  positive points.  The integer matrix d M(p) (d the lcm of its
  denominators) is formed once per point on ints by `maps._log_jacobian`,
  from the map's term lists cleared of the point's numerators and
  denominators, and the congruence is checked on integers against d^2 B
  or d^2 C.
  Discovery solves each point's integer equations inside the saturated
  kernel found so far, which narrows it without re-eliminating earlier
  points; a re-verification point that fails narrows it the same way;
* lattice rewrite: a reduced map psi satisfies pi o phi = psi o pi
  by construction, as the exact rewrite of pi o phi in fiber
  coordinates; a chained reduction follows from two such rewrites and
  the integer witness p o pi_inner = pi_outer;
* integer identity: facts about the structures themselves are lattice
  facts.  Monomial Casimirs x^u satisfy C u = 0 (since
  {x^u, x_j} = x^u x_j (u^T C)_j), fibers are isotropic when
  K B K^T = 0 for K the kernel of the exponent rows, and subfoliation is
  lattice containment.  For the cluster map of B itself, invariance of
  omega_B is the mutation period mu_m ... mu_1(B) = shifted B, and the
  invariant tensors compatible with B (C B = 0) are the kernel of the
  integer system of _period_poisson_basis.  These are solved or
  checked on integers, at no point, and what an exact lattice solution
  yields (a Casimir row, a projection witness) is not checked again.

Conventions:

* a monomial submersion pi(x) = (x^{u_1}, ..., x^{u_r}) is stored by its
  exponent rows u_i;
* the fibers of pi are the leaves of the associated foliation, and a
  coarser foliation (bigger leaves) corresponds to a smaller exponent
  lattice;
* skew matrices are vectorized by their upper triangle in row-major
  order: (0,1), (0,2), ..., (0,n-1), (1,2), ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .intlinalg import (
    DarbouxBasis,
    IntMatrix,
    LatticeBasis,
    _congruent,
    _narrowed_kernel,
    darboux_basis,
    kernel_lattice,
    saturation_index,
    solve_in_lattice,
)
from .laurent import LaurentPoly, RationalFunction
from .maps import (
    BirationalMap,
    MonomialMap,
    PositivePoint,
    _log_jacobian,
    random_positive_point,
    rng_substream,
)
from .quiver import mutate_matrix

__all__ = [
    "GeometryError",
    "NotFiberConstantError",
    "NotReducibleError",
    "NotAChainError",
    "PresymplecticForm",
    "PoissonStructure",
    "Submersion",
    "ReducedSystem",
    "Flag",
    "InvarianceResult",
    "check_presymplectic_invariance",
    "check_poisson_map",
    "find_invariant_poisson",
    "poisson_bracket",
    "null_submersion",
    "casimir_submersion",
    "submersion_from_rows",
    "rewrite_in_fiber_coordinates",
    "derive_reduced_map",
    "check_subfoliation",
    "maximal_flag",
    "build_flag",
    "chained_reduction",
    "check_isotropy",
    "vectorize_skew",
    "unvectorize_skew",
]


class GeometryError(ValueError):
    """A geometric precondition or verification failed."""


class NotFiberConstantError(GeometryError):
    """A rational function is not constant on the fibers of a submersion."""


class NotReducibleError(GeometryError):
    """A map does not descend through a submersion."""


class NotAChainError(GeometryError):
    """A set of submersions is not totally ordered by leaf inclusion."""


# ---------------------------------------------------------------------------
# Structures


@dataclass(frozen=True)
class PresymplecticForm:
    """Log-canonical 2-form sum b_ij/(x_i x_j) dx_i ^ dx_j (i < j)."""

    matrix: IntMatrix

    def __post_init__(self) -> None:
        if not self.matrix.is_skew_symmetric():
            raise GeometryError("presymplectic coefficient matrix must be skew-symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def rank(self) -> int:
        return self.matrix.rank()


@dataclass(frozen=True)
class PoissonStructure:
    """Log-canonical Poisson tensor with coefficients c_ij x_i x_j."""

    matrix: IntMatrix

    def __post_init__(self) -> None:
        if not self.matrix.is_skew_symmetric():
            raise GeometryError("Poisson coefficient matrix must be skew-symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def rank(self) -> int:
        return self.matrix.rank()

    @property
    def corank(self) -> int:
        return self.dim - self.rank

    def kernel(self) -> LatticeBasis:
        return kernel_lattice(self.matrix)


def poisson_bracket(
    f: RationalFunction, g: RationalFunction, structure: PoissonStructure
) -> RationalFunction:
    """{f, g} = sum_{k<l} c_kl x_k x_l (d_k f d_l g - d_l f d_k g)."""
    n = structure.dim
    if f.nvars != n or g.nvars != n:
        raise GeometryError("bracket arguments must live in the structure's dimension")
    result = RationalFunction.constant(0, n)
    df = [f.derivative(k) for k in range(n)]
    dg = [g.derivative(k) for k in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            c = structure.matrix.entries[k][l]
            if c == 0:
                continue
            exp = [0] * n
            exp[k] += 1
            exp[l] += 1
            weight = RationalFunction.from_laurent(
                LaurentPoly.monomial(exp, n, Fraction(c))
            )
            result = result + (df[k] * dg[l] - df[l] * dg[k]) * weight
    return result


# ---------------------------------------------------------------------------
# Submersions and reduced systems


@dataclass(frozen=True)
class Submersion:
    """Monomial submersion x -> (x^{u_1}, ..., x^{u_r}) with metadata.

    kind is "null" (rows span the image lattice of a presymplectic
    matrix), "casimir" (rows span a Poisson kernel), "projection"
    (between reduced spaces), or "custom".  For null submersions the
    Darboux pairing scales are recorded; lattice saturation is the index
    of the row lattice inside its rational span intersected with Z^N.
    """

    map: MonomialMap
    kind: str = "custom"
    scales: tuple[Fraction, ...] = ()
    saturation: int = 1

    @property
    def dim_in(self) -> int:
        return self.map.dim_in

    @property
    def dim_out(self) -> int:
        return self.map.dim_out

    @property
    def is_local_diffeo(self) -> bool:
        return self.dim_out == self.dim_in

    def lattice(self) -> LatticeBasis:
        """The row lattice, one basis per submersion, so that the Hermite
        form cached on the basis is computed once."""
        return self._lattice

    @cached_property
    def _lattice(self) -> LatticeBasis:
        return LatticeBasis(self.dim_in, tuple(self.map.exponents.entries))

    def evaluate(self, point: PositivePoint) -> tuple[Fraction, ...]:
        return self.map.evaluate(point)

    def evaluate_mp(self, point):
        return self.map.evaluate_mp(point)

    def to_json_dict(self) -> dict:
        data = {
            "schema": "v1",
            "kind": self.kind,
            "exponents": self.map.to_json_dict()["exponents"],
            "dim_in": self.dim_in,
        }
        if self.scales:
            data["scales"] = [str(s) for s in self.scales]
        if self.saturation != 1:
            data["saturation"] = self.saturation
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "Submersion":
        """The document's submersion, built by `submersion_from_rows`: the
        rows are checked independent and the saturation is computed."""
        rows = [[int(x) for x in row] for row in data["exponents"]]
        sub = submersion_from_rows(rows, int(data["dim_in"]), data.get("kind", "custom"))
        scales = tuple(Fraction(s) for s in data.get("scales", []))
        return Submersion(sub.map, sub.kind, scales, sub.saturation)


def submersion_from_rows(rows, ambient_dim: int | None = None, kind: str = "custom") -> Submersion:
    """Submersion from explicit exponent rows (validated independent)."""
    mono = MonomialMap.from_rows(rows, ambient_dim)
    u = mono.exponents
    if u.rows and u.rank() != u.rows:
        raise GeometryError("submersion exponent rows must be linearly independent")
    sat = saturation_index(LatticeBasis(u.cols, u.entries)) if u.rows else 1
    return Submersion(mono, kind, (), sat)


@dataclass(frozen=True)
class ReducedSystem:
    """A pair (psi, pi) with pi o phi = psi o pi, known from the lattice
    rewrite that built psi (and, when chained, the projection witness).

    source is phi, the map that was reduced; orbits of psi can be read
    off it as pi(phi^k(x)) for any x in the fiber over the start.
    """

    map: BirationalMap
    submersion: Submersion
    verified: bool
    source: BirationalMap | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "psi": self.map.to_strings(),
            "pi": self.submersion.to_json_dict(),
            "verified": self.verified,
        }


@dataclass(frozen=True)
class Flag:
    """Chain of submersions ordered by coarsening, with projection witnesses.

    submersions[0] has the smallest exponent lattice (largest leaves);
    projections[i] satisfies projections[i] o submersions[i+1] = submersions[i].
    """

    submersions: tuple[Submersion, ...]
    projections: tuple[MonomialMap, ...]

    def __len__(self) -> int:
        return len(self.submersions)

    def describe(self) -> str:
        parts = [
            f"{s.kind}({s.dim_out})" for s in self.submersions
        ]
        return " < ".join(parts) if len(parts) > 1 else (parts[0] if parts else "(empty)")


# ---------------------------------------------------------------------------
# Invariance checks


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of a sampled exact invariance check."""

    ok: bool
    samples: int
    witness: tuple[Fraction, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _sample_points(phi: BirationalMap, count: int, seed: int):
    """Deterministic stream of count pairs (p, (dM, d)), p random positive
    rational, M(p)_ij = p_j d_j phi_i(p) / phi_i(p) the log-Jacobian and
    d the lcm of its denominators, so that dM = d M(p) is the integer
    matrix the checks use.  Each point is one run of `maps._log_jacobian`,
    which forms (dM, d) on ints: phi's numerators and denominators,
    compiled once into term lists cleared of the point's numerators a_j
    and denominators b_j, give p_j d_j P(p) / P(p) by `laurent._terms`,
    still the package's one point kernel, with its gradient in a.  The
    pairs are generated as they are consumed.

    Substream index increments past points where phi is undefined or
    phi(p) has a zero coordinate (M does not exist there), so results are
    reproducible even when the map is undefined somewhere.
    """
    if count < 1:
        raise GeometryError("sampling needs at least one point")
    found = 0
    index = 0
    while found < count:
        if index > 100 * count + 100:
            raise GeometryError("could not sample enough well-defined points")
        p = random_positive_point(phi.dim_in, rng_substream(seed, index))
        index += 1
        try:
            scaled = _log_jacobian(phi, p)
        except ZeroDivisionError:
            continue
        if scaled is not None:
            found += 1
            yield p, scaled


def _check_congruence(phi, matrix: IntMatrix, samples, seed, poisson) -> InvarianceResult:
    """M C M^T = C (poisson) or M^T B M = B at each sampled log-Jacobian
    M, on integers as (dM) C (dM)^T = d^2 C or (dM)^T B (dM) = d^2 B; the
    witness is the first point where it fails."""
    n = matrix.rows
    if phi.dim_in != n or phi.dim_out != n:
        raise GeometryError("map and structure dimensions differ")
    for p, (m, d) in _sample_points(phi, samples, seed):
        if not _congruent(m if poisson else list(zip(*m)), matrix.entries,
                          matrix.scale(d * d).entries):
            return InvarianceResult(False, samples, p)
    return InvarianceResult(True, samples)


def check_presymplectic_invariance(
    phi: BirationalMap,
    form: PresymplecticForm,
    samples: int = 20,
    seed: int = 0,
) -> InvarianceResult:
    """Exact check of phi-invariance of the form at seeded random points.

    J(p)^T W(phi(p)) J(p) = W(p), W(x) = [b_ij/(x_i x_j)], times diag(p)
    on both sides is M^T B M = B, tested with exact rationals at points
    where phi(p) has no zero coordinate.  samples < 1 raises GeometryError.
    """
    return _check_congruence(phi, form.matrix, samples, seed, False)


def check_poisson_map(
    phi: BirationalMap,
    structure: PoissonStructure,
    samples: int = 20,
    seed: int = 0,
) -> InvarianceResult:
    """Exact check that phi preserves the Poisson tensor at seeded points.

    J(p) Pi(p) J(p)^T = Pi(phi(p)), Pi(x) = [c_ij x_i x_j], times
    diag(phi(p))^-1 on both sides is M C M^T = C, tested exactly at points
    where phi(p) has no zero coordinate.  samples < 1 raises GeometryError.
    """
    return _check_congruence(phi, structure.matrix, samples, seed, True)


# ---------------------------------------------------------------------------
# Invariant-Poisson discovery


def _pair_index(n: int):
    return list(combinations(range(n), 2))


def vectorize_skew(m: IntMatrix) -> tuple[int, ...]:
    """Upper triangle of a skew matrix, row-major."""
    if not m.is_skew_symmetric():
        raise GeometryError("vectorize_skew expects a skew-symmetric matrix")
    return tuple(m.entries[i][j] for i, j in _pair_index(m.rows))


def unvectorize_skew(vec, n: int) -> IntMatrix:
    """Inverse of vectorize_skew."""
    pairs = _pair_index(n)
    if len(vec) != len(pairs):
        raise GeometryError("vector length does not match an upper triangle")
    entries = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, vec):
        entries[i][j] = int(v)
        entries[j][i] = -int(v)
    return IntMatrix.from_rows(entries)


def _poisson_equations_at(scaled) -> list[tuple[int, ...]]:
    """Integer linear equations on c_kl expressing M C M^T = C for the
    log-Jacobian M at a point, given cleared as scaled = (dM, d).

    Row (a, b) is sum_{k<l} (M_ak M_bl - M_al M_bk) c_kl - c_ab = 0, the
    (a, b) entry of J Pi(p) J^T = Pi(phi(p)) divided by phi_a phi_b; it
    is formed on integers as the same row times d^2,
    sum_{k<l} (dM_ak dM_bl - dM_al dM_bk) c_kl - d^2 c_ab, and divided by
    the gcd of its entries.  Unknowns are ordered by _pair_index.
    """
    m, d = scaled
    pairs = _pair_index(len(m))
    rows = []
    for a, b in pairs:
        ma, mb = m[a], m[b]
        coeffs = [
            ma[k] * mb[l] - ma[l] * mb[k] - d * d * ((k, l) == (a, b)) for k, l in pairs
        ]
        g = gcd(*coeffs) or 1
        rows.append(tuple(c // g for c in coeffs))
    return rows


def _compatibility_equations(b: IntMatrix) -> list[tuple[int, ...]]:
    """Integer equations on c_kl expressing C B = 0."""
    n = b.rows
    pairs = _pair_index(n)
    index = {pair: t for t, pair in enumerate(pairs)}
    rows = []
    for i in range(n):
        for l in range(n):
            coeffs = [0] * len(pairs)
            for j in range(n):
                if j == i:
                    continue
                entry = b.entries[j][l]
                if entry == 0:
                    continue
                if i < j:
                    coeffs[index[(i, j)]] += entry
                else:
                    coeffs[index[(j, i)]] -= entry
            if any(coeffs):
                rows.append(tuple(coeffs))
    return rows


def _period_poisson_basis(b: IntMatrix, period: int) -> list[IntMatrix]:
    """Saturated integer basis of the log-canonical tensors C with C B = 0
    that the cluster map of b (mutation period `period`) preserves.

    C is carried through mu_1, ..., mu_period as a matrix of integer
    linear forms in the unknowns c_kl (k < l, ordered by _pair_index).
    Mutation at k keeps C log-canonical exactly when
    sum_l b_kl c_lj = 0 for every j != k, and row k then becomes
    c'_kj = sum_l [b_kl]_+ c_lj - c_kj (Gekhtman-Shapiro-Vainshtein,
    2003); the relabelled result must equal C.  C B = 0 implies the step
    equations, which are kept anyway, and the kernel is the whole
    compatible invariant space.
    """
    n = b.rows
    pairs = _pair_index(n)
    c = [[[0] * len(pairs) for _ in range(n)] for _ in range(n)]
    for t, (i, j) in enumerate(pairs):
        c[i][j][t], c[j][i][t] = 1, -1

    def combine(weights, j):
        total = [0] * len(pairs)
        for l, w in enumerate(weights):
            if w:
                for t, v in enumerate(c[l][j]):
                    total[t] += w * v
        return total

    equations = _compatibility_equations(b)
    current = b
    for k in range(period):
        row = current.entries[k]
        plus = [max(w, 0) for w in row]
        for j in range(n):
            if j != k:
                equations.append(combine(row, j))
                c[k][j] = [p - q for p, q in zip(combine(plus, j), c[k][j])]
                c[j][k] = [-v for v in c[k][j]]
        current = mutate_matrix(current, k + 1)
    for t, (i, j) in enumerate(pairs):
        closing = c[(i + period) % n][(j + period) % n][:]
        closing[t] -= 1
        equations.append(closing)
    kernel = kernel_lattice(IntMatrix.from_rows(equations, cols=len(pairs)))
    return [unvectorize_skew(v, n) for v in kernel.vectors]


def find_invariant_poisson(
    phi: BirationalMap,
    compatible_with: IntMatrix | None = None,
    seed: int = 0,
) -> list[IntMatrix]:
    """Saturated integer basis of the space of invariant log-canonical tensors.

    The invariance identity M C M^T = C of the log-Jacobian M(p) is
    linear in the coefficients c_kl, so each sampled point contributes
    exact linear equations, formed on integers from dM = d M(p), which
    `_sample_points` forms on ints by one `maps._log_jacobian` run per
    point (`laurent._terms` on the map's cleared term lists);
    points are added until the solution space dimension is unchanged
    for three consecutive points.  With `compatible_with` = B, the
    equations C B = 0 are the initial system; without it, every tensor
    is a solution at first.  Each point's equations then narrow the
    saturated kernel K found so far (`intlinalg._narrowed_kernel`): they
    are solved in K's coordinates, so no Hermite form sees more than
    dim K rows and earlier points are never re-eliminated.  One pass
    re-verifies the basis at 5 points of seed + 10000, as the integer
    congruence (dM) C (dM)^T = d^2 C; a point where an element fails
    narrows K by its equations, so the result passes at all 5 points.
    """
    stable_runs = 3
    n = phi.dim_in
    if phi.dim_out != n:
        raise GeometryError("invariant structures require a self-map")
    if compatible_with is not None and (compatible_with.rows, compatible_with.cols) != (n, n):
        raise GeometryError("compatibility matrix dimension differs from the map")
    n_unknowns = n * (n - 1) // 2
    max_points = n_unknowns + stable_runs + 3

    initial = [] if compatible_with is None else _compatibility_equations(compatible_with)
    basis = kernel_lattice(IntMatrix.from_rows(initial, cols=n_unknowns))
    dims = []
    for _, scaled in _sample_points(phi, max_points, seed) if basis.dim else ():
        basis = _narrowed_kernel(basis, _poisson_equations_at(scaled))
        dims.append(basis.dim)
        if basis.dim == 0 or (len(dims) >= stable_runs and len(set(dims[-stable_runs:])) == 1):
            break

    # Re-verification in one pass over 5 points of another seed: a point
    # where a basis element fails narrows the kernel by its equations.
    candidates = [unvectorize_skew(v, n) for v in basis.vectors]
    for _, (m, d) in _sample_points(phi, 5, seed + 10_000) if basis.dim else ():
        if any(not _congruent(m, c.entries, c.scale(d * d).entries) for c in candidates):
            basis = _narrowed_kernel(basis, _poisson_equations_at((m, d)))
            candidates = [unvectorize_skew(v, n) for v in basis.vectors]
    return candidates


# ---------------------------------------------------------------------------
# Submersion builders


def null_submersion(form: PresymplecticForm) -> Submersion:
    """Monomial submersion whose fibers are the null leaves of the form.

    Exponent rows are a Darboux-paired saturated basis of the image
    lattice of B; the recorded scales lambda_m express the pushed-down
    form as sum lambda_m dy_{2m-1}/y_{2m-1} ^ dy_{2m}/y_{2m}.  A rank-0
    form yields the trivial submersion (one leaf, the whole space); a
    full-rank form yields a local diffeomorphism rather than a genuine
    reduction, visible via is_local_diffeo.
    """
    d: DarbouxBasis = darboux_basis(form.matrix)
    mono = MonomialMap.from_rows(d.vectors, form.dim)
    return Submersion(mono, "null", d.scales, 1)


def casimir_submersion(structure: PoissonStructure) -> Submersion:
    """Monomial submersion by a maximal independent set of monomial Casimirs.

    Exponent rows are a saturated basis of ker C.  That each component x^u
    is a Casimir is the integer identity C U^T = 0 (U the exponent rows),
    equivalent to {x^u, x_j} = x^u x_j (u^T C)_j = 0 for every coordinate
    x_j; it holds by construction, as the rows are exact integer solutions
    of C u = 0 from ``kernel_lattice``.
    """
    kernel = structure.kernel()
    if kernel.dim == 0:
        raise GeometryError(
            "Poisson structure has trivial kernel; there are no Casimirs to reduce along"
        )
    mono = MonomialMap.from_rows(kernel.vectors, structure.dim)
    return Submersion(mono, "casimir", (), 1)


# ---------------------------------------------------------------------------
# Fiber-coordinate rewriting and reduction


def rewrite_in_fiber_coordinates(f: RationalFunction, sub: Submersion) -> RationalFunction:
    """Express f as a rational function of the submersion components.

    Shifting numerator and denominator by a common monomial, every
    exponent must land in the submersion's row lattice; each lattice
    membership is solved exactly, and the solution exponents assemble
    the expression in the y variables.  Raises NotFiberConstantError
    when f genuinely varies along a fiber.
    """
    n = sub.dim_in
    if f.nvars != n:
        raise GeometryError("function and submersion dimensions differ")
    basis = sub.lattice()
    r = sub.dim_out
    e0 = f.num.leading_exponent()
    new_num: dict[tuple[int, ...], Fraction] = {}
    new_den: dict[tuple[int, ...], Fraction] = {}
    for source, target in ((f.num, new_num), (f.den, new_den)):
        for exp, coeff in source.terms.items():
            delta = tuple(e - b for e, b in zip(exp, e0))
            sol = solve_in_lattice(basis, delta)
            if sol is None:
                raise NotFiberConstantError(
                    "not constant on fibers: monomial exponent "
                    f"{exp} is not reachable from the reference exponent inside the lattice"
                )
            # U^T sol = delta, so distinct exponents get distinct sol
            target[sol] = coeff
    return RationalFunction(LaurentPoly._raw(r, new_num), LaurentPoly._raw(r, new_den))


def derive_reduced_map(phi: BirationalMap, sub: Submersion) -> ReducedSystem:
    """The reduced map psi with pi o phi = psi o pi, by construction.

    Each component y_i o phi is rewritten in fiber coordinates; failure
    of any component means phi does not descend through pi.  The rewrite
    keeps every coefficient and sends each shifted exponent delta to the
    unique sol with U^T sol = delta, so psi_i o pi = (pi o phi)_i holds
    as an identity of rational functions.
    """
    n = sub.dim_in
    if phi.dim_in != n or phi.dim_out != n:
        raise GeometryError("map and submersion dimensions differ")
    pulled = sub.map.after(phi)
    comps = []
    for i, g in enumerate(pulled.components):
        try:
            comps.append(rewrite_in_fiber_coordinates(g, sub))
        except NotFiberConstantError as exc:
            raise NotReducibleError(
                f"component {i + 1} of pi o phi is not fiber-constant: {exc}"
            ) from exc
    return ReducedSystem(BirationalMap(sub.dim_out, comps), sub, True, phi)


def check_subfoliation(pi1: Submersion, pi2: Submersion) -> MonomialMap | None:
    """The monomial projection p with p o pi2 = pi1, or None.

    Exists exactly when the exponent lattice of pi1 is contained in the
    exponent lattice of pi2 (pi1's leaves are unions of pi2's leaves).
    Row i of p is the exact integer solution of u_i = sum_j p_ij v_j over
    pi2's rows v_j, so p o pi2 = pi1 holds by construction.
    """
    if pi1.dim_in != pi2.dim_in:
        raise GeometryError("submersions live on different spaces")
    basis = pi2.lattice()
    rows = []
    for u in pi1.map.exponents.entries:
        sol = solve_in_lattice(basis, u)
        if sol is None:
            return None
        rows.append(sol)
    return MonomialMap.from_rows(rows, pi2.dim_out)


def maximal_flag(subs: list[Submersion]) -> tuple[Flag, list[Submersion]]:
    """The flag over a longest chain in the subfoliation order, plus the
    members left out.

    Foliations form a poset under lattice inclusion, not always a chain.
    Only pairs of strictly increasing target dimension are linked, each by
    its projection witness, so "<" in a flag always means strictly coarser
    (saturated lattices of equal rank are nested only when equal).  Of
    equally long chains the first in target-dimension order is taken; the
    members left out keep that order.
    """
    order = sorted(range(len(subs)), key=lambda i: subs[i].dim_out)
    finer: dict[int, list[int]] = {i: [] for i in order}
    witness: dict[tuple[int, int], MonomialMap] = {}
    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1 :]:
            if subs[j].dim_out > subs[i].dim_out:
                p = check_subfoliation(subs[i], subs[j])
                if p is not None:
                    finer[i].append(j)
                    witness[i, j] = p
    best: dict[int, list[int]] = {}

    def longest_from(i: int) -> list[int]:
        if i not in best:
            tails = [longest_from(j) for j in finer[i]]
            tail = max(tails, key=len, default=[])
            best[i] = [i] + tail
        return best[i]

    chain_idx = max((longest_from(i) for i in order), key=len, default=[])
    flag = Flag(tuple(subs[i] for i in chain_idx),
                tuple(witness[link] for link in zip(chain_idx, chain_idx[1:])))
    omitted = [subs[i] for i in order if i not in chain_idx]
    return flag, omitted


def build_flag(submersions) -> Flag:
    """Order submersions into a flag of coarsening foliations: the chain of
    ``maximal_flag``, which must take every member, else NotAChainError
    names the members left out.
    """
    flag, omitted = maximal_flag(list(submersions))
    if omitted:
        names = ", ".join(f"{s.kind}({s.dim_out})" for s in omitted)
        raise NotAChainError(
            f"left out of the longest chain {flag.describe()}: {names}; a flag "
            "needs nested exponent lattices of strictly increasing dimension"
        )
    return flag


def chained_reduction(
    outer: ReducedSystem, inner: ReducedSystem, p: MonomialMap
) -> ReducedSystem:
    """Certify (psi_outer, p) as a reduced system of psi_inner.

    Requires that both systems reduce the same map phi and the integer
    witness p o pi_inner = pi_outer.  Then p o psi_inner o pi_inner =
    pi_outer o phi = psi_outer o p o pi_inner, and the dominant monomial
    map pi_inner cancels, so p o psi_inner = psi_outer o p.
    """
    if outer.source is None or outer.source != inner.source:
        raise GeometryError("the two systems do not reduce the same map")
    if p.after_monomial(inner.submersion.map).exponents != outer.submersion.map.exponents:
        raise GeometryError("projection does not relate the two submersions")
    sub = submersion_from_rows(p.exponents.entries, p.dim_in, kind="projection")
    return ReducedSystem(outer.map, sub, True, inner.map)


def check_isotropy(form: PresymplecticForm, sub: Submersion) -> bool:
    """Whether the fibers of the submersion are isotropic for the form.

    The tangent space of a fiber at p is spanned by the vectors (k_j p_j)_j
    with k a row of K, the kernel of the exponent matrix.  With
    W_ij = b_ij/(p_i p_j) the point cancels from every pairing, so the
    fibers are isotropic exactly when the integer identity K B K^T = 0
    holds; it is checked on integers, at no point.
    """
    if form.dim != sub.dim_in:
        raise GeometryError("form and submersion dimensions differ")
    k = kernel_lattice(sub.map.exponents).vectors
    return _congruent(k, form.matrix.entries, [[0] * len(k)] * len(k))
