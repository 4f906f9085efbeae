"""The full analysis of an exchange matrix, stage by stage.

run_pipeline takes a skew-symmetric exchange matrix through mutation
period, cluster map, degree growth, invariant structures, foliation flag,
reduced and chained maps, per-level dynamics and a leaf itinerary, and
collects everything in an AnalysisReport.  Stage failures are recorded
in the report; the command-line front end only parses arguments and
writes the report.

Each fact is proven once.  ``geometry.maximal_flag``, the one ordering
of foliations (``build_flag`` uses it too), solves the projection witness
p o pi_inner = pi_outer of every nested pair exactly, keeps a longest
chain with those witnesses as the flag and returns the members left out,
which are reduced and reported on their own.  Both levels of a flag link
are lattice rewrites of the same cluster map, so with the witness the
chained reduction psi_outer o p = p o psi_inner follows
(``chained_reduction`` states the argument) and each link is reported
with no further check.

Fixed points are searched level by level down the flag: a level whose
coarser neighbour was searched starts Newton only on the fibers of the
flag projection over that neighbour's fixed points, as every fixed point
of the finer reduced map lies over one of them.  Its list is then
complete relative to the coarser list; the coarsest level, and levels
off the flag, run the start grid of ``find_periodic_points``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd

import mpmath as mp

from .dynamics import (
    DEFAULT_PRECISION,
    MIN_SEARCH_PRECISION,
    DynamicsError,
    detect_global_periodicity,
    find_periodic_points,
    find_periodic_points_over,
    leaf_itinerary,
    no_periodic_points_scan,
)
from .geometry import (
    GeometryError,
    NotReducibleError,
    PoissonStructure,
    PresymplecticForm,
    Submersion,
    _period_poisson_basis,
    casimir_submersion,
    derive_reduced_map,
    find_invariant_poisson,
    maximal_flag,
    null_submersion,
)
from .intlinalg import IntMatrix, hermite_normal_form, kernel_lattice
from .maps import random_positive_point, rng_substream
from .quiver import GROWTH_STEPS, cluster_map, degree_growth, detect_period, growth_class

__all__ = ["run_pipeline", "WorkflowConfig", "AnalysisReport", "InputError"]


class InputError(ValueError):
    """Unreadable or malformed input: a command argument, a file or a
    pipeline setting."""


# Fixed bounds of the orbit stages, reported under "config" with the
# settable ones: global periodicity and the scan sample PERIOD_SAMPLES and
# SCAN_SAMPLES orbits, the scan up to period SCAN_P_MAX, and the leaf
# itinerary runs ITINERARY_STEPS steps.
PERIOD_SAMPLES = 10
SCAN_SAMPLES = 10
SCAN_P_MAX = 20
ITINERARY_STEPS = 20


@dataclass(frozen=True)
class WorkflowConfig:
    """Bounds and seeds for the full analysis pipeline."""

    seed: int = 0
    m_max: int = 8
    p_max: int = 12
    precision: int = DEFAULT_PRECISION
    require_compatible: bool = True

    def __post_init__(self) -> None:
        for name in ("m_max", "p_max", "precision"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.precision < MIN_SEARCH_PRECISION:
            raise InputError(f"precision must be at least {MIN_SEARCH_PRECISION} digits")


@dataclass
class AnalysisReport:
    """Collected results of the pipeline; JSON-serializable and renderable."""

    matrix: IntMatrix
    config: WorkflowConfig
    period: int | None = None
    map_components: list = field(default_factory=list)
    growth: dict | None = None
    presymplectic_invariant: bool | None = None
    rank: int | None = None
    discovered: list = field(default_factory=list)
    flag_chain: str | None = None
    reductions: list = field(default_factory=list)
    chained: list = field(default_factory=list)
    dynamics: list = field(default_factory=list)
    itinerary: dict | None = None
    notes: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "matrix": self.matrix.to_json_dict(),
            "config": {
                "seed": self.config.seed,
                "m_max": self.config.m_max,
                "p_max": self.config.p_max,
                "samples": PERIOD_SAMPLES,
                "scan_samples": SCAN_SAMPLES,
                "scan_p_max": SCAN_P_MAX,
                "itinerary_steps": ITINERARY_STEPS,
                "precision": self.config.precision,
                "require_compatible": self.config.require_compatible,
            },
            "period": self.period,
            "map": self.map_components,
            "growth": self.growth,
            "presymplectic_invariant": self.presymplectic_invariant,
            "rank": self.rank,
            "discovered_structures": self.discovered,
            "flag": self.flag_chain,
            "reductions": self.reductions,
            "chained_reductions": self.chained,
            "dynamics": self.dynamics,
            "itinerary": self.itinerary,
            "notes": self.notes,
            "errors": self.errors,
        }

    def render_text(self) -> str:
        lines = []
        n = self.matrix.rows
        lines.append(f"exchange matrix: {n} x {n}")
        if self.period is None:
            lines.append(f"no mutation period up to m_max={self.config.m_max}")
            return "\n".join(lines)
        lines.append(f"mutation period: {self.period}")
        lines.append("cluster map: " + ", ".join(self.map_components))
        g = self.growth
        lines.append(f"degree growth: d_{GROWTH_STEPS} = {g['degrees'][-1]} "
                     f"({g['degrees_certificate']}); {g['class']}, entropy {g['entropy']} "
                     f"({g['class_certificate']})")
        lines.append(
            f"presymplectic form invariant: {self.presymplectic_invariant} "
            f"(rank {self.rank}, exact (mutation period))"
        )
        lines.append(
            f"invariant Poisson structures discovered: {len(self.discovered)} "
            + ("(compatibility imposed, exact (mutation period))"
               if self.config.require_compatible else f"(sampled, seed {self.config.seed})")
        )
        if self.flag_chain:
            lines.append(f"flag of foliations: {self.flag_chain}")
        for red in self.reductions:
            lines.append(
                f"reduction [{red['kind']}] to dimension {len(red['psi'])}: "
                + ", ".join(red["psi"])
                + ("  [verified]" if red["verified"] else "  [NOT verified]")
            )
        for dyn in self.dynamics:
            lines.append(f"dynamics [{dyn['kind']}]: {dyn['summary']}")
        if self.itinerary:
            lines.append("itinerary label periods: " + str(self.itinerary["label_periods"]))
        for message in self.notes:
            lines.append(f"note: {message}")
        for stage, message in self.errors:
            lines.append(f"stage {stage} failed: {message}")
        return "\n".join(lines)


# Degenerate combinations of the invariant structures are searched in a
# (-3..3)^k box only up to this many basis elements; 7^k grows too fast.
_STRUCTURE_SEARCH_MAX = 3


def _foliations(
    basis: list[IntMatrix], null: Submersion | None, report: AnalysisReport
) -> list[Submersion]:
    """One submersion per distinct exponent lattice: the null submersion,
    when given, first, then one Casimir submersion per degenerate member of
    the span of the invariant structures.

    A basis of a multi-dimensional space of invariant structures is
    generic: every basis vector tends to realise the minimal corank on
    the space, hiding members whose kernel is strictly larger.  Scanning
    small integer combinations stratifies the pencil by rank.  A multiple
    c v of a combination v has v's kernel, so each line through the
    origin is tried once, at its first member in ``product`` order.  Each
    member is keyed by the Hermite rows of its kernel lattice, which are
    the exponent rows of its Casimir submersion, so casimir_submersion
    runs once per distinct lattice; an empty kernel means full rank.  A
    Casimir lattice equal to the null one is noted and analysed once.
    """
    subs = [null] if null else []
    null_key = hermite_normal_form(null.map.exponents)[0].entries if null else None
    candidates = list(basis)
    if 2 <= len(basis) <= _STRUCTURE_SEARCH_MAX:
        span = [m.entries for m in basis]
        rows, cols = basis[0].rows, basis[0].cols
        lines = set()
        for coeffs in product(range(-3, 4), repeat=len(basis)):
            if not any(coeffs):
                continue
            # the primitive representative with a positive first nonzero entry
            g = gcd(*coeffs) * (1 if next(c for c in coeffs if c) > 0 else -1)
            line = tuple(c // g for c in coeffs)
            if line in lines:
                continue
            lines.add(line)
            entries = [
                [sum(c * span[t][i][j] for t, c in enumerate(coeffs)) for j in range(cols)]
                for i in range(rows)
            ]
            candidates.append(IntMatrix.from_rows(entries))
    elif len(basis) > _STRUCTURE_SEARCH_MAX:
        report.notes.append(
            f"the invariant Poisson structures span dimension {len(basis)}; degenerate "
            f"combinations are searched only up to dimension {_STRUCTURE_SEARCH_MAX}, "
            "so only the basis structures were analysed"
        )
    seen = set()
    for m in candidates:
        key = kernel_lattice(m).vectors
        if not key or key in seen:
            continue
        seen.add(key)
        if key == null_key:
            report.notes.append(
                f"the casimir({len(key)}) and null({null.dim_out}) foliations have "
                "the same exponent lattice and were analysed once"
            )
            continue
        subs.append(casimir_submersion(PoissonStructure(m)))
    return subs


def run_pipeline(matrix: IntMatrix, config: WorkflowConfig = WorkflowConfig()) -> AnalysisReport:
    """Full analysis: period, map, invariance, discovery, flag, reductions,
    chained reductions, and per-level dynamics.

    Stage failures are recorded in the report and later stages that
    remain meaningful still run.
    """
    report = AnalysisReport(matrix, config)
    cert = detect_period(matrix, config.m_max)
    if cert is None:
        return report
    report.period = cert.period
    phi = cluster_map(matrix, cert)
    report.map_components = phi.to_strings()
    degrees = degree_growth(matrix, cert)
    growth_kind, entropy = growth_class(degrees)
    report.growth = {"degrees": degrees, "degrees_certificate": "exact (tropical d-vectors)",
                     "class": growth_kind, "entropy": entropy,
                     "class_certificate": "read off d_30, d_59, d_60"}

    form = PresymplecticForm(matrix)
    rank = report.rank = form.rank
    # cluster_map accepted the certificate mu_m ... mu_1(B) = shifted B,
    # and that integer identity is phi* omega_B = omega_B (Fordy-Hone 2014)
    report.presymplectic_invariant = True

    if config.require_compatible:
        basis = _period_poisson_basis(matrix, cert.period)
    else:
        # without C B = 0 the tracked kernel is incomplete for period >= 2:
        # it misses structures that leave log-canonical form between
        # mutations and still return, so the space is sampled
        try:
            basis = find_invariant_poisson(phi, None, seed=config.seed)
        except GeometryError as exc:
            report.errors.append(["find-poisson", str(exc)])
            basis = []
    for m in basis:
        m_rank = m.rank()
        report.discovered.append(
            {"matrix": m.to_json_dict(), "rank": m_rank, "kernel_dim": m.rows - m_rank}
        )

    null = null_submersion(form) if 0 < rank < form.dim else None
    flag, omitted = maximal_flag(_foliations(basis, null, report))
    if flag:
        report.flag_chain = flag.describe()
    else:
        report.notes.append(
            "no nontrivial invariant foliation found: the map admits no reduction"
        )
    for sub in omitted:
        report.notes.append(
            f"a {sub.kind}({sub.dim_out}) foliation is incomparable with "
            "the flag and was analysed separately"
        )

    ordered = [*flag.submersions, *omitted]
    # (system, fixed points or None) of the flag level above this one, if
    # it was reduced; its fixed points are the fibers of this level's starts
    above = None
    for level, sub in enumerate(ordered):
        try:
            system = derive_reduced_map(phi, sub)
        except NotReducibleError as exc:
            report.errors.append(["reduce", str(exc)])
            above = None
            continue
        report.reductions.append(
            {
                "kind": sub.kind,
                "exponents": sub.map.to_json_dict()["exponents"],
                "psi": system.map.to_strings(),
                "verified": system.verified,
            }
        )
        if level >= len(flag):
            above = None
        elif above is not None:
            # both levels reduce phi and the flag's witness p o pi_inner =
            # pi_outer is an exact lattice solution, so p o psi_inner =
            # psi_outer o p holds with no further check
            outer = above[0].submersion
            report.chained.append(
                {
                    "outer": f"{outer.kind}({outer.dim_out})",
                    "inner": f"{sub.kind}({sub.dim_out})",
                    "verified": True,
                }
            )

        psi = system.map
        entry = {"kind": sub.kind, "dimension": psi.dim_in}
        period_report = detect_global_periodicity(system, config.p_max, PERIOD_SAMPLES, config.seed)
        if period_report.is_periodic:
            entry["global_period"] = period_report.period
            entry["summary"] = f"globally {period_report.period}-periodic (symbolic certificate)"
        else:
            try:
                scan = no_periodic_points_scan(
                    system, SCAN_P_MAX, SCAN_SAMPLES, config.seed
                )
            except DynamicsError as exc:
                report.errors.append(["dynamics", str(exc)])
                above = (system, None)
                continue
            entry["scan"] = {
                "period_found": scan.period_found,
                "samples": scan.samples,
                "p_max": scan.p_max,
            }
            if scan.period_found:
                entry["summary"] = f"sampled orbit closed at period {scan.period_found}"
            else:
                entry["summary"] = (f"no global period up to {config.p_max}; "
                                    f"no sampled periodic point up to {SCAN_P_MAX}")
        fixed = None
        if psi.dim_in and psi.dim_in <= 3:
            try:
                if above is not None and above[1] is not None:
                    base = [fp.point for fp in above[1]]
                    fixed = find_periodic_points_over(psi, 1, flag.projections[level - 1], base,
                                                      precision=config.precision, grid=4)
                else:
                    fixed = find_periodic_points(psi, 1, precision=config.precision, grid=4)
                entry["fixed_points"] = [
                    [mp.nstr(v, 30) for v in fp.point] for fp in fixed
                ]
            except DynamicsError as exc:
                report.errors.append(["fixed-points", str(exc)])
        report.dynamics.append(entry)
        above = (system, fixed)

    if ordered:
        x0 = random_positive_point(phi.dim_in, rng_substream(config.seed, 999))
        try:
            itin = leaf_itinerary(phi, ordered, x0, ITINERARY_STEPS, "exact")
        except DynamicsError as exc:
            report.errors.append(["itinerary", str(exc)])
        else:
            report.itinerary = {
                "start": [str(v) for v in x0],
                "names": list(itin.names),
                "label_periods": list(itin.periods),
            }
    return report
