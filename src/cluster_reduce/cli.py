"""Command-line front end.

JSON-first: every subcommand writes a JSON document to stdout (or to
--out when given, with a short text summary on stdout instead).  Exit
codes: 0 success, 2 a verification or derivation failed, 3 bad input.

The float precision used by numeric subcommands defaults to 64 decimal
digits and can be overridden with --precision or the environment
variable CLUSTER_REDUCE_PRECISION.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import mpmath as mp

from .dynamics import (
    DEFAULT_PRECISION,
    DynamicsError,
    detect_global_periodicity,
    find_periodic_points,
    iterate_orbit,
    leaf_itinerary,
    no_periodic_points_scan,
)
from .fixtures import all_fixtures, get_fixture
from .geometry import (
    GeometryError,
    NotAChainError,
    NotReducibleError,
    PoissonStructure,
    PresymplecticForm,
    ReducedSystem,
    Submersion,
    build_flag,
    casimir_submersion,
    chained_reduction,
    check_poisson_map,
    check_presymplectic_invariance,
    check_subfoliation,
    derive_reduced_map,
    find_invariant_poisson,
    null_submersion,
    submersion_from_rows,
)
from .intlinalg import IntMatrix, hermite_normal_form, kernel_lattice
from .maps import BirationalMap, random_positive_point, rng_substream
from .quiver import cluster_map, detect_period

__all__ = ["main", "run_pipeline", "WorkflowConfig", "AnalysisReport"]


class InputError(ValueError):
    """Unreadable or malformed command input."""


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(path: str) -> IntMatrix:
    data = _read_json(path)
    try:
        return IntMatrix.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid matrix file: {exc}") from exc


def _load_map(path: str) -> BirationalMap:
    data = _read_json(path)
    try:
        if isinstance(data, list):
            return BirationalMap.from_strings(data)
        return BirationalMap.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid map file: {exc}") from exc


def _load_submersion(path: str) -> Submersion:
    # accepts a full submersion document or a plain exponent-row matrix
    data = _read_json(path)
    try:
        if "exponents" in data:
            return Submersion.from_json_dict(data)
        matrix = IntMatrix.from_json_dict(data)
        return submersion_from_rows(matrix.entries, matrix.cols)
    except (GeometryError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid submersion file: {exc}") from exc


def _parse_start(text: str, dim: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise InputError(f"start point has {len(parts)} coordinates, map needs {dim}")
    try:
        values = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse start point {text!r}: {exc}") from exc
    if any(v <= 0 for v in values):
        raise InputError("start point must be strictly positive")
    return values


def _emit(doc: dict, out: str | None, summary: str | None = None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if summary:
            print(summary)
        print(f"wrote {out}")
    else:
        print(text)


def _fraction_str(v: Fraction) -> str:
    return str(v)


def _point_json(point, mode: str, precision: int):
    if mode == "float":
        with mp.workdps(precision):
            return [mp.nstr(v, precision) for v in point]
    return [_fraction_str(v) for v in point]


def _positive(value, name: str) -> int:
    """value as a positive integer; InputError (exit 3) otherwise."""
    try:
        parsed = int(value)
    except ValueError:
        parsed = 0
    if parsed <= 0:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return parsed


def _resolve_precision(value: int | None) -> int:
    if value is not None:
        return _positive(value, "--precision")
    env = os.environ.get("CLUSTER_REDUCE_PRECISION")
    if env:
        return _positive(env, "CLUSTER_REDUCE_PRECISION")
    return DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_period(args) -> int:
    if bool(args.matrix) == bool(args.map):
        raise InputError("period needs exactly one of --matrix or --map")
    if args.matrix:
        b = _load_matrix(args.matrix)
        cert = detect_period(b, args.max_m)
        doc = {
            "schema": "v1",
            "input": "matrix",
            "m_max": args.max_m,
            "period": cert.period if cert else None,
        }
        _emit(doc, args.out)
        return 0
    f = _load_map(args.map)
    samples = _positive(args.samples, "--samples")
    report = detect_global_periodicity(f, args.max_p, samples, args.seed)
    doc = {
        "schema": "v1",
        "input": "map",
        "kind": report.kind,
        "period": report.period,
        "p_max": report.p_max,
        "certificate": report.certificate,
        "samples": report.samples,
    }
    if report.note:
        doc["note"] = report.note
    _emit(doc, args.out)
    return 0


def _cmd_map(args) -> int:
    b = _load_matrix(args.matrix)
    cert = detect_period(b, args.max_m)
    if cert is None:
        print(f"no mutation period up to {args.max_m}", file=sys.stderr)
        return 2
    phi = cluster_map(b, cert)
    doc = phi.to_json_dict()
    doc["period"] = cert.period
    _emit(doc, args.out, f"period {cert.period}, map of dimension {phi.dim_in}")
    return 0


def _cmd_find_poisson(args) -> int:
    phi = _load_map(args.map)
    compat = _load_matrix(args.compatible) if args.compatible else None
    basis = find_invariant_poisson(phi, compat, seed=args.seed)
    doc = {
        "schema": "v1",
        "seed": args.seed,
        "compatible": bool(compat),
        "count": len(basis),
        "basis": [m.to_json_dict() for m in basis],
    }
    _emit(doc, args.out, f"found a {len(basis)}-dimensional space of invariant structures")
    return 0


def _build_submersion(matrix: IntMatrix, kind: str) -> Submersion:
    if kind == "null":
        return null_submersion(PresymplecticForm(matrix))
    if kind == "casimir":
        return casimir_submersion(PoissonStructure(matrix))
    raise InputError(f"unknown submersion kind {kind!r}")


def _cmd_reduce(args) -> int:
    phi = _load_map(args.map)
    if bool(args.structure) == bool(args.exponents):
        raise InputError("reduce needs exactly one of --structure or --exponents")
    if args.structure:
        matrix = _load_matrix(args.structure)
        if matrix.rows != phi.dim_in:
            raise InputError(
                f"structure is {matrix.rows} x {matrix.cols} but the map has "
                f"{phi.dim_in} coordinates"
            )
        sub = _build_submersion(matrix, args.kind)
    else:
        sub = _load_submersion(args.exponents)
        if sub.dim_in != phi.dim_in:
            raise InputError(
                f"submersion lives on {sub.dim_in} coordinates but the map has "
                f"{phi.dim_in}"
            )
    system = derive_reduced_map(phi, sub)
    doc = system.to_json_dict()
    _emit(
        doc,
        args.out,
        f"reduced {phi.dim_in}-dimensional map to {sub.dim_out} dimensions (verified)",
    )
    return 0


def _cmd_flag(args) -> int:
    kinds = args.kinds.split(",") if args.kinds else []
    if kinds and len(kinds) != len(args.structures):
        raise InputError("--kinds must list one kind per structure")
    if not kinds:
        kinds = ["null"] + ["casimir"] * (len(args.structures) - 1)
    subs = [
        _build_submersion(_load_matrix(path), kind.strip())
        for path, kind in zip(args.structures, kinds)
    ]
    flag = build_flag(subs)
    doc = {
        "schema": "v1",
        "chain": flag.describe(),
        "submersions": [s.to_json_dict() for s in flag.submersions],
        "projections": [p.to_json_dict() for p in flag.projections],
    }
    _emit(doc, args.out, f"flag: {flag.describe()}")
    return 0


def _cmd_verify(args) -> int:
    phi = _load_map(args.map)
    matrix = _load_matrix(args.structure)
    if matrix.rows != phi.dim_in:
        raise InputError(
            f"structure is {matrix.rows} x {matrix.cols} but the map has "
            f"{phi.dim_in} coordinates"
        )
    samples = _positive(args.samples, "--samples")
    if args.kind == "presymplectic":
        result = check_presymplectic_invariance(
            phi, PresymplecticForm(matrix), samples, args.seed
        )
    else:
        result = check_poisson_map(phi, PoissonStructure(matrix), samples, args.seed)
    doc = {
        "schema": "v1",
        "kind": args.kind,
        "invariant": result.ok,
        "samples": result.samples,
        "seed": args.seed,
    }
    if result.witness is not None:
        doc["witness"] = [_fraction_str(v) for v in result.witness]
    _emit(doc, args.out)
    return 0 if result.ok else 2


def _cmd_orbit(args) -> int:
    phi = _load_map(args.map)
    start = _parse_start(args.start, phi.dim_in)
    precision = _resolve_precision(args.precision)
    orbit = iterate_orbit(phi, start, args.steps, args.mode, precision)
    doc = {
        "schema": "v1",
        "mode": orbit.mode,
        "steps": args.steps,
        "points": [_point_json(p, orbit.mode, precision) for p in orbit.points],
    }
    if orbit.mode == "float":
        doc["precision"] = precision
    _emit(doc, args.out)
    return 0


def _cmd_itinerary(args) -> int:
    phi = _load_map(args.map)
    subs = [_load_submersion(p) for p in args.submersions]
    start = _parse_start(args.start, phi.dim_in)
    precision = _resolve_precision(args.precision)
    itin = leaf_itinerary(phi, subs, start, args.steps, args.mode, precision)
    doc = {
        "schema": "v1",
        "mode": args.mode,
        "steps": args.steps,
        "names": list(itin.names),
        "label_periods": list(itin.periods),
        "labels": [
            [_point_json(label, args.mode, precision) for label in series]
            for series in itin.labels
        ],
    }
    _emit(doc, args.out, itin.summary())
    return 0


def _cmd_fixtures(args) -> int:
    if args.name:
        try:
            fixtures = [get_fixture(args.name)]
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    else:
        fixtures = list(all_fixtures())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        written = []
        for fix in fixtures:
            for label, matrix in fix.matrices:
                path = os.path.join(args.out, f"{fix.name}-{label}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(matrix.to_json_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                written.append(path)
            for label, matrix in fix.exponents:
                # exported as ready-to-use submersions (kind from the label)
                kind = "null" if label == "null" else "casimir"
                sub = submersion_from_rows(matrix.entries, matrix.cols, kind=kind)
                path = os.path.join(args.out, f"{fix.name}-exponents-{label}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(sub.to_json_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                written.append(path)
        for path in written:
            print(path)
        return 0
    doc = {
        "schema": "v1",
        "fixtures": [
            {
                "name": fix.name,
                "description": fix.description,
                "matrices": {label: m.to_json_dict() for label, m in fix.matrices},
                "exponents": {label: m.to_json_dict() for label, m in fix.exponents},
            }
            for fix in fixtures
        ],
    }
    _emit(doc, None)
    return 0


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class WorkflowConfig:
    """Bounds and seeds for the full analysis pipeline."""

    seed: int = 0
    m_max: int = 8
    p_max: int = 12
    samples: int = 20
    scan_samples: int = 10
    scan_p_max: int = 20
    itinerary_steps: int = 20
    precision: int = DEFAULT_PRECISION
    require_compatible: bool = True

    def __post_init__(self) -> None:
        for name in (
            "m_max",
            "p_max",
            "samples",
            "scan_samples",
            "scan_p_max",
            "itinerary_steps",
            "precision",
        ):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")


@dataclass
class AnalysisReport:
    """Collected results of the pipeline; JSON-serializable and renderable."""

    matrix: IntMatrix
    config: WorkflowConfig
    period: int | None = None
    map_components: list = field(default_factory=list)
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
                "samples": self.config.samples,
                "scan_samples": self.config.scan_samples,
                "scan_p_max": self.config.scan_p_max,
                "itinerary_steps": self.config.itinerary_steps,
                "precision": self.config.precision,
                "require_compatible": self.config.require_compatible,
            },
            "period": self.period,
            "map": self.map_components,
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
        lines.append(
            f"presymplectic form invariant: {self.presymplectic_invariant} "
            f"(rank {self.rank}, {self.config.samples} sampled points, seed {self.config.seed})"
        )
        lines.append(
            f"invariant Poisson structures discovered: {len(self.discovered)}"
            + (" (compatibility imposed)" if self.config.require_compatible else "")
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


def _structure_representatives(basis: list[IntMatrix]) -> list[IntMatrix]:
    """One degenerate representative per distinct Casimir foliation.

    A basis of a multi-dimensional space of invariant structures is
    generic: every basis vector tends to realise the minimal corank on
    the space, hiding members whose kernel is strictly larger.  Scanning
    small integer combinations stratifies the pencil by rank, and keying
    on the kernel lattice basis, which is already in Hermite form, keeps
    one representative per foliation; an empty kernel means full rank.
    """
    if not basis:
        return []
    candidates = list(basis)
    if 2 <= len(basis) <= _STRUCTURE_SEARCH_MAX:
        span = [m.entries for m in basis]
        rows, cols = basis[0].rows, basis[0].cols
        for coeffs in product(range(-3, 4), repeat=len(basis)):
            if not any(coeffs):
                continue
            entries = [
                [sum(c * span[t][i][j] for t, c in enumerate(coeffs)) for j in range(cols)]
                for i in range(rows)
            ]
            candidates.append(IntMatrix.from_rows(entries))
    by_kernel: dict[tuple, IntMatrix] = {}
    for m in candidates:
        key = kernel_lattice(m).vectors
        if key:
            by_kernel.setdefault(key, m)
    return list(by_kernel.values())


def _maximal_chain(subs: list[Submersion]) -> tuple[list[Submersion], list[Submersion]]:
    """Longest chain in the subfoliation order, plus the members left out.

    The foliations found for one map form a poset under lattice
    inclusion, not always a chain; the flag is built over a maximum
    chain and the incomparable members are reported separately.
    """
    order = sorted(range(len(subs)), key=lambda i: subs[i].dim_out)
    finer: dict[int, list[int]] = {i: [] for i in order}
    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1 :]:
            if check_subfoliation(subs[i], subs[j]) is not None:
                finer[i].append(j)
    best: dict[int, list[int]] = {}

    def longest_from(i: int) -> list[int]:
        if i not in best:
            tails = [longest_from(j) for j in finer[i]]
            tail = max(tails, key=len, default=[])
            best[i] = [i] + tail
        return best[i]

    chain_idx = max((longest_from(i) for i in order), key=len, default=[])
    chain = [subs[i] for i in chain_idx]
    omitted = [subs[i] for i in order if i not in chain_idx]
    return chain, omitted


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

    form = PresymplecticForm(matrix)
    report.rank = form.rank
    inv = check_presymplectic_invariance(phi, form, config.samples, config.seed)
    report.presymplectic_invariant = inv.ok

    try:
        basis = find_invariant_poisson(
            phi,
            matrix if config.require_compatible else None,
            seed=config.seed,
        )
    except GeometryError as exc:
        report.errors.append(["find-poisson", str(exc)])
        basis = []
    for m in basis:
        report.discovered.append(
            {
                "matrix": m.to_json_dict(),
                "rank": m.rank(),
                "kernel_dim": m.rows - m.rank(),
            }
        )

    found = []
    if 0 < form.rank < form.dim:
        found.append(null_submersion(form))
    if len(basis) > _STRUCTURE_SEARCH_MAX:
        report.notes.append(
            f"the invariant Poisson structures span dimension {len(basis)}; degenerate "
            f"combinations are searched only up to dimension {_STRUCTURE_SEARCH_MAX}, "
            "so only the basis structures were analysed"
        )
    for m in _structure_representatives(basis):
        structure = PoissonStructure(m)
        try:
            found.append(casimir_submersion(structure))
        except GeometryError as exc:
            report.errors.append(["casimir", str(exc)])
    # one foliation per exponent lattice, keyed by its Hermite form; the
    # null submersion comes first and is the one kept
    by_lattice: dict[IntMatrix, Submersion] = {}
    for sub in found:
        key, _ = hermite_normal_form(sub.map.exponents)
        kept = by_lattice.setdefault(key, sub)
        if kept is not sub:
            report.notes.append(
                f"the {sub.kind}({sub.dim_out}) and {kept.kind}({kept.dim_out}) "
                "foliations have the same exponent lattice and were analysed once"
            )
    submersions = list(by_lattice.values())

    flag = None
    omitted: list[Submersion] = []
    if not submersions:
        report.notes.append(
            "no nontrivial invariant foliation found: the map admits no reduction"
        )
    if submersions:
        chain, omitted = _maximal_chain(submersions)
        try:
            flag = build_flag(chain)
            report.flag_chain = flag.describe()
        except NotAChainError as exc:
            report.errors.append(["flag", str(exc)])
            flag = None
        for sub in omitted:
            report.notes.append(
                f"a {sub.kind}({sub.dim_out}) foliation is incomparable with "
                "the flag and was analysed separately"
            )

    in_chain = list(flag.submersions) if flag else submersions
    ordered = in_chain + omitted
    systems: list[ReducedSystem | None] = []
    for sub in ordered:
        try:
            system = derive_reduced_map(phi, sub)
        except NotReducibleError as exc:
            report.errors.append(["reduce", str(exc)])
            systems.append(None)
            continue
        systems.append(system)
        report.reductions.append(
            {
                "kind": sub.kind,
                "exponents": sub.map.to_json_dict()["exponents"],
                "psi": system.map.to_strings(),
                "verified": system.verified,
            }
        )

    if flag:
        for i, proj in enumerate(flag.projections):
            outer, inner = systems[i], systems[i + 1]
            if outer is None or inner is None:
                continue
            try:
                chained_reduction(outer, inner, proj)
                report.chained.append(
                    {
                        "outer": f"{outer.submersion.kind}({outer.submersion.dim_out})",
                        "inner": f"{inner.submersion.kind}({inner.submersion.dim_out})",
                        "verified": True,
                    }
                )
            except GeometryError as exc:
                report.errors.append(["chain", str(exc)])

    for system in systems:
        if system is None:
            continue
        psi = system.map
        kind = system.submersion.kind
        entry = {"kind": kind, "dimension": psi.dim_in}
        try:
            period_report = detect_global_periodicity(
                system, config.p_max, min(config.samples, 10), config.seed
            )
        except DynamicsError as exc:
            report.errors.append(["dynamics", str(exc)])
            continue
        if period_report.is_periodic:
            entry["global_period"] = period_report.period
            entry["summary"] = f"globally {period_report.period}-periodic (symbolic certificate)"
        else:
            try:
                scan = no_periodic_points_scan(
                    system, config.scan_p_max, config.scan_samples, config.seed
                )
            except DynamicsError as exc:
                report.errors.append(["dynamics", str(exc)])
                continue
            entry["scan"] = {
                "period_found": scan.period_found,
                "monotone_growth": scan.monotone_growth,
                "growth_samples": scan.growth_samples,
                "samples": scan.samples,
                "p_max": scan.p_max,
            }
            if scan.period_found:
                entry["summary"] = f"sampled orbit closed at period {scan.period_found}"
            else:
                growth = "with" if scan.monotone_growth else "without uniform"
                entry["summary"] = (
                    f"no global period up to {config.p_max}; no sampled periodic "
                    f"point up to {config.scan_p_max}, {growth} monotone growth evidence"
                )
        if psi.dim_in and psi.dim_in <= 3:
            try:
                fixed = find_periodic_points(psi, 1, precision=config.precision, grid=4)
                entry["fixed_points"] = [
                    [mp.nstr(v, 30) for v in fp.point] for fp in fixed
                ]
            except DynamicsError as exc:
                report.errors.append(["fixed-points", str(exc)])
        report.dynamics.append(entry)

    if ordered:
        x0 = random_positive_point(phi.dim_in, rng_substream(config.seed, 999))
        try:
            itin = leaf_itinerary(phi, ordered, x0, config.itinerary_steps, "exact")
        except DynamicsError as exc:
            report.errors.append(["itinerary", str(exc)])
        else:
            report.itinerary = {
                "start": [str(v) for v in x0],
                "names": list(itin.names),
                "label_periods": list(itin.periods),
            }
    return report


def _cmd_pipeline(args) -> int:
    matrix = _load_matrix(args.matrix)
    config = WorkflowConfig(
        seed=args.seed,
        m_max=args.max_m,
        p_max=args.max_p,
        samples=args.samples,
        precision=_resolve_precision(args.precision),
        require_compatible=not args.no_compatible,
    )
    report = run_pipeline(matrix, config)
    _emit(report.to_json_dict(), args.out, report.render_text())
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-reduce",
        description=(
            "Exact reduction and dynamics of cluster maps: mutation "
            "periodicity, invariant presymplectic/Poisson structures, "
            "monomial submersions, reduced maps, and orbit analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", help="mutation period of a matrix, or global period of a map")
    p.add_argument("--matrix", help="exchange matrix JSON file")
    p.add_argument("--map", help="birational map JSON file")
    p.add_argument("--max-m", type=int, default=8, help="bound for mutation periods")
    p.add_argument("--max-p", type=int, default=12, help="bound for global map periods")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("map", help="build the cluster map of a mutation-periodic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("find-poisson", help="discover invariant log-canonical Poisson structures")
    p.add_argument("--map", required=True)
    p.add_argument("--compatible", help="also impose C B = 0 for this matrix B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_find_poisson)

    p = sub.add_parser("reduce", help="derive the reduced map along a submersion")
    p.add_argument("--map", required=True)
    p.add_argument("--structure", help="skew matrix file defining the foliation")
    p.add_argument(
        "--kind",
        choices=["null", "casimir"],
        default="null",
        help="with --structure: null foliation of a presymplectic matrix, "
        "or Casimir foliation of a Poisson matrix",
    )
    p.add_argument("--exponents", help="explicit exponent-row matrix file")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("flag", help="order submersions into a flag of foliations")
    p.add_argument("--structures", nargs="+", required=True)
    p.add_argument(
        "--kinds",
        help="comma-separated kinds (null|casimir) per structure; "
        "default: first null, rest casimir",
    )
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_flag)

    p = sub.add_parser("verify", help="check invariance of a structure under a map")
    p.add_argument("--map", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--kind", choices=["presymplectic", "poisson"], required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("orbit", help="iterate a map from a start point")
    p.add_argument("--map", required=True)
    p.add_argument("--start", required=True, help="comma-separated positive rationals")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("itinerary", help="leaf labels of an orbit under submersions")
    p.add_argument("--map", required=True)
    p.add_argument("--submersions", nargs="+", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_itinerary)

    p = sub.add_parser("pipeline", help="full analysis of an exchange matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--max-p", type=int, default=12)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--precision", type=int)
    p.add_argument(
        "--no-compatible",
        action="store_true",
        help="search invariant structures without imposing C B = 0",
    )
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("fixtures", help="list or export the built-in examples")
    p.add_argument("--name", help="restrict to one fixture")
    p.add_argument("--out", help="directory to write matrix JSON files into")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (NotReducibleError, NotAChainError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
