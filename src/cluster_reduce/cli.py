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
from fractions import Fraction

import mpmath as mp

from .dynamics import (
    DEFAULT_PRECISION,
    DynamicsError,
    detect_global_periodicity,
    iterate_orbit,
    leaf_itinerary,
)
from .fixtures import all_fixtures, get_fixture
from .geometry import (
    GeometryError,
    NotAChainError,
    NotReducibleError,
    PoissonStructure,
    PresymplecticForm,
    Submersion,
    build_flag,
    casimir_submersion,
    check_poisson_map,
    check_presymplectic_invariance,
    derive_reduced_map,
    find_invariant_poisson,
    null_submersion,
    submersion_from_rows,
)
from .intlinalg import IntMatrix
from .maps import BirationalMap
from .pipeline import AnalysisReport, InputError, WorkflowConfig, run_pipeline
from .quiver import cluster_map, detect_period

__all__ = ["main", "run_pipeline", "WorkflowConfig", "AnalysisReport"]


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


def _load_structure(path: str, n: int) -> IntMatrix:
    """The n x n skew-symmetric matrix in path; InputError (exit 3) otherwise."""
    matrix = _load_matrix(path)
    if (matrix.rows, matrix.cols) != (n, n) or not matrix.is_skew_symmetric():
        raise InputError(f"structure {path} is not a skew-symmetric {n} x {n} matrix")
    return matrix


def _load_map(path: str) -> BirationalMap:
    """The self-map in path (every map subcommand needs one); InputError otherwise."""
    data = _read_json(path)
    load = BirationalMap.from_strings if isinstance(data, list) else BirationalMap.from_json_dict
    try:
        f = load(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid map file: {exc}") from exc
    if f.dim_out != f.dim_in:
        raise InputError(f"{path} maps {f.dim_in} coordinates to {f.dim_out}, not a self-map")
    return f


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


def _point_json(point, mode: str, precision: int):
    if mode == "float":
        with mp.workdps(precision):
            return [mp.nstr(v, precision) for v in point]
    return [str(v) for v in point]


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
        m_max = _positive(args.max_m, "--max-m")
        cert = detect_period(b, m_max)
        doc = {
            "schema": "v1",
            "input": "matrix",
            "m_max": m_max,
            "period": cert.period if cert else None,
        }
        _emit(doc, args.out)
        return 0
    f = _load_map(args.map)
    samples = _positive(args.samples, "--samples")
    p_max = _positive(args.max_p, "--max-p")
    report = detect_global_periodicity(f, p_max, samples, args.seed)
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
    m_max = _positive(args.max_m, "--max-m")
    cert = detect_period(b, m_max)
    if cert is None:
        print(f"no mutation period up to {m_max}", file=sys.stderr)
        return 2
    phi = cluster_map(b, cert)
    doc = phi.to_json_dict()
    doc["period"] = cert.period
    _emit(doc, args.out, f"period {cert.period}, map of dimension {phi.dim_in}")
    return 0


def _cmd_find_poisson(args) -> int:
    phi = _load_map(args.map)
    compat = _load_matrix(args.compatible) if args.compatible else None
    if compat is not None and (compat.rows, compat.cols) != (phi.dim_in, phi.dim_in):
        raise InputError(
            f"compatibility matrix is {compat.rows} x {compat.cols} but the map "
            f"has {phi.dim_in} coordinates"
        )
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
        sub = _build_submersion(_load_structure(args.structure, phi.dim_in), args.kind)
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
    n = _load_matrix(args.structures[0]).rows
    subs = [
        _build_submersion(_load_structure(path, n), kind.strip())
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
    matrix = _load_structure(args.structure, phi.dim_in)
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
        doc["witness"] = [str(v) for v in result.witness]
    _emit(doc, args.out)
    return 0 if result.ok else 2


def _cmd_orbit(args) -> int:
    phi = _load_map(args.map)
    start = _parse_start(args.start, phi.dim_in)
    steps = _positive(args.steps, "--steps")
    precision = _resolve_precision(args.precision)
    orbit = iterate_orbit(phi, start, steps, args.mode, precision)
    doc = {
        "schema": "v1",
        "mode": orbit.mode,
        "steps": steps,
        "points": [_point_json(p, orbit.mode, precision) for p in orbit.points],
    }
    if orbit.mode == "float":
        doc["precision"] = precision
    _emit(doc, args.out)
    return 0


def _cmd_itinerary(args) -> int:
    phi = _load_map(args.map)
    subs = [_load_submersion(p) for p in args.submersions]
    for path, sub in zip(args.submersions, subs):
        if sub.dim_in != phi.dim_in:
            raise InputError(
                f"submersion {path} lives on {sub.dim_in} coordinates but the "
                f"map has {phi.dim_in}"
            )
    start = _parse_start(args.start, phi.dim_in)
    steps = _positive(args.steps, "--steps")
    precision = _resolve_precision(args.precision)
    itin = leaf_itinerary(phi, subs, start, steps, args.mode, precision)
    doc = {
        "schema": "v1",
        "mode": args.mode,
        "steps": steps,
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


def _cmd_pipeline(args) -> int:
    matrix = _load_matrix(args.matrix)
    config = WorkflowConfig(
        seed=args.seed,
        m_max=args.max_m,
        p_max=args.max_p,
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
