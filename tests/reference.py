"""Reference forms the tests check the package against, which the package
itself never needs: a monomial map as a birational map, a Darboux basis
summed back into its skew form, the pointwise matrices of log-canonical
structures, the polynomial test of a Laurent polynomial, the residue
screen's orbit and labels computed term by term, with one inversion per
coordinate and denominator, a longest chain of submersions found by
trying every subset, and the digests of a sampled log-Jacobian stream
and of a pipeline report."""

import hashlib
import json
from fractions import Fraction
from functools import cache
from itertools import combinations

from cluster_reduce import (BirationalMap, IntMatrix, check_subfoliation, cluster_map,
                            detect_period, fordy_marsh, get_fixture)
from cluster_reduce.cli import WorkflowConfig, run_pipeline
from cluster_reduce.dynamics import _residues
from cluster_reduce.geometry import _sample_points
from cluster_reduce.laurent import _sparse


def as_birational(m) -> BirationalMap:
    """The `MonomialMap` m as a `BirationalMap` of its monomial components."""
    return BirationalMap(m.dim_in, m.components())


def longest_chain(subs) -> tuple:
    """The first subset of most members, in order of target dimension, whose
    consecutive members have strictly increasing target dimensions and a
    projection witness; () for no submersions."""
    ordered = sorted(subs, key=lambda s: s.dim_out)
    for size in range(len(ordered), 0, -1):
        for chain in combinations(ordered, size):
            if all(a.dim_out < b.dim_out and check_subfoliation(a, b) is not None
                   for a, b in zip(chain, chain[1:])):
                return chain
    return ()


def reconstruct(d) -> IntMatrix:
    """sum_m lam_m (u v^T - v u^T) over the pairs of the `DarbouxBasis` d;
    raises ArithmeticError on an entry that is not an integer."""
    n = d.ambient_dim
    acc = [[Fraction(0)] * n for _ in range(n)]
    for m, lam in enumerate(d.scales):
        u, v = d.vectors[2 * m], d.vectors[2 * m + 1]
        for i in range(n):
            for j in range(n):
                acc[i][j] += lam * (u[i] * v[j] - v[i] * u[j])
    if any(x.denominator != 1 for row in acc for x in row):
        raise ArithmeticError("Darboux reconstruction produced a non-integer entry")
    return IntMatrix(n, n, tuple(tuple(int(x) for x in row) for row in acc))


def coefficients_at(form, point) -> list[list[Fraction]]:
    """The matrix [b_ij / (x_i x_j)] of the `PresymplecticForm` form at point."""
    b = form.matrix.entries
    return [[Fraction(b[i][j]) / (point[i] * point[j]) for j in range(form.dim)]
            for i in range(form.dim)]


def tensor_at(structure, point) -> list[list[Fraction]]:
    """The matrix [c_ij x_i x_j] of the `PoissonStructure` structure at point."""
    c = structure.matrix.entries
    return [[Fraction(c[i][j]) * point[i] * point[j] for j in range(structure.dim)]
            for i in range(structure.dim)]


def is_polynomial(p) -> bool:
    """Whether the `LaurentPoly` p has no negative exponent."""
    return all(all(x >= 0 for x in e) for e in p.terms)


def _monomial_mod(coeff: int, mono, x, inv, p: int) -> int:
    for i, k in mono:
        if k == 1:
            coeff *= x[i]
        elif k == -1:
            coeff *= inv[i]
        else:
            coeff *= pow(x[i], k, p) if k > 0 else pow(inv[i], -k, p)
    return coeff % p


def residue_orbit(phi, x0, steps: int, p: int, section=None):
    """`dynamics._residue_orbit` by a loop over phi compiled mod p: each
    point inverted coordinate by coordinate, each denominator by its own
    pow; section is a `MonomialMap` or None."""
    num = _residues(p)
    compiled = phi._compiled(num)
    x = [num.convert(v) for v in x0]
    if compiled is None or not all(x):
        return None
    if section is not None:
        inv = [pow(v, -1, p) for v in x]
        x = [_monomial_mod(1, _sparse(row), x, inv, p) for row in section.exponents.entries]
    points, inverses = [tuple(x)], []
    for _ in range(steps):
        inv = [pow(v, -1, p) for v in x]
        inverses.append(inv)
        image = []
        for comp in compiled.components:
            if isinstance(comp, int):
                image.append(x[comp])
                continue
            terms, den = comp
            v = sum(_monomial_mod(c, mono, x, inv, p) for c, mono in terms)
            if den is not None:
                d = sum(_monomial_mod(c, mono, x, inv, p) for c, mono in den) % p
                if d == 0:
                    return None
                v *= pow(d, -1, p)
            v %= p
            if v == 0:
                return None
            image.append(v)
        x = image
        points.append(tuple(x))
    inverses.append([pow(v, -1, p) for v in x])
    return points, inverses


def label_residues(pi, p: int, points, inverses) -> list[tuple]:
    """`dynamics._LiftedOrbit.label_residues` on (p, points, inverses):
    the rows of the `MonomialMap` pi mod p, monomial by monomial."""
    rows = [_sparse(row) for row in pi.exponents.entries]
    return [tuple(_monomial_mod(1, mono, x, inv, p) for mono in rows)
            for x, inv in zip(points, inverses)]


def ladder_matrices() -> dict:
    """The exchange matrices of the seven ladder quivers, by rung name."""
    matrices = {name: get_fixture(name).matrix("B")
                for name in ("somos5", "c7-pair", "somos5-2periodic")}
    for row in [(1, -1, 0, -1, 1), (1, -1, 0, 0, -1, 1), (1, -1, 0, 0, 0, -1, 1),
                (1, 0, -1, 0, 0, -1, 0, 1)]:
        matrices[f"fm-n{len(row) + 1}"] = fordy_marsh(row)
    return matrices


@cache
def sample_digest_maps() -> dict:
    """The maps of `tests/data/sample-digests.json`: the cluster maps of the
    seven ladder quivers and a user map with `Fraction` coefficients, a
    non-monomial denominator and a negative exponent, built once."""
    maps = {name: cluster_map(b, detect_period(b)) for name, b in ladder_matrices().items()}
    maps["user"] = BirationalMap.from_strings(
        ["x2", "x3", "(3/2*x2*x3 - 5*x1^-1)/(x1 + 2/3*x2)"])
    return maps


def sample_digest(phi, seed: int) -> dict:
    """The count and SHA-256 of the stream of `geometry._sample_points(phi,
    20, seed)`, hashed as the repr of [(p's (numerator, denominator)
    pairs, dM, d), ...] in stream order."""
    stream = [([(v.numerator, v.denominator) for v in p], m, d)
              for p, (m, d) in _sample_points(phi, 20, seed)]
    return {"points": len(stream), "sha256": hashlib.sha256(repr(stream).encode()).hexdigest()}


def report_digest(matrix, seed: int, require_compatible: bool) -> dict:
    """The SHA-256s of `run_pipeline(matrix, WorkflowConfig(seed=seed,
    require_compatible=require_compatible))`: of its `to_json_dict()` as
    JSON with sorted keys, and of its `render_text()`."""
    report = run_pipeline(matrix, WorkflowConfig(seed=seed, require_compatible=require_compatible))
    doc = json.dumps(report.to_json_dict(), sort_keys=True)
    return {"json": hashlib.sha256(doc.encode()).hexdigest(),
            "text": hashlib.sha256(report.render_text().encode()).hexdigest()}
