"""Reference forms the tests check the package against, which the package
itself never needs: a monomial map as a birational map, a Darboux basis
summed back into its skew form, the pointwise matrices of log-canonical
structures, the polynomial test of a Laurent polynomial, the residue
screen's orbit and labels computed term by term, with one inversion per
coordinate and denominator, a longest chain of submersions found by
trying every subset, the digests of a sampled log-Jacobian stream and
of a pipeline report, composition of rational functions in `Fraction`
arithmetic, iterates composed one step at a time, and the primitive PRS
gcd in `Fraction` arithmetic."""

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
from cluster_reduce.laurent import LaurentPoly, RationalFunction, _sparse


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


def residue_orbit(phi, x0, steps: int, p: int):
    """`dynamics._residue_orbit` by a loop over phi compiled mod p: each
    point inverted coordinate by coordinate, each denominator by its own
    pow."""
    num = _residues(p)
    compiled = phi._compiled(num)
    x = [num.convert(v) for v in x0]
    if compiled is None or not all(x):
        return None
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


def compose(f, args):
    """`RationalFunction.compose(f, args)` in `Fraction` arithmetic: a
    monomial c x^a / x^b is c times the product of the powers
    args[i]^(a_i - b_i), multiplied one at a time as normal forms;
    otherwise numerator and denominator are brought over the common
    denominator prod_i d_i^(h_i), h_i the largest exponent of x_i in
    either, and the quotient takes the constructor's normal form."""
    if len(args) != f.nvars:
        raise ValueError("wrong number of substitution arguments")
    if not args:
        raise ValueError("composition needs at least one argument")
    m = args[0].nvars
    if any(a.nvars != m for a in args):
        raise ValueError("substitution arguments live in different spaces")
    if f.num.is_monomial() and f.den.is_monomial():
        ((a, c),), (b,) = f.num.terms.items(), f.den.terms
        result = RationalFunction.constant(c, m)
        for arg, i, j in zip(args, a, b):
            if i != j:
                result = result * arg ** (i - j)
        return result
    exps = [*f.num.terms, *f.den.terms]
    high = [max(e[i] for e in exps) for i in range(f.nvars)]

    def power(i: int, k: int) -> LaurentPoly:
        # n_i^k for k >= 0, d_i^(-k) for k < 0
        return args[i].num ** k if k >= 0 else args[i].den ** -k

    def cleared(p: LaurentPoly) -> LaurentPoly:
        total = LaurentPoly(m)
        for e, c in p.terms.items():
            term = LaurentPoly.constant(c, m)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
                if high[i] > k:
                    term = term * power(i, k - high[i])
            total = total + term
        return total

    return RationalFunction(cleared(f.num), cleared(f.den))


def iterate(f, p: int):
    """The `BirationalMap` f composed with itself p times, f o f^(p-1)
    one step at a time; the identity for p = 0."""
    result = BirationalMap.identity(f.dim_in)
    for _ in range(p):
        result = f.compose(result)
    return result


def prs_gcd(f, g):
    """`laurent.poly_gcd(f, g)` by the primitive PRS on `Fraction`
    coefficients: with the common monomial factor shifted off, recurse on
    the contents one variable at a time and run a pseudo-division Euclid
    in the main variable, the last one either depends on."""
    if f.is_zero():
        return _primitive_part(g)
    if g.is_zero():
        return _primitive_part(f)
    mf, mg = f.min_exponents(), g.min_exponents()
    core = _prs_core(_shift(f, [-x for x in mf]), _shift(g, [-x for x in mg]))
    return _shift(core, [min(a, b) for a, b in zip(mf, mg)])


def _prs_core(f, g):
    n = f.nvars
    if _is_constant(f) or _is_constant(g):
        return LaurentPoly.constant(1, n)
    var = max(v for v in range(n) if _degree(f, v) > 0 or _degree(g, v) > 0)
    if _degree(f, var) == 0 or _degree(g, var) == 0:
        # one argument is free of the main variable: the gcd divides its
        # content in that variable
        free, other = (f, g) if _degree(f, var) == 0 else (g, f)
        return _prs_core(free, _content_in(other, var))
    cont_f, cont_g = _content_in(f, var), _content_in(g, var)
    a, b = _quotient(f, cont_f), _quotient(g, cont_g)
    if _degree(a, var) < _degree(b, var):
        a, b = b, a
    while True:
        r = _pseudo_remainder(a, b, var)
        if r.is_zero():
            h = b
            break
        if _degree(r, var) == 0:
            h = None
            break
        a, b = b, _primitive_part(_quotient(r, _content_in(r, var)))
    cont_gcd = prs_gcd(cont_f, cont_g)
    if h is None:
        return _primitive_part(cont_gcd)
    return _primitive_part(h) * cont_gcd


def _degree(p, var: int) -> int:
    return max((e[var] for e in p.terms), default=-1)


def _is_constant(p) -> bool:
    return all(not any(e) for e in p.terms)


def _shift(p, exp):
    """p times x^exp."""
    return LaurentPoly(p.nvars, {tuple(a + b for a, b in zip(e, exp)): c
                                 for e, c in p.terms.items()})


def _primitive_part(p):
    """p over its rational content: integer coefficients, gcd 1, lead > 0."""
    return p if p.is_zero() else p.scale(1 / p.content())


def _coefficient(p, var: int, k: int):
    """The coefficient of x_var^k in p, with a zero exponent in x_var."""
    return LaurentPoly(p.nvars, {tuple(0 if j == var else x for j, x in enumerate(e)): c
                                 for e, c in p.terms.items() if e[var] == k})


def _coefficients_in(p, var: int) -> list:
    return [_coefficient(p, var, k) for k in dict.fromkeys(e[var] for e in p.terms)]


def _content_in(p, var: int):
    coefficients = _coefficients_in(p, var)
    acc = coefficients[0]
    for q in coefficients[1:]:
        if _is_constant(acc):
            break
        acc = prs_gcd(acc, q)
    return LaurentPoly.constant(1, p.nvars) if _is_constant(acc) else acc


def _pseudo_remainder(f, g, var: int):
    """prem(f, g) in x_var: lc(g)^(df - dg + 1) f reduced modulo g."""
    dg = _degree(g, var)
    lc_g = _coefficient(g, var, dg)
    rem = f
    for k in range(_degree(f, var), dg - 1, -1):
        lead = _coefficient(rem, var, k)
        rem = rem * lc_g
        if not lead.is_zero():
            rem = rem - _shift(g * lead, [k - dg if j == var else 0 for j in range(f.nvars)])
    return rem


def _quotient(f, g):
    """f / g over Q, term by term from the lexicographic leads; raises
    ArithmeticError when g does not divide f."""
    lead = max(g.terms)
    quotient, rem = LaurentPoly(f.nvars), f
    while not rem.is_zero():
        e = max(rem.terms)
        d = tuple(a - b for a, b in zip(e, lead))
        if min(d, default=0) < 0:
            raise ArithmeticError("polynomial division is not exact")
        term = LaurentPoly(f.nvars, {d: rem.terms[e] / g.terms[lead]})
        quotient, rem = quotient + term, rem - term * g
    return quotient
