"""Birational and monomial maps built on exact rational function arithmetic.

A `BirationalMap` is a tuple of rational functions of the source
coordinates; composition and iteration are symbolic.  A `MonomialMap` is
the special case x -> x^U for an integer exponent matrix U, which is how
submersions onto leaf spaces are represented: row i of U is the exponent
vector of the monomial y_i.

Points are evaluated by one kernel in every number type (`_Numbers`): a
map is compiled once per coefficient type into sparse term lists, cached
on the map, and `_step` runs `laurent._terms` on them.  Jacobians are
exact values of the quotient rule on the compiled terms, with gradients
carried forward term by term; no symbolic derivative is formed.  A
compiled map that has run `_HOT_STEPS` steps is hot, and from then on
runs one generated straight-line function per Jacobian flag, built once
(forward-mode differentiation emitted as source, Griewank & Walther,
Evaluating Derivatives, SIAM 2008; compiled only when hot, as in
Deutsch & Schiffman, POPL 1984).  It makes the interpreter's operations
in the interpreter's order, so its results are the interpreter's bit
for bit, and `_terms` stays the reference.  For mpf that step is
written as the calls of mpmath's libmpf layer (Johansson et al.,
mpmath) that the mpf operators make (`_LIBMPF`), on raw ``_mpf_``
values at the working precision, without the objects; the Newton solver
of `dynamics` computes on the same raw values (`_RAW`), each number
type supplying its arithmetic (`_Arithmetic`).  Once a map is hot its
Newton runs are generated code too, spelled the same way (`_Spelling`):
f^p(x) - x, J(f^p) - I and the pivoted LU solve, straight-line, on the
map's generated steps (`dynamics._newton_kernel`), with the bits of
their references.

The integer log-Jacobian d M(p), M(p)_ij = p_j d_j f_i(p) / f_i(p), that
`geometry` samples at rational points p_j = a_j / b_j is formed on
Python ints (`_log_jacobian`): each numerator and denominator P is
compiled once, cached on the map, into the term list of an integer
polynomial N(a, b) with non-negative exponents (`_clear`), and one
`_terms` run with its gradient gives p_j d_j P(p) / P(p) =
(a_j dN/da_j + lo_j N) / N; a monomial's are constants, kept from
compilation.  A sampled map never gets hot, so this has no generated
step; `BirationalMap.jacobian` keeps the quotient rule.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce
from itertools import count
from math import gcd, lcm

import mpmath as mp
from mpmath.libmp import (MPZ_ONE, fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le,
                          mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow_int, mpf_sub,
                          mpf_sum, round_nearest)

from .intlinalg import IntMatrix, LatticeBasis
from .laurent import RationalFunction, format_rational, parse_rational
from .laurent import _sparse, _terms, _to_mpf

__all__ = [
    "PositivePoint",
    "random_positive_point",
    "rng_substream",
    "BirationalMap",
    "MonomialMap",
]


PositivePoint = tuple[Fraction, ...]


def rng_substream(seed, index: int) -> random.Random:
    """Deterministic per-sample generator; independent of call order."""
    return random.Random(f"{seed}:{index}")


def random_positive_point(nvars: int, rng: random.Random) -> PositivePoint:
    """Random positive rational with numerator and denominator in 1..1000."""
    return tuple(
        Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(nvars)
    )


# The operations of the Newton solver of `dynamics` on a number type's
# values: max is the first largest, as `max`, and eps the unit roundoff.
_Arithmetic = namedtuple("_Arithmetic", "add sub mul div neg abs lt le gt max abs_sum eps")
# The operators, the arithmetic of a number type that names no other:
# exact, or rounded at the type's own precision with no extra bits (eps
# is the float one).
_OPERATORS = _Arithmetic(operator.add, operator.sub, operator.mul, operator.truediv,
                         operator.neg, abs, operator.lt, operator.le, operator.gt, max,
                         lambda xs: sum(map(abs, xs)), 2.0**-52)


@cache
def _libmpf(prec: int) -> _Arithmetic:
    """libmpf on raw mpf values, each rounded to nearest at prec bits as
    the mpf operators round at that working precision; abs_sum is
    ``mpmath.fsum(absolute=True)`` and eps ``mpmath.eps``."""
    rnd = round_nearest
    return _Arithmetic(
        lambda a, b: mpf_add(a, b, prec, rnd), lambda a, b: mpf_sub(a, b, prec, rnd),
        lambda a, b: mpf_mul(a, b, prec, rnd), lambda a, b: mpf_div(a, b, prec, rnd),
        lambda a: mpf_neg(a, prec, rnd), lambda a: mpf_abs(a, prec, rnd),
        mpf_lt, mpf_le, mpf_gt, lambda xs: reduce(lambda m, v: v if mpf_gt(v, m) else m, xs),
        lambda xs: mpf_sum(xs, prec, rnd, True), (0, MPZ_ONE, 1 - prec, 1))


@dataclass(frozen=True)
class _Numbers:
    """A number type of the kernel: zero, one, convert (a coefficient or
    coordinate into the type) and key(), the cache entry of coefficients so
    converted; the mpf key holds the working precision, so 1/3 rounded at
    64 digits is never reused at 128.  The Newton solver of `dynamics`
    runs on arithmetic(extra), the type's `_Arithmetic` at extra more
    bits."""

    zero: object
    one: object
    convert: Callable
    key: Callable
    arithmetic: Callable = lambda extra: _OPERATORS


_EXACT = _Numbers(Fraction(0), Fraction(1), Fraction, lambda: "exact")
# mpf objects, which the interpreter steps; `dynamics._lu_solve` and the
# Newton runs convert them to `_RAW` values
_MPF = _Numbers(mp.mp.zero, mp.mp.one, _to_mpf, lambda: ("mpf", mp.mp.prec))
# mpf values as libmpf's raw tuples (``mpf._mpf_``), which generated steps
# and Newton compute on; `_MPF`'s compiled form, of mpf objects, is theirs
_RAW = replace(_MPF, zero=fzero, one=fone, arithmetic=lambda extra: _libmpf(mp.mp.prec + extra))


def _raw(values) -> list:
    return [v._mpf_ for v in values]


def _boxed(values) -> list:
    return [mp.make_mpf(v) for v in values]


# A compiled map is interpreted until this many steps, then runs one
# generated function per Jacobian flag.  For the somos5 Casimir-reduced
# map (3 variables) building the step takes, without and with the
# Jacobian, 0.35 and 0.7 ms in floats, the time of about 50 and 40
# interpreted float steps (7 and 16 us each; 1.1 and 2.5 us generated),
# and 0.55 and 1.3 ms in mpf at 64 digits, about 13 and 10 interpreted
# mpf steps (43 and 125 us each; 18 and 52 us as libmpf calls; CPython
# 3.11, 2-vCPU Xeon).  A hot map's Newton runs also use the generated
# kernels of `dynamics` (built once per dimension and precision: 1.2 ms
# in floats and 1.9 ms in mpf for 3 variables), and a whole Newton step
# with J(f^p) of that map, p = 1 and 2, then costs 5-6 and 8 us in
# floats (14 and 21-22 us with the reference product and solve) and
# 106-111 and 219-222 us in mpf at 64 digits (129-132 and 251-253 us).
# A periodic-point search of the pipeline takes at most 95 steps per
# compiled map; those of the numeric workload take 91-2518, and repeat
# on the same maps.
_HOT_STEPS = 256


class _Compiled:
    """A map compiled for one number type (`_compile`).

    components: per component the index i of a coordinate x_i, or a pair
    (num, den) of term lists [(coefficient, sparse exponents)], den None
    when it is 1; coeffs: their coefficients in term order, numerator
    before denominator; steps: the `_step` calls so far; generated[j]:
    the straight-line step for Jacobian flag j, built once hot; modular[j]:
    for a map compiled mod p, its step mod p (`_modular_source`),
    carrying inverses when j, a list made on first use.
    """

    __slots__ = ("components", "coeffs", "steps", "generated", "modular")

    def __init__(self, components) -> None:
        self.components = components
        self.coeffs = [coeff for comp in components if not isinstance(comp, int)
                       for terms in comp if terms is not None for coeff, _ in terms]
        self.steps = 0
        self.generated = [None, None]
        self.modular = None


def _compile(f, convert) -> _Compiled | None:
    """f's components compiled for repeated evaluation, or None.

    A coordinate component x_i is kept as the index i; a `MonomialMap`
    row is one term of coefficient convert(1).  Coefficients pass through
    convert; None from convert makes the result None.
    """
    if isinstance(f, MonomialMap):
        one = convert(1)
        return _Compiled([([(one, _sparse(row))], None) for row in f.exponents.entries])
    comps = []
    for c in f.components:
        if c.den.is_one() and list(c.num.terms.values()) == [1]:
            (mono,) = [_sparse(e) for e in c.num.terms]
            if len(mono) == 1 and mono[0][1] == 1:
                comps.append(mono[0][0])
                continue
        num, den = (
            [(convert(coeff), _sparse(e)) for e, coeff in poly.terms.items()]
            for poly in (c.num, c.den)
        )
        if any(coeff is None for coeff, _ in num + den):
            return None
        comps.append((num, None if c.den.is_one() else den))
    return _Compiled(comps)


_VANISHES = "denominator vanishes at the point"

# How `_source` writes each operation of a step: a + b, a - b, a * b,
# a / b, a * k and a ** k for an int literal k, and the test d == 0; and
# how the Newton kernels of `dynamics` write |a|, a < b, a <= b, a > b
# and the `_Arithmetic` abs_sum of the terms a, b, ...
_Spelling = namedtuple("_Spelling", "add sub mul div mul_int pow_int is_zero abs lt le gt abs_sum")
# Python's operators, for floats, `Fraction` and intervals
_PYTHON = _Spelling("({} + {})", "({} - {})", "({} * {})", "({} / {})", "({} * {})",
                    "({} ** {})", "{} == 0", "abs({})", "{} < {}", "{} <= {}", "{} > {}",
                    "sum(map(abs, ({},)))")
# for raw mpf values, the libmpf calls that the mpf operators make at the
# working precision; an mpf equals 0 exactly when its raw value is fzero
_LIBMPF = _Spelling("mpf_add({}, {}, prec, rnd)", "mpf_sub({}, {}, prec, rnd)",
                    "mpf_mul({}, {}, prec, rnd)", "mpf_div({}, {}, prec, rnd)",
                    "mpf_mul_int({}, {}, prec, rnd)", "mpf_pow_int({}, {}, prec, rnd)",
                    "{} == fzero", "mpf_abs({}, prec, rnd)", "mpf_lt({}, {})", "mpf_le({}, {})",
                    "mpf_gt({}, {})", "mpf_sum(({},), prec, rnd, True)")
_LIBMPF_NAMES = {"mpf_add": mpf_add, "mpf_sub": mpf_sub, "mpf_mul": mpf_mul, "mpf_div": mpf_div,
                 "mpf_mul_int": mpf_mul_int, "mpf_pow_int": mpf_pow_int, "mpf_abs": mpf_abs,
                 "mpf_lt": mpf_lt, "mpf_le": mpf_le, "mpf_gt": mpf_gt, "mpf_sum": mpf_sum,
                 "fzero": fzero, "rnd": round_nearest}


def _step(f: _Compiled, x, jacobian: bool, num: _Numbers):
    """(f(x), J_f(x) as rows or None) for f compiled with coefficients of
    num's type.

    Steps before the _HOT_STEPS-th interpret f (`_interpret`); from there
    on each Jacobian flag runs its generated function (`_source`), built
    on the flag's first hot step, whose results are the interpreter's
    bit for bit.  The mpf form interprets mpf objects and runs its
    generated step, written as libmpf calls (`_LIBMPF`), on raw values,
    converting at the boundary.
    """
    run = f.generated[jacobian]
    if run is None:
        f.steps += 1
        if f.steps < _HOT_STEPS:
            if num is _RAW:
                image, rows = _interpret(f.components, _boxed(x), jacobian, _MPF)
                return _raw(image), rows and [_raw(row) for row in rows]
            return _interpret(f.components, x, jacobian, num)
        run = _generated(f, len(x), jacobian, num)
    if num is _MPF:
        image, rows = run(_raw(x))
        return _boxed(image), rows and [_boxed(row) for row in rows]
    return run(x)


def _generated(f: _Compiled, n: int, jacobian: bool, num: _Numbers):
    """f's generated step for the Jacobian flag at points of n coordinates,
    built on first use (`_source`): on raw values for mpf."""
    run = f.generated[jacobian]
    if run is None:
        names = {"VANISHES": _VANISHES, "c": f.coeffs, "zero": num.zero, "one": num.one}
        spell = _LIBMPF if num.key()[0] == "mpf" else _PYTHON
        if spell is _LIBMPF:
            names.update(_LIBMPF_NAMES, c=_raw(f.coeffs), zero=fzero, one=fone, prec=mp.mp.prec)
        exec(compile(_source(f.components, n, jacobian, spell), "<compiled map>", "exec"), names)
        run = f.generated[jacobian] = names["step"]
    return run


def _hot_steps(f: _Compiled, n: int, num: _Numbers) -> list | None:
    """[step, step with Jacobian] of f generated for points of n
    coordinates once f is hot (it has run `_HOT_STEPS` steps), else None."""
    if f.steps < _HOT_STEPS:
        return None
    return [_generated(f, n, jacobian, num) for jacobian in (False, True)]


def _interpret(comps, x, jacobian: bool, num: _Numbers):
    """`_step` by `laurent._terms` on the components; J_f by the quotient
    rule (a - f b) / d on the gradients a and b of numerator and
    denominator d."""
    n = len(x)
    image, rows = [], [] if jacobian else None
    for comp in comps:
        if isinstance(comp, int):
            image.append(x[comp])
            if jacobian:
                rows.append([num.one if j == comp else num.zero for j in range(n)])
            continue
        num_terms, den = comp
        gnum, gden = ([num.zero] * n, [num.zero] * n) if jacobian else (None, None)
        v = _terms(num_terms, x, num.zero, gnum)
        if den is not None:
            d = _terms(den, x, num.zero, gden)
            if d == 0:
                raise ZeroDivisionError(_VANISHES)
            v /= d
            if jacobian:
                gnum = [(a - v * b) / d for a, b in zip(gnum, gden)]
        image.append(v)
        if jacobian:
            rows.append(gnum)
    return image, rows


def _source(comps, n: int, jacobian: bool, spell: _Spelling) -> str:
    """Python source of ``step(x)``: `_interpret` on comps for points of n
    coordinates, as straight-line code, each operation written as spell
    has it (`_PYTHON` operators, or `_LIBMPF` calls on raw mpf values).

    It makes the interpreter's operations on the same operands in the
    same order, so its results are the same bits in every number type:
    each term is coeff * p_1 * p_2 ... left to right, added into its
    total from zero; each gradient part is coeff, or coeff * k *
    x_i ** (k - 1), times the term's other powers in order, added into
    its entry from zero; then the d == 0 test, v / d and (a_j - v b_j) / d.
    A power x_i ** k is computed where the interpreter first computes it
    and reused after, as a power of the same operands is the same value.
    The source holds only int literals and fixed names: the coefficients
    are the global list c, in the order of `_Compiled.coeffs`, beside the
    globals zero and one.

    The Newton kernels of `dynamics` are generated by the same rules.  A
    sum is written as its reference makes it: a fold from zero as that
    chain of additions, never as Python's ``sum``, which from Python 3.12
    compensates the rounding of float sums and would change the bits
    there only; where the reference itself calls ``sum`` (the float
    abs_sum of `_Arithmetic`), so does the generated code.
    """
    lines, names, coeffs = [], {}, count()
    add, sub, mul, div, mul_int, pow_int, is_zero = (form.format for form in spell[:7])

    def power(i: int, k: int | None) -> str:
        """The local holding x_i ** k, or x_i for k None; loaded or
        computed here on first use."""
        if (i, k) not in names:
            if k is None:
                names[i, k] = f"x{i}"
                lines.append(f"x{i} = x[{i}]")
            else:
                names[i, k] = f"x{i}_{k}".replace("-", "m")
                lines.append(f"{names[i, k]} = {pow_int(power(i, None), k)}")
        return names[i, k]

    def poly(terms, total: str, grad: str | None) -> list[str]:
        """Emit total = the sum of terms and, with grad, the gradient
        entries grad0, grad1, ...; the entries' names, zero where no
        term depends on the variable."""
        value, entries = "zero", ["zero"] * n
        for _, mono in terms:
            c = f"c{next(coeffs)}"
            factors = [power(i, None if k == 1 else k) for i, k in mono]
            lines.append(f"{total} = {add(value, reduce(mul, [c, *factors]))}")
            value = total
            if grad is None:
                continue
            for j, (i, k) in enumerate(mono):
                part = c if k == 1 else mul(mul_int(c, k), power(i, k - 1))
                others = [v for m, v in enumerate(factors) if m != j]
                lines.append(f"{grad}{i} = {add(entries[i], reduce(mul, [part, *others]))}")
                entries[i] = f"{grad}{i}"
        if value == "zero":
            lines.append(f"{total} = zero")
        return entries

    image, rows = [], []
    for m, comp in enumerate(comps):
        if isinstance(comp, int):
            image.append(power(comp, None))
            rows.append(f"[{', '.join('one' if j == comp else 'zero' for j in range(n))}]")
            continue
        num_terms, den = comp
        v, d = f"v{m}", f"d{m}"
        a = poly(num_terms, v, f"a{m}_" if jacobian else None)
        if den is not None:
            b = poly(den, d, f"b{m}_" if jacobian else None)
            lines += [f"if {is_zero(d)}:", "    raise ZeroDivisionError(VANISHES)",
                      f"{v} = {div(v, d)}"]
            if jacobian:
                a = [div(sub(p, mul(v, q)), d) for p, q in zip(a, b)]
        image.append(v)
        if jacobian:
            lines.append(f"r{m} = [{', '.join(a)}]")
            rows.append(f"r{m}")
    used = next(coeffs)
    body = [f"{''.join(f'c{j}, ' for j in range(used))}= c"] if used else []
    jac = f"[{', '.join(rows)}]" if jacobian else "None"
    body += [*lines, f"return [{', '.join(image)}], {jac}"]
    return "def step(x):\n" + "".join(f"    {line}\n" for line in body)


def _modular_source(comps, p: int, carry: bool) -> str:
    """Python source of ``step(x, inv)``: comps compiled mod p at a point
    x of units with inverses inv, each power x_i^k computed once from its
    halves (from inv for k < 0), each numerator n and denominator d
    reduced once.  Without carry it returns the values (of a projection's
    rows).  With carry it returns (image, inverses), n/d and d/n or a
    coordinate's x_i and inv_i, by one inversion of the product of all n
    and d (Montgomery's trick), or None when that product is 0 mod p."""
    lines, names, factors, inv = [], {}, [], {}

    def power(i: int, k: int) -> str:
        if (i, k) not in names:
            half = k // 2 if k > 0 else -(-k // 2)  # x^k = x^half * x^(k - half)
            names[i, k] = name = f"x{i}_{k}".replace("-", "m")
            lines.append(f"{name} = {'x' if k > 0 else 'inv'}[{i}]" if abs(k) == 1 else
                         f"{name} = {power(i, half)} * {power(i, k - half)} % {p}")
        return names[i, k]

    def poly(terms, name: str) -> str:
        total = " + ".join("*".join([*([str(c)] if c != 1 else []), *(
            power(i, k) for i, k in mono)]) or "1" for c, mono in terms)
        lines.append(f"{name} = {total}" if total.isidentifier() else
                     f"{name} = ({total or 0}) % {p}")
        factors.append(name)
        return name

    def pair(part) -> tuple[str, str]:
        if isinstance(part, int):
            return power(part, 1), power(part, -1)
        n, d = part
        return (n, inv[n]) if d is None else (f"{n} * {inv[d]} % {p}", f"{d} * {inv[n]} % {p}")

    parts = [comp if isinstance(comp, int) else
             (poly(comp[0], f"n{m}"), None if comp[1] is None else poly(comp[1], f"d{m}"))
             for m, comp in enumerate(comps)]
    if carry and factors:
        # prefix products q_j; t, the inverse of the last, peels off one
        # factor at a time
        last = len(factors) - 1
        lines += ["q0 = " + factors[0], *(f"q{j} = q{j - 1} * {factors[j]} % {p}"
                                          for j in range(1, last + 1)),
                  f"if q{last} == 0:", "    return None", f"t = pow(q{last}, -1, {p})"]
        for j in range(last, 0, -1):
            lines += [f"i{j} = t * q{j - 1} % {p}", f"t = t * {factors[j]} % {p}"]
        inv = dict(zip(factors, ["t", *(f"i{j}" for j in range(1, last + 1))]))
    if carry:
        image, inverse = zip(*map(pair, parts))
        result = f"({''.join(v + ', ' for v in image)}), [{', '.join(inverse)}]"
    else:
        result = f"({''.join(n + ', ' for n, _ in parts)})"
    return "def step(x, inv):\n" + "".join(f"    {line}\n" for line in [*lines, "return " + result])


def _apply(f, point, num: _Numbers, jacobian: bool):
    """_step of map f at point, its coordinates converted to num's type."""
    x = [num.convert(v) for v in point]
    if len(x) != f.dim_in:
        raise ValueError("point dimension mismatch")
    return _step(f._compiled(num), x, jacobian, num)


_UNDEFINED = "a zero coordinate has a negative exponent"


def _clear(terms, n: int) -> tuple:
    """(cleared, lo, fixed) for the term list of P = sum c_t x^e_t in n
    variables.  lo_j and hi_j are the least and largest exponents of x_j,
    and cleared holds the terms of N(a, b) = sum s c_t prod_j
    a_j^(e_tj - lo_j) b_j^(hi_j - e_tj) in the 2n variables (a, b), s the
    rational that makes the coefficients coprime integers.  At
    p_j = a_j / b_j, P(p) = N(a, b) prod_j a_j^lo_j b_j^-hi_j / s.  For a
    monomial P, N is its one constant term c, and fixed is the pair
    (c, [c lo_j]) that `_log_derivatives` returns at every point; else
    fixed is None."""
    exps = [dict(mono) for _, mono in terms]
    lo = [min((e.get(j, 0) for e in exps), default=0) for j in range(n)]
    hi = [max((e.get(j, 0) for e in exps), default=0) for j in range(n)]
    scale = lcm(*(c.denominator for c, _ in terms))
    coeffs = [c.numerator * (scale // c.denominator) for c, _ in terms]
    content = gcd(*coeffs) or 1
    cleared = [(c // content, _sparse([e.get(j, 0) - lo[j] for j in range(n)]
                                      + [hi[j] - e.get(j, 0) for j in range(n)]))
               for c, e in zip(coeffs, exps)]
    fixed = None
    if len(cleared) == 1:
        c = cleared[0][0]
        fixed = c, [c * k for k in lo]
    return cleared, lo, fixed


def _cleared(f) -> list:
    """f's components as (num, den) pairs of `_clear` results, den None
    when it is 1, a coordinate x_k as the num of the monomial x_k; read
    off f's exact compiled form and cached on f under "cleared"."""
    if "cleared" not in f._cache:
        n = f.dim_in
        f._cache["cleared"] = [
            (_clear([(Fraction(1), ((comp, 1),))], n), None) if isinstance(comp, int) else
            (_clear(comp[0], n), None if comp[1] is None else _clear(comp[1], n))
            for comp in f._compiled(_EXACT).components]
    return f._cache["cleared"]


def _log_derivatives(part, x, zeros) -> tuple:
    """(N, [a_j dN/da_j + lo_j N]) for the `_clear` result part of P at
    x = (a, b), by `laurent._terms` with its gradient on ints, or part's
    fixed pair for a monomial.  (0, None) where P(p) is 0 because a zero
    a_j has lo_j > 0; zeros lists the j with a_j = 0."""
    cleared, lo, fixed = part
    if zeros:
        if any(lo[j] < 0 for j in zeros):
            raise ZeroDivisionError(_UNDEFINED)
        if any(lo[j] > 0 for j in zeros):
            return 0, None
    if fixed is not None:
        return fixed
    grad = [0] * len(x)
    value = _terms(cleared, x, 0, grad)
    return value, [v * g + k * value for v, g, k in zip(x, grad, lo)]


def _log_jacobian(f, point) -> tuple[list[list[int]], int] | None:
    """(dM, d) for the log-Jacobian M(p)_ij = p_j d_j f_i(p) / f_i(p) of f
    at the rational point p, with d the lcm of M's reduced denominators
    and dM = d M(p) on ints; None where f(p) has a zero coordinate.
    Raises ZeroDivisionError where f is undefined at p: a denominator
    vanishes, or a zero coordinate has a negative exponent.

    With p_j = a_j / b_j and N the value of P's cleared terms at (a, b)
    (`_clear`), p_j d_j P(p) / P(p) = (a_j dN/da_j + lo_j N) / N = A_j / N.
    So row i of M is (A_j D - B_j N) / (N D) for f_i = P / Q, or A_j / N
    when Q is 1.  Each row is reduced by the gcd of its entries and its
    denominator, which it makes positive, and the rows are brought over
    the lcm d of those denominators.  Each part of a component that is not
    a monomial is one run of `laurent._terms` on ints, the package's one
    point kernel."""
    a = [v.numerator for v in point]
    x = a + [v.denominator for v in point]
    zeros = [j for j, v in enumerate(a) if not v] if 0 in a else None
    rows, dens = [], []
    for num, den in _cleared(f):
        v, dv = _log_derivatives(num, x, zeros)
        if den is not None:
            w, dw = _log_derivatives(den, x, zeros)
            if not w:
                raise ZeroDivisionError(_VANISHES)
            if v:
                v, dv = v * w, [p * w - q * v for p, q in zip(dv, dw)]
        if v and v != 1:
            g = gcd(v, *dv) if v > 0 else -gcd(v, *dv)
            if g != 1:
                v, dv = v // g, [e // g for e in dv]
        rows.append(dv)
        dens.append(v)
    if 0 in dens:
        return None
    d = lcm(*dens)
    # a monomial's row is its cached fixed list, so each row is a new list
    return [[e * (d // w) for e in row] if w != d else list(row)
            for row, w in zip(rows, dens)], d


class BirationalMap:
    """A tuple of rational functions of common source coordinates."""

    __slots__ = ("dim_in", "components", "_cache")

    def __init__(self, dim_in: int, components) -> None:
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, RationalFunction):
                raise TypeError("components must be rational functions")
            if c.nvars != dim_in:
                raise ValueError("component variable count does not match dim_in")
        self.dim_in = dim_in
        self.components = comps
        self._cache = {}

    @property
    def dim_out(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(n: int) -> "BirationalMap":
        return BirationalMap(n, [RationalFunction.coordinate(i, n) for i in range(n)])

    @staticmethod
    def from_strings(strings, nvars: int | None = None) -> "BirationalMap":
        if nvars is None:
            nvars = len(strings)
        comps = [parse_rational(s, nvars) for s in strings]
        return BirationalMap(nvars, comps)

    def to_strings(self, names=None) -> list[str]:
        return [format_rational(c, names) for c in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BirationalMap):
            return NotImplemented
        return self.dim_in == other.dim_in and self.components == other.components

    def is_identity(self) -> bool:
        return self.dim_out == self.dim_in and all(
            c.is_coordinate(i) for i, c in enumerate(self.components)
        )

    # -- application --------------------------------------------------

    def _compiled(self, num: _Numbers):
        """The map compiled for num's type, cached under num.key()."""
        key = num.key()
        if key not in self._cache:
            self._cache[key] = _compile(self, num.convert)
        return self._cache[key]

    def evaluate(self, point) -> tuple[Fraction, ...]:
        return tuple(_apply(self, point, _EXACT, False)[0])

    def evaluate_mp(self, point):
        return tuple(_apply(self, point, _MPF, False)[0])

    def compose(self, inner: "BirationalMap") -> "BirationalMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        args = list(inner.components)
        return BirationalMap(inner.dim_in, [c.compose(args) for c in self.components])

    def iterate(self, p: int) -> "BirationalMap":
        """The p-fold composite, by repeated squaring: the squares
        f^(2^i) for 2^i <= p, and for each binary digit of p from the
        lowest the power so far composed with that digit's square, each
        in normal form; the identity for p = 0."""
        if self.dim_out != self.dim_in:
            raise ValueError("only self-maps can be iterated")
        if p < 0:
            raise ValueError("iteration count must be non-negative")
        if p == 0:
            return BirationalMap.identity(self.dim_in)
        power, square = None, self
        while True:
            if p & 1:
                power = square if power is None else power.compose(square)
            p >>= 1
            if not p:
                return power
            square = square.compose(square)

    # -- derivatives --------------------------------------------------

    def jacobian(self, point) -> list[list[Fraction]]:
        """Exact J[i][j] = d f_i / d x_j at point."""
        return _apply(self, point, _EXACT, True)[1]

    def jacobian_mp(self, point):
        return _apply(self, point, _MPF, True)[1]

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "dim_in": self.dim_in,
            "components": self.to_strings(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "BirationalMap":
        return BirationalMap.from_strings(data["components"], int(data["dim_in"]))

    def __repr__(self) -> str:
        return f"BirationalMap({self.to_strings()!r})"


class MonomialMap:
    """x -> (x^u_1, ..., x^u_r) for integer exponent rows u_i."""

    __slots__ = ("exponents", "_cache")

    def __init__(self, exponents: IntMatrix) -> None:
        self.exponents = exponents
        self._cache = {}

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None) -> "MonomialMap":
        return MonomialMap(IntMatrix.from_rows(rows, cols=ambient_dim))

    @property
    def dim_in(self) -> int:
        return self.exponents.cols

    @property
    def dim_out(self) -> int:
        return self.exponents.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return self.exponents == other.exponents

    def lattice(self) -> LatticeBasis:
        """The (unnormalized) lattice basis given by the exponent rows."""
        return LatticeBasis(self.dim_in, self.exponents.entries)

    def components(self) -> tuple[RationalFunction, ...]:
        n = self.dim_in
        return tuple(
            RationalFunction.monomial(row, n) for row in self.exponents.entries
        )

    # evaluated as a `BirationalMap`, cached on the map; `_compile` makes
    # each row one term of coefficient 1
    _compiled = BirationalMap._compiled

    evaluate = BirationalMap.evaluate
    evaluate_mp = BirationalMap.evaluate_mp

    def after(self, inner: BirationalMap) -> BirationalMap:
        """self . inner as a birational map, components prod_j inner_j^(u_ij),
        by `BirationalMap.compose`: the powers of inner's monomial
        components fold into one coefficient and exponent shift, and only
        the others are multiplied, so for a period-1 cluster map each
        component takes one power of one function; with no source
        coordinates, constant 1."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        if not self.dim_in:
            return BirationalMap(inner.dim_in, [RationalFunction.constant(1, inner.dim_in)]
                                 * self.dim_out)
        return BirationalMap(self.dim_in, self.components()).compose(inner)

    def after_monomial(self, inner: "MonomialMap") -> "MonomialMap":
        """Monomial composition: exponent matrices multiply."""
        if inner.dim_out != self.dim_in:
            raise ValueError("composition dimension mismatch")
        return MonomialMap(self.exponents @ inner.exponents)

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "dim_in": self.dim_in,
            "exponents": [[str(x) for x in row] for row in self.exponents.entries],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialMap":
        rows = [[int(x) for x in row] for row in data["exponents"]]
        return MonomialMap(IntMatrix.from_rows(rows, cols=int(data["dim_in"])))

    def __repr__(self) -> str:
        return f"MonomialMap({self.exponents.entries!r})"
