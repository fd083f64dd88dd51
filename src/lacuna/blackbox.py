"""Modular black boxes and the per-prime reduction f -> f^(p).

A modular black box answers queries (p, theta) with f(theta) as an element
of Z_p, or raises DenominatorVanished when p divides a denominator the
evaluation needs.  Concrete boxes are provided for the shifted-sparse
representation, a dense rational coefficient list, and straight-line
programs, so tests can model genuinely opaque functions.  Every one of them
evaluates the whole grid Z_p in bulk on int64 arrays.  The dense box is
the lacunary box of its nonzero terms, so both sum terms by one exact
kernel, and the last grid they gave is cached (``_lacunary_grid``): the
interpolation phase confirms a padding prime against its candidate's grid
at the shift, which is that same array whenever the candidate is the
box's polynomial.  The straight-line program box replays one plan over
either a Python int or that array.  The plan, compiled once per bit
length of the modulus, reduces a register only when the next operation
could leave int64, not after every one (at the small primes of a solve
four residues multiply inside int64, so about half the reductions of a
squaring chain go), and writes each result over an operand read for the
last time.
"""

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import numpy as np

from .densepoly import (
    DensePolyMod,
    _check_grid_prime,
    _generator_powers,
    _geometric_sums,
    _mod,
    _read_only,
    _rotate,
    interpolate_range,
    poly_trim,
)
from .errors import DenominatorVanished
from .modular_core import _ratio_mod, frac_mod

# A register whose bound stays at most this fits in int64: |r| < 2^63.
_INT64 = 1 << 63
# A program operation over Python ints, or into a given array (out=)
_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


# ---------------- the output representation ----------------

@dataclass(frozen=True)
class ShiftedLacunary:
    """Sparse polynomial in a shifted power basis.

    f(x) = constant + sum_i coeff_i * (x - shift)^(e_i), with distinct
    exponents e_i >= 1 in strictly increasing order and nonzero
    coefficients.
    """

    shift: Fraction
    constant: Fraction
    terms: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", Fraction(self.shift))
        object.__setattr__(self, "constant", Fraction(self.constant))
        terms = tuple(sorted(((Fraction(c), _parse_exp(e)) for c, e in self.terms),
                             key=lambda t: t[1]))
        for c, e in terms:
            if c == 0:
                raise ValueError("term coefficients must be nonzero")
            if e < 1:
                raise ValueError("term exponents must be >= 1")
        if len({e for _, e in terms}) != len(terms):
            raise ValueError("term exponents must be distinct")
        object.__setattr__(self, "terms", terms)

    @property
    def t(self) -> int:
        return len(self.terms)

    @property
    def degree(self) -> int:
        return self.terms[-1][1] if self.terms else 0

    def evaluate_exact(self, x) -> Fraction:
        x = Fraction(x)
        base = x - self.shift
        acc = self.constant
        for c, e in self.terms:
            acc += c * base**e
        return acc

    def to_json(self) -> str:
        obj = {
            "shift": _fmt_rat(self.shift),
            "constant": _fmt_rat(self.constant),
            "terms": [{"coeff": _fmt_rat(c), "exp": e} for c, e in self.terms],
        }
        return canonical_json(obj)

    @classmethod
    def from_json(cls, text: str) -> "ShiftedLacunary":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a polynomial is a JSON object, got {type(obj).__name__}")
        try:
            terms = tuple((_parse_rat(t["coeff"]), _parse_exp(t["exp"]))
                          for t in obj.get("terms", ()))
        except (KeyError, TypeError):
            raise ValueError("every term needs a \"coeff\" and an integer \"exp\"") from None
        return cls(
            shift=_parse_rat(obj.get("shift", "0")),
            constant=_parse_rat(obj.get("constant", "0")),
            terms=terms,
        )


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_exp(e) -> int:
    """An integer exponent; ValueError for a bool, a float, a string or any
    other non-integer."""
    if not isinstance(e, bool):
        try:
            return operator.index(e)
        except TypeError:
            pass
    raise ValueError(f"exponents must be integers, got {e!r}")


def _parse_rat(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"rationals must be decimal strings, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


def canonical_json(obj) -> str:
    """Byte-stable encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------- black boxes ----------------

class ModularBlackBox:
    """Base class: pure evaluation plus a query counter."""

    def __init__(self):
        self.calls = 0

    def eval(self, p: int, theta: int) -> int:
        """f(theta) mod p; raises DenominatorVanished when p is unlucky."""
        if p < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= theta < p:
            raise ValueError("evaluation point must be reduced modulo p")
        self.calls += 1
        return self._eval(p, theta)

    def eval_range(self, p: int) -> np.ndarray:
        """All of f(0), ..., f(p-1) mod p as a read-only int64 array; counts
        as p queries.  p must be a prime below 2^31: anything else raises
        ValueError before any query."""
        _check_grid_prime(p)
        grid = self._grid(p)
        self.calls += p
        return _read_only(grid)

    def _eval(self, p: int, theta: int) -> int:
        raise NotImplementedError

    def _grid(self, p: int) -> np.ndarray:
        """eval_range's values for a checked grid prime p.  This default
        queries point by point, for boxes defined outside the library;
        every box in this module evaluates the grid in bulk instead."""
        return np.array([self._eval(p, i) for i in range(p)], dtype=np.int64)


@lru_cache(maxsize=1)
def _lacunary_grid(c0: int, shift: int, coeffs: Tuple[int, ...], exps: Tuple[int, ...],
                   p: int) -> np.ndarray:
    """The read-only grid of c0 + sum_k coeffs[k] (x - shift)^exps[k] over
    Z_p, for residues c0, shift and coeffs modulo the prime p and exponents
    exps >= 1.

    The last grid is cached, so its arguments are ints and tuples.  A
    ``LacunaryBox`` grid and the confirmation of a padding prime
    (``sparse_interp._confirmed_image``) ask for the same grid one after
    the other whenever the candidate at the shift is the box's polynomial:
    the second call returns the first one's array, which every hit shares,
    hence read-only.
    """
    # f(shift + g^a) = c0 + sum_k c_k g^(a*e_k): c0 is the term of exponent
    # 0, and _geometric_sums adds all of them for every a in one exact
    # product; at x = shift every other term vanishes (e >= 1).
    around = np.empty(p, dtype=np.int64)  # around[x] = f(shift + x)
    around[0] = c0
    around[_generator_powers(p)] = _geometric_sums((c0, *coeffs), (0, *exps), p)
    return _read_only(_rotate(around, -shift) if shift else around)


class LacunaryBox(ModularBlackBox):
    """Term-wise evaluation of a ShiftedLacunary via modular exponentiation.

    The exponents and the (numerator, denominator) pairs of the constant,
    the shift and the coefficients are taken from ``poly`` once, at
    construction; a box of no terms never reads its shift.
    """

    def __init__(self, poly: ShiftedLacunary):
        super().__init__()
        self.poly = poly
        self._exps = tuple(e for _, e in poly.terms)
        shift = poly.shift if poly.terms else Fraction(0)
        self._ratios = tuple((q.numerator, q.denominator)
                             for q in (poly.constant, shift, *(c for c, _ in poly.terms)))

    def _residues(self, p: int):
        """(c0, shift, coeffs) reduced mod p; DenominatorVanished when p
        divides a denominator."""
        c0, shift, *coeffs = (_ratio_mod(num, den, p) for num, den in self._ratios)
        return c0, shift, tuple(coeffs)

    def _eval(self, p: int, theta: int) -> int:
        c0, shift, coeffs = self._residues(p)
        base = (theta - shift) % p
        acc = c0
        for cm, e in zip(coeffs, self._exps):
            acc = (acc + cm * pow(base, e, p)) % p
        return acc

    def _grid(self, p: int) -> np.ndarray:
        c0, shift, coeffs = self._residues(p)
        return _lacunary_grid(c0, shift, coeffs, self._exps, p)


class DenseBox(LacunaryBox):
    """Black box over an explicit dense rational coefficient list.

    It is the lacunary box of its nonzero terms, shift 0: a point costs one
    ``pow`` a term, and the grid one ``_geometric_sums`` call, which holds
    about 2K sqrt(p) table entries for K terms.  ``coeffs`` keeps the list,
    trailing zeros trimmed.
    """

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(poly_trim([Fraction(x) for x in coeffs]))
        c0 = self.coeffs[0] if self.coeffs else 0
        super().__init__(ShiftedLacunary(
            shift=0, constant=c0,
            terms=tuple((c, j) for j, c in enumerate(self.coeffs) if j and c)))


class ProgramBox(ModularBlackBox):
    """Straight-line program over +, -, * with rational constants.

    Instructions are tuples writing one register each:
      ("input",)          push the evaluation point
      ("const", q)        push the rational constant q
      ("add"|"sub"|"mul", i, j)   combine registers i and j
    The last register is the result.  A malformed instruction raises
    ValueError at construction.

    The program runs over a single point as a Python int (``eval``, exact
    at any modulus) or over the int64 array of all of Z_p at once
    (``eval_range``).  Both replay one plan, compiled on first use for each
    bit length b of the modulus and kept on the box, one per b.  The plan
    fixes where registers are reduced: each register carries a bound on its
    absolute value, and a register is reduced only before an operation
    whose bound would pass 2^63.  The bounds are computed once, with
    P = 2^b - 1 in place of p, and a plan built for P holds for every p of
    b bits: p <= P, so every bound computed from P still bounds the value
    computed modulo p, and a reduction modulo p is exact whenever it runs.
    So every array value stays in int64, and every p of one length gets the
    same residues as from a schedule of its own (``_compile`` gives the
    rule).  The array path raises RuntimeError for a plan with an operation
    that could leave int64 even after its reductions.  No plan of b <= 31
    bits has one, so the array path runs for every p < 2^31,
    ``eval_range``'s limit; from p >= 2^31 on, a product of two inputs is
    refused.

    On the array path an operation writes its result into a dead register
    instead of a fresh array: one of its operands that is the result of an
    earlier operation, holds an array, and is read for the last time here.
    The caller's x and the constants are never written.
    """

    _ARITY = {"input": 0, "const": 1, "add": 2, "sub": 2, "mul": 2}

    def __init__(self, ops: Sequence[tuple]):
        super().__init__()
        if not ops:
            raise ValueError("program must have at least one instruction")
        program = []
        for idx, op in enumerate(ops):
            kind = op[0] if isinstance(op, (tuple, list)) and op else None
            if not isinstance(kind, str) or kind not in self._ARITY:
                raise ValueError(f"instruction {idx}: unknown instruction {op!r}")
            args = op[1:]
            if len(args) != self._ARITY[kind]:
                raise ValueError(f"instruction {idx}: {op!r} has the wrong number of operands")
            try:
                if kind == "const":
                    args = [Fraction(args[0])]
                elif any(isinstance(r, bool) for r in args):
                    raise ValueError
                else:
                    args = [operator.index(r) for r in args]
                    if not all(0 <= r < idx for r in args):
                        raise ValueError
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"instruction {idx}: {op!r} must read a rational constant "
                                 "or earlier registers") from None
            program.append((kind, *args))
        self.ops = tuple(program)
        self._plans = {}  # bit length of the modulus -> its plan

    def _compile(self, bits: int) -> tuple:
        """The plan of every modulus p of ``bits`` bits: (consts,
        array_steps, scalar_steps, reduce_result, unsafe).

        ``consts`` holds (register, numerator, denominator) for each
        constant.  Each step (k, fn, i, j, reduced, dead) first reduces the
        registers ``reduced`` and then writes fn(r_i, r_j) into register k,
        into the array of register ``dead`` when it is not None (array
        steps only).  ``reduce_result`` says whether the result needs a
        last reduction, and ``unsafe`` names the first operation whose bound
        stays above 2^63, or is None.

        Each register r_i keeps a bound B_i with |r_i| < B_i: P = 2^bits - 1
        for the input and a constant, B_i + B_j for a sum or difference,
        B_i * B_j for a product.  A bound of at most 2^63 keeps a value in
        int64.  Before a product whose bound would pass 2^63, the operand
        of the larger bound is reduced (its bound drops to P) and the bound
        checked again, so a squaring, one register, takes one reduction;
        before a sum or difference whose bound would, both operands are.
        The result is reduced once at the end if its bound passes P.  Every
        operation gives a bound of at least 2P, so a bound of P marks the
        input, a constant or a reduced value, each in [0, p): every
        register reduced is an operation's result.  For bits <= 31 two
        reduced operands combine inside 2^63, so no operation is unsafe;
        past that a product is reduced before every use, as on the scalar
        path at a 70-bit p.
        """
        bound_p = (1 << bits) - 1
        last_read = {r: k for k, (kind, *args) in enumerate(self.ops) if kind in _UFUNCS
                     for r in args}
        consts, array_steps, scalar_steps = [], [], []
        bounds, on_input = [], []  # on_input[k]: register k is an array on the array path
        unsafe = None
        for k, (kind, *args) in enumerate(self.ops):
            if kind not in _UFUNCS:  # the input or a constant
                if kind == "const":
                    consts.append((k, args[0].numerator, args[0].denominator))
                bounds.append(bound_p)
                on_input.append(kind == "input")
                continue
            i, j = args
            reduced = []
            if kind == "mul":
                while bounds[i] * bounds[j] > _INT64 and max(bounds[i], bounds[j]) > bound_p:
                    r = i if bounds[i] >= bounds[j] else j
                    reduced.append(r)
                    bounds[r] = bound_p
                bound = bounds[i] * bounds[j]
            else:
                if bounds[i] + bounds[j] > _INT64:
                    reduced = [r for r in dict.fromkeys((i, j)) if bounds[r] > bound_p]
                    for r in reduced:
                        bounds[r] = bound_p
                bound = bounds[i] + bounds[j]
            if bound > _INT64 and unsafe is None:
                unsafe = f"{kind} of registers {i} and {j}"
            bounds.append(bound)
            on_input.append(on_input[i] or on_input[j])
            dead = next((r for r in (i, j) if last_read[r] == k
                         and self.ops[r][0] in _UFUNCS and on_input[r]), None)
            scalar_steps.append((k, _OPERATORS[kind], i, j, tuple(reduced), None))
            array_steps.append((k, _OPERATORS[kind] if dead is None else _UFUNCS[kind],
                                i, j, tuple(reduced), dead))
        return (tuple(consts), tuple(array_steps), tuple(scalar_steps),
                bounds[-1] > bound_p, unsafe)

    def _eval(self, p: int, x):
        """The program's value modulo p at x: a reduced Python int for an
        int x, or for an int64 array x of at least one dimension and
        p < 2^31 an array of reduced points.  Replays the plan of p's bit
        length; the array path raises RuntimeError where that plan has an
        operation that could leave int64."""
        bits = p.bit_length()
        plan = self._plans.get(bits)
        if plan is None:
            plan = self._plans[bits] = self._compile(bits)
        consts, array_steps, scalar_steps, reduce_result, unsafe = plan
        on_array = isinstance(x, np.ndarray)
        if on_array and unsafe:
            raise RuntimeError(f"{unsafe} modulo {p} could leave int64")
        regs = [x] * len(self.ops)
        for k, num, den in consts:
            regs[k] = _ratio_mod(num, den, p)
        for k, fn, i, j, reduced, dead in array_steps if on_array else scalar_steps:
            for r in reduced:
                regs[r] = _mod(regs[r], p)
            regs[k] = fn(regs[i], regs[j]) if dead is None else fn(regs[i], regs[j], out=regs[dead])
        return _mod(regs[-1], p) if reduce_result else regs[-1]

    def _grid(self, p: int) -> np.ndarray:
        values = self._eval(p, np.arange(p, dtype=np.int64))
        # a program that never reads its input gives one int for every point
        return values if isinstance(values, np.ndarray) else np.full(p, values, dtype=np.int64)


# ---------------- spec operations ----------------

def make_blackbox(f: ShiftedLacunary) -> ModularBlackBox:
    """Black box computing f(theta) mod p term-wise."""
    return LacunaryBox(f)


def reduce_mod(bb: ModularBlackBox, p: int) -> DensePolyMod:
    """The degree-<p polynomial agreeing with the box on all of Z_p.

    Uses exactly p black-box queries followed by dense interpolation.
    DenominatorVanished propagates: the caller must discard p entirely.
    Anything but a prime below 2^31 raises ValueError before any query.
    """
    return interpolate_range(bb.eval_range(p), p)


def _reductions(bb: ModularBlackBox, stream,
                shift=0) -> Iterator[Tuple[int, int, np.ndarray]]:
    """(p, shift mod p, f on all of Z_p) for each next prime p of the
    stream, endlessly.

    Each grid costs p queries; the callers read it with the sparse kernel,
    the shift phase through ``grid_shift``, which interpolates a grid
    densely only when more Hankel candidates pass than it would check.  A
    prime where a denominator vanishes, the shift's or one the box meets,
    is discarded from the stream, so it never counts toward the guarantee;
    the shift is reduced first, so a prime dividing its denominator costs
    no query.  The stream raises BlackBoxFailure once it has extended its
    reservoir past its limit, or has no primes left below 2^31.
    """
    shift = Fraction(shift)
    while True:
        p = stream.next_prime()
        try:
            a = frac_mod(shift, p)
            values = bb.eval_range(p)
        except DenominatorVanished:
            stream.discard(p)
            continue
        yield p, a, values
