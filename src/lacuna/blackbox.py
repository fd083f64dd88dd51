"""Modular black boxes and the per-prime reduction f -> f^(p).

A modular black box answers queries (p, theta) with f(theta) as an element
of Z_p, or raises DenominatorVanished when p divides a denominator the
evaluation needs.  Concrete boxes are provided for the shifted-sparse
representation, a dense rational coefficient list, and straight-line
programs, so tests can model genuinely opaque functions.  Every one of them
evaluates the whole grid Z_p in bulk on int64 arrays; the dense box and
the straight-line program box each run one evaluator over either a Python
int or that array.
"""

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

import numpy as np

from .densepoly import (
    DensePolyMod,
    _check_grid_prime,
    _generator_powers,
    _geometric_sums,
    _horner,
    _mod,
    _read_only,
    _rotate,
    interpolate_range,
    poly_trim,
)
from .errors import DenominatorVanished
from .modular_core import frac_mod


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


class LacunaryBox(ModularBlackBox):
    """Term-wise evaluation of a ShiftedLacunary via modular exponentiation."""

    def __init__(self, poly: ShiftedLacunary):
        super().__init__()
        self.poly = poly

    def _residues(self, p: int):
        """(c0, shift, coeffs) reduced mod p; DenominatorVanished when p
        divides a denominator."""
        f = self.poly
        c0 = frac_mod(f.constant, p)
        if not f.terms:
            return c0, 0, ()
        shift = frac_mod(f.shift, p)
        coeffs = tuple(frac_mod(c, p) for c, _ in f.terms)
        return c0, shift, coeffs

    def _eval(self, p: int, theta: int) -> int:
        c0, shift, coeffs = self._residues(p)
        base = (theta - shift) % p
        acc = c0
        for cm, (_, e) in zip(coeffs, self.poly.terms):
            acc = (acc + cm * pow(base, e, p)) % p
        return acc

    def _grid(self, p: int) -> np.ndarray:
        c0, shift, coeffs = self._residues(p)
        # f(shift + g^a) = c0 + sum_k c_k g^(a*e_k): c0 is the term of exponent
        # 0, and _geometric_sums adds all of them for every a in one exact
        # product; at theta = shift every other term vanishes (e >= 1).
        exps = (0, *(e for _, e in self.poly.terms))
        around = np.empty(p, dtype=np.int64)  # around[x] = f(shift + x)
        around[0] = c0
        around[_generator_powers(p)] = _geometric_sums((c0, *coeffs), exps, p)
        return _rotate(around, -shift)


class DenseBox(ModularBlackBox):
    """Black box over an explicit dense rational coefficient list."""

    def __init__(self, coeffs: Sequence):
        super().__init__()
        self.coeffs = tuple(poly_trim([Fraction(x) for x in coeffs]))

    def _eval(self, p: int, x):
        """f(x) mod p: a reduced Python int, or an int64 array of reduced
        points when p < 2^31."""
        return _horner([frac_mod(c, p) for c in self.coeffs], x, p)

    def _grid(self, p: int) -> np.ndarray:
        return self._eval(p, np.arange(p, dtype=np.int64))


class ProgramBox(ModularBlackBox):
    """Straight-line program over +, -, * with rational constants.

    Instructions are tuples writing one register each:
      ("input",)          push the evaluation point
      ("const", q)        push the rational constant q
      ("add"|"sub"|"mul", i, j)   combine registers i and j
    The last register is the result.  A malformed instruction raises
    ValueError at construction.

    One interpreter runs the program over a single point as a Python int
    (``eval``, exact at any modulus) or over the int64 array of all of
    Z_p at once (``eval_range``: p < 2^31 keeps every product of two
    residues below 2^62).
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

    def _eval(self, p: int, x):
        """The program's value modulo p at x: a reduced Python int, or an
        int64 array of reduced points when p < 2^31."""
        regs = []
        for kind, *args in self.ops:
            if kind == "input":
                regs.append(x)
            elif kind == "const":
                regs.append(frac_mod(args[0], p))
            else:
                a, b = regs[args[0]], regs[args[1]]
                if kind == "add":
                    regs.append(_mod(a + b, p))
                elif kind == "sub":
                    regs.append(_mod(a - b, p))
                else:
                    regs.append(_mod(a * b, p))
        return regs[-1]

    def _grid(self, p: int) -> np.ndarray:
        values = self._eval(p, np.arange(p, dtype=np.int64))
        # a program that never reads its input gives one int for every point
        return values if isinstance(values, np.ndarray) else np.full(p, values, dtype=np.int64)


class ShiftedBox(ModularBlackBox):
    """View of an inner box with the argument shifted by a rational alpha."""

    def __init__(self, inner: ModularBlackBox, alpha):
        super().__init__()
        self.inner = inner
        self.alpha = Fraction(alpha)

    def _eval(self, p: int, theta: int) -> int:
        a = frac_mod(self.alpha, p)
        return self.inner.eval(p, (theta + a) % p)

    def _grid(self, p: int) -> np.ndarray:
        a = frac_mod(self.alpha, p)
        return _rotate(self.inner.eval_range(p), a)


# ---------------- spec operations ----------------

def make_blackbox(f: ShiftedLacunary) -> ModularBlackBox:
    """Black box computing f(theta) mod p term-wise."""
    return LacunaryBox(f)


def shifted_blackbox(bb: ModularBlackBox, alpha) -> ModularBlackBox:
    """Black box for g(x) = f(x + alpha) built on top of the box for f."""
    return ShiftedBox(bb, alpha)


def reduce_mod(bb: ModularBlackBox, p: int) -> DensePolyMod:
    """The degree-<p polynomial agreeing with the box on all of Z_p.

    Uses exactly p black-box queries followed by dense interpolation.
    DenominatorVanished propagates: the caller must discard p entirely.
    Anything but a prime below 2^31 raises ValueError before any query.
    """
    return interpolate_range(bb.eval_range(p), p)


def _reductions(bb: ModularBlackBox, stream) -> Iterator[Tuple[int, np.ndarray]]:
    """(p, f on all of Z_p) for each next prime p of the stream, endlessly.

    Each grid costs p queries; the callers read it with the sparse kernel,
    the shift phase through ``grid_shift``, which interpolates a grid
    densely only when more Hankel candidates remain than it checks.  A
    prime where a denominator vanishes is discarded from the stream, so it
    never counts toward the guarantee.  The stream raises BlackBoxFailure
    once it has extended its reservoir past its limit, or has no primes
    left below 2^31.
    """
    while True:
        p = stream.next_prime()
        try:
            values = bb.eval_range(p)
        except DenominatorVanished:
            stream.discard(p)
            continue
        yield p, values
