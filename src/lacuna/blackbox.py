"""Modular black boxes and the per-prime reduction f -> f^(p).

A modular black box answers queries (p, theta) with f(theta) as an element
of Z_p, or raises DenominatorVanished when p divides a denominator the
evaluation needs.  Concrete boxes are provided for the shifted-sparse
representation, a dense rational coefficient list, and straight-line
programs, so tests can model genuinely opaque functions.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

import numpy as np

from .densepoly import (
    _GRID_LIMIT,
    DensePolyMod,
    _check_grid_prime,
    _cyclic_tables,
    _grid_eval_small,
    _read_only,
    interpolate_range,
)
from .errors import BlackBoxFailure, DenominatorVanished
from .modular_core import frac_mod, is_prime


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
        terms = tuple(sorted(((Fraction(c), int(e)) for c, e in self.terms), key=lambda t: t[1]))
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
        terms = tuple((_parse_rat(t["coeff"]), int(t["exp"])) for t in obj.get("terms", ()))
        return cls(
            shift=_parse_rat(obj.get("shift", "0")),
            constant=_parse_rat(obj.get("constant", "0")),
            terms=terms,
        )


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_rat(s) -> Fraction:
    if isinstance(s, str):
        return Fraction(s)
    if isinstance(s, int):
        return Fraction(s)
    raise ValueError(f"rationals must be decimal strings, got {s!r}")


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
        as p queries."""
        self.calls += p
        return _read_only(np.array([self._eval(p, i) for i in range(p)], dtype=np.int64))

    def _eval(self, p: int, theta: int) -> int:
        raise NotImplementedError


class LacunaryBox(ModularBlackBox):
    """Term-wise evaluation of a ShiftedLacunary via modular exponentiation."""

    def __init__(self, poly: ShiftedLacunary):
        super().__init__()
        self.poly = poly

    def _denominators_mod(self, p: int):
        f = self.poly
        c0 = frac_mod(f.constant, p)
        if not f.terms:
            return c0, 0, ()
        shift = frac_mod(f.shift, p)
        coeffs = tuple(frac_mod(c, p) for c, _ in f.terms)
        return c0, shift, coeffs

    def _eval(self, p: int, theta: int) -> int:
        c0, shift, coeffs = self._denominators_mod(p)
        base = (theta - shift) % p
        acc = c0
        for cm, (_, e) in zip(coeffs, self.poly.terms):
            acc = (acc + cm * pow(base, e, p)) % p
        return acc

    def eval_range(self, p: int) -> np.ndarray:
        if p >= _GRID_LIMIT or not is_prime(p):
            return super().eval_range(p)
        c0, shift, coeffs = self._denominators_mod(p)
        # acc[b] is f where theta - shift = b; b^e = g^(lg[b] * e) for b != 0
        pw, lg = _cyclic_tables(p)
        n = p - 1
        acc = np.full(p, c0, dtype=np.int64)
        for cm, (_, e) in zip(coeffs, self.poly.terms):
            acc = (acc + cm * pw[lg * (e % n) % n]) % p
        acc[0] = c0  # every term has e >= 1, so it vanishes at b = 0
        self.calls += p
        return _read_only(np.roll(acc, shift))


class DenseBox(ModularBlackBox):
    """Black box over an explicit dense rational coefficient list."""

    def __init__(self, coeffs: Sequence):
        super().__init__()
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def _eval(self, p: int, theta: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * theta + frac_mod(c, p)) % p
        return acc

    def eval_range(self, p: int) -> np.ndarray:
        if p >= _GRID_LIMIT:
            return super().eval_range(p)
        acc = _grid_eval_small([frac_mod(c, p) for c in self.coeffs], p)
        self.calls += p
        return _read_only(acc)


class ProgramBox(ModularBlackBox):
    """Straight-line program over +, -, * with rational constants.

    Instructions are tuples writing one register each:
      ("input",)          push the evaluation point
      ("const", q)        push the rational constant q
      ("add"|"sub"|"mul", i, j)   combine registers i and j
    The last register is the result.
    """

    _OPS = {"input", "const", "add", "sub", "mul"}

    def __init__(self, ops: Sequence[tuple]):
        super().__init__()
        if not ops:
            raise ValueError("program must have at least one instruction")
        for idx, op in enumerate(ops):
            if op[0] not in self._OPS:
                raise ValueError(f"unknown instruction {op[0]!r}")
            if op[0] in ("add", "sub", "mul") and not (0 <= op[1] < idx and 0 <= op[2] < idx):
                raise ValueError("operands must reference earlier registers")
        self.ops = tuple(ops)

    def _eval(self, p: int, theta: int) -> int:
        regs = []
        for op in self.ops:
            kind = op[0]
            if kind == "input":
                regs.append(theta % p)
            elif kind == "const":
                regs.append(frac_mod(Fraction(op[1]), p))
            elif kind == "add":
                regs.append((regs[op[1]] + regs[op[2]]) % p)
            elif kind == "sub":
                regs.append((regs[op[1]] - regs[op[2]]) % p)
            else:
                regs.append(regs[op[1]] * regs[op[2]] % p)
        return regs[-1]


class ShiftedBox(ModularBlackBox):
    """View of an inner box with the argument shifted by a rational alpha."""

    def __init__(self, inner: ModularBlackBox, alpha):
        super().__init__()
        self.inner = inner
        self.alpha = Fraction(alpha)

    def _eval(self, p: int, theta: int) -> int:
        a = frac_mod(self.alpha, p)
        return self.inner.eval(p, (theta + a) % p)

    def eval_range(self, p: int) -> np.ndarray:
        a = frac_mod(self.alpha, p)
        grid = self.inner.eval_range(p)
        self.calls += p
        return _read_only(np.roll(grid, -a))


# ---------------- spec operations ----------------

def make_blackbox(f: ShiftedLacunary) -> ModularBlackBox:
    """Black box computing f(theta) mod p term-wise."""
    return LacunaryBox(f)


def shifted_blackbox(bb: ModularBlackBox, alpha) -> ModularBlackBox:
    """Black box for g(x) = f(x + alpha) built on top of the box for f."""
    return ShiftedBox(bb, alpha)


def reduce_mod(bb: ModularBlackBox, p: int) -> DensePolyMod:
    """The degree-<p polynomial agreeing with the box on all of Z_p.

    Uses exactly p black-box queries followed by dense interpolation; the
    evaluation grid stays attached to the result so later shifts reuse it.
    DenominatorVanished propagates: the caller must discard p entirely.
    Primes p >= 2^31 raise ValueError before any query.
    """
    _check_grid_prime(p)
    values = bb.eval_range(p)
    return interpolate_range(values, p)


# Reservoir regenerations a driver's prime loop allows before it gives up.
_MAX_REGENERATIONS = 10


def _reductions(bb: ModularBlackBox, stream) -> Iterator[DensePolyMod]:
    """f^(p) for each next prime of the stream, endlessly.

    A prime where a denominator vanishes is discarded from the stream, so it
    never counts toward the guarantee.  BlackBoxFailure once the stream has
    regenerated its reservoir more than _MAX_REGENERATIONS times.
    """
    while True:
        if stream.regenerations > _MAX_REGENERATIONS:
            raise BlackBoxFailure(
                f"no usable primes after {stream.regenerations} reservoir regenerations"
            )
        p = stream.next_prime()
        try:
            fp = reduce_mod(bb, p)
        except DenominatorVanished:
            stream.discard(p)
            continue
        yield fp
