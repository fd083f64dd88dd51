"""Property test of ``sparse_interpolate``'s shift: the box is queried
itself, and the answer or error, the queries and the primes, in order, are
those of the unshifted pipeline on the box shifted by ``shifted_blackbox``.

Kept apart from test_sparse_interp so that the other pipeline tests still
run where hypothesis is not installed.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacuna import (
    Bounds,
    DenominatorVanished,
    DenseBox,
    LacunaError,
    LacunaryBox,
    ModularBlackBox,
    ProgramBox,
    ShiftedLacunary,
    generate,
    shifted_blackbox,
    sparse_interpolate,
)
from lacuna.sparse_interp import interp_oracle_config
from lacuna.sparsest_shift import taylor_shift_exact

from conftest import naive_frac_mod


class PointBox(ModularBlackBox):
    """A box defined outside the library: it evaluates one point at a time,
    and its grid is the base class's loop over them."""

    def __init__(self, poly):
        super().__init__()
        self.poly = poly
        self._residues = {}

    def _eval(self, p, theta):
        if p not in self._residues:
            f = self.poly
            self._residues[p] = [naive_frac_mod(q, p)
                                 for q in (f.constant, f.shift, *(c for c, _ in f.terms))]
        c0, shift, *coeffs = self._residues[p]
        if None in self._residues[p]:
            raise DenominatorVanished(p)
        return (c0 + sum(c * pow(theta - shift, e, p)
                         for c, (_, e) in zip(coeffs, self.poly.terms))) % p


class Asked:
    """Box mixin noting every prime its grid is asked for, in order,
    whether or not the box then answers."""

    def eval_range(self, p):
        self.asked.append(p)
        return super().eval_range(p)


def dense_coeffs(poly):
    """f's coefficients from degree 0 up."""
    g = [Fraction(0)] * (poly.degree + 1)
    g[0] = poly.constant
    for c, e in poly.terms:
        g[e] = c
    return taylor_shift_exact(g, -poly.shift)


def horner_program(coeffs):
    ops = [("input",), ("const", coeffs[-1])]
    acc = 1
    for c in reversed(coeffs[:-1]):
        k = len(ops)
        ops += [("mul", acc, 0), ("const", c), ("add", k, k + 1)]
        acc = k + 2
    return ops


BOXES = {
    "lacunary": lambda f: type("AskedLacunary", (Asked, LacunaryBox), {})(f),
    "dense": lambda f: type("AskedDense", (Asked, DenseBox), {})(dense_coeffs(f)),
    "program": lambda f: type("AskedProgram", (Asked, ProgramBox), {})(
        horner_program(dense_coeffs(f))),
    "point": lambda f: type("AskedPoint", (Asked, PointBox), {})(f),
}


def bits(x):
    return (x - 1).bit_length()


def instance(rng):
    """f = c0 + sum c_i x^e_i with t <= 2, e_i <= 16 and heights
    <= 8, and the least bounds it meets."""
    t = rng.randint(1, 2)
    exps = sorted(rng.sample(range(1, 17), t))

    def rat():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8))

    poly = ShiftedLacunary(0, rat() if rng.random() < 0.7 else 0,
                           tuple((rat(), e) for e in exps))
    height = max(max(abs(q.numerator), q.denominator)
                 for q in (poly.constant, *(c for c, _ in poly.terms)))
    return poly, Bounds(ba=1, bt=t, bh=bits(height), bn=bits(exps[-1]))


def outcome(run):
    try:
        return run()
    except LacunaError as exc:
        return type(exc), str(exc)


@settings(max_examples=16, deadline=None)
@given(kind=st.sampled_from(sorted(BOXES)), seed=st.integers(0, 2**32 - 1),
       on_stream=st.booleans(), off=st.sampled_from(("none", "one", "first prime")))
@example(kind="point", seed=0, on_stream=True, off="none")
@example(kind="program", seed=1, on_stream=False, off="first prime")
@example(kind="dense", seed=2, on_stream=False, off="none")
@example(kind="lacunary", seed=3, on_stream=True, off="one")
def test_a_shift_reads_the_box_as_the_shifted_view_did(kind, seed, on_stream, off):
    # f's shift is a small rational, or k/q for q one of the first three
    # primes the interpolation stream hands out.  The pipeline reads f at
    # f's own shift, or off it by 1 or by 1/q0, q0 the first prime: there
    # f(x + alpha) is dense, and q0 is discarded before the box is asked
    rng = random.Random(seed)
    first, bounds = instance(rng)
    stream = generate(interp_oracle_config(bounds))
    early = [stream.next_prime() for _ in range(3)]
    q = rng.choice(early)
    shift = (Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q) if on_stream
             else Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    poly = ShiftedLacunary(shift, first.constant, first.terms)
    alpha = shift + {"none": 0, "one": 1, "first prime": Fraction(1, early[0])}[off]
    runs = []
    for shifted in (True, False):
        box = BOXES[kind](poly)
        box.asked = []
        if shifted:
            got = outcome(lambda: sparse_interpolate(box, bounds, shift=alpha))
        else:
            flat = outcome(lambda: sparse_interpolate(shifted_blackbox(box, alpha), bounds))
            got = flat if isinstance(flat, tuple) else ShiftedLacunary(alpha, flat.constant,
                                                                       flat.terms)
        runs.append((got, box.calls, box.asked))
    assert runs[0] == runs[1]
    got, _, asked = runs[0]
    if off == "none":
        assert got == poly
    # the primes dividing alpha's denominator are handed out and discarded
    # unasked: the stream hands out primes in ascending order
    assert asked and all(alpha.denominator % p for p in asked)
    if alpha.denominator % early[0] == 0:
        assert asked[0] > early[0]
