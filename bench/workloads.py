"""Seeded instance sets for the benchmark workloads, and their correctness oracle.

Every instance is a shifted-sparse polynomial with its size parameters
(t, bn, bh, ba) set exactly and tight ``Bounds``.  The seed picks only the
random content (exponents, coefficients, shift); the grid of sizes is fixed
per workload.  The prime and query counts of an instance set are fixed by
the bounds, up to rare primes that divide a denominator, so they do not
change from seed to seed.

The library is passed in as a module object because the runner imports it
afresh for each set-up repetition; the box subclasses are built against
that import.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

GOLDEN = {"shift": 3, "constant": 0, "terms": ((1, 15), (-2, 5))}
GOLDEN_BOUNDS = {"ba": 4, "bt": 2, "bh": 4, "bn": 4}

# (t, bn, bh, ba) grids.  Every instance keeps deg >= 2t + 1, so shift
# recovery takes the modular path, unless it is in the dense grid.
LACUNARY_GRID = ((2, 12, 6, 6), (2, 16, 6, 6), (3, 14, 5, 5), (4, 12, 4, 4))
PROGRAM_GRID = ((1, 8, 5, 5), (2, 6, 4, 4))
# Large shifts need primes whose product passes 2^(2ba+1), while t=1 keeps
# the interpolation phase short: the shift phase is about three quarters of
# the solve, and min_shift with the re-interpolation in its taylor_shift
# about a third.
SHIFT_GRID =((1, 8, 4, 32), (1, 10, 4, 36), (1, 12, 4, 39), (1, 8, 3, 40), (1, 10, 3, 34),
              (1, 12, 3, 38))
# (t, bh, ba) with deg <= 2t: the dense regime.  Not in BENCHMARK.json: at
# this commit many of these get a wrong answer (see EXCLUDED).
DENSE_GRID = ((1, 4, 20), (2, 4, 18), (2, 8, 16), (3, 4, 12))

# Families left out of the benchmarked workloads, with the reason.
EXCLUDED = (
    {"family": "t=5, bn=20", "reason": "the reservoir reaches p >= 2^17, where densepoly "
     "falls back to O(p^2) pure-Python interpolation; more than 10 minutes per instance"},
    {"family": "bound-violating inputs, such as golden with bt=1", "reason": "primes with "
     "no unique sparse shift are not counted, so the reservoir regrows into the same "
     "fallback; still running after 280 s"},
    {"family": "dense regime, deg <= 2t (workload 'dense')", "reason": "dense_case_recover "
     "reconstructs each power-basis coefficient from one prime q > 2^(2*bt*ba + bh), but "
     "rational reconstruction needs q > 2*B^2 for coefficients up to B, and the "
     "coefficients can exceed 2^(2*bt*ba + bh): roughly 40% of random instances get a wrong "
     "answer"},
)


@dataclass
class Instance:
    name: str
    poly: object        # the generating ShiftedLacunary
    bounds: object      # tight Bounds
    box: object         # counting black box handed to the library
    dense: bool         # deg <= 2t: the answer's shift may legitimately differ

    def spec(self, lc) -> str:
        """Canonical text of the instance, byte-identical for one seed."""
        b = self.bounds
        return lc.canonical_json({
            "name": self.name,
            "poly": self.poly.to_json(),
            "bounds": [b.ba, b.bt, b.bh, b.bn],
            "box": type(self.box).__name__,
            "dense": self.dense,
        })


class GridCounter:
    """Box mixin counting full-grid evaluations that returned: the primes paid for."""

    grid_evals = 0

    def eval_range(self, p):
        values = super().eval_range(p)
        self.grid_evals += 1
        return values


def box_classes(lc):
    """Counting subclasses of the library's lacunary and program boxes."""
    return (type("CountingLacunaryBox", (GridCounter, lc.LacunaryBox), {}),
            type("CountingProgramBox", (GridCounter, lc.ProgramBox), {}))


def rational_of_size(rng: random.Random, size: int) -> Fraction:
    """Nonzero a/b in lowest terms with bits(|a|) + bits(b) + 1 == size."""
    if size < 3:
        raise ValueError("a nonzero rational has size >= 3")
    while True:
        na = rng.randint(1, size - 2)
        nb = size - 1 - na
        a = rng.randrange(1 << (na - 1), 1 << na) * rng.choice((1, -1))
        b = rng.randrange(1 << (nb - 1), 1 << nb)
        if math.gcd(a, b) == 1:
            return Fraction(a, b)


def exponent_with_ones(rng, lo, hi, ones):
    """Random e in [lo, hi) with exactly ``ones`` bits set."""
    while True:
        e = rng.randrange(lo, hi)
        if e.bit_count() == ones:
            return e


def random_poly(lc, rng, t, bn, bh, ba, *, dense=False, ones=None):
    """Shifted-sparse polynomial with exactly t terms and sizes bn, bh, ba.

    Modular instances have degree in [2^(bn-1), 2^bn); dense ones have
    degree <= 2t, so bn is taken from the degree.  With ``ones`` set, every
    exponent has that many bits set, which fixes the length of its
    square-and-multiply program.
    """
    if dense:
        exps = sorted(rng.sample(range(1, 2 * t + 1), t))
    elif ones:
        top = exponent_with_ones(rng, 1 << (bn - 1), 1 << bn, ones)
        lower = set()
        while len(lower) < t - 1:
            lower.add(exponent_with_ones(rng, 1, top, ones))
        exps = sorted(lower) + [top]
    else:
        top = rng.randrange(1 << (bn - 1), 1 << bn)
        exps = sorted(rng.sample(range(1, top), t - 1)) + [top]
        if top < 2 * t + 1:
            raise ValueError("modular instances need deg >= 2t + 1")
    poly = lc.ShiftedLacunary(
        shift=rational_of_size(rng, ba),
        constant=rational_of_size(rng, bh),
        terms=tuple((rational_of_size(rng, bh), e) for e in exps),
    )
    bounds = lc.Bounds(ba=ba, bt=t, bh=bh, bn=max(1, poly.degree.bit_length()))
    return poly, bounds


def program_ops(poly):
    """Straight-line program for c0 + sum c_i (x - alpha)^e_i by square-and-multiply."""
    ops = [("input",), ("const", poly.shift), ("sub", 0, 1)]
    squares = [2]  # squares[k] is the register holding (x - alpha)^(2^k)
    for _ in range(1, poly.degree.bit_length()):
        ops.append(("mul", squares[-1], squares[-1]))
        squares.append(len(ops) - 1)
    ops.append(("const", poly.constant))
    acc = len(ops) - 1
    for c, e in poly.terms:
        power = None
        for k in range(e.bit_length()):
            if e >> k & 1:
                if power is None:
                    power = squares[k]
                else:
                    ops.append(("mul", power, squares[k]))
                    power = len(ops) - 1
        ops.append(("const", c))
        ops.append(("mul", len(ops) - 1, power))
        ops.append(("add", acc, len(ops) - 1))
        acc = len(ops) - 1
    return ops


def golden(lc):
    lacunary_box, _ = box_classes(lc)
    poly = lc.ShiftedLacunary(**GOLDEN)
    return Instance("golden", poly, lc.Bounds(**GOLDEN_BOUNDS), lacunary_box(poly), False)


def build(lc, workload: str, seed: int):
    """The instance list of one workload; the same seed gives the same list."""
    lacunary_box, program_box = box_classes(lc)
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "lacunary":
        out.append(golden(lc))
        for t, bn, bh, ba in LACUNARY_GRID:
            poly, bounds = random_poly(lc, rng, t, bn, bh, ba)
            out.append(Instance(f"t{t}-bn{bn}", poly, bounds, lacunary_box(poly), False))
    elif workload == "program":
        for t, bn, bh, ba in PROGRAM_GRID:
            # half the exponent bits set: the same program length for every seed
            poly, bounds = random_poly(lc, rng, t, bn, bh, ba, ones=bn // 2)
            box = program_box(program_ops(poly))
            out.append(Instance(f"slp-t{t}-bn{bn}", poly, bounds, box, False))
    elif workload == "shift":
        for t, bn, bh, ba in SHIFT_GRID:
            poly, bounds = random_poly(lc, rng, t, bn, bh, ba)
            out.append(Instance(f"t{t}-ba{ba}", poly, bounds, lacunary_box(poly), False))
    elif workload == "dense":
        for t, bh, ba in DENSE_GRID:
            poly, bounds = random_poly(lc, rng, t, 0, bh, ba, dense=True)
            out.append(Instance(f"dense-t{t}-ba{ba}", poly, bounds, lacunary_box(poly), True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def is_correct(inst: Instance, answer) -> bool:
    """Exact check of one answer against the generating polynomial.

    On the modular path the sparsest shift is unique, so the answer must
    equal the generator.  In the dense regime ties may pick another shift:
    the answer must be the same polynomial over Q with at most t terms.
    """
    if not inst.dense:
        return answer == inst.poly
    if answer.t > inst.poly.t:
        return False
    points = range(max(answer.degree, inst.poly.degree) + 1)
    return all(answer.evaluate_exact(x) == inst.poly.evaluate_exact(x) for x in points)
