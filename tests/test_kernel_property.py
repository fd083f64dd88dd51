"""Property tests of the chirp-transform kernel and the sparse kernel at
every prime below 600, of the cyclic recurrence check against a naive term
count, of the image a candidate's confirmation reads in
the sparse kernel's place, of the Hankel singularity test and the shift
search's degree test, of the int64 reduction helper, of the Horner
steps, of the lacunary box's float64 sums split into limbs and chunks, of
the dense box, which is the lacunary box of its terms, and of the
straight-line program box's plan, kept per bit length of the modulus.

Kept apart from test_densepoly so that the other kernel tests still run
where hypothesis is not installed.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fractions import Fraction

from lacuna import (
    DenominatorVanished,
    DenseBox,
    DensePolyMod,
    LacunaryBox,
    ProgramBox,
    ShiftedLacunary,
    interpolate_range,
    interpolate_sparse,
    is_prime,
    make_blackbox,
    next_prime_above,
)
from lacuna import blackbox, densepoly, sparse_interp
from lacuna.densepoly import _difference, _hankel_singular, _horner, _mod

from conftest import (
    naive_frac_mod,
    naive_interpolate,
    naive_program_value,
    naive_termwise_reduction,
    random_instance,
)

PRIMES_BELOW_600 = [p for p in range(600) if is_prime(p)]


def grid_of(coeffs, p):
    grid = []
    for x in range(p):
        y = 0
        for c in reversed(coeffs):
            y = (y * x + c) % p
        grid.append(y)
    return grid


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), seed=st.integers(0, 2**32 - 1))
@example(p=2, seed=0)
@example(p=2, seed=3)
def test_kernel_round_trip_property(p, seed):
    rng = random.Random(seed)
    coeffs = [rng.randrange(p) for _ in range(rng.randint(0, p))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    grid = grid_of(coeffs, p)
    assert list(interpolate_range(grid, p).coeffs) == coeffs


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), s=st.integers(1, 5), extra=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
@example(p=2, s=1, extra=1, seed=0)
@example(p=3, s=1, extra=1, seed=1)
@example(p=5, s=3, extra=1, seed=2)
def test_sparse_kernel_property(p, s, extra, seed):
    # s - 1, s or s + 1 terms (fewer where p - 1 slots do not allow them):
    # the dense interpolant when it has at most s terms, else None
    rng = random.Random(seed)
    t = min(p - 1, max(0, s - 1 + rng.randint(0, 1) + extra))
    coeffs = [0] * p
    coeffs[0] = rng.choice([0, rng.randrange(p)])
    for e in rng.sample(range(1, p), t):
        coeffs[e] = rng.randrange(1, p)
    grid = grid_of(coeffs, p)
    dense = interpolate_range(grid, p)
    sparse = np.count_nonzero(dense.coeffs[1:]) <= s
    assert interpolate_sparse(grid, p, s) == (dense if sparse else None)
    noise = [rng.randrange(p) for _ in range(p)]  # a random grid is dense but at tiny p
    dense = interpolate_range(noise, p)
    sparse = np.count_nonzero(dense.coeffs[1:]) <= s
    assert interpolate_sparse(noise, p, s) == (dense if sparse else None)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([p for p in PRIMES_BELOW_600 if p < 200]), s=st.integers(0, 6),
       kind=st.sampled_from(("random", "planted", "perturbed")), seed=st.integers(0, 2**32 - 1))
@example(p=2, s=0, kind="random", seed=0)
@example(p=7, s=2, kind="perturbed", seed=1)
def test_cyclic_decision_is_the_naive_term_count(p, s, kind, seed):
    # _sparse_recurrence accepts exactly the grids whose naive interpolant
    # has at most s non-constant terms, and then has their number as its
    # order: random grids, planted grids of s - 1..s + 1 terms, and planted
    # grids with one value changed, which adds a Lagrange basis polynomial
    rng = random.Random(seed)
    if kind == "random":
        grid = [rng.randrange(p) for _ in range(p)]
    else:
        coeffs = [0] * p
        coeffs[0] = rng.randrange(p)
        for e in rng.sample(range(1, p), min(p - 1, max(0, s + rng.randint(-1, 1)))):
            coeffs[e] = rng.randrange(1, p)
        grid = grid_of(coeffs, p)
        if kind == "perturbed":
            x = rng.randrange(p)
            grid[x] = (grid[x] + rng.randrange(1, p)) % p
    terms = sum(1 for c in naive_interpolate(grid, p)[1:] if c)
    conn = densepoly._sparse_recurrence(np.array(grid, dtype=np.int64), p, s)
    assert (conn is not None) == (terms <= s), (terms, conn)
    assert conn is None or len(conn) - 1 == terms


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600[2:]), t=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), shift=st.integers(0, 598))
@example(p=5, t=5, seed=0, shift=0)
@example(p=7, t=3, seed=1, shift=0)
@example(p=7, t=3, seed=1, shift=4)
def test_confirmed_image_is_the_sparse_kernel_image(p, t, seed, shift):
    # exponents from a pool of fewer slots than terms collide modulo p - 1,
    # where coefficients are summed and may cancel; a numerator is a
    # multiple of p one time in five, a denominator one time in ten.  The
    # box is the candidate's at the shift, and the kernel reads its grid
    # rotated back
    rng = random.Random(seed)
    shift %= p
    pool = rng.sample(range(1, p), min(p - 1, max(1, t - 1)))
    exps = set()
    while len(exps) < t:
        exps.add(rng.choice(pool) + (p - 1) * rng.randrange(4))

    def rat():
        num = (p if rng.randrange(5) == 0 else 1) * rng.choice((-1, 1)) * rng.randint(1, 12)
        return Fraction(num, (p if rng.randrange(10) == 0 else 1) * rng.randint(1, 12))

    poly = ShiftedLacunary(Fraction(0), rng.choice((Fraction(0), rat())),
                           tuple((rat(), e) for e in sorted(exps)))
    try:
        values = LacunaryBox(ShiftedLacunary(shift, poly.constant, poly.terms)).eval_range(p)
    except DenominatorVanished:
        # the candidate has no image at p: the grid goes to the kernel
        noise = np.array([rng.randrange(p) for _ in range(p)], dtype=np.int64)
        assert sparse_interp._confirmed_image(poly, noise, p, shift) is None
        return
    want = sparse_interp.PrimeImage.from_poly(
        interpolate_sparse(densepoly._rotate(values, shift), p, t))
    assert sparse_interp._confirmed_image(poly, values, p, shift) == want
    changed = values.copy()
    changed[rng.randrange(p)] += rng.randrange(1, p)
    changed %= p
    assert sparse_interp._confirmed_image(poly, changed, p, shift) is None


# ---------------- the Hankel singularity test ----------------

def det_mod(m, p):
    """Determinant of a square matrix of ints modulo a prime p, by Gaussian
    elimination with Python ints."""
    m = [[x % p for x in row] for row in m]
    det = 1
    for i in range(len(m)):
        piv = next((r for r in range(i, len(m)) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det = det * m[i][i] % p
        inv = pow(m[i][i], -1, p)
        for r in range(i + 1, len(m)):
            f = m[r][i] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[i])]
    return det % p


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600 + [65537, 2**31 - 1]), t=st.integers(1, 5),
       order=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(p=2, t=3, order=1, seed=0)
@example(p=2**31 - 1, t=5, order=5, seed=1)
def test_hankel_singular_flags_every_singular_matrix(p, t, order, seed):
    # rows obeying a recurrence of order < t + 1 give singular matrices,
    # random rows mostly regular ones: wherever det A = 0 modulo p the
    # test's residue is 0
    rng = random.Random(seed)
    rows = []
    for _ in range(20):
        roots = [rng.randrange(p) for _ in range(min(order, t))]
        coeffs = [rng.randrange(p) for _ in roots]
        rows.append([sum(c * pow(r, j, p) for c, r in zip(coeffs, roots)) % p
                     for j in range(2 * t + 1)])
        rows.append([rng.randrange(p) for _ in range(2 * t + 1)])
    cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
    got = _hankel_singular(cols, p).tolist()
    for row, g in zip(rows, got):
        assert 0 <= g < p
        if det_mod([row[a : a + t + 1] for a in range(t + 1)], p) == 0:
            assert g == 0, row


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), t=st.integers(1, 5), deg=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
@example(p=2, t=1, deg=1, seed=0)
@example(p=5, t=2, deg=4, seed=0)
@example(p=11, t=2, deg=5, seed=0)
def test_difference_is_the_degree_test(p, t, deg, seed):
    # the (2t+1)-th finite difference of a grid is nonzero exactly when its
    # interpolant has degree >= 2t + 1; degrees near 2t + 1 hit both sides
    rng = random.Random(seed)
    deg = min(deg, p - 1)
    grid = grid_of([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)], p)
    diff = _difference(np.array(grid, dtype=np.int64), p, 2 * t + 1)
    assert len(diff) == max(0, p - 2 * t - 1) and all(0 <= v < p for v in diff.tolist())
    assert bool(diff.any()) == (interpolate_range(grid, p).degree >= 2 * t + 1)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 4001, 2**31 - 1]), k=st.integers(0, 70),
       vals=st.lists(st.integers(0, 2**31 - 2), max_size=80) | st.none())
@example(p=2**31 - 1, k=31, vals=None)
@example(p=2**31 - 1, k=62, vals=None)
def test_difference_runs_unreduced_steps_exactly(p, k, vals):
    # up to 31 differences run before a reduction; a step-by-step reduced
    # difference gives the same residues, also on the grid of alternating
    # 0 and p - 1 (vals None), where every step doubles the largest value
    vals = [(p - 1) * (i % 2) for i in range(80)] if vals is None else [v % p for v in vals]
    want = np.array(vals, dtype=np.int64)
    for _ in range(k):
        want = np.diff(want) % p
    assert _difference(np.array(vals, dtype=np.int64), p, k).tolist() == want.tolist()


# ---------------- the reduction helper ----------------

@settings(max_examples=200, deadline=None)
@given(a=st.integers(), m=st.integers(1, 2**64))
def test_mod_of_an_int_is_python_mod(a, m):
    assert _mod(a, m) == a % m


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.int64, st.integers(0, 40),
                    elements=st.integers(-2**63, 2**63 - 1)),
       m=st.integers(2, 2**31 - 1))
@example(a=np.array([-2**63, -(2**63 - 2**31), -1, 0, 1, 2**31 - 2, 2**63 - 1],
                    dtype=np.int64), m=2**31 - 1)
@example(a=np.array([-3, -2, -1, 0, 1, 2, 3], dtype=np.int64), m=2)
def test_mod_of_an_int64_array_is_numpy_mod_in_place(a, m):
    want = a % m
    got = _mod(a, m)
    assert got is a and got.dtype == np.int64
    assert np.array_equal(got, want)


# ---------------- the lacunary box's float64 sums ----------------

@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), seed=st.integers(0, 2**32 - 1),
       exact_bits=st.integers(10, 20), chunk=st.integers(1, 64))
@example(p=599, seed=0, exact_bits=10, chunk=64)
@example(p=599, seed=1, exact_bits=20, chunk=3)
def test_lacunary_grid_same_under_every_reduction_schedule(p, seed, exact_bits, chunk):
    # with float64 sums limited to 2^10..2^20 instead of 2^53, most of these
    # primes split the power table into limbs and the terms into groups,
    # and products of 1..64 terms split the groups into chunks
    f, _ = random_instance(random.Random(seed), max_t=6, max_exp=1 << 14)
    want = naive_termwise_reduction(f, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(densepoly, "_EXACT_FLOAT", 1 << exact_bits)
        mp.setattr(densepoly, "_SUMS_CHUNK", chunk)
        blackbox._lacunary_grid.cache_clear()  # a grid cached under 2^53 would skip the schedule
        try:
            grid = make_blackbox(f).eval_range(p)
        except DenominatorVanished:
            grid = None
    if want is None:
        assert grid is None
    else:
        assert interpolate_range(grid, p) == DensePolyMod(p, want)


# ---------------- the dense box ----------------

@st.composite
def dense_lists(draw, p):
    """Rationals with denominators up to 9 at up to 20 places, zero at the
    rest, of degree up to p + 3, so that exponents wrap modulo p - 1."""
    d = draw(st.integers(0, p + 3))
    placed = draw(st.dictionaries(st.integers(0, d), st.fractions(max_denominator=9),
                                  min_size=1, max_size=20))
    return [placed.get(j, Fraction(0)) for j in range(d + 1)]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009]), data=st.data())
@example(p=5, data=[Fraction(5, 2), Fraction(2, 3), Fraction(0), Fraction(0), Fraction(0),
                    Fraction(-1), Fraction(0), Fraction(7), Fraction(0)])
@example(p=7, data=[Fraction(0), Fraction(0), Fraction(1, 7)])
@example(p=3, data=[Fraction(1, 3), Fraction(1)])
@example(p=2, data=[])
def test_dense_box_is_the_naive_dense_sum(p, data):
    coeffs = data if isinstance(data, list) else data.draw(dense_lists(p))
    box = DenseBox(coeffs)
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert box.coeffs == tuple(trimmed)
    residues = [naive_frac_mod(c, p) for c in coeffs]
    if None in residues:  # p divides the denominator of a nonzero coefficient
        with pytest.raises(DenominatorVanished):
            box.eval_range(p)
        with pytest.raises(DenominatorVanished):
            box.eval(p, 0)
        return
    want = [sum(r * pow(x, j, p) for j, r in enumerate(residues)) % p for x in range(p)]
    assert box.eval_range(p).tolist() == want
    assert [box.eval(p, x) for x in range(p)] == want
    assert box.calls == 2 * p


# ---------------- Horner steps ----------------

def horner_reducing_every_step(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 2**31 - 1), data=st.data())
@example(m=2**31 - 1, data=None)
@example(m=(1 << 21) - 1, data=None)
@example(m=1 << 21, data=None)
@example(m=2, data=None)
def test_lazy_horner_equals_reducing_every_step(m, data):
    # residues at the top of [0, m) make every partial sum as large as it
    # can be: an accumulator left to pass 2^63 would wrap and show here
    if data is None:
        coeffs, xs = [m - 1] * 13, np.full(3, m - 1, dtype=np.int64)
    else:
        coeffs = data.draw(st.lists(st.integers(0, m - 1), max_size=13))
        xs = data.draw(hnp.arrays(np.int64, st.integers(1, 6), elements=st.integers(0, m - 1)))
    want = [horner_reducing_every_step(coeffs, int(x), m) for x in xs]
    before = xs.tolist()
    got = _horner(coeffs, xs, m)
    assert got.dtype == np.int64 and got.tolist() == want
    assert xs.tolist() == before
    assert [_horner(coeffs, int(x), m) for x in xs] == want


# ---------------- the straight-line program box's plan ----------------

# a few primes of each bit length from 8 to 31: the least ones and the
# largest ones, where residues come nearest to 2^b - 1
PRIMES_BY_BITS = {
    b: [p for p in (*range(1 << (b - 1), (1 << (b - 1)) + 64), *range((1 << b) - 64, 1 << b))
        if is_prime(p)]
    for b in range(8, 32)
}
PROGRAM_SCALAR_PRIME = next_prime_above(1 << 70)
# 257 and 65,537 are grid primes: a constant over them vanishes there
PROGRAM_DENOMINATORS = (1, 1, 2, 3, 35, 257, 65537)
PROGRAM_MAX_WEIGHT = 96  # a bound on the x-degree and on the powers of a constant


@st.composite
def plan_programs(draw):
    """A ProgramBox instruction list: squarings, results read long after
    they are made, constants combined with constants only, and an optional
    last instruction that returns the input or a constant.  No register's
    weight (1 for the input or a constant, w_i + w_j for a product, the
    larger for a sum) passes PROGRAM_MAX_WEIGHT, which keeps the exact
    reference cheap."""
    def const():
        num = draw(st.integers(-10**6, 10**6))
        return ("const", Fraction(num, draw(st.sampled_from(PROGRAM_DENOMINATORS))))

    ops, weight = [], []
    ops.append(("input",) if draw(st.booleans()) else const())
    weight.append(1)
    for _ in range(draw(st.integers(0, 18))):
        shape = draw(st.sampled_from(("input", "const", "any", "square", "early", "constants")))
        if shape in ("input", "const"):
            ops.append(("input",) if shape == "input" else const())
            weight.append(1)
            continue
        last = len(ops) - 1
        kind = draw(st.sampled_from(("add", "sub", "mul")))
        constants = [r for r, op in enumerate(ops) if op[0] == "const"]
        if shape == "square":
            kind, i, j = "mul", last, last
        elif shape == "early":  # reads one of the first registers again
            i, j = draw(st.integers(0, min(2, last))), last
        elif shape == "constants" and constants:
            i, j = draw(st.sampled_from(constants)), draw(st.sampled_from(constants))
        else:
            i, j = draw(st.integers(0, last)), draw(st.integers(0, last))
        if kind == "mul" and weight[i] + weight[j] > PROGRAM_MAX_WEIGHT:
            kind = "add"
        ops.append((kind, i, j))
        weight.append(weight[i] + weight[j] if kind == "mul" else max(weight[i], weight[j]))
    tail = draw(st.sampled_from((None, "input", "const")))
    if tail:
        ops.append(("input",) if tail == "input" else const())
    return ops


def plan_reference(ops, p, values):
    """The program's values mod p from its exact values, or None where a
    constant's denominator vanishes mod p."""
    if any(op[0] == "const" and op[1].denominator % p == 0 for op in ops):
        return None
    return [naive_frac_mod(v, p) for v in values]


@settings(max_examples=80, deadline=None)
@given(ops=plan_programs(), grid_bits=st.sampled_from((8, 9)), data=st.data())
@example(ops=[("input",), *(("mul", r, r) for r in range(6)), ("const", Fraction(-1, 3)),
              ("mul", 1, 5), ("sub", 8, 7)], grid_bits=8, data=None)
@example(ops=[("const", Fraction(5, 2)), ("const", -7), ("mul", 0, 1), ("mul", 2, 2),
              ("sub", 3, 0)], grid_bits=9, data=None)
@example(ops=[("input",), ("mul", 0, 0), ("mul", 1, 1), ("input",)], grid_bits=8, data=None)
@example(ops=[("input",), ("mul", 0, 0), ("const", Fraction(3, 257))], grid_bits=9, data=None)
def test_program_plan_is_exact_at_every_prime_of_every_length(ops, grid_bits, data):
    # one box, several primes of one bit length, then other lengths: every
    # plan holds for every prime of its length, and one is kept per length
    bb = ProgramBox(ops)
    if data is None:
        grid_primes = PRIMES_BY_BITS[grid_bits][:2] + PRIMES_BY_BITS[grid_bits][-1:]
        lengths = [10, 16, 31]
    else:
        grid_primes = data.draw(st.lists(st.sampled_from(PRIMES_BY_BITS[grid_bits]),
                                         min_size=2, max_size=3, unique=True))
        lengths = data.draw(st.lists(st.integers(10, 31), min_size=1, max_size=4, unique=True))
    exact = [naive_program_value(ops, x) for x in range(1 << grid_bits)]
    for p in grid_primes:
        want = plan_reference(ops, p, exact[:p])
        if want is None:
            with pytest.raises(DenominatorVanished):
                bb.eval_range(p)
            continue
        grid = bb.eval_range(p)
        assert grid.tolist() == want, (ops, p)
        assert [bb.eval(p, x) for x in range(p)] == want, (ops, p)
    for b in lengths:
        p = PRIMES_BY_BITS[b][-1] if data is None else data.draw(st.sampled_from(PRIMES_BY_BITS[b]))
        points = [p - 1, p - 2, p // 2 + 1, 2, 1, 0]
        want = plan_reference(ops, p, [naive_program_value(ops, x) for x in points])
        x = np.array(points, dtype=np.int64)
        if want is None:
            with pytest.raises(DenominatorVanished):
                bb._eval(p, x)
            continue
        got = bb._eval(p, x)
        assert np.broadcast_to(got, x.shape).tolist() == want, (ops, p)
        assert x.tolist() == points  # the caller's array is never written
        assert [bb.eval(p, v) for v in points] == want, (ops, p)
    p = PROGRAM_SCALAR_PRIME
    points = [p - 1, p // 2 + 1, 1]
    want = plan_reference(ops, p, [naive_program_value(ops, x) for x in points])
    assert [bb.eval(p, x) for x in points] == want, ops
    assert sorted(bb._plans) == sorted({grid_bits, *lengths, p.bit_length()})
