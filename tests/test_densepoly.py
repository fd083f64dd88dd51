"""Dense polynomial arithmetic and shift-search tests."""

import random

import numpy as np
import pytest

from lacuna import (
    DensePolyMod,
    evaluate_range,
    interpolate_range,
    is_prime,
    min_shift,
    next_prime_above,
    tau,
    taylor_shift,
)
from lacuna.densepoly import (
    _min_shift_candidates,
    _min_shift_exhaustive,
    poly_gcd_mod,
    poly_mul_mod,
    poly_rem_mod,
    poly_roots_mod,
)

from conftest import naive_interpolate, naive_min_shift, naive_taylor_coeffs

PRIMES_BELOW_600 = [p for p in range(600) if is_prime(p)]


def horner(coeffs, x, p):
    y = 0
    for c in reversed(coeffs):
        y = (y * x + c) % p
    return y


def grid_of(coeffs, p):
    return [horner(coeffs, i, p) for i in range(p)]


def horner_grid(coeffs, p):
    """grid_of with the points as one int64 vector (exact for p < 2^31)."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + int(c)) % p
    return acc.tolist()


# ---------------- interpolate_range ----------------

def test_interpolate_golden_grid(golden_poly):
    # evaluate (x-3)^15 - 2(x-3)^5 on 0..6 over Z_7, then interpolate
    vals = [(pow(i - 3, 15, 7) - 2 * pow(i - 3, 5, 7)) % 7 for i in range(7)]
    assert vals == [4, 0, 1, 0, 6, 0, 3]
    fp = interpolate_range(vals, 7)
    assert fp.coeffs.tolist() == [4, 1, 6, 3, 2, 5]  # 5x^5 + 2x^4 + 3x^3 + 6x^2 + x + 4


def test_interpolate_constant_and_identity():
    assert interpolate_range([5] * 11, 11).coeffs.tolist() == [5]
    assert interpolate_range(list(range(13)), 13).coeffs.tolist() == [0, 1]
    assert interpolate_range([0] * 11, 11).coeffs.tolist() == []


def test_interpolate_rejects_bad_input():
    with pytest.raises(ValueError):
        interpolate_range([0, 1, 2], 4)  # composite
    with pytest.raises(ValueError):
        interpolate_range([0, 1], 3)  # length mismatch
    with pytest.raises(ValueError):
        interpolate_range([0, 5, 1], 3)  # unreduced value


def test_interpolate_round_trip_small_primes():
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 31, 101):
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, p))]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            f = interpolate_range(grid_of(coeffs, p), p)
            assert list(f.coeffs) == coeffs


def test_interpolation_strategies_agree():
    # the chirp kernel against the schoolbook Lagrange reference, on a
    # planted half-degree polynomial and on random full-degree values
    rng = random.Random(29)
    for p in (521, 1031):
        coeffs = [rng.randrange(p) for _ in range(p // 2)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        vals = grid_of(coeffs, p)
        assert list(interpolate_range(vals, p).coeffs) == naive_interpolate(vals, p) == coeffs
        vals = [rng.randrange(p) for _ in range(p)]
        assert list(interpolate_range(vals, p).coeffs) == naive_interpolate(vals, p)


def test_kernel_exact_every_prime_below_600():
    # both directions, on the whole grid of every such prime, p = 2 included
    rng = random.Random(30)
    for p in PRIMES_BELOW_600:
        vals = [rng.randrange(p) for _ in range(p)]
        assert horner_grid(interpolate_range(vals, p).coeffs, p) == vals
        coeffs = [rng.randrange(p) for _ in range(p)]
        assert list(evaluate_range(DensePolyMod(p, coeffs))) == horner_grid(coeffs, p)


@pytest.mark.parametrize("p", [next_prime_above(1 << 17), next_prime_above(1 << 20)])
def test_kernel_exact_past_2_17(p):
    # 2 and 3 limbs: checked against Horner evaluation at random points
    rng = np.random.default_rng(p)
    vals = rng.integers(0, p, size=p)
    f = interpolate_range(vals, p)
    coeffs = rng.integers(0, p, size=p).tolist()
    grid = evaluate_range(DensePolyMod(p, coeffs))
    points = [0, p - 1, *rng.integers(1, p - 1, size=2).tolist()]
    for x in points:
        assert horner(f.coeffs, x, p) == vals[x]
        assert horner(coeffs, x, p) == grid[x]
    # the largest residues everywhere: sums at their maximum, both ways.
    # -(1 + x + ... + x^(p-1)) is -1 at x = 0, 0 at x = 1 and -1 elsewhere
    assert interpolate_range(np.full(p, p - 1), p).coeffs.tolist() == [p - 1]
    grid = evaluate_range(DensePolyMod(p, [p - 1] * p))
    assert grid.tolist() == [p - 1, 0] + [p - 1] * (p - 2)


def test_coeffs_and_grid_are_read_only():
    vals = np.array([4, 0, 1, 0, 6, 0, 3])  # the golden polynomial over Z_7
    fp = interpolate_range(vals, 7)
    with pytest.raises(ValueError):
        fp.coeffs[0] = 1
    grid = evaluate_range(fp)
    with pytest.raises(ValueError):
        grid[0] = 1
    # the grid is the polynomial's own copy of the values
    vals[0] = 5
    assert evaluate_range(fp).tolist() == [4, 0, 1, 0, 6, 0, 3]
    # and so are the coefficients, and a grid evaluated later
    coeffs = np.array([1, 2, 3])
    f = DensePolyMod(7, coeffs)
    coeffs[0] = 0
    assert f.coeffs.tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        evaluate_range(f)[1] = 0


def test_interpolate_rejects_moduli_past_2_31():
    p = next_prime_above(1 << 31)
    with pytest.raises(ValueError):
        interpolate_range([0] * 4, p)
    with pytest.raises(ValueError):
        evaluate_range(DensePolyMod(p, [1, 2, 3]))


def test_evaluate_range_matches_horner():
    rng = random.Random(31)
    for p in (17, 101, 521, 1031):
        coeffs = [rng.randrange(p) for _ in range(min(p - 1, 60))]
        f = DensePolyMod(p, coeffs)
        assert list(evaluate_range(f)) == grid_of(list(f.coeffs), p)


# ---------------- taylor_shift ----------------

def test_taylor_shift_golden(golden_poly):
    vals = [(pow(i - 3, 15, 7) - 2 * pow(i - 3, 5, 7)) % 7 for i in range(7)]
    fp = interpolate_range(vals, 7)
    assert taylor_shift(fp, 3).coeffs.tolist() == [0, 0, 0, 1, 0, 5]  # 5x^5 + x^3


def test_taylor_shift_identity_and_binomial():
    f = DensePolyMod(5, [0, 0, 1])
    assert taylor_shift(f, 0) is f
    assert taylor_shift(f, 1).coeffs.tolist() == [1, 2, 1]


def test_taylor_shift_group_action():
    rng = random.Random(37)
    for p in (7, 31, 101):
        coeffs = [rng.randrange(p) for _ in range(p - 1)]
        f = DensePolyMod(p, coeffs)
        for g in (1, p // 2, p - 1):
            assert taylor_shift(taylor_shift(f, g), p - g).coeffs.tolist() == f.coeffs.tolist()


def test_taylor_shift_is_evaluation_homomorphism():
    rng = random.Random(41)
    for p in (5, 13, 31):
        coeffs = [rng.randrange(p) for _ in range(p - 1)]
        f = DensePolyMod(p, coeffs)
        for g in range(p):
            shifted = taylor_shift(f, g)
            for x in range(p):
                assert shifted(x) == f((x + g) % p)


def test_taylor_shift_matches_synthetic_division():
    rng = random.Random(43)
    for p in (11, 101, 607):
        coeffs = [rng.randrange(p) for _ in range(p // 2)]
        f = DensePolyMod(p, coeffs)
        g = rng.randrange(1, p)
        want = naive_taylor_coeffs(list(f.coeffs), g, p)
        while want and want[-1] == 0:
            want.pop()
        assert list(taylor_shift(f, g).coeffs) == want


# ---------------- tau ----------------

def test_tau_examples():
    assert tau(DensePolyMod(7, [0, 0, 0, 1, 0, 5])) == 2
    assert tau(DensePolyMod(7, [4])) == 0
    assert tau(DensePolyMod(7, [1, 3])) == 1
    assert tau(DensePolyMod(7, [])) == 0


# ---------------- min_shift ----------------

def test_min_shift_golden(golden_poly):
    vals = [(pow(i - 3, 15, 7) - 2 * pow(i - 3, 5, 7)) % 7 for i in range(7)]
    fp = interpolate_range(vals, 7)
    got = min_shift(fp)
    assert (got.gamma, got.tau, got.tie) == (3, 2, False)


def test_min_shift_trivial_cases():
    got = min_shift(DensePolyMod(5, [0, 0, 1]))
    assert (got.gamma, got.tau) == (0, 1)
    # constants and zero: tau = 0 at gamma = 0 (every shift ties)
    assert min_shift(DensePolyMod(5, [2]))[:2] == (0, 0)
    assert min_shift(DensePolyMod(5, []))[:2] == (0, 0)


def test_min_shift_planted_quintic():
    # (x-2)^5 + (x-2) over Z_11: degree 5 >= 2*2+1 forces uniqueness
    coeffs = [0] * 6
    for c, e in (((1), 5), ((1), 1)):
        term = [c]
        for _ in range(e):
            nxt = [0] * (len(term) + 1)
            for i, t in enumerate(term):
                nxt[i + 1] = (nxt[i + 1] + t) % 11
                nxt[i] = (nxt[i] - 2 * t) % 11
            term = nxt
        for i, t in enumerate(term):
            coeffs[i] = (coeffs[i] + t) % 11
    f = DensePolyMod(11, coeffs)
    want = naive_min_shift(f.coeffs, 11)
    got = min_shift(f)
    assert (got.gamma, got.tau, got.tie) == want == (2, 2, False)


def test_min_shift_equals_exhaustive_search_random():
    rng = random.Random(47)
    for p in (5, 7, 11, 13, 31):
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, p))]
            f = DensePolyMod(p, coeffs)
            want = naive_min_shift(f.coeffs, p)
            got = min_shift(f)
            assert (got.gamma, got.tau, got.tie) == want, (p, coeffs)


def test_min_shift_candidate_path_agrees_with_exhaustive():
    # force the candidate path at medium primes and cross-check
    rng = random.Random(53)
    for p in (103, 211, 401):
        for t in (1, 2, 3):
            exps = sorted(rng.sample(range(1, p - 1), t))
            if 2 * t + 1 > exps[-1]:
                exps[-1] = min(p - 2, 2 * t + 1 + rng.randint(0, 5))
            g0 = rng.randrange(p)
            coeffs = [0] * p
            base = [1]
            dense = [0] * p
            for e in exps:
                # accumulate (x - g0)^e
                term = [1]
                for _ in range(e):
                    nxt = [0] * (len(term) + 1)
                    for i, tv in enumerate(term):
                        nxt[i + 1] = (nxt[i + 1] + tv) % p
                        nxt[i] = (nxt[i] - g0 * tv) % p
                    term = nxt
                for i, tv in enumerate(term):
                    dense[i] = (dense[i] + tv) % p
            f = DensePolyMod(p, dense)
            if f.degree < 3:
                continue
            got = min_shift(f)  # candidate searches run before the exhaustive one
            want = naive_min_shift(f.coeffs, p)
            assert (got.gamma, got.tau, got.tie) == want
            capped = min_shift(f, tau_cap=t)
            if not want[2] and want[1] <= t and f.degree >= 2 * t + 1:
                assert capped is not None and (capped.gamma, capped.tau) == want[:2]


def test_min_shift_internal_paths_agree():
    rng = random.Random(59)
    for p in (131, 257):
        dense = [rng.randrange(p) for _ in range(p)]
        f = DensePolyMod(p, dense)
        if f.degree < 1:
            continue
        want = naive_min_shift(f.coeffs, p)
        ex = _min_shift_exhaustive(f)
        assert (ex.gamma, ex.tau, ex.tie) == want
        got = min_shift(f)
        assert (got.gamma, got.tau, got.tie) == want
        # every candidate search below the true minimum finds nothing
        s = 1
        while 2 * s + 1 <= f.degree and s < want[1]:
            assert _min_shift_candidates(f, s) is None
            s *= 2


def test_min_shift_tau_cap_miss_returns_none():
    rng = random.Random(61)
    p = 101
    dense = [rng.randrange(1, p) for _ in range(40)]  # dense: no sparse shift
    f = DensePolyMod(p, dense)
    assert min_shift(f, tau_cap=1) is None


def test_min_shift_rejects_composite_or_overflow_degree():
    with pytest.raises(ValueError):
        min_shift(DensePolyMod(6, [1, 1]))
    with pytest.raises(ValueError):
        min_shift(DensePolyMod(3, [1, 1, 1, 1]))  # degree 3 >= modulus


# ---------------- small helpers over Z_m ----------------

def test_poly_helpers():
    m = 7
    a = [1, 2, 3]
    b = [4, 5]
    prod = poly_mul_mod(a, b, m)
    assert prod == [4, 6, 1, 1]
    assert poly_rem_mod(prod, b, m) == []
    # gcd(a*b, b) is b made monic: inv(5) = 3 mod 7, so 3*(4 + 5x) = 5 + x
    assert poly_gcd_mod(prod, b, m) == [5, 1]


def test_poly_roots_mod():
    r = 101
    # 3 (x - 4)^2 (x - 17) (x^2 - 2); 2 is a non-residue mod 101
    poly = [3]
    for factor in ([-4, 1], [-4, 1], [-17, 1], [-2, 0, 1]):
        poly = poly_mul_mod(poly, [c % r for c in factor], r)
    assert sorted(poly_roots_mod(poly, r)) == [4, 17]
    assert poly_roots_mod([5], r) == [] and poly_roots_mod([], r) == []
