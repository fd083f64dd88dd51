"""Dense polynomial arithmetic and shift-search tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    DenseBox,
    DensePolyMod,
    ShiftedLacunary,
    interpolate_range,
    interpolate_sparse,
    is_prime,
    make_blackbox,
    min_shift,
    next_prime_above,
)
from lacuna import blackbox, densepoly
from lacuna.densepoly import (
    _HANKEL_MAX_CANDIDATES,
    _berlekamp_massey,
    _generator_powers,
    _geometric_sums,
    _hankel_candidates,
    _hankel_singular,
    _horner,
    _mod,
    _rotate,
    _sparse_recurrence,
    _times_linear,
    bounded_rational_roots,
    grid_shift,
)
from lacuna.sparsest_shift import taylor_shift_exact

from conftest import (
    naive_interpolate,
    naive_min_shift,
    naive_simple_rational_roots,
    naive_taylor_coeffs,
    reduced_hankel_candidates,
)

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
    # on the whole grid of every such prime, p = 2 included
    rng = random.Random(30)
    for p in PRIMES_BELOW_600:
        vals = [rng.randrange(p) for _ in range(p)]
        assert horner_grid(interpolate_range(vals, p).coeffs, p) == vals


@pytest.mark.parametrize("p", [next_prime_above(1 << 17), next_prime_above(1 << 20)])
def test_kernel_exact_past_2_17(p):
    # 2 and 3 limbs: checked against Horner evaluation at random points
    rng = np.random.default_rng(p)
    vals = rng.integers(0, p, size=p)
    f = interpolate_range(vals, p)
    points = [0, p - 1, *rng.integers(1, p - 1, size=2).tolist()]
    for x in points:
        assert horner(f.coeffs, x, p) == vals[x]
    # the largest residues everywhere: sums at their maximum
    assert interpolate_range(np.full(p, p - 1), p).coeffs.tolist() == [p - 1]


def test_coeffs_and_grid_are_read_only():
    vals = np.array([4, 0, 1, 0, 6, 0, 3])  # the golden polynomial over Z_7
    fp = interpolate_range(vals, 7)
    with pytest.raises(ValueError):
        fp.coeffs[0] = 1
    # the grid is only read: left as it was, and not aliased by the result
    assert vals.tolist() == [4, 0, 1, 0, 6, 0, 3]
    vals[0] = 5
    assert fp == interpolate_range([4, 0, 1, 0, 6, 0, 3], 7)
    # the coefficients are the polynomial's own copy
    coeffs = np.array([1, 2, 3])
    f = DensePolyMod(7, coeffs)
    coeffs[0] = 0
    assert f.coeffs.tolist() == [1, 2, 3]


def test_interpolate_rejects_moduli_past_2_31():
    p = next_prime_above(1 << 31)
    with pytest.raises(ValueError):
        interpolate_range([0] * 4, p)


# ---------------- interpolate_sparse ----------------

def sparse_grid(p, c0, terms):
    """Grid of c0 + sum c x^e over Z_p, for (c, e) in terms, term by term
    with square-and-multiply on int64 vectors (exact for p < 2^31)."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.full(p, c0 % p, dtype=np.int64)
    for c, e in terms:
        power, base = np.ones(p, dtype=np.int64), xs
        while e:
            if e & 1:
                power = power * base % p
            base = base * base % p
            e >>= 1
        acc = (acc + c * power) % p
    return acc


def sparse_or_none(vals, p, s):
    """What interpolate_sparse must return: the dense interpolant if it has
    at most s non-constant terms, else None."""
    f = interpolate_range(vals, p)
    return f if np.count_nonzero(f.coeffs[1:]) <= s else None


def test_sparse_kernel_every_grid_at_tiny_primes():
    # p - 1 < 2s here, so the 2s values wrap around the powers of g and the
    # recurrence may be longer than s while still fitting every value
    import itertools

    seen_longer = 0
    for p in (2, 3, 5):
        for vals in itertools.product(range(p), repeat=p):
            for s in (1, 2, 3):
                want = sparse_or_none(list(vals), p, s)
                assert interpolate_sparse(list(vals), p, s) == want, (p, vals, s)
                seen_longer += want is None and s >= (p - 1) / 2
    assert seen_longer > 0


def test_sparse_kernel_equals_dense_on_sparse_grids():
    rng = random.Random(71)
    for p, count in ((7, 12), (13, 12), (101, 12), (1009, 12), (10007, 12),
                     (next_prime_above(1 << 17), 4)):
        for _ in range(count):
            s = rng.randint(1, 6)
            t = rng.randint(0, min(s, p - 1))
            slots = rng.sample(range(1, p), t)
            if t and rng.random() < 0.3:
                slots[0] = p - 1  # root 1 = g^0: the slot of x^(p-1)
            c0 = rng.choice([0, rng.randrange(p)])
            vals = sparse_grid(p, c0, [(rng.randrange(1, p), e) for e in slots])
            got = interpolate_sparse(vals, p, s)
            assert got is not None and got == interpolate_range(vals, p), (p, s, slots)
            assert np.count_nonzero(got.coeffs[1:]) == t and got.coeff(0) == c0


def test_sparse_kernel_rejects_one_term_too_many_and_dense_grids():
    rng = random.Random(73)
    for p in (11, 101, 1009, 10007):
        for s in range(1, 6):
            slots = rng.sample(range(1, p), s + 1)
            vals = sparse_grid(p, rng.randrange(p), [(rng.randrange(1, p), e) for e in slots])
            assert interpolate_sparse(vals, p, s) is None
            assert interpolate_sparse(vals, p, s + 1) == interpolate_range(vals, p)
            dense = [rng.randrange(p) for _ in range(p)]
            assert interpolate_sparse(dense, p, s) is None


def test_sparse_kernel_edge_grids():
    for p in (2, 3, 7, 101):
        zero = interpolate_sparse([0] * p, p, 1)
        assert zero == DensePolyMod(p, []) and zero.degree == -1
        assert interpolate_sparse([4 % p] * p, p, 1) == DensePolyMod(p, [4])
        assert interpolate_sparse([4 % p] * p, p, 0) == DensePolyMod(p, [4])
        # x^(p-1) - c0 is c0 at 0 and 1 - c0 elsewhere: slot p - 1 shares node 1
        # with the constant, which the kernel has already taken off
        for c0 in (0, 1, p - 1):
            vals = sparse_grid(p, c0, [(1, p - 1)])
            want = DensePolyMod(p, [c0] + [0] * (p - 2) + [1])
            assert interpolate_sparse(vals, p, 1) == want == interpolate_range(vals, p)
            assert interpolate_sparse(vals, p, 0) is None
        if p > 2:  # x and x^(p-1) with zero constant
            vals = sparse_grid(p, 0, [(2, 1), (3 % p or 1, p - 1)])
            assert interpolate_sparse(vals, p, 2) == interpolate_range(vals, p)
            assert interpolate_sparse(vals, p, 1) is None


def test_sparse_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        interpolate_sparse([0, 1, 2, 3], 4, 1)  # composite
    with pytest.raises(ValueError):
        interpolate_sparse([0, 1], 3, 1)  # length mismatch
    with pytest.raises(ValueError):
        interpolate_sparse([0, 5, 1], 3, 1)  # unreduced value
    with pytest.raises(ValueError):
        interpolate_sparse([0, 1, 2], 3, -1)  # negative term bound


def g_order_grid(p, c0, seq):
    """The grid with c0 at 0 and c0 + seq[j] at g^j, j < p - 1: the values
    a_j that the recurrence check reads are seq."""
    grid = np.full(p, c0 % p, dtype=np.int64)
    grid[_generator_powers(p)] = [(c0 + a) % p for a in seq]
    return grid


def test_cyclic_check_rejects_recurrences_that_hold_only_within_one_period():
    # each sequence obeys its Berlekamp-Massey recurrence along a_L..a_(p-2)
    # but not across the wrap from a_(p-2) back to a_0, and its interpolant
    # has more terms than any tried bound: a double root (j r^j wraps to
    # (p-1) r^(p-1) = -1, not a_0 = 0), an irreducible quadratic (a root
    # alpha outside Z_p has alpha^(p-1) != 1), and a root 0 (a geometric
    # sequence with a_0 changed, and a lone spike)
    p, r = 101, 7
    n = p - 1
    # z^2 - z - b is irreducible when its discriminant 1 + 4b is a non-residue
    b = next(b for b in range(1, p) if pow(1 + 4 * b, n // 2, p) == p - 1)
    quadratic = [1, 5]
    while len(quadratic) < n:
        quadratic.append((quadratic[-1] + b * quadratic[-2]) % p)
    cases = [
        ([j * pow(r, j, p) % p for j in range(n)], [1, p - 2 * r, r * r % p]),
        (quadratic, [1, p - 1, p - b]),
        ([5] + [pow(r, j, p) for j in range(1, n)], [1, p - r, 0]),
        ([1] + [0] * (n - 1), [1, 0]),
    ]
    for seq, conn in cases:
        length = len(conn) - 1
        assert _berlekamp_massey(seq[: 2 * length], p) == (conn, length)
        assert all(sum(c * seq[j - m] for m, c in enumerate(conn)) % p == 0
                   for j in range(length, n))  # the recurrence holds within the period
        for c0 in (0, 9):
            grid = g_order_grid(p, c0, seq)
            terms = sum(1 for c in naive_interpolate(grid.tolist(), p)[1:] if c)
            for s in range(length, length + 4):
                assert terms > s
                assert _sparse_recurrence(grid, p, s) is None, (conn, s)
                assert interpolate_sparse(grid, p, s) is None, (conn, s)


def test_sparse_recurrence_of_an_accepted_grid_is_its_minimal_polynomial():
    # an accepted recurrence, reversed, is the product of z - g^e over the
    # interpolant's terms: its order is their number, on a view as on a grid
    rng = random.Random(127)
    for p in (5, 13, 101, 1009):
        pw = _generator_powers(p)
        for t in range(min(4, p - 1) + 1):
            slots = rng.sample(range(1, p), t)
            grid = sparse_grid(p, rng.randrange(p), [(rng.randrange(1, p), e) for e in slots])
            twice = np.concatenate((grid, grid))
            for s in range(t, t + 2):
                for gamma in (0, rng.randrange(p)):
                    window = twice[gamma : gamma + p]
                    want = interpolate_sparse(window, p, s)
                    conn = _sparse_recurrence(window, p, s)
                    assert (conn is None) == (want is None)
                    if conn is not None:
                        roots = [int(pw[e % (p - 1)]) for e in np.flatnonzero(want.coeffs[1:]) + 1]
                        assert len(conn) - 1 == np.count_nonzero(want.coeffs[1:]) and all(
                            _horner(conn[::-1], x, p) == 0 for x in roots)
            assert _sparse_recurrence(grid, p, t) is not None


# ---------------- Taylor shift by grid rotation ----------------
# f(x + g) over Z_p has the grid of f rotated by g; min_shift's candidate
# check reads exactly that rotation.

def shifted_image(grid, g, p):
    return interpolate_range(np.roll(grid, -g), p)


def test_taylor_shift_golden(golden_poly):
    vals = [(pow(i - 3, 15, 7) - 2 * pow(i - 3, 5, 7)) % 7 for i in range(7)]
    assert shifted_image(vals, 3, 7).coeffs.tolist() == [0, 0, 0, 1, 0, 5]  # 5x^5 + x^3
    assert interpolate_sparse(np.roll(vals, -3), 7, 2).coeffs.tolist() == [0, 0, 0, 1, 0, 5]


def test_taylor_shift_identity_and_binomial():
    grid = horner_grid([0, 0, 1], 5)
    assert shifted_image(grid, 0, 5).coeffs.tolist() == [0, 0, 1]
    assert shifted_image(grid, 1, 5).coeffs.tolist() == [1, 2, 1]
    assert taylor_shift_exact([0, 0, 1], 0) == [0, 0, 1]
    assert taylor_shift_exact([0, 0, 1], 1) == [1, 2, 1]


def test_taylor_shift_group_action():
    rng = random.Random(37)
    for p in (7, 31, 101):
        coeffs = [rng.randrange(p) for _ in range(p - 1)]
        f = DensePolyMod(p, coeffs)
        grid = horner_grid(coeffs, p)
        for g in (1, p // 2, p - 1):
            there = shifted_image(grid, g, p)
            back = shifted_image(horner_grid(there.coeffs.tolist(), p), p - g, p)
            assert back == f


def test_taylor_shift_is_evaluation_homomorphism():
    rng = random.Random(41)
    for p in (5, 13, 31):
        coeffs = [rng.randrange(p) for _ in range(p - 1)]
        grid = horner_grid(coeffs, p)
        for g in range(p):
            shifted = shifted_image(grid, g, p).coeffs.tolist()
            for x in range(p):
                assert _horner(shifted, x, p) == _horner(coeffs, (x + g) % p, p)


def test_taylor_shift_matches_synthetic_division():
    rng = random.Random(43)
    for p in (11, 101, 607):
        coeffs = [rng.randrange(p) for _ in range(p // 2)]
        g = rng.randrange(1, p)
        want = naive_taylor_coeffs(coeffs, g, p)
        while want and want[-1] == 0:
            want.pop()
        assert shifted_image(horner_grid(coeffs, p), g, p).coeffs.tolist() == want
        # and the exact expansion over the rationals, reduced mod p
        assert DensePolyMod(p, [int(c) % p for c in taylor_shift_exact(coeffs, g)]).coeffs.tolist() == want


def test_dense_poly_mod_rejects_moduli_outside_grid_range():
    for m in (1, 2**31):
        with pytest.raises(ValueError, match="modulus"):
            DensePolyMod(m, [1, 2])


# ---------------- min_shift ----------------

def assert_capped_search_matches_exhaustive(f):
    """The naive search's gamma when its tau <= cap (and then that shift is
    unique), else None: for the caps next to the naive tau, the smallest
    ones and the largest one that deg f admits."""
    p = f.modulus
    gamma, tau_min, tie = naive_min_shift(f.coeffs.tolist(), p)
    grid = horner_grid(f.coeffs.tolist(), p)
    top = (f.degree - 1) // 2
    for cap in sorted({1, 2, tau_min - 1, tau_min, tau_min + 1, top} & set(range(1, top + 1))):
        got = min_shift(f, grid, tau_cap=cap)
        if tau_min <= cap:
            assert not tie, (p, f.coeffs.tolist(), cap)
            assert got is not None and tuple(got) == (gamma, tau_min, False), (p, cap)
        else:
            assert got is None, (p, f.coeffs.tolist(), cap)


def planted(p, g0, terms):
    """Coefficients of sum c (x - g0)^e over Z_p, for (c, e) in terms."""
    flat = [0] * (max(e for _, e in terms) + 1)
    for c, e in terms:
        flat[e] = c % p
    return naive_taylor_coeffs(flat, -g0 % p, p)


def test_min_shift_golden(golden_poly):
    vals = [(pow(i - 3, 15, 7) - 2 * pow(i - 3, 5, 7)) % 7 for i in range(7)]
    fp = interpolate_range(vals, 7)
    grid = horner_grid(fp.coeffs.tolist(), 7)
    got = min_shift(fp, grid, tau_cap=2)
    assert (got.gamma, got.tau, got.tie) == (3, 2, False)
    assert min_shift(fp, grid, tau_cap=1) is None  # degree 5 admits caps 1 and 2


def test_min_shift_trivial_cases():
    # constants, zero and low degrees are outside the search: deg f < 2*cap + 1
    for coeffs, cap in (([0, 0, 1], 1), ([2], 1), ([], 1), ([1, 2, 3, 4, 1], 2)):
        with pytest.raises(ValueError, match="2\\*tau_cap"):
            min_shift(DensePolyMod(5, coeffs), horner_grid(coeffs, 5), tau_cap=cap)
    f = DensePolyMod(11, [0, 0, 0, 1])
    grid = horner_grid(f.coeffs.tolist(), 11)
    assert tuple(min_shift(f, grid, tau_cap=1)) == (0, 1, False)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="tau_cap must be >= 1"):
            min_shift(f, grid, tau_cap=cap)
    with pytest.raises(TypeError):
        min_shift(f, grid)  # the cap is required


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
    got = min_shift(f, horner_grid(f.coeffs.tolist(), 11), tau_cap=2)
    assert (got.gamma, got.tau, got.tie) == want == (2, 2, False)
    assert_capped_search_matches_exhaustive(f)


def test_min_shift_equals_exhaustive_search_random():
    rng = random.Random(47)
    for p in (5, 7, 11, 13, 31):
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, p))]
            f = DensePolyMod(p, coeffs)
            if f.degree < 3:
                with pytest.raises(ValueError):
                    min_shift(f, horner_grid(f.coeffs.tolist(), p), tau_cap=1)
                continue
            assert_capped_search_matches_exhaustive(f)
        for _ in range(4):  # planted sparse shifts, so that the caps hit too
            d = rng.randrange(3, p)
            t = rng.randint(1, (d - 1) // 2)
            exps = rng.sample(range(1, d), t - 1) + [d]
            terms = [(rng.randrange(1, p), e) for e in exps]
            f = DensePolyMod(p, planted(p, rng.randrange(p), terms))
            assert_capped_search_matches_exhaustive(f)


def test_min_shift_candidate_path_agrees_with_exhaustive():
    rng = random.Random(53)
    for p in (103, 211, 401):
        for t in (1, 2, 3):
            exps = sorted(rng.sample(range(1, p - 1), t))
            if 2 * t + 1 > exps[-1]:
                exps[-1] = min(p - 2, 2 * t + 1 + rng.randint(0, 5))
            g0 = rng.randrange(p)
            f = DensePolyMod(p, planted(p, g0, [(1, e) for e in exps]))
            if f.degree < 3:
                continue
            assert_capped_search_matches_exhaustive(f)
            got = min_shift(f, horner_grid(f.coeffs.tolist(), p), tau_cap=t)
            if f.degree >= 2 * t + 1 and len(set(exps)) == t:
                assert got is not None and got.gamma == g0
    # spikes c (x - g0)^(p-1) and subgroup powers c (x - g0)^((p-1)/d), the
    # grids whose many Hankel candidates send grid_shift to min_shift, plus
    # a constant and up to three more terms: caps 1-4
    for p in (13, 37, 61):
        tops = sorted({(p - 1) // d for d in (1, 2, 3, 4, 6) if (p - 1) % d == 0})
        for top, extra in ((top, extra) for top in tops for extra in range(4)):
            exps = [top] + rng.sample(range(1, top), min(extra, top - 1))
            terms = [(rng.randrange(p), 0)] + [(rng.randrange(1, p), e) for e in exps]
            f = DensePolyMod(p, planted(p, rng.randrange(p), terms))
            gamma, tau_min, tie = naive_min_shift(f.coeffs.tolist(), p)
            grid = horner_grid(f.coeffs.tolist(), p)
            for cap in range(1, min(4, (f.degree - 1) // 2) + 1):
                got = min_shift(f, grid, tau_cap=cap)
                if tau_min <= cap:
                    assert not tie and tuple(got) == (gamma, tau_min, False), (p, top, cap)
                else:
                    assert got is None, (p, top, cap)


def test_min_shift_dense_random_caps_agree_with_exhaustive():
    rng = random.Random(59)
    for p in (131, 257):
        dense = [rng.randrange(p) for _ in range(p)]
        f = DensePolyMod(p, dense)
        gamma, tau_min, _ = naive_min_shift(f.coeffs.tolist(), p)
        grid = horner_grid(f.coeffs.tolist(), p)
        s = 1
        while 2 * s + 1 <= f.degree:
            got = min_shift(f, grid, tau_cap=s)
            if tau_min <= s:
                assert got is not None and (got.gamma, got.tau) == (gamma, tau_min)
            else:
                assert got is None
            s *= 2


def test_min_shift_tau_cap_miss_returns_none():
    rng = random.Random(61)
    p = 101
    dense = [rng.randrange(1, p) for _ in range(40)]  # dense: no sparse shift
    f = DensePolyMod(p, dense)
    assert min_shift(f, horner_grid(f.coeffs.tolist(), p), tau_cap=1) is None


def test_min_shift_rejects_composite_or_overflow_degree():
    with pytest.raises(ValueError, match="not prime"):
        min_shift(DensePolyMod(6, [1, 1, 1, 1]), horner_grid([1, 1, 1, 1], 6), tau_cap=1)
    with pytest.raises(ValueError, match="degree"):
        min_shift(DensePolyMod(3, [1, 1, 1, 1]), horner_grid([1, 1, 1, 1], 3), tau_cap=1)


def test_min_shift_rejects_a_grid_of_wrong_length_or_unreduced():
    f = DensePolyMod(11, [0, 0, 0, 1])
    grid = horner_grid(f.coeffs.tolist(), 11)
    with pytest.raises(ValueError, match="exactly 11 values"):
        min_shift(f, grid[:-1], tau_cap=1)  # wrong length
    with pytest.raises(ValueError, match="exactly 11 values"):
        min_shift(f, grid + [0], tau_cap=1)
    with pytest.raises(ValueError, match="reduced"):
        min_shift(f, [v + 11 for v in grid], tau_cap=1)  # unreduced
    with pytest.raises(ValueError, match="reduced"):
        min_shift(f, [-1] + grid[1:], tau_cap=1)


# ---------------- grid_shift ----------------

def shifted_grid(p, g0, c0, terms):
    """Values at 0..p-1 of c0 + sum c (x - g0)^e over Z_p, for (c, e) in terms."""
    return [(c0 + sum(c * pow(x - g0, e, p) for c, e in terms)) % p for x in range(p)]


def doubled(grid):
    """The grid twice over, as ``_hankel_candidates`` reads it."""
    return np.concatenate((grid, grid)).astype(np.int64)


@pytest.fixture
def transforms(monkeypatch):
    """The primes of the dense transforms that densepoly runs, in order;
    the test module's own ``interpolate_range`` is not counted."""
    calls = []
    dense_kernel = densepoly.interpolate_range

    def counted(values, p):
        calls.append(p)
        return dense_kernel(values, p)

    monkeypatch.setattr(densepoly, "interpolate_range", counted)
    return calls


@pytest.fixture
def checks(monkeypatch):
    """The primes of the recurrence checks that densepoly runs, in order."""
    calls = []
    kernel = densepoly._sparse_recurrence

    def counted(window, p, s):
        calls.append(p)
        return kernel(window, p, s)

    monkeypatch.setattr(densepoly, "_sparse_recurrence", counted)
    return calls


def test_grid_shift_equals_exhaustive_search(transforms):
    # exactly (deg f >= 2t + 1, the naive shift when it has at most t terms,
    # else None) on three kinds of grid, at primes from p <= 2t + 3, where
    # g^j wraps inside the Hankel filter, to past its candidate cap
    rng = random.Random(67)
    for t in (1, 2, 3):
        for p in (2, 3, 5, 7, 11, 13, 31, 37):
            planted_grids = []
            for _ in range(3 if p - 1 >= 2 * t + 1 else 0):
                top = rng.randrange(2 * t + 1, p)
                exps = rng.sample(range(1, top), t - 1) + [top]
                terms = [(rng.randrange(1, p), e) for e in exps]
                planted_grids.append(shifted_grid(p, rng.randrange(p), rng.randrange(p), terms))
            low = [[rng.randrange(p) for _ in range(rng.randint(1, 2 * t + 1))] for _ in range(4)]
            low_grids = [grid_of(coeffs, p) for coeffs in low]
            flat = [grid_of([rng.randrange(p), rng.randrange(1, p)], p)]  # deg 1 <= t
            dense_grids = [[rng.randrange(p) for _ in range(p)] for _ in range(3)]
            for kind, grids in (("planted", planted_grids), ("low", low_grids + flat),
                                ("dense", dense_grids)):
                for grid in grids:
                    coeffs = naive_interpolate(grid, p)
                    gamma, tau_min, tie = naive_min_shift(coeffs, p)
                    passes = len(coeffs) - 1 >= 2 * t + 1
                    want = (passes, gamma if passes and tau_min <= t else None)
                    transforms.clear()
                    assert grid_shift(grid, p, tau_cap=t) == want, (kind, t, p, grid)
                    assert grid_shift(np.array(grid), p, tau_cap=t) == want
                    if want[1] is not None:
                        assert not tie
                    if kind == "planted":
                        assert want[1] is not None and not transforms  # the hit needs no transform
            # a linear grid makes every shift a candidate, but fails the
            # degree test before the filter runs: no transform runs
            if p > _HANKEL_MAX_CANDIDATES:
                assert len(_hankel_candidates(doubled(flat[0]), p, t)) == p
                transforms.clear()
                assert grid_shift(flat[0], p, tau_cap=t) == (False, None)
                assert transforms == []


def test_grid_shift_past_the_candidate_cap_on_a_half_degree_grid(transforms, checks):
    # (x - g0)^((p-1)/2) takes only the values 0 and +-1, so many shifts
    # pass the Hankel filter although the grid passes the degree test: past
    # the cap no candidate is checked, and the complete search runs one
    # transform and at most t(t+1)/2 checks to find g0, whether g0 is
    # among the first candidates or not
    early = set()
    for p, g0 in ((101, 7), (103, 40)):
        coeffs = planted(p, g0, [(1, (p - 1) // 2)])
        grid = grid_of(coeffs, p)
        assert naive_min_shift(coeffs, p) == (g0, 1, False)
        for t in (1, 2):
            cands = _hankel_candidates(doubled(grid), p, t)
            assert len(cands) > _HANKEL_MAX_CANDIDATES and g0 in cands
            transforms.clear()
            checks.clear()
            assert grid_shift(grid, p, tau_cap=t) == (True, g0), (p, t)
            assert transforms == [p] and 1 <= len(checks) <= t * (t + 1) // 2, (p, t)
            early.add(cands.index(g0) < _HANKEL_MAX_CANDIDATES)
    assert early == {True, False}  # g0 inside and past the first eight


def test_grid_shift_finds_a_three_term_shift_without_a_transform(transforms):
    rng = random.Random(71)
    p, t = 103, 3
    g0 = rng.randrange(p)
    grid = shifted_grid(p, g0, 5, [(1, 2), (7, 9), (3, 40)])
    f = interpolate_range(grid, p)
    want = (True, min_shift(f, grid, tau_cap=t).gamma)
    assert grid_shift(grid, p, tau_cap=t) == want == (True, g0)
    assert transforms == []
    assert grid_shift(grid, p, tau_cap=2) == (True, None)  # three terms, cap two
    assert grid_shift(grid_of([1, 2, 3, 4, 5, 6], p), p, tau_cap=3) == (False, None)


def test_grid_shift_finds_planted_shifts_up_to_six_terms_without_a_transform(transforms):
    # t = 3..6 at primes a solve reaches: the answer is min_shift's on the
    # interpolant, and grid_shift needs no transform for it
    rng = random.Random(83)
    for p in (307, 701, 1511):
        for t in (3, 4, 5, 6):
            g0 = rng.randrange(p)
            exps = rng.sample(range(1, p - 1), t)
            grid = shifted_grid(p, g0, rng.randrange(p), [(rng.randrange(1, p), e) for e in exps])
            assert min_shift(interpolate_range(grid, p), grid, tau_cap=t).gamma == g0
            assert grid_shift(grid, p, tau_cap=t) == (True, g0), (p, t)
    assert transforms == []


def test_grid_shift_finds_subgroup_power_shifts_as_min_shift_does(transforms):
    # (x - g0)^((p-1)/d) + c0 takes d + 1 values, so many shifts pass the
    # Hankel filter: the checks find g0, or past the cap one transform and
    # min_shift do; 10007 - 1 = 2 * 5003 admits only d = 2, and 10009 - 1
    # every d
    rng = random.Random(89)
    for p in (1009, 10007, 10009):
        for d in (2, 3, 4, 6):
            if (p - 1) % d:
                continue
            g0 = rng.randrange(p)
            grid = shifted_grid(p, g0, rng.randrange(p), [(1, (p - 1) // d)])
            for t in (1, 2, 3):
                want = min_shift(interpolate_range(grid, p), grid, tau_cap=t)
                transforms.clear()
                assert grid_shift(grid, p, tau_cap=t) == (True, want.gamma) == (True, g0), (p, d, t)
                assert transforms in ([], [p])


def test_grid_shift_bounds_its_checks_on_a_spike_grid(transforms, checks):
    # a bad prime with (p - 1) | e turns 5 (x - g0)^e into 5 at every
    # x != g0, so s_gamma is zero at every j but one for gamma != g0 and
    # each Hankel matrix drops about one shift: no candidate is checked,
    # and one transform and min_shift, with at most t(t+1)/2 checks of the
    # roots of its Taylor rows, find g0
    p, g0 = 10007, 6131
    grid = shifted_grid(p, g0, 3, [(5, p - 1)])
    for t in (1, 2, 4):
        assert len(_hankel_candidates(doubled(grid), p, t)) > p - 4 * t
        transforms.clear()
        checks.clear()
        assert grid_shift(grid, p, tau_cap=t) == (True, g0), t
        assert transforms == [p] and 1 <= len(checks) <= t * (t + 1) // 2, t
    # a second term makes s_gamma no spike: the filter leaves g0 first
    grid = shifted_grid(p, g0, 3, [(5, p - 1), (2, 7)])
    transforms.clear()
    checks.clear()
    assert grid_shift(grid, p, tau_cap=2) == (True, g0)
    assert grid_shift(grid, p, tau_cap=1) == (True, None)
    assert transforms == [] and checks == [p]


def test_grid_shift_takes_the_degree_of_shiftless_grids_from_a_difference(transforms):
    # grids with no t-sparse shift and few Hankel candidates take the
    # degree from the finite difference: random grids, which mostly pass,
    # degree t+2..2t grids, which never do, primes p <= 2t + 1, where
    # the difference is empty, and degree <= 2t grids with one value
    # changed past the first 9(2t+1), whose difference reads zero on the
    # prefix that decides most grids, yet which pass
    rng = random.Random(97)
    seen = set()
    for t in (1, 2, 3):
        for p in (2, 3, 5, 7, 11, 13, 53, 101):
            grids = [[rng.randrange(p) for _ in range(p)] for _ in range(4)]
            for _ in range(4):
                deg = rng.randint(t + 2, 2 * t) if t >= 2 and p > 2 * t else p - 1
                grids.append(grid_of([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)], p))
            if p > 9 * (2 * t + 1):
                late = grid_of([rng.randrange(p) for _ in range(2 * t + 1)], p)
                x = rng.randrange(9 * (2 * t + 1), p)
                late[x] = (late[x] + 1) % p
                grids.append(late)
                seen.add("late")
            for grid in grids:
                coeffs = naive_interpolate(grid, p)
                if naive_min_shift(coeffs, p)[1] <= t:
                    continue
                passes = len(coeffs) - 1 >= 2 * t + 1
                assert grid_shift(grid, p, tau_cap=t) == (passes, None), (t, p, grid)
                seen.add((passes, p <= 2 * t + 1))
    assert seen == {(True, False), (False, False), (False, True), "late"}
    assert transforms == []


def test_grid_shift_answers_low_degree_grids_before_any_search(monkeypatch):
    # a grid of degree <= 2t fails the degree test on its finite difference
    # alone: no Hankel filter, sparse check or transform runs, on the linear
    # grid, whose filter keeps every shift, and at degrees t+1..2t, where no
    # shift is t-sparse, as at every lower degree
    calls = []
    for name in ("_hankel_candidates", "_sparse_recurrence", "interpolate_range"):
        def counted(*args, _name=name, _real=getattr(densepoly, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(densepoly, name, counted)
    rng = random.Random(103)
    for t in (1, 2, 3, 4):
        for p in (2, 3, 11, 101, 1009):
            linear = grid_of([rng.randrange(p), rng.randrange(1, p)], p)
            if p > 2 * t + 1:
                assert len(_hankel_candidates(doubled(linear), p, t)) == p
            grids = [linear]
            for deg in range(min(2 * t, p - 1) + 1):
                grids.append(grid_of([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)], p))
            for grid in grids:
                assert grid_shift(grid, p, tau_cap=t) == (False, None), (t, p, grid)
    assert calls == []


def test_hankel_candidates_from_unreduced_differences_equal_the_reduced_ones():
    # the rotated differences enter the singularity test unreduced, in
    # (-p, p): the candidates must be those of the version that reduced them
    # first, on planted sparse, spike, half-degree power and random grids
    rng = random.Random(107)
    noise = np.random.default_rng(107)
    for p in (101, 1009, 4001, 10007, 20011, 40009):
        for t in (1, 2, 3, 4):
            g0, c0 = Fraction(rng.randrange(p)), Fraction(rng.randrange(p))
            polys = [
                ShiftedLacunary(g0, c0, tuple(
                    (Fraction(rng.randrange(1, p)), e)
                    for e in sorted(rng.sample(range(2 * t + 1, 4 * p), rng.randint(1, t))))),
                ShiftedLacunary(g0, c0, ((Fraction(5), p - 1),)),
                ShiftedLacunary(g0, c0, ((Fraction(1), (p - 1) // 2),)),
            ]
            grids = [make_blackbox(poly).eval_range(p) for poly in polys]
            grids.append(noise.integers(0, p, p))
            for grid in grids:
                assert _hankel_candidates(doubled(grid), p, t) == reduced_hankel_candidates(grid, p, t), (p, t)


def test_grid_shift_rejects_bad_input():
    grid = grid_of([0, 0, 0, 1], 11)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="tau_cap must be >= 1"):
            grid_shift(grid, 11, tau_cap=cap)
    with pytest.raises(ValueError, match="exactly 11 values"):
        grid_shift(grid[:-1], 11, tau_cap=1)
    with pytest.raises(ValueError, match="reduced"):
        grid_shift([v + 11 for v in grid], 11, tau_cap=1)
    with pytest.raises(ValueError, match="not prime"):
        grid_shift(grid_of([0, 0, 0, 1], 12), 12, tau_cap=1)
    with pytest.raises(TypeError):
        grid_shift(grid, 11, 1)  # the cap is keyword-only


def test_hankel_singular_stays_exact_near_2_31():
    # residues up to p - 1 < 2^31: the last entry of the elimination is 0
    # exactly where det A or a leading principal minor of order <= t - 1
    # is 0 modulo p, on extreme rows, random ones, and rows that obey an
    # order-t recurrence, whose Hankel matrix is singular
    p = 2**31 - 1
    rng = random.Random(73)
    for t in (1, 2, 3, 4):
        size = 2 * t + 1
        rows = [[p - 1] * size, [0] * size, [(1, p - 1)[j % 2] for j in range(size)],
                [0] + [rng.randrange(p) for _ in range(size - 1)]]
        rows += [[rng.randrange(p) for _ in range(size)] for _ in range(100)]
        for _ in range(30):
            roots = [rng.randrange(1, p) for _ in range(t)]
            coeffs = [rng.randrange(p) for _ in range(t)]
            rows.append([sum(c * pow(r, j, p) for c, r in zip(coeffs, roots)) % p
                         for j in range(size)])
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        got = _hankel_singular(cols, p).tolist()

        def minor(r, k):
            return exact_det([[r[a + b] for b in range(k)] for a in range(k)]) % p

        want = [minor(r, t + 1) == 0 or any(minor(r, k) == 0 for k in range(1, t))
                for r in rows]
        assert [g == 0 for g in got] == want
        assert all(0 <= g < p for g in got)
        assert sum(want) >= 30  # the recurrence rows are singular


def exact_det(m):
    """Determinant of a square matrix of Python ints by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * exact_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_rotate_equals_numpy_roll_on_read_only_input():
    rng = random.Random(79)
    for p in (2, 3, 7, 347):
        a = np.array([rng.randrange(p) for _ in range(p)], dtype=np.int64)
        a.flags.writeable = False
        before = a.tolist()
        for k in range(-2 * p, 2 * p + 1):
            out = _rotate(a, k)
            assert np.array_equal(out, np.roll(a, -k)), (p, k)
            assert out.flags.writeable and not np.shares_memory(out, a)
        assert a.tolist() == before


# ---------------- small helpers over Z_m ----------------

def test_poly_helpers():
    # (1 + 2x + 3x^2)(x - 3) mod 7, with the zero x^2 coefficient kept
    assert _times_linear([1, 2, 3], 3, 7) == [4, 2, 0, 3]


def test_horner_matches_naive_evaluation():
    rng = random.Random(43)
    for _ in range(50):
        coeffs = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(0, 8))]
        x = rng.randrange(-10**4, 10**4)
        assert _horner(coeffs, x) == sum(c * x**k for k, c in enumerate(coeffs))
        residues = [c % 1009 for c in coeffs]
        assert _horner(residues, x, 1009) == sum(c * x**k for k, c in enumerate(coeffs)) % 1009
        fracs = [Fraction(c, rng.randrange(1, 50)) for c in coeffs]
        y = Fraction(rng.randrange(-99, 100), rng.randrange(1, 100))
        got = _horner(fracs, y)
        assert isinstance(got, Fraction)
        assert got == sum(c * y**k for k, c in enumerate(fracs))
    assert _horner([], 5) == 0 and _horner([], 5, 7) == 0
    assert _horner([], Fraction(1, 3)) == 0
    # int64 arrays at the largest grid prime, points and coefficients near
    # p - 1: any product that left int64 would show here
    p = 2**31 - 1
    xs = np.array([p - 1, p - 2, p - 3, 0, 1, 2**30], dtype=np.int64)
    coeffs = [p - 1, p - 2, 1, p - 1, p - 5]
    got = _horner(coeffs, xs, p)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(c * int(x)**k for k, c in enumerate(coeffs)) % p for x in xs]
    assert xs.tolist() == [p - 1, p - 2, p - 3, 0, 1, 2**30]  # x is not written to
    assert _horner([], xs, p).tolist() == [0] * len(xs)


def test_mod_raises_on_read_only_arrays_and_leaves_them_as_they_were(golden_poly):
    # _mod reduces in place: the library's read-only arrays must refuse it
    p = 7
    grid = make_blackbox(golden_poly).eval_range(p)
    pw = _generator_powers(p)
    coeffs = interpolate_range(grid, p).coeffs
    for arr in (grid, pw, coeffs):
        before = arr.tolist()
        with pytest.raises(ValueError):
            _mod(arr, 3)
        assert arr.tolist() == before
    own = np.array([-8, -1, 0, 6, 7, 15], dtype=np.int64)
    assert _mod(own, p) is own and own.tolist() == [6, 6, 0, 6, 0, 1]
    assert _mod(-8, p) == 6 and _mod(2**80 + 3, p) == (2**80 + 3) % p


def test_generator_powers_run_once_through_every_nonzero_residue():
    # pw[a] = g^a for one generator g: it starts at 1, steps by g, and holds
    # each of 1..p-1 once; p = 2 is the one-entry table [1]
    for p in (2, 3, 7, 1187):
        pw = _generator_powers(p)
        assert pw.dtype == np.int64 and pw[0] == 1
        assert sorted(pw.tolist()) == list(range(1, p))
        g = int(pw[1 % (p - 1)])
        assert all(int(pw[a + 1]) == g * int(pw[a]) % p for a in range(p - 2))
        assert not pw.flags.writeable


def test_generator_powers_are_the_powers_of_the_primitive_root():
    # the table multiplies out only its first half and takes the second as
    # p minus the first (g^((p-1)/2) = -1): it must still be g^a at every a
    primes = [p for p in range(2, 5000) if is_prime(p)] + [15187, 46027, 65537, 1048583]
    for p in primes:
        g = densepoly._primitive_root(p)
        want = np.empty(p - 1, dtype=np.int64)
        x = 1
        for a in range(p - 1):
            want[a] = x
            x = x * g % p
        assert np.array_equal(_generator_powers(p), want), p


def test_generator_steps_memo_stays_bounded_and_tables_stay_right():
    # the steps are kept across solves for at most maxsize primes: after
    # more distinct primes than that, the memo holds no more, and a table
    # rebuilt from fresh or kept steps is still g^a at every a
    info = densepoly._generator_steps.cache_info()
    primes = [p for p in range(2, 20 * info.maxsize) if is_prime(p)][: info.maxsize + 50]
    assert len(primes) == info.maxsize + 50
    for p in primes:
        small, big = densepoly._generator_steps(p)
        assert int(small[1]) == densepoly._primitive_root(p)
    assert densepoly._generator_steps.cache_info().currsize <= info.maxsize
    for p in (primes[0], primes[1], primes[2], primes[60], primes[-1]):  # evicted, then kept
        _generator_powers.cache_clear()
        g = densepoly._primitive_root(p)
        assert _generator_powers(p).tolist() == [pow(g, a, p) for a in range(p - 1)], p
    assert densepoly._generator_steps.cache_info().currsize <= info.maxsize


def naive_geometric_sums(coeffs, exps, p, points):
    g = int(_generator_powers(p)[1 % (p - 1)])
    return [sum(c * pow(g, a * e, p) for c, e in zip(coeffs, exps)) % p for a in points]


def test_geometric_sums_match_a_naive_sum():
    # s[a] = sum_k c_k g^(a e_k) mod p at every a (a sample past p = 100),
    # with exponent 0, exponents at and past p - 1, repeated exponents and
    # zero coefficients among K = 0..70 terms
    rng = random.Random(53)
    small = [p for p in range(100) if is_prime(p)]
    cases = [(p, k) for k in range(71) for p in (small[k % len(small)], small[-1 - k % len(small)])]
    cases += [(p, k) for p in (65537, next_prime_above(1 << 20)) for k in (0, 1, 2, 7, 40, 70)]
    for p, k in cases:
        n = p - 1
        exps = []
        for _ in range(k):
            exps.append(rng.choice((0, n, 2 * n + rng.randrange(n), rng.randrange(n),
                                    rng.choice(exps or [1]))))
        coeffs = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(k)]
        got = _geometric_sums(coeffs, exps, p)
        assert got.dtype == np.int64 and len(got) == n
        points = range(n) if p < 100 else [0, 1, n - 1, *rng.sample(range(n), 40)]
        assert [int(got[a]) for a in points] == naive_geometric_sums(coeffs, exps, p, points)


def test_dense_box_grid_peaks_at_a_few_grids():
    # _geometric_sums gathers its tables for at most _SUMS_CHUNK terms at a
    # time: with one product of all 2,000 terms this grid peaked at 28.6
    # grids' worth of memory.  The prime's table, itself about a grid, is
    # built before the trace, and the grid cache is emptied, so that the
    # grid is built inside it.
    import tracemalloc

    rng = random.Random(131)
    coeffs = [rng.randint(-9, 9) or 1 for _ in range(2001)]
    box = DenseBox(coeffs)
    p = 100003
    _generator_powers(p)
    blackbox._lacunary_grid.cache_clear()
    tracemalloc.start()
    try:
        grid = box.eval_range(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid.nbytes, peak / grid.nbytes
    for x in (0, 1, 2, p - 1, *rng.sample(range(p), 5)):
        assert int(grid[x]) == horner([c % p for c in coeffs], x, p)


# ---------------- bounded rational roots ----------------

def test_bounded_rational_roots_are_the_simple_bounded_roots():
    # planted roots a/b of multiplicity 1-3, some outside the box, times
    # irreducible quadratics and a leading factor that 1031, the first
    # lifting prime, may divide
    rng = random.Random(107)
    box = 8
    for _ in range(150):
        poly = [rng.choice([1, -3, 1031, 2 * 1031])]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(-12, 12), rng.randint(1, 10)
            for _ in range(rng.randint(1, 3)):
                poly = _times(poly, [-a, b])
        for _ in range(rng.randint(0, 2)):
            poly = _times(poly, rng.choice([[1, 0, 1], [-2, 0, 1], [5, 3, 2], [-3, 0, 1031]]))
        den = rng.choice([1, 1, 6, 1031])
        got = bounded_rational_roots([Fraction(c, den) for c in poly], box)
        assert len(got) == len(set(got))
        assert set(got) == naive_simple_rational_roots(poly, box), poly
    assert bounded_rational_roots([], 4) == bounded_rational_roots([Fraction(5)], 4) == []


def _times(a, b):
    """Product of two integer polynomials, coefficients from degree 0 up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
