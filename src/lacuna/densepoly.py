"""Dense polynomial arithmetic over Z_m and the per-prime sparsest-shift search.

The grid-backed operations (interpolation from the full evaluation grid
{0, ..., p-1}, evaluation on it, Taylor shift by index rotation, shift
search) require a prime modulus p < 2^31 and degree < p.  Both directions
between coefficients and grid values go through one kernel,
``_power_sums_fft``: with a generator g of Z_p^*, the values at the nonzero
points g^j and the Lagrange coefficients are both sums
s_j = sum_a u_a g^(a*j) over a = 0..p-2, an order-(p-1) transform that
Bluestein's chirp identity turns into one cyclic convolution of 5-smooth
length >= 2(p-1) - 1.  The convolution runs in float64 FFTs over limbs of
the residues; the limb width is picked from the bit length of p and the FFT
length so that Percival's error bound for FFT products, with a 5-fold margin
for mixed-radix transforms, stays below 1/2 (``_limb_split``), which keeps
the transform exact and O(p log p) for every such prime.  Small
list-based helpers at the bottom work over any modulus and are shared with
the exponent-polynomial machinery.
"""

import math
import random
from collections import Counter
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NotSplitting
from .modular_core import _factorize, inv_mod, is_prime

# Grid operations need residue products below 2^62, so p < 2^31.
_GRID_LIMIT = 1 << 31

# A float64 FFT convolution of length L of inputs whose 2-norms multiply to M
# has every output within about 12 * 2^-53 * log2(L) * M of the exact sum
# (Percival's bound for FFT products); log2(L) * M <= 2^46 keeps that below
# 0.1, so rounding recovers every output exactly.  Percival proves the bound
# for radix-2 transforms; numpy runs the 5-smooth lengths used here with
# radix-3 and radix-5 butterflies too, whose constant is assumed to be of the
# same size: the margin from 0.1 to 0.5 covers one up to 5 times larger.
_EXACT_FFT_BITS = 46


class DensePolyMod:
    """Dense polynomial over Z_m, m < 2^31: coefficients indexed by degree.

    ``coeffs`` is a read-only int64 array with trailing zeros trimmed; the
    zero polynomial has an empty one and degree -1.  Instances are immutable
    except for a lazily cached full evaluation grid, also a read-only int64
    array.
    """

    __slots__ = ("modulus", "coeffs", "_grid")

    def __init__(self, modulus: int, coeffs, _grid=None):
        if not 2 <= modulus < _GRID_LIMIT:
            raise ValueError(f"modulus must be in [2, 2^31), got {modulus}")
        c = np.asarray(coeffs, dtype=np.int64) % modulus
        nz = np.flatnonzero(c)
        self.modulus = modulus
        self.coeffs = _read_only(c[: nz[-1] + 1 if nz.size else 0])
        self._grid = None if _grid is None else _read_only(_grid)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return int(self.coeffs[k]) if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs.tolist()):
            y = (y * x + c) % self.modulus
        return y

    def __eq__(self, other):
        return (
            isinstance(other, DensePolyMod)
            and self.modulus == other.modulus
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.modulus, self.coeffs.tobytes()))

    def __repr__(self):
        return f"DensePolyMod({self.modulus}, {self.coeffs.tolist()})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class MinShift(NamedTuple):
    gamma: int
    tau: int
    tie: bool


# ---------------- the chirp-transform kernel ----------------

def _primitive_root(p: int) -> int:
    """A generator of the multiplicative group of Z_p (1 for p = 2)."""
    n = p - 1
    factors = _factorize(n)
    for g in range(1, p):
        if all(pow(g, n // r, p) != 1 for r in factors):
            return g
    raise AssertionError("no primitive root found for a prime modulus")


@lru_cache(maxsize=2)
def _cyclic_tables(p: int):
    """(pw, lg) with pw[a] = g^a for a < p-1 and lg[g^a] = a, g a generator.

    Read-only int64 arrays; lg[0] is 0 and stands for no logarithm.  Two
    primes are cached because reducing a box evaluates it and then
    interpolates at the same prime.
    """
    n = p - 1
    g = _primitive_root(p)
    # baby steps g^b and giant steps g^(a*m), combined in one outer product
    m = math.isqrt(n) + 1
    small = np.empty(m, dtype=np.int64)
    small[0] = 1
    for i in range(1, m):
        small[i] = small[i - 1] * g % p
    big_step = int(small[m - 1]) * g % p
    big = np.empty(-(n // -m), dtype=np.int64)
    big[0] = 1
    for i in range(1, len(big)):
        big[i] = big[i - 1] * big_step % p
    pw = (np.outer(big, small) % p).reshape(-1)[:n]
    lg = np.zeros(p, dtype=np.int64)
    lg[pw] = np.arange(n, dtype=np.int64)
    pw.flags.writeable = False
    lg.flags.writeable = False
    return pw, lg


def _smooth_length(m: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= m: FFT lengths numpy transforms fast."""
    best = 1 << (m - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < m:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _limb_split(p: int, n: int, size: int):
    """(la, wa, lb, wb): split residues < p of the length-n and length-(2n-1)
    inputs of a length-``size`` float64 convolution into la limbs of wa bits
    and lb limbs of wb bits, with the fewest transforms that keep it exact.

    Limbs below 2^wa and 2^wb have 2-norms multiplying to less than
    2 * n * 2^(wa + wb), and one output sums the limb products of equal
    weight wa*i + wb*j, at most la <= lb of them; that bounds the rounding
    error.  Each distinct weight costs one inverse transform.
    """
    bits = (p - 1).bit_length()
    best = None
    for la in range(1, bits + 1):
        if best is not None and 4 * la - 1 >= best[0]:
            break  # la <= lb limbs take at least la + lb + (la + lb - 1) transforms
        wa = -(-bits // la)
        for lb in range(la, bits + 1):
            wb = -(-bits // lb)
            if (la * 2 * n << wa + wb) * size.bit_length() <= 1 << _EXACT_FFT_BITS:
                weights = {wa * i + wb * j for i in range(la) for j in range(lb)}
                if best is None or la + lb + len(weights) < best[0]:
                    best = (la + lb + len(weights), la, wa, lb, wb)
                break  # more limbs of b only add transforms
    return best[1:]


def _power_sums_fft(u: np.ndarray, p: int) -> np.ndarray:
    """s[j] = sum_a u[a] * g^(a*j) mod p for j = 0..p-2, exact, O(p log p).

    g is the generator of ``_cyclic_tables`` and u holds p-1 residues.
    Bluestein's identity a*j = T(a-1) + T(j) - T(j-a), with T(k) = k(k+1)/2,
    makes s[j] = g^T(j) * sum_a (u[a] g^T(a-1)) * g^-T(j-a): one convolution
    against the chirp g^-T(k) for k = -(p-2)..p-2.  Only its outputs
    j + p - 2 for j < p-1 are needed, so a cyclic convolution of any length
    >= 2(p-1) - 1 gives them without wrap-around.
    """
    n = p - 1
    pw, _ = _cyclic_tables(p)
    tri = np.cumsum(np.arange(n, dtype=np.int64)) % n  # T(k) mod n; T(-1-k) = T(k)
    twiddle = pw[tri]
    chirp = pw[-tri]  # negative indices wrap modulo n
    a_seq = u * np.concatenate(([1], twiddle[:-1])) % p
    b_seq = np.concatenate((chirp[: n - 1][::-1], chirp))
    size = _smooth_length(2 * n - 1)
    la, wa, lb, wb = _limb_split(p, n, size)
    fa = [np.fft.rfft(a_seq >> wa * i & (1 << wa) - 1, size) for i in range(la)]
    fb = [np.fft.rfft(b_seq >> wb * j & (1 << wb) - 1, size) for j in range(lb)]
    pairs = [(wa * i + wb * j, i, j) for i in range(la) for j in range(lb)]
    conv = np.zeros(n, dtype=np.int64)
    for weight in {w for w, _, _ in pairs}:  # limb products of weight 2^w, summed
        spec = sum(fa[i] * fb[j] for w, i, j in pairs if w == weight)
        part = np.rint(np.fft.irfft(spec, size)[n - 1 : 2 * n - 1]).astype(np.int64) % p
        conv = (conv + part * pow(2, weight, p)) % p
    return conv * twiddle % p


def _check_grid_prime(p: int) -> None:
    if p >= _GRID_LIMIT:
        raise ValueError(f"grid operations need a prime below 2^31, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _eval_grid(f: DensePolyMod) -> np.ndarray:
    """f on the whole grid 0..p-1: f(0) = c_0, and f(g^j) = s_j for the
    coefficients folded modulo x^(p-1) - 1 (which vanishes off 0)."""
    p = f.modulus
    n = p - 1
    c = f.coeffs
    u = np.zeros(n, dtype=np.int64)
    u[: min(len(c), n)] = c[:n]
    if len(c) == p:
        u[0] = (u[0] + c[n]) % p
    pw, _ = _cyclic_tables(p)
    grid = np.empty(p, dtype=np.int64)
    grid[pw] = _power_sums_fft(u, p)
    grid[0] = f.coeff(0)
    return grid


# ---------------- spec operations ----------------

def interpolate_range(values: Sequence[int], p: int) -> DensePolyMod:
    """Unique polynomial of degree < p through (i, values[i]) for i in 0..p-1.

    Lagrange interpolation on the full grid: x^p - x has derivative -1 at
    every node, so c_0 = v_0, c_j = -sum_{i>0} v_i i^-j for 0 < j < p-1, and
    c_{p-1} = -v_0 - sum_{i>0} v_i.  With i = g^-a these sums are
    ``_power_sums_fft`` of u[a] = v[g^-a]: exact and O(p log p) for every
    prime p < 2^31, with limbs narrow enough that each float64 product sum
    stays within its exact range (see ``_limb_split``).  Larger moduli raise
    ValueError.
    """
    _check_grid_prime(p)
    vals = np.array(values, dtype=np.int64)  # a copy: the result keeps it as its grid
    if vals.ndim != 1 or vals.shape[0] != p:
        raise ValueError(f"need exactly {p} values, got {vals.shape[0] if vals.ndim == 1 else '?'}")
    if int(vals.min()) < 0 or int(vals.max()) >= p:
        raise ValueError("values must already be reduced modulo p")
    n = p - 1
    pw, _ = _cyclic_tables(p)
    s = _power_sums_fft(vals[np.roll(pw[::-1], 1)], p)  # u[a] = v[g^-a]
    c = np.empty(p, dtype=np.int64)
    c[0] = vals[0]
    c[1:n] = (p - s[1:]) % p
    c[n] = (2 * p - s[0] - vals[0]) % p
    return DensePolyMod(p, c, _grid=vals)


def evaluate_range(f: DensePolyMod) -> np.ndarray:
    """Full evaluation grid of f over Z_p as a read-only int64 array, cached
    on the polynomial."""
    if f._grid is None:
        _check_grid_prime(f.modulus)
        if f.degree >= f.modulus:
            raise ValueError("degree must be < modulus for grid semantics")
        f._grid = _read_only(_eval_grid(f))
    return f._grid


def taylor_shift(f: DensePolyMod, gamma: int) -> DensePolyMod:
    """Return g with g(x) = f(x + gamma) over Z_p.

    Works on the evaluation grid: shifting the argument only rotates the
    indices of the already-evaluated points, so the cost is one
    re-interpolation.
    """
    p = f.modulus
    gamma = gamma % p
    grid = evaluate_range(f)
    if gamma == 0:
        return f
    return interpolate_range(np.roll(grid, -gamma), p)


def tau(f: DensePolyMod) -> int:
    """Number of nonzero, non-constant terms of f."""
    return int(np.count_nonzero(f.coeffs[1:]))


def min_shift(f: DensePolyMod, *, tau_cap: Optional[int] = None) -> Optional[MinShift]:
    """Shift gamma minimizing tau(f(x + gamma)) over all of Z_p.

    Returns (gamma, tau, tie) equal to the exhaustive search over every
    gamma, with the smallest gamma on ties.  When deg f >= 2*tau + 1 the
    winner is provably the unique sparsest shift and tie is False.

    With ``tau_cap`` set, only shifts achieving tau <= tau_cap are of
    interest: the unique such shift is returned if it exists (requires
    deg f >= 2*tau_cap + 1 for uniqueness), else None.  This is the cheap
    path used by the shift-recovery loop.  Without it, candidate searches
    for tau <= 1, 2, 4, ... run first and the exhaustive search last.
    """
    p = f.modulus
    _check_grid_prime(p)
    if f.degree >= p:
        raise ValueError("degree must be < modulus")
    d = f.degree
    if d <= 0:
        return MinShift(0, 0, p > 1)
    smax = (d - 1) // 2
    if tau_cap is not None:
        s = min(tau_cap, smax)
        if s < 1:
            res = _min_shift_exhaustive(f)
            return res if res.tau <= tau_cap else None
        return _min_shift_candidates(f, s)  # None when no shift reaches tau <= s
    s = 1
    while s <= smax:
        hit = _min_shift_candidates(f, s)
        if hit is not None:
            return hit
        if s == smax:
            break
        s = min(2 * s, smax)
    return _min_shift_exhaustive(f)


# ---------------- shift search internals ----------------

def _hasse_rows(f: DensePolyMod, ks) -> dict:
    """Coefficient polynomials of f(x+y): row k maps y to the x^k coefficient.

    Row k is sum_j C(j, k) f_j y^(j-k); with deg f < p no binomial in range
    vanishes mod p, so row k has degree exactly deg f - k.  The binomial
    updates divide by 1 .. deg f - min(ks) only, so the inverse table stops
    there.
    """
    p, d = f.modulus, f.degree
    coeffs = f.coeffs.tolist()
    m = d - min(ks)
    inv = [0, 1] + [0] * max(0, m - 1)
    for i in range(2, m + 1):
        inv[i] = -(p // i) * inv[p % i] % p
    rows = {}
    for k in ks:
        binom = 1
        row = []
        for j in range(k, d + 1):
            row.append(binom * coeffs[j] % p)
            if j < d:
                binom = binom * (j + 1) % p * inv[j + 1 - k] % p
        rows[k] = row
    return rows


def _grid_eval_small(row, p: int) -> np.ndarray:
    """Evaluate a short coefficient list on the whole grid of Z_p."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(row):
        acc = (acc * xs + int(c)) % p
    return acc


def _min_shift_candidates(f: DensePolyMod, s: int) -> Optional[MinShift]:
    """Find the unique shift with tau <= s, if any (requires deg f >= 2s+1).

    Any such shift zeroes at least s+1 of the 2s coefficient polynomials
    directly below the leading one, so scanning their root sets is a
    complete candidate filter; each surviving candidate is checked exactly.
    """
    p, d = f.modulus, f.degree
    if d < 2 * s + 1:
        raise ValueError("candidate filter needs deg f >= 2s+1")
    band = range(d - 2 * s, d)
    rows = _hasse_rows(f, band)
    votes = Counter()
    for k in band:
        vals = _grid_eval_small(rows[k], p)
        for g in np.nonzero(vals == 0)[0]:
            votes[int(g)] += 1
    cands = sorted((g for g, v in votes.items() if v >= s + 1), key=lambda g: (-votes[g], g))
    for g in cands:
        t = tau(taylor_shift(f, g))
        if t <= s:
            return MinShift(g, t, False)
    return None


def _min_shift_exhaustive(f: DensePolyMod) -> MinShift:
    """Exact tau for every shift; smallest winning gamma, tie flag precise."""
    p, d = f.modulus, f.degree
    if d <= 0:
        return MinShift(0, 0, p > 1)
    taus = np.zeros(p, dtype=np.int64)
    rows = _hasse_rows(f, range(1, d + 1))
    for k in range(1, d + 1):
        taus += _grid_eval_small(rows[k], p) != 0
    best = int(taus.min())
    where = np.nonzero(taus == best)[0]
    return MinShift(int(where[0]), best, len(where) > 1)


# ---------------- small list-based helpers over Z_m ----------------

def poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul_mod(a: Sequence[int], b: Sequence[int], m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % m
    return poly_trim(out)


def poly_sub_mod(a: Sequence[int], b: Sequence[int], m: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % m
    return poly_trim(out)


def poly_rem_mod(a: Sequence[int], b: Sequence[int], m: int) -> list:
    """Remainder of a modulo b over Z_m; the leading coeff of b must be invertible."""
    a = [x % m for x in a]
    poly_trim(a)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = inv_mod(b[-1], m)
    while len(a) - 1 >= db:
        k = len(a) - 1 - db
        factor = a[-1] * inv_lead % m
        for i in range(db + 1):
            a[k + i] = (a[k + i] - factor * b[i]) % m
        poly_trim(a)
    return a


def poly_gcd_mod(a: Sequence[int], b: Sequence[int], m: int) -> list:
    """Monic gcd over Z_m (m prime)."""
    a, b = list(a), list(b)
    poly_trim(a)
    poly_trim(b)
    while b:
        a, b = b, poly_rem_mod(a, b, m)
    if a:
        inv_lead = inv_mod(a[-1], m)
        a = [x * inv_lead % m for x in a]
    return a


def poly_powmod(base: Sequence[int], e: int, mod_poly: Sequence[int], m: int) -> list:
    """base**e modulo mod_poly over Z_m."""
    result = [1]
    b = poly_rem_mod(list(base), mod_poly, m)
    while e:
        if e & 1:
            result = poly_rem_mod(poly_mul_mod(result, b, m), mod_poly, m)
        b = poly_rem_mod(poly_mul_mod(b, b, m), mod_poly, m)
        e >>= 1
    return result


def poly_roots_mod(a: Sequence[int], r: int, *, seed: int = 0) -> list:
    """Distinct roots in Z_r of a nonzero polynomial over Z_r (r an odd prime).

    gcd(x^r - x, a) keeps one linear factor per root, and equal-degree
    splitting with deterministic retry seeds separates them.
    """
    a = poly_trim([c % r for c in a])
    if len(a) <= 1:
        return []
    z = [0, 1]
    linear_part = poly_gcd_mod(poly_sub_mod(poly_powmod(z, r, a, r), z, r), a, r)
    return _split_into_roots(linear_part, r, random.Random(seed))


def _split_into_roots(h: Sequence[int], r: int, rng: random.Random) -> List[int]:
    """Roots of a monic product of distinct linear factors over Z_r."""
    deg = len(h) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-h[0]) % r]
    for _ in range(200):
        a = rng.randrange(r)
        w = poly_powmod([a, 1], (r - 1) // 2, h, r)
        w = poly_sub_mod(w, [1], r)
        d = poly_gcd_mod(w, h, r)
        if 0 < len(d) - 1 < deg:
            rest = poly_divide_out(h, d, r)
            return _split_into_roots(d, r, rng) + _split_into_roots(rest, r, rng)
    raise NotSplitting("equal-degree splitting failed to converge")


def poly_divide_out(h: Sequence[int], d: Sequence[int], r: int) -> List[int]:
    """Exact quotient h / d over Z_r (d divides h)."""
    h = list(h)
    out = [0] * (len(h) - len(d) + 1)
    inv_lead = inv_mod(d[-1], r)
    for k in range(len(out) - 1, -1, -1):
        c = h[k + len(d) - 1] * inv_lead % r
        out[k] = c
        if c:
            for i, di in enumerate(d):
                h[k + i] = (h[k + i] - c * di) % r
    return out
