"""Dense polynomial arithmetic over Z_m and the per-prime sparsest-shift search.

A solve only ever turns grid values into coefficients: each prime's image
f^(p) is read off the box's values on the full grid {0, ..., p-1}, and the
grid operations (interpolation, shift search) require a prime modulus
p < 2^31 and degree < p.  Every nonzero grid point is a power g^a of one
generator g of Z_p^*, and one table per prime, ``_generator_powers``, holds
them: the lacunary box and every grid kernel walk the grid along it.
Dense interpolation goes through one kernel, ``_power_sums_fft``: the
Lagrange coefficients are sums s_j = sum_a u_a g^(a*j) over a = 0..p-2, an
order-(p-1) transform that Bluestein's chirp identity turns into one cyclic
convolution of 5-smooth length >= 2(p-1) - 1, run in float64 FFTs over
limbs of the residues.  The limbs are narrow enough (``_limb_split``) that
Percival's error bound for FFT products, with a 5-fold margin for
mixed-radix transforms, stays below 1/2, so the transform is exact and
O(p log p) for every such prime.

A grid whose interpolant has at most s non-constant terms takes the sparse
kernel, ``interpolate_sparse``, instead: Ben-Or and Tiwari's method reads
the terms off f(0) and f(g^i) for i < 2s (Berlekamp-Massey, a root search
over the powers of g, a transposed Vandermonde solve), and a check of the
recurrence along every grid value makes the answer exact, or None when the
interpolant has more than s terms.  The per-prime shift search,
``grid_shift``, rests on the same recurrence: for at most two terms the
shifts whose rotated grid can be sparse are the common zeros of two Hankel
determinants over the grid, each then checked by the sparse kernel, and
only larger term bounds, or grids where many shifts pass, take the dense
transform and ``min_shift``.  Small list-based helpers at the bottom
hold the library's one Horner evaluator, ``_horner``, for a single int or
Fraction point as well as a whole int64 grid, and its one expansion of
f(x + y) into polynomials in y, ``_taylor_rows``, for both shift searches
and the exact Taylor shift.  On top of them ``bounded_rational_roots`` is
the one root finder for both the exponent polynomial and the dense-regime
shift search: a ``_horner`` scan of the grid of a small prime, then
Newton lifting, so it too only ever works modulo primes below 2^31.

Grid values are int64 arrays, and every reduction of one, here and in the
boxes, goes through ``_mod``, which divides by the modulus with numpy's
floor division (a multiply and a shift) in place of its % (a hardware
division).  Reductions are also kept rare: with p < 2^31 a product of two
residues in (-p, p) is at most (p-1)^2 < 2^62, so a value in (-p, p) plus
k such products stays below p + k(p-1)^2 in absolute value, inside int64
for every k up to ``_lazy_terms(p)`` (at least 2, and above 2^20 for
p < 2^21).  Sums of products, such as the sparse kernel's recurrence
check and the lacunary box's sum of terms, are reduced once per that many
products instead of once per product.
"""

import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NoReconstruction
from .modular_core import Residue, _factorize, is_prime, next_prime_above, rational_reconstruct

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

# grid_shift's Hankel filter writes its determinants out as cofactor
# expansions of (t+1) x (t+1) matrices, 2 x 2 and 3 x 3, so it serves term
# bounds t <= 2; larger t would need a general determinant modulo p over
# whole grids, so they keep the Taylor-row search of min_shift.
_HANKEL_MAX_TERMS = 2
# Past this many candidates, checking each with interpolate_sparse would
# cost more than one transform plus min_shift, so that complete search runs
# instead.  Many shifts pass the filter on low-degree grids (at deg f <= t,
# every shift) and on powers of degree (p-1)/2, whose values are 0 and +-1
# times a constant: x^5003 at p = 10007 leaves 3,141 for t = 1.  At
# p = 1187, about the smallest prime a solve reaches, one check took
# 60-90 us and the complete search 400-560 us; the ratio grows with p.  On
# the benchmark's workloads every bt <= 2 grid had one candidate, its shift.
_HANKEL_MAX_CANDIDATES = 8


class DensePolyMod:
    """Dense polynomial over Z_m, m < 2^31: coefficients indexed by degree.

    ``coeffs`` is a read-only int64 array with trailing zeros trimmed, a
    copy of the input; the zero polynomial has an empty one and degree -1.
    Instances are immutable values: equality and the hash read only the
    modulus and the coefficients.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs):
        if not 2 <= modulus < _GRID_LIMIT:
            raise ValueError(f"modulus must be in [2, 2^31), got {modulus}")
        c = _mod(np.array(coeffs, dtype=np.int64), modulus)
        nz = np.flatnonzero(c)
        self.modulus = modulus
        self.coeffs = _read_only(c[: nz[-1] + 1 if nz.size else 0])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return int(self.coeffs[k]) if 0 <= k < len(self.coeffs) else 0

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


def _mod(x, m: int):
    """x mod m in [0, m): the library's one reduction of int64 arrays.

    A Python int (or numpy scalar) gives x % m.  An int64 array is reduced
    in place, as x - (x // m) * m, and returned: floor division by a
    scalar runs as a multiply and a shift where numpy's % divides, and its
    floor makes the result land in [0, m) for either sign of x.  Exact for
    every int64 x: where (x // m) * m leaves int64 it wraps, and the
    subtraction wraps back to the result.  Since it writes to x, callers
    pass only arrays they own; a read-only array raises ValueError and is
    left as it was.
    """
    if not isinstance(x, np.ndarray):
        return x % m
    q = x // m
    q *= m
    x -= q
    return x


def _lazy_terms(p: int) -> int:
    """How many products of two residues in (-p, p) may be added to a value
    in (-p, p) before it must be reduced modulo p.

    After k such products the sum is below p + k(p-1)^2 in absolute value,
    which must stay within int64: k = floor((2^63 - 1 - p) / (p-1)^2).
    That is at least 2 for every p < 2^31 and above 2^20 for p < 2^21.
    """
    return ((1 << 63) - 1 - p) // (p - 1) ** 2


def _rotate(a: np.ndarray, k: int) -> np.ndarray:
    """A new array holding a[(i + k) mod n] for i < n, n = len(a): the grid
    of f(x + k) from the grid of f.  Two slices and one concatenation: the
    same array as numpy's roll by -k, at less overhead per call."""
    k %= len(a)
    return np.concatenate((a[k:], a[:k]))


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
    raise RuntimeError(f"no primitive root found modulo {p}")


@lru_cache(maxsize=2)
def _generator_powers(p: int) -> np.ndarray:
    """pw[a] = g^a mod p for a < p-1, g = ``_primitive_root(p)``: a read-only
    int64 array, the one table per prime.  Two primes are cached because
    reducing a box evaluates it and then interpolates at the same prime.
    """
    n = p - 1
    g = _primitive_root(p)
    # baby steps g^b and giant steps g^(a*m), combined in one outer product
    m = math.isqrt(n) + 1
    small = [1]
    for _ in range(1, m):
        small.append(small[-1] * g % p)
    big_step = small[-1] * g % p
    big = [1]
    for _ in range(1, -(n // -m)):
        big.append(big[-1] * big_step % p)
    outer = np.multiply.outer(np.array(big, dtype=np.int64), np.array(small, dtype=np.int64))
    return _read_only(_mod(outer, p).reshape(-1)[:n])


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

    g is the generator of ``_generator_powers`` and u holds p-1 residues.
    Bluestein's identity a*j = T(a-1) + T(j) - T(j-a), with T(k) = k(k+1)/2,
    makes s[j] = g^T(j) * sum_a (u[a] g^T(a-1)) * g^-T(j-a): one convolution
    against the chirp g^-T(k) for k = -(p-2)..p-2.  Only its outputs
    j + p - 2 for j < p-1 are needed, so a cyclic convolution of any length
    >= 2(p-1) - 1 gives them without wrap-around.
    """
    n = p - 1
    pw = _generator_powers(p)
    tri = _mod(np.cumsum(np.arange(n, dtype=np.int64)), n)  # T(k) mod n; T(-1-k) = T(k)
    twiddle = pw[tri]
    chirp = pw[-tri]  # negative indices wrap modulo n
    a_seq = _mod(u * np.concatenate(([1], twiddle[:-1])), p)
    b_seq = np.concatenate((chirp[: n - 1][::-1], chirp))
    size = _smooth_length(2 * n - 1)
    la, wa, lb, wb = _limb_split(p, n, size)
    fa = [np.fft.rfft(a_seq >> wa * i & (1 << wa) - 1, size) for i in range(la)]
    fb = [np.fft.rfft(b_seq >> wb * j & (1 << wb) - 1, size) for j in range(lb)]
    pairs = [(wa * i + wb * j, i, j) for i in range(la) for j in range(lb)]
    conv = np.zeros(n, dtype=np.int64)
    for weight in {w for w, _, _ in pairs}:  # limb products of weight 2^w, summed
        spec = sum(fa[i] * fb[j] for w, i, j in pairs if w == weight)
        part = _mod(np.rint(np.fft.irfft(spec, size)[n - 1 : 2 * n - 1]).astype(np.int64), p)
        part *= pow(2, weight, p)
        conv += part
        _mod(conv, p)
    conv *= twiddle
    return _mod(conv, p)


def _check_grid_prime(p: int) -> None:
    if p >= _GRID_LIMIT:
        raise ValueError(f"grid operations need a prime below 2^31, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _checked_grid(vals: np.ndarray, p: int) -> np.ndarray:
    """vals, after checking that it holds the p reduced values of a grid
    over a prime p < 2^31; ValueError otherwise."""
    _check_grid_prime(p)
    if vals.ndim != 1 or vals.shape[0] != p:
        raise ValueError(f"need exactly {p} values, got {vals.shape[0] if vals.ndim == 1 else '?'}")
    if int(vals.min()) < 0 or int(vals.max()) >= p:
        raise ValueError("values must already be reduced modulo p")
    return vals


# ---------------- the sparse kernel ----------------

def _berlekamp_massey(seq: Sequence[int], p: int):
    """(C, L): the shortest linear recurrence over Z_p that generates seq.

    C = [1, c_1, ..., c_L] (list length L + 1, trailing entries possibly
    zero) with sum_j C[j] * seq[i-j] = 0 mod p for every L <= i < len(seq).
    """
    c, b = [1], [1]
    length, gap, last = 0, 1, 1
    for i, x in enumerate(seq):
        d = (x + sum(c[j] * seq[i - j] for j in range(1, len(c)))) % p
        if d == 0:
            gap += 1
            continue
        factor = d * pow(last, -1, p) % p
        prev = list(c)
        c += [0] * (len(b) + gap - len(c))
        for j, bj in enumerate(b):
            c[j + gap] = (c[j + gap] - factor * bj) % p
        if 2 * length <= i:
            length, b, last, gap = i + 1 - length, prev, d, 1
        else:
            gap += 1
    return c + [0] * (length + 1 - len(c)), length


# ---------------- spec operations ----------------

def interpolate_range(values: Sequence[int], p: int) -> DensePolyMod:
    """Unique polynomial of degree < p through (i, values[i]) for i in 0..p-1.

    Lagrange interpolation on the full grid: x^p - x has derivative -1 at
    every node, so c_0 = v_0, c_j = -sum_{i>0} v_i i^-j for 0 < j < p-1, and
    c_{p-1} = -v_0 - sum_{i>0} v_i.  With i = g^-a these sums are
    ``_power_sums_fft`` of u[a] = v[g^-a]: exact and O(p log p) for every
    prime p < 2^31, with limbs narrow enough that each float64 product sum
    stays within its exact range (see ``_limb_split``).  Larger moduli raise
    ValueError.  ``values`` is only read, never copied or kept.
    """
    vals = _checked_grid(np.asarray(values, dtype=np.int64), p)
    n = p - 1
    pw = _generator_powers(p)
    s = _power_sums_fft(vals[_rotate(pw[::-1], -1)], p)  # u[a] = v[g^-a]
    c = np.empty(p, dtype=np.int64)
    c[0] = vals[0]
    c[1:n] = _mod(p - s[1:], p)
    c[n] = (2 * p - s[0] - vals[0]) % p
    return DensePolyMod(p, c)


def interpolate_sparse(values: Sequence[int], p: int, s: int) -> Optional[DensePolyMod]:
    """``interpolate_range(values, p)`` if it has at most s non-constant
    terms, else None.

    Ben-Or and Tiwari's method on the grid already in hand.  With c_0 the
    value at 0, the values a_j = f(g^j) - c_0 = sum_k c_k (g^e_k)^j satisfy
    a linear recurrence whose characteristic polynomial has the roots g^e_k,
    one per term, a slot e_k in 1..p-1 (x^(p-1) is 1 at every nonzero
    point, so slot p-1 has root 1 = g^0).  Berlekamp-Massey finds the
    recurrence from a_0..a_(2s-1).  It is then checked along all of
    a_0..a_(p-2); one Horner pass over the powers of g (the table of
    ``_generator_powers``) finds its roots and their slots, and a transposed
    Vandermonde solve fits the coefficients to a_0..a_(L-1).  A sequence
    that obeys a recurrence with L distinct roots is fixed by its first L
    values, so the result matches all p values, and a polynomial of degree
    < p that does is the interpolant: the answer is exact whatever the
    input.  More than s terms show up as a recurrence longer than s, a
    failed check or too few roots.  The values a_j are kept unreduced in
    (-p, p), and the check sums the products conn[m] * a_(j-m) unreduced:
    a value in (-p, p) plus k products stays below p + k(p-1)^2 < 2^63 for
    k up to ``_lazy_terms(p)``, so the sum is reduced once per that many
    products and once before it is tested for zero.  O(s p) numpy work
    plus O(s^2) Python integer work.
    """
    if s < 0:
        raise ValueError(f"term bound must be >= 0, got {s}")
    vals = _checked_grid(np.asarray(values, dtype=np.int64), p)
    n = p - 1
    s = min(s, n)  # no grid has more than p - 1 non-constant terms
    pw = _generator_powers(p)
    c0 = int(vals[0])
    seq = vals[pw] - c0  # seq[j] = f(g^j) - c_0, unreduced in (-p, p)
    head = [x % p for x in seq[np.arange(2 * s) % n].tolist()]
    conn, length = _berlekamp_massey(head, p)
    if length > s:
        return None
    # the recurrence must hold along the whole grid, not just the 2s values
    rest = seq[length:].copy()
    lazy = _lazy_terms(p)
    for m in range(1, length + 1):
        rest += conn[m] * seq[length - m : n - m]
        if m % lazy == 0:
            _mod(rest, p)
    if _mod(rest, p).any():
        return None
    # roots of z^L C(1/z), whose coefficients from the top are conn, at every g^i
    logs = np.flatnonzero(_horner(conn[::-1], pw, p) == 0).tolist()
    if len(logs) < length:  # repeated roots, roots outside Z_p^*, or root 0
        return None
    slots = [i or n for i in logs]  # root g^0 = 1 is the slot of x^(p-1)
    out = np.zeros(max(slots, default=0) + 1, dtype=np.int64)
    out[0] = c0
    for i, e in zip(logs, slots):
        root = int(pw[i])
        quot = [1]  # z^L C(1/z) / (z - root), from the top
        for a in conn[1:length]:
            quot.append((a + root * quot[-1]) % p)
        num = sum(q * x for q, x in zip(quot, reversed(head[:length])))
        den = _horner(quot[::-1], root, p)
        out[e] = num * pow(den, -1, p) % p
    return DensePolyMod(p, out)


def tau(f: DensePolyMod) -> int:
    """Number of nonzero, non-constant terms of f."""
    return int(np.count_nonzero(f.coeffs[1:]))


def min_shift(f: DensePolyMod, grid: Sequence[int], *, tau_cap: int) -> Optional[MinShift]:
    """The shift gamma in Z_p with tau(f(x + gamma)) <= tau_cap, or None.

    ``grid`` must hold f's p values at 0..p-1, reduced modulo p: the box's
    grid that f was read off.  Needs tau_cap >= 1 and deg f >= 2*tau_cap + 1,
    which make such a shift unique (tie is always False); ValueError
    otherwise, and for a grid of the wrong length or unreduced.  Any such
    shift zeroes at least tau_cap + 1 of the 2*tau_cap coefficient
    polynomials of f(x + y) directly below the leading one (the leading term
    is itself one of the at most tau_cap terms), so the common roots of
    their grid values are a complete candidate filter.  Those are rows
    deg f - 2*tau_cap .. deg f - 1 of ``_taylor_rows``, reduced modulo p;
    with deg f < p no binomial in them vanishes, so row k keeps degree
    deg f - k.  Each candidate, most votes first, is checked exactly by
    ``interpolate_sparse`` on the grid rotated by it.  The library's shift
    phase reaches it through ``grid_shift``, and only for tau_cap >= 3 or
    when ``grid_shift``'s Hankel filter leaves more than
    ``_HANKEL_MAX_CANDIDATES`` candidates; otherwise that filter finds the
    shift without f's coefficients.
    """
    p, d = f.modulus, f.degree
    grid = _checked_grid(np.asarray(grid, dtype=np.int64), p)
    if d >= p:
        raise ValueError("degree must be < modulus")
    if tau_cap < 1:
        raise ValueError(f"tau_cap must be >= 1, got {tau_cap}")
    if d < 2 * tau_cap + 1:
        raise ValueError(f"the shift search needs deg f >= 2*tau_cap + 1 = {2 * tau_cap + 1}, "
                         f"got {d}")
    votes = Counter()
    xs = np.arange(p, dtype=np.int64)
    for row in _taylor_rows(f.coeffs.tolist(), range(d - 2 * tau_cap, d)):
        for g in np.flatnonzero(_horner([c % p for c in row], xs, p) == 0).tolist():
            votes[g] += 1
    for g in sorted((g for g, v in votes.items() if v > tau_cap), key=lambda g: (-votes[g], g)):
        hit = interpolate_sparse(_rotate(grid, g), p, tau_cap)
        if hit is not None:
            return MinShift(g, tau(hit), False)
    return None


def grid_shift(grid: Sequence[int], p: int, *, tau_cap: int) -> Tuple[bool, Optional[int]]:
    """(passes, gamma) for the polynomial f of degree < p whose values at
    0..p-1, reduced modulo p, are ``grid``: passes says deg f >= 2*tau_cap + 1,
    and gamma is then the shift with tau(f(x + gamma)) <= tau_cap, or None
    when there is none.  gamma is None whenever passes is False.

    For tau_cap = t <= ``_HANKEL_MAX_TERMS`` a Hankel filter on the grid
    finds the candidates without a transform.  Let g be the generator of
    ``_generator_powers`` and s_gamma(j) = grid[gamma + g^j] - grid[gamma].
    - Completeness.  If f(x + gamma) = c_0 + sum_k c_k x^e_k has at most t
      non-constant terms, the grid rotated by gamma is its grid, so
      s_gamma(j) = sum_k c_k (g^e_k)^j: at most t geometric sequences
      (Ben-Or and Tiwari), which obey a linear recurrence of order <= t.
      Its coefficients are a kernel vector of every (t+1) x (t+1) Hankel
      matrix of s_gamma, so the two over j = 0..2t and j = 1..2t+1 are both
      singular.  j is read modulo p - 1, the period of g^j, so small primes
      lose nothing.  Every such gamma is thus a candidate.
    - Exactness.  Each candidate, in increasing order, is checked by
      ``interpolate_sparse`` on the grid rotated by it, which returns
      f(x + gamma) exactly when it has at most t non-constant terms.
    - Uniqueness.  With deg f >= 2t + 1 the t-sparse shift is unique
      (Lakshman and Saunders, "Sparse shifts for univariate polynomials",
      1996; ``min_shift`` rests on the same fact), so the first hit is it.
    - Degree.  deg f < p, so f(x + gamma) has the degree of f: the first
      hit gives deg f too, and a hit of degree <= 2t does not pass.  When
      no candidate hits, no t-sparse shift exists, and one
      ``interpolate_range`` is still needed for the degree alone.
    The determinants are cofactor expansions on int64 arrays: each s_j is
    reduced into [0, p) and each 2 x 2 minor is reduced before it is
    multiplied again, so every product stays below (p-1)^2 < 2^62 and the
    3 x 3 sum of three of them within (-2^62, 2^63).

    Larger tau_cap, and grids with more than ``_HANKEL_MAX_CANDIDATES``
    candidates, take the complete search instead: ``interpolate_range``
    for the degree, then ``min_shift`` when it passes.  Either way the
    answer is the same.  ValueError for tau_cap < 1, and for a grid of the
    wrong length or unreduced.
    """
    vals = _checked_grid(np.asarray(grid, dtype=np.int64), p)
    if tau_cap < 1:
        raise ValueError(f"tau_cap must be >= 1, got {tau_cap}")
    need = 2 * tau_cap + 1
    if tau_cap <= _HANKEL_MAX_TERMS:
        cands = _hankel_candidates(vals, p, tau_cap)
        if len(cands) <= _HANKEL_MAX_CANDIDATES:
            for gamma in cands:
                hit = interpolate_sparse(_rotate(vals, gamma), p, tau_cap)
                if hit is not None:
                    return (True, gamma) if hit.degree >= need else (False, None)
            return interpolate_range(vals, p).degree >= need, None
    f = interpolate_range(vals, p)
    if f.degree < need:
        return False, None
    hit = min_shift(f, vals, tau_cap=tau_cap)
    return True, None if hit is None else hit.gamma


def _hankel_candidates(vals: np.ndarray, p: int, t: int) -> list:
    """The shifts gamma, in increasing order, at which both (t+1) x (t+1)
    Hankel matrices of s_gamma (``grid_shift``) are singular modulo p;
    t is 1 or 2.  The first matrix is tested at every gamma, the second only
    where the first is singular, which on most grids leaves a handful."""
    pw = _generator_powers(p)
    n = p - 1
    seq = []
    for j in range(2 * t + 1):
        s = _rotate(vals, int(pw[j % n]))
        s -= vals
        seq.append(_mod(s, p))
    cands = np.flatnonzero(_hankel_det(seq, p) == 0)
    top = vals[_mod(cands + int(pw[(2 * t + 1) % n]), p)]
    top -= vals[cands]
    shifted = [s[cands] for s in seq[1:]] + [_mod(top, p)]
    return cands[_hankel_det(shifted, p) == 0].tolist()


def _hankel_det(s: Sequence[np.ndarray], p: int) -> np.ndarray:
    """det [s[a + b]] for a, b <= t, modulo p, with len(s) = 2t + 1 for t = 1
    or 2, elementwise over arrays of residues in [0, p)."""
    if len(s) == 3:
        return _mod(s[0] * s[2] - s[1] * s[1], p)
    m0 = _mod(s[2] * s[4] - s[3] * s[3], p)
    m1 = _mod(s[1] * s[4] - s[2] * s[3], p)
    m2 = _mod(s[1] * s[3] - s[2] * s[2], p)
    return _mod(s[0] * m0 - s[1] * m1 + s[2] * m2, p)


# ---------------- small list-based helpers ----------------

def _taylor_rows(coeffs: Sequence, ks) -> list:
    """Rows k in ks of f(x + y), f = sum_j coeffs[j] x^j: row k holds the
    coefficients, from degree 0 up, of the x^k coefficient of f(x + y) as a
    polynomial in y, that is C(j, k) f_j for j = k..deg f, or
    f^(k)(y) / k!.  Exact in the coefficients' own ring (ints or
    Fractions); callers working modulo p reduce the rows themselves.
    """
    d = len(coeffs) - 1
    return [[math.comb(j, k) * coeffs[j] for j in range(k, d + 1)] for k in ks]


def _horner(coeffs: Sequence, x, m: Optional[int] = None):
    """sum_k coeffs[k] * x^k, coefficients from degree 0 up; with m given,
    the coefficients are residues modulo m and so is the result.

    x is an int, a Fraction, or an int64 array of residues modulo m < 2^31.
    Each step multiplies the accumulator by x, so it is reduced by ``_mod``
    after every step: the partial sum acc * x + c stays below
    m^2 + m < 2^63.  The accumulator is a fresh value, so the in-place
    updates and ``_mod`` never write to x; starting it at the leading
    coefficient rather than at zero saves three passes over an array x.
    """
    acc = x * 0
    if len(coeffs):
        acc += coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc *= x
        acc += c
        if m is not None:
            acc = _mod(acc, m)
    return acc


def poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _times_linear(c: Sequence[int], r: int, m: int) -> list:
    """Coefficients of c(x) * (x - r) mod m, from degree 0 up."""
    return [(a - r * b) % m for a, b in zip([0, *c], [*c, 0])]


def bounded_rational_roots(coeffs: Sequence, box: int) -> list:
    """The simple rational roots a/b with |a| <= box and 1 <= b <= box of the
    polynomial whose Fraction or int coefficients ``coeffs`` run from degree
    0 up, each once; roots of higher multiplicity are left out.

    Scaled to a primitive integer polynomial A of degree m and height H, a
    simple root a/b in lowest terms has b | lead(A), and b^(m-1) A'(a/b) is
    a nonzero integer of absolute value at most m^2 H box^(m-1).  So for
    every prime l that divides neither lead(A) nor that integer, a * b^-1
    is a simple root of A modulo l.  The primes l above 2^10 that do not divide lead(A) are
    tried until their product passes that bound, which leaves at least one
    such l among them.  One ``_horner`` pass over Z_l finds the simple
    roots modulo l, and Newton's iteration lifts each to a root modulo
    l^(2^i) > 2*box^2 (Loos, "Computing rational zeros of integral
    polynomials by p-adic expansion", 1983).  Rational reconstruction
    then gives the one bounded rational it can come from, and an exact
    evaluation confirms it.  The search ends early at m confirmed roots.
    """
    coeffs = poly_trim(list(coeffs))
    if len(coeffs) <= 1:
        return []
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den_lcm) for c in coeffs]
    g = math.gcd(*ints)
    a = [v // g for v in ints]
    da = [k * c for k, c in enumerate(a)][1:]
    m = len(a) - 1
    stop = m * m * max(map(abs, a)) * box ** (m - 1)
    roots = []
    ell, used = 1 << 10, 1
    while used <= stop and len(roots) < m:
        ell = next_prime_above(ell)
        if a[-1] % ell == 0:
            continue
        used *= ell
        xs = np.arange(ell, dtype=np.int64)
        simple = ((_horner([c % ell for c in a], xs, ell) == 0)
                  & (_horner([c % ell for c in da], xs, ell) != 0))
        for u in np.flatnonzero(simple).tolist():
            mod = ell
            while mod <= 2 * box * box:
                mod *= mod
                u = (u - _horner(a, u, mod) * pow(_horner(da, u, mod), -1, mod)) % mod
            try:
                cand = rational_reconstruct(Residue(u, mod), box)
            except NoReconstruction:
                continue
            if cand not in roots and _horner(coeffs, cand) == 0:
                roots.append(cand)
    return roots
