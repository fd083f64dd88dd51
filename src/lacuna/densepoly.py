"""Dense polynomial arithmetic over Z_m and the per-prime sparsest-shift search.

A solve only ever turns grid values into coefficients: each prime's image
f^(p) is read off the box's values on the full grid {0, ..., p-1}, and the
grid operations (interpolation, shift search) require a prime modulus
p < 2^31 and degree < p.  Every nonzero grid point is a power g^a of one
generator g of Z_p^*, and one table per prime, ``_generator_powers``, holds
them: the lacunary box and every grid kernel walk the grid along it.  Only
half the table is multiplied out, since g^((p-1)/2) = -1 makes
pw[a + (p-1)/2] = p - pw[a].  The lacunary box's values along it are one
``_geometric_sums`` call, scattered into its grid, and the last such grid
is cached (``blackbox._lacunary_grid``), so confirming a padding prime
against the box's own polynomial reads the same array: one table, one sums
evaluation and one grid per prime.  Whole tables are not kept
across solves, but the baby and giant steps they are built from
(``_generator_steps``), a pure function of p, are kept for the last 1024
primes the process met: about 16 sqrt(p/2) bytes a prime, at most 3.4 MB
below p = 2^16.
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
the terms off f(0) and f(g^i) for i < 2s.  One cyclic recurrence check,
``_sparse_recurrence``, decides whether there are at most s; only then do
a root search over the powers of g and a transposed Vandermonde solve run.
The per-prime shift search, ``grid_shift``, first decides the degree test
by one finite difference of a short prefix of the grid, then of the whole
grid only when that prefix reads zero, and searches only a grid that
passes.  The search rests on the same recurrence: at any term bound t, the
shifts whose rotated grid can be sparse make two (t+1) x (t+1) Hankel
matrices over the grid singular, which ``_hankel_singular`` tests at every
shift at once.  At most ``_HANKEL_MAX_CANDIDATES`` candidates are each
decided by the cyclic check, each window and rotation a view of one doubled
grid; more, as on spike and half-degree grids, go straight to one dense
transform and ``min_shift``, which checks the roots of f's top t Taylor
rows, at most t(t+1)/2 of them.  Small list-based helpers at the bottom
hold the library's one Horner evaluator, ``_horner``, for a single int or
Fraction point as well as an int64 array of points, and its one expansion
of f(x + y) into polynomials in y, ``_taylor_rows``, for both shift
searches and the exact Taylor shift; only short polynomials reach it on an
array.  On top of them ``bounded_rational_roots`` is the one root finder
for both the exponent polynomial and the dense-regime shift search: a
``_horner`` scan of the grid of a small prime, then Newton lifting, so it
too only ever works modulo primes below 2^31.

Grid values are int64 arrays, and every reduction of one, here and in the
boxes, goes through ``_mod``, which divides by the modulus with numpy's
floor division (a multiply and a shift) in place of its % (a hardware
division).  Only ``_geometric_sums`` takes numpy's % on its two arrays of
about sqrt(p) entries a term, where one call costs less than ``_mod``'s
three.  Every sum stays exact by one of these bounds, each proved in the
docstring of the function named:
- ``_mod``: x - (x // m) * m is exact for every int64 x, wrap-around too.
- ``_sparse_recurrence``: the recurrence check reduces after each product,
  and a value in (-p, p) plus one product stays below p + (p-1)^2 < 2^63.
- ``_horner``: reduced before every step, below m^2.
- ``ProgramBox._eval`` (in ``blackbox``): each register carries a bound,
  and one is reduced only before an operation whose bound would pass 2^63.
  ``_horner`` keeps no such schedule: its array callers run at most 2t + 1
  steps, where a program's squaring chain runs about bn products, half of
  whose reductions the bounds skip at the primes of a solve.
- ``_difference``: 31 differences of residues run unreduced, below 2^62.
- ``_hankel_singular``: each step, the first on unreduced entries in
  (-p, p), keeps every difference of two products below 2(p-1)^2 < 2^63.
- ``_geometric_sums``: limbs and groups keep every float64 sum below 2^53.
- ``_limb_split``: FFT limbs keep Percival's rounding error below 1/2.
Beside them, one argument makes the sparse decision exact, proved in
``_sparse_recurrence``: the values f(g^j) - f(0) are periodic in j, so
their minimal polynomial divides z^(p-1) - 1, squarefree with one root in
Z_p^* a term, and by Massey's uniqueness Berlekamp-Massey on 2s values
returns it whenever its degree is <= s.  A recurrence that holds
cyclically along all p - 1 values is a multiple of it.  So the check
alone accepts exactly the grids with at most s non-constant terms, the
kernel's root search finds as many roots as the recurrence's order, and
``grid_shift`` and ``min_shift`` accept a shift with no root search.
"""

import math
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

# Every integer of absolute value at most 2^53 is a float64, so a float64
# matrix product of integer factors is exact when no sum in it passes that.
_EXACT_FLOAT = 1 << 53

# _geometric_sums multiplies at most this many terms (each limb of a term
# counted as one) in one matrix product, and gathers only that product's
# tables: about 4 * 64 * sqrt(p) entries, fewer than the p of the grid from
# p ~ 2^16 on, whatever the number of terms.  A box of at most 5 terms,
# every lacunary box the benchmark builds, stays one product at every
# p < 2^31.  A DenseBox of degree 2,000 at p = 100,003 peaked at 21.8 MiB
# under tracemalloc with one product of all its terms, for a 0.76 MiB grid.
_SUMS_CHUNK = 64

# The number of Hankel candidates picks grid_shift's path: at most this many
# are each checked, more go straight to one transform plus min_shift.  Many
# shifts pass the filter on powers of degree (p-1)/2, valued 0 and +-1 times
# a constant (x^5003 at p = 10007 leaves 3,141 for t = 1), nearly all on the
# spike grid of a bad prime with (p - 1) | e, c (x - a)^e reading c at every
# x != a: there, checking until a hit took 18 s at p = 38,603 and t = 1,
# the transform and min_shift 28 ms, and eight checks before the transform
# seldom hit: without them grid_shift took 2.6 ms, not 2.8 (t = 1),
# and 4.4, not 5.1 (t = 4), on a spike grid at p = 10,007, and 17.2, not
# 21.3, on a half-degree grid at p = 40,009, t = 4 (best of 31, one shared
# 2-CPU machine, numpy 2.4).  Below the cap one check, a pass of
# _sparse_recurrence over a view of the doubled grid, costs far less than
# the complete search: 20-50 us against 270-440 us for t = 1-4 at
# p = 1187, about the smallest prime a solve reaches.  Grids of degree
# <= 2t never reach the filter, and on the benchmark's workloads every grid
# that did had one candidate, its shift.
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


@lru_cache(maxsize=1024)
def _generator_steps(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(small, big): the read-only int64 baby steps small[b] = g^b mod p for
    b < m and giant steps big[i] = g^(i*m) mod p for i < rows, where
    g = ``_primitive_root(p)`` (small[1] = g), half = ceil((p-1)/2),
    m = isqrt(half) + 1 and rows = ceil(half / m).

    A pure function of p, built in two Python loops of about sqrt(p/2)
    products each, so it is kept across solves: a process meets the same
    primes in every solve whose bounds overlap.  Each of the 1024 entries
    holds about 16 sqrt(p/2) bytes of steps plus 400 of objects: at most
    3.4 MB for primes below 2^16 and 12.3 MB below 2^20 (tracemalloc).
    """
    n = p - 1
    g = _primitive_root(p)
    half = n - n // 2  # (p-1)/2, and the whole one-entry table at p = 2
    m = math.isqrt(half) + 1
    small = [1]
    for _ in range(1, m):
        small.append(small[-1] * g % p)
    big_step = small[-1] * g % p
    big = [1]
    for _ in range(1, -(-half // m)):
        big.append(big[-1] * big_step % p)
    return _read_only(np.array(small, dtype=np.int64)), _read_only(np.array(big, dtype=np.int64))


@lru_cache(maxsize=1)
def _generator_powers(p: int) -> np.ndarray:
    """pw[a] = g^a mod p for a < p-1, g = ``_primitive_root(p)``: a read-only
    int64 array, the one table per prime.  One prime is cached: every use
    of a prime's table follows its grid directly, so the cache builds each
    table at most once a grid, for whichever of these reads it first: the
    lacunary box's sums, the candidate's grid that confirms a padding prime
    when the box's grid is not it (``sparse_interp``), and the sparse
    kernel, the shift search or the interpolation that reads the grid.
    The array is shared by every hit, hence read-only.  Whole
    tables are not kept across solves, as a pass of the benchmark's
    lacunary set reads 242 distinct primes: only their steps are, in the
    1024 entries of ``_generator_steps`` (about 16 sqrt(p/2) bytes each,
    3.4 MB at most below p = 2^16), and a table is one product of them.

    Only the first half is multiplied out: for odd p, g^((p-1)/2) = -1, so
    pw[a + (p-1)/2] = p - pw[a].
    """
    n = p - 1
    half = n - n // 2
    small, big = _generator_steps(p)
    rows, m = big.size, small.size
    # entry (i, b) of the product is g^(i*m + b): it fills the first
    # rows * m >= half entries, and the second half, from pw[half], is
    # written over whatever it left past half
    pw = np.empty(max(n, rows * m), dtype=np.int64)
    block = pw[: rows * m].reshape(rows, m)
    np.multiply(big[:, None], small, out=block)
    _mod(block, p)
    np.subtract(p, pw[: n - half], out=pw[half:n])
    return _read_only(pw[:n])


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


def _geometric_sums(coeffs: Sequence[int], exps: Sequence[int], p: int) -> np.ndarray:
    """s[a] = sum_k coeffs[k] * g^(a * exps[k]) mod p for a = 0..p-2, exact,
    as an int64 array.  Its one caller, ``blackbox._lacunary_grid``,
    scatters the sums into a grid and caches that, not them.

    g is the generator of ``_generator_powers``, coeffs are K residues in
    [0, p) and exps K integers >= 0, read modulo p - 1, the order of g.
    With a = i*m + b and m = isqrt(p - 1) + 1, s is one matrix product:
    entry (i, b) of (coeffs[k] g^(i*m*e_k))_(i,k) times (g^(b*e_k))_(k,b).
    Both factors are gathered from the power table, about sqrt(p) entries a
    term, and multiplied in float64 by BLAS, which is exact when every sum
    of products is an integer of at most 2^53 (``_EXACT_FLOAT``): then
    every partial sum is exact too, in whatever order it is taken.
    A left entry is below p, and a right one is split into `limbs` limbs of
    `width` bits, each folded into the left factor as a term of its own,
    with coefficient coeffs[k] 2^(width*j) mod p; so a group of terms sums
    to at most group (p-1) min(p-1, 2^width - 1).  The split is the one
    with the fewest groups, each summed in float64 and reduced once: a
    single one whenever K (p-1)^2 <= 2^53.  A group is summed as products
    of at most ``_SUMS_CHUNK`` terms, each over tables gathered for it
    alone, so the tables stay O(sqrt(p)) entries whatever K.
    """
    n = p - 1
    pw = _generator_powers(p)
    m = math.isqrt(n) + 1
    rows = -(-n // m)
    k = len(coeffs)
    bits = n.bit_length()
    best = None
    for limbs in range(1, bits + 1):
        width = -(-bits // limbs)
        group = _EXACT_FLOAT // (n * min(n, (1 << width) - 1))
        if group:
            groups = -(-k * limbs // group)
            if best is None or groups < best[0]:
                best = (groups, limbs, width, group)
            if groups <= 1:
                break  # more limbs only make more terms
    _, limbs, width, group = best
    if not k:  # no terms, no product: every sum is 0
        return np.zeros(n, dtype=np.int64)
    e = [x % n for x in exps for _ in range(limbs)]
    c = [x * pow(2, width * j, p) % p for x in coeffs for j in range(limbs)]
    ramp = np.arange(m)
    s = None
    for lo in range(0, len(e), group):
        acc = None
        for mid in range(lo, min(lo + group, len(e)), _SUMS_CHUNK):
            part = e[mid : min(mid + _SUMS_CHUNK, lo + group)]
            # row k of pows is g^(b*e_k) for b < m, row len(part) + k is
            # g^(i*m*e_k) for i < m (rows <= m, as m^2 > p - 1)
            steps = np.array(part + [m * x % n for x in part], dtype=np.int64)
            pows = pw[steps[:, None] * ramp % n]  # indices below n m < 2^47
            scale = np.array(c[mid : mid + len(part)], dtype=np.int64)[:, None]
            left = (pows[len(part) :, :rows] * scale % p).astype(np.float64)  # below p^2 < 2^62
            right = pows[: len(part)]
            if limbs > 1:
                right >>= width * (np.arange(mid, mid + len(part)) % limbs)[:, None]
                right &= (1 << width) - 1
            right = right.astype(np.float64)
            if acc is None:
                acc = np.dot(left.T, right)
            else:
                acc += np.dot(left.T, right)
        # rebinding frees the float sums before _mod allocates, so that the
        # allocator can hand their pages on rather than fault in fresh ones
        acc = acc.astype(np.int64)
        if s is None:
            s = acc
        else:
            _mod(s, p)
            s += acc
    return _mod(s, p).reshape(-1)[:n]


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
    ``_sparse_recurrence`` is its one caller.
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


def _sparse_recurrence(window: np.ndarray, p: int, s: int) -> Optional[list]:
    """The connection polynomial C = [1, c_1, ..., c_L] of the values
    a_j = window[g^j] - window[0], j modulo p - 1, when the interpolant of
    the p residues ``window`` has at most s non-constant terms, else None.
    L is then that number of terms.  ``window`` is a grid or a view of one,
    only read; s >= 0.  The library's one recurrence check: it decides
    ``interpolate_sparse`` and every shift candidate.

    Write f(x) = c_0 + sum_e c_e x^e for the interpolant.  At x = g^j,
    a_j = sum_e c_e (g^e)^j with slot p - 1 read as e = 0 (x^(p-1) is 1 at
    every nonzero point), one character of Z_(p-1) a slot.  So a has period
    p - 1, and its minimal polynomial M (the monic one of least degree whose
    recurrence a obeys at every j) is the product of z - g^e over f's
    non-constant terms: a divisor of z^(p-1) - 1, squarefree, with roots in
    Z_p^*, of degree the number of terms.  Berlekamp-Massey gives the
    shortest recurrence C, of length L, of a_0..a_(2s-1) (j read modulo
    p - 1), and C is accepted when L <= s and it holds cyclically, at
    every j modulo p - 1.
    - Accepted means at most s terms: the reversed P(z) = z^L C(1/z) then
      annihilates the periodic sequence, so M divides it and deg M <= L <= s.
    - At most s terms means accepted.  M generates the 2s values, so
      L <= deg M <= s.  Were C to fail at a first index N >= 2s, every
      recurrence generating a_0..a_N would have length >= N + 1 - L
      (Massey, "Shift-register synthesis and BCH decoding", 1969), M's
      included: deg M >= 2s + 1 - L >= s + 1, against deg M <= s.  So C
      holds at every j >= L, P annihilates the periodic sequence, M
      divides P, deg P = L <= deg M gives P = M, and M's recurrence holds
      at every j.
    So the check alone decides, and an accepted C reversed is M: L distinct
    roots, each a power of g, and no root scan is needed to decide.  The
    values a_j are kept unreduced in (-p, p), with a_(-L)..a_(-1) prepended
    so that each m reads a_(j-m) at every j as one slice, and the check
    reduces its sum after each product conn[m] * a_(j-m): a value in
    (-p, p) plus one product of a residue and such a value stays below
    p + (p-1)^2 < 2^63 for every p < 2^31.  With L = 0 the values
    themselves are tested, and in (-p, p) only 0 is divisible by p.  O(s p)
    numpy work plus O(s^2) Python integer work.
    """
    n = p - 1
    s = min(s, n)  # no grid has more than p - 1 non-constant terms
    seq = window[_generator_powers(p)] - window[0]  # a_j, unreduced in (-p, p)
    head = (seq[: 2 * s].tolist() * 2)[: 2 * s]  # j modulo p - 1, as 2s <= 2(p - 1)
    conn, length = _berlekamp_massey([x % p for x in head], p)
    if length > s:
        return None
    wrapped = np.concatenate((seq[n - length :], seq))  # wrapped[L + j] = a_j for j >= -L
    rest = seq.copy()
    for m in range(1, length + 1):
        rest += conn[m] * wrapped[length - m : length - m + n]
        _mod(rest, p)
    return None if rest.any() else conn


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
    value at 0, ``_sparse_recurrence`` decides the term bound from the
    values a_j = f(g^j) - c_0 = sum_k c_k (g^e_k)^j and returns their
    recurrence, whose characteristic polynomial has exactly the roots
    g^e_k, one per term, a slot e_k in 1..p-1 (slot p-1 has root
    1 = g^0).  One Horner pass over the powers of g (the table of
    ``_generator_powers``) finds those roots and their slots, and a
    transposed Vandermonde solve fits the coefficients to a_0..a_(L-1).
    A sequence that obeys a recurrence with L distinct roots is fixed by
    its first L values, so the result matches all p values, and a
    polynomial of degree < p that does is the interpolant: the answer is
    exact whatever the input.  A scan that finds fewer than L roots breaks
    ``_sparse_recurrence``'s proof and raises RuntimeError.  O(s p) numpy
    work plus O(s^2) Python integer work.
    """
    if s < 0:
        raise ValueError(f"term bound must be >= 0, got {s}")
    vals = _checked_grid(np.asarray(values, dtype=np.int64), p)
    conn = _sparse_recurrence(vals, p, s)
    if conn is None:
        return None
    n, length = p - 1, len(conn) - 1
    pw = _generator_powers(p)
    c0 = int(vals[0])
    head = [(x - c0) % p for x in vals[pw[:length]].tolist()]
    # roots of z^L C(1/z), whose coefficients from the top are conn, at every g^i
    logs = np.flatnonzero(_horner(conn[::-1], pw, p) == 0).tolist()
    if len(logs) != length:
        raise RuntimeError(f"a cyclic recurrence of order {length} modulo {p} "
                           f"has {len(logs)} roots among the powers of g")
    slots = [i or n for i in logs]  # root g^0 = 1 is the slot of x^(p-1)
    out = np.zeros(max(slots, default=0) + 1, dtype=np.int64)
    out[0] = c0
    for i, e in zip(logs, slots):
        root = int(pw[i])
        quot = [1]  # z^L C(1/z) / (z - root), from the top
        for a in conn[1:length]:
            quot.append((a + root * quot[-1]) % p)
        num = sum(q * x for q, x in zip(quot, reversed(head)))
        den = _horner(quot[::-1], root, p)
        out[e] = num * pow(den, -1, p) % p
    return DensePolyMod(p, out)


def min_shift(f: DensePolyMod, grid: Sequence[int], *, tau_cap: int) -> Optional[MinShift]:
    """The shift gamma in Z_p with at most tau_cap non-constant terms in
    f(x + gamma), or None.

    ``grid`` must hold f's p values at 0..p-1, reduced modulo p: the box's
    grid that f was read off.  Needs tau_cap >= 1 and deg f >= 2*tau_cap + 1,
    which make such a shift unique (tie is always False); ValueError
    otherwise, and for a grid of the wrong length or unreduced.  With
    t = tau_cap and d = deg f, x^d is one of the shift's at most t terms,
    so one of the t coefficients of x^(d-t)..x^(d-1) of f(x + y) vanishes at
    y = gamma.  These are rows d - t .. d - 1 of ``_taylor_rows``, reduced
    modulo p; row d - k has degree k and leading coefficient C(d, k) f_d,
    nonzero modulo p as d < p, so their roots, one ``_horner`` scan of Z_p
    a row, are at most t(t+1)/2 candidates.  Each, in increasing order, is
    checked exactly by ``_sparse_recurrence`` on the grid rotated by it, a
    view of the doubled grid; an accepted recurrence's order is the shift's
    number of terms.  The shift phase reaches it only through
    ``grid_shift``, on grids with more than ``_HANKEL_MAX_CANDIDATES``
    Hankel candidates.
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
    xs = np.arange(p, dtype=np.int64)
    cands = set()
    for row in _taylor_rows(f.coeffs.tolist(), range(d - tau_cap, d)):
        cands.update(np.flatnonzero(_horner([c % p for c in row], xs, p) == 0).tolist())
    twice = np.concatenate((grid, grid))  # twice[g : g + p] is the grid of f(x + g)
    for g in sorted(cands):
        conn = _sparse_recurrence(twice[g : g + p], p, tau_cap)
        if conn is not None:
            return MinShift(g, len(conn) - 1, False)
    return None


def grid_shift(grid: Sequence[int], p: int, *, tau_cap: int) -> Tuple[bool, Optional[int]]:
    """(passes, gamma) for the polynomial f of degree < p whose values at
    0..p-1, reduced modulo p, are ``grid``: passes says deg f >= 2*tau_cap + 1,
    and gamma is then the shift at which f(x + gamma) has at most tau_cap
    non-constant terms, or None when there is none, as whenever passes is
    False.

    Let t = tau_cap, g the generator of ``_generator_powers`` and
    s_gamma(j) = grid[gamma + g^j] - grid[gamma].  The grid is read a
    constant number of times: every window below is a view of one doubled
    copy, twice = (grid, grid), in which twice[k : k + p] is the grid of
    f(x + k).
    - Degree, first.  The (2t+1)-th finite difference of the grid,
      ``_difference``, decides the degree test before any other work: for
      d = deg f < p it is zero when d <= 2t, and else a polynomial of degree
      d - 2t - 1 whose leading coefficient, f's times d!/(d-2t-1)!, is
      nonzero modulo p, so it is nonzero at one of the p - 2t - 1 > d - 2t - 1
      points where it is read (there are none when p <= 2t + 1, and then
      d <= 2t).  Its first 8(2t+1) values are a difference of the grid's
      first 9(2t+1) and are nonzero on almost every passing grid, so they
      decide it; only when they all read zero is the whole difference
      taken.  A grid that fails returns at once; only a passing grid runs
      the shift search below.
    - Completeness.  A Hankel filter on the grid finds the candidate shifts
      without a transform.  If f(x + gamma) = c_0 + sum_k c_k x^e_k has at
      most t non-constant terms, the grid rotated by gamma is its grid, so
      s_gamma(j) = sum_k c_k (g^e_k)^j: at most t geometric sequences
      (Ben-Or and Tiwari), which obey a linear recurrence of order <= t.
      Its coefficients are a kernel vector of every (t+1) x (t+1) Hankel
      matrix of s_gamma, so the two over j = 0..2t and j = 1..2t+1 are both
      singular, and ``_hankel_singular`` flags every singular matrix.  j is
      read modulo p - 1, the period of g^j, so small primes lose nothing.
      s_gamma(j) over every gamma at once is twice[g^j : g^j + p] less the
      grid.  Every such gamma is thus a candidate.
    - Exactness.  Each candidate, in increasing order, is decided by
      ``_sparse_recurrence`` on the view twice[gamma : gamma + p]:
      Berlekamp-Massey on s_gamma(0..2t-1), then the recurrence checked
      cyclically at every j modulo p - 1.  s_gamma is periodic in j, so its
      minimal polynomial divides z^(p-1) - 1 and has one root a term; a
      cyclic recurrence of order L <= t is a multiple of it, so f(x + gamma)
      then has at most t terms, and when it has, Massey's uniqueness makes
      Berlekamp-Massey on 2t >= 2L values return exactly that polynomial,
      which the check accepts.  So the check accepts exactly when
      f(x + gamma) has at most t non-constant terms, with no root search,
      no coefficients and no copy of the grid, and a spurious candidate
      costs one check and nothing else.
    - Uniqueness.  With deg f >= 2t + 1 the t-sparse shift is unique
      (Lakshman and Saunders, "Sparse shifts for univariate polynomials",
      1996; ``min_shift`` rests on the same fact), so the first hit is it.
    The number of candidates picks the path.  At most
    ``_HANKEL_MAX_CANDIDATES`` are each checked, and when all miss no
    t-sparse shift exists; more go unchecked to one ``interpolate_range``
    and ``min_shift``, with at most t(t+1)/2 checks.  ValueError for
    tau_cap < 1, and for a grid of the wrong length or unreduced.
    """
    vals = _checked_grid(np.asarray(grid, dtype=np.int64), p)
    if tau_cap < 1:
        raise ValueError(f"tau_cap must be >= 1, got {tau_cap}")
    k = 2 * tau_cap + 1
    if not (_difference(vals[: 9 * k], p, k).any() or _difference(vals, p, k).any()):
        return False, None
    twice = np.concatenate((vals, vals))
    cands = _hankel_candidates(twice, p, tau_cap)
    if len(cands) > _HANKEL_MAX_CANDIDATES:
        hit = min_shift(interpolate_range(vals, p), vals, tau_cap=tau_cap)
        return True, None if hit is None else hit.gamma
    for gamma in cands:
        if _sparse_recurrence(twice[gamma : gamma + p], p, tau_cap) is not None:
            return True, gamma
    return True, None


def _difference(vals: np.ndarray, p: int, k: int) -> np.ndarray:
    """The k-th forward difference of vals modulo p: len(vals) - k
    residues, none when k >= len(vals).  vals holds residues in [0, p),
    p < 2^31, and each difference at most doubles the largest absolute
    value, so up to 31 differences run unreduced, below 2^62."""
    for done in range(0, k, 31):
        vals = _mod(np.diff(vals, n=min(31, k - done)), p)
    return vals


def _hankel_candidates(twice: np.ndarray, p: int, t: int) -> list:
    """The shifts gamma, in increasing order, at which ``_hankel_singular``
    flags both (t+1) x (t+1) Hankel matrices of s_gamma (``grid_shift``),
    for the grid vals whose doubled copy (vals, vals) is ``twice``.  The
    first matrix is tested at every gamma, the second only where the first
    is flagged, which on most grids leaves a handful.  s_gamma(j) over
    every gamma is one window of the doubled grid less the grid."""
    pw = _generator_powers(p)
    n = p - 1
    vals = twice[:p]
    # differences of residues, left unreduced in (-p, p); g^j < p
    seq = [twice[k : k + p] - vals for k in (int(pw[j % n]) for j in range(2 * t + 1))]
    cands = np.flatnonzero(_hankel_singular(seq, p) == 0)
    top = twice[cands + int(pw[(2 * t + 1) % n])]
    top -= vals[cands]
    shifted = [s[cands] for s in seq[1:]] + [top]
    return cands[_hankel_singular(shifted, p) == 0].tolist()


def _hankel_singular(s: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Elementwise over arrays of values in (-p, p), len(s) = 2t + 1 with
    t >= 1: a residue that is 0 wherever the Hankel matrix A = [s[a + b]],
    a, b <= t, is singular modulo p.

    Division-free symmetric elimination on the upper triangle,
    m[i][j - i] = A_ij: each step takes A to B_ij = A_00 A_ij - A_0i A_0j,
    1 <= i <= j, reduced modulo p, so every product stays below
    (p-1)^2 < 2^62 and every difference of two below 2(p-1)^2 < 2^63.  As
    det B = A_00^(k-2) det A for k x k A, the one entry left is det A times
    positive powers of A's leading principal minors of order <= t - 1
    (det A itself for t = 1): zero wherever det A is.
    """
    t = len(s) // 2
    m = [[s[2 * i + k] for k in range(t + 1 - i)] for i in range(t + 1)]
    while len(m) > 1:
        top, rest = m[0], m[1:]
        m = [[_mod(top[0] * row[k] - top[i] * top[i + k], p) for k in range(len(row))]
             for i, row in enumerate(rest, 1)]
    return m[0][0]


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
    With m given, the accumulator is reduced by ``_mod`` before every step
    and once at the end, so with residues in [0, m) a step takes it to at
    most (m-1)^2 + (m-1) < m^2 <= 2^62.  The reductions cost little, as
    every array caller evaluates a short polynomial: the sparse kernel's
    root scan, the Taylor rows of ``min_shift``, the scan of
    ``bounded_rational_roots``, each of at most 2t + 1 coefficients.  So
    it keeps no register bounds to skip reductions by, as
    ``ProgramBox._eval`` does for squaring chains of about bn products.
    The accumulator starts as x times the leading coefficient, a fresh
    value, so the in-place updates and ``_mod`` never write to x.
    """
    if len(coeffs) < 2:
        return x * 0 + (coeffs[0] if len(coeffs) else 0)
    acc = x * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        if m is not None:
            acc = _mod(acc, m)
        acc *= x
        acc += c
    return acc if m is None else _mod(acc, m)


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
