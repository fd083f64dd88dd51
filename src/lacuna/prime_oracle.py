"""Deterministic prime generation with a useful-prime guarantee.

One walk yields the records S(q) = k*q + 1, the least such prime below
min(q^1.89, 2^31), for the primes q = n, n+1, ... in increasing q.  n is
the least integer at which the density function Upsilon certifies enough
usable q in [n, 2n); ``choose_n`` finds it by a search on ``upsilon``
itself, the one place its formula is written.

Among any beta1 + beta2 + k delivered primes, at least k satisfy p not
dividing C1 and (p-1) not dividing C2 for every pair (C1, C2) with
log2 C1 <= beta1 and log2 C2 <= beta2: a failing prime consumes its own
prime divisor of C1 (p) or of C2 (q), as the walk's records have distinct
q >= n and distinct p (S(q) = S(q') would need q*q' < q^1.89).

All logarithms here are natural.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from .densepoly import _GRID_LIMIT
from .errors import BlackBoxFailure
from .modular_core import is_prime


@dataclass(frozen=True)
class OracleConfig:
    """Bounds feeding the reservoir: log2 C1 <= beta1, log2 C2 <= beta2,
    ell useful primes wanted, and the density-constant estimate mu that
    places the walk's start."""

    beta1: int
    beta2: int
    ell: int
    mu: float = 1.0

    def __post_init__(self):
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("beta bounds must be >= 0")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if not 1 <= self.mu < math.inf:
            raise ValueError("mu must be finite and >= 1")


class PrimeRecord(NamedTuple):
    p: int
    q: int
    k: int


def upsilon(x: float, mu: float) -> float:
    """3x / (5 ln x) - mu x / ln^2 x, the certified count of usable q's below x."""
    if x <= 1:
        raise ValueError("upsilon needs x > 1")
    lg = math.log(x)
    coef = 3 / (5 * lg) - mu / (lg * lg)
    try:
        xf = float(x)
    except OverflowError:
        # sign is decided by the density coefficient once x is this large
        return math.copysign(math.inf, coef) if coef else 0.0
    return xf * coef


# The walk caps every record at the grid limit _GRID_LIMIT = 2^31.  A record
# is p = k*q + 1 with q >= n > 21 odd, so k >= 2 and p > 2q: no q >= 2^30
# has one, and the walk (and with it n) stays below 2^30.
_N_LIMIT = _GRID_LIMIT // 2


def choose_n(target: int, mu: float) -> int:
    """Smallest integer n with n > 21, n > mu and upsilon(n) > target.

    Upsilon is increasing wherever it is positive (its derivative there is
    (u (ln x - 1) + mu) / ln^3 x with u = 3 ln x / 5 - mu > 0), so
    upsilon(n) > target >= 1 holds for every n past the least one.  The
    search doubles n until the test holds and bisects the last step, with
    no formula of its own.  ValueError when the least n is >= 2^30.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    lo = max(22, math.floor(mu) + 1)
    hi = lo
    while hi >= _N_LIMIT or upsilon(hi, mu) <= target:
        if hi >= _N_LIMIT - 1:
            raise ValueError(f"mu = {mu} and target = {target} need n >= 2^30; "
                             "reservoir primes must stay below 2^31")
        lo, hi = hi + 1, min(2 * hi, _N_LIMIT - 1)
    # upsilon(hi) > target, and the least such n is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if upsilon(mid, mu) > target:
            hi = mid
        else:
            lo = mid + 1
    return hi


def sieve_interval(lo: int, hi: int) -> List[int]:
    """Primes in [lo, hi) by a segmented sieve."""
    if hi <= lo:
        return []
    limit = math.isqrt(hi - 1)
    base = np.ones(limit + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if base[i]:
            base[i * i :: i] = False
    seg = np.ones(hi - lo, dtype=bool)
    for q in np.nonzero(base)[0]:
        q = int(q)
        start = max(q * q, (lo + q - 1) // q * q)
        if start < hi:
            seg[start - lo :: q] = False
    if lo <= 1:
        seg[: min(2 - lo, hi - lo)] = False
    return [int(i) + lo for i in np.nonzero(seg)[0]]


def s_of_q(q: int, cap: Optional[float] = None) -> Optional[int]:
    """Least prime p = k*q + 1 with p < cap (default cap q**1.89), else None."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if cap is None:
        cap = float(q) ** 1.89
    k = 1
    while k * q + 1 < cap:
        p = k * q + 1
        if is_prime(p):
            return p
        k += 1
    return None


def _walk(n: int) -> Iterator[PrimeRecord]:
    """Records S(q) < min(q^1.89, 2^31) for the primes q = n, n+1, ... below
    2^30, in increasing q, sieved in segments [lo, lo + min(lo, 2^20))."""
    lo = n
    while lo < _N_LIMIT:
        hi = min(lo + min(lo, 1 << 20), _N_LIMIT)
        for q in sieve_interval(lo, hi):
            p = s_of_q(q, cap=min(float(q) ** 1.89, _GRID_LIMIT))
            if p is not None:
                yield PrimeRecord(p, q, (p - 1) // q)
        lo = hi


# Reservoir regenerations a stream allows before it gives up.
_MAX_REGENERATIONS = 10


class PrimeStream:
    """Stateful producer over the walk with guarantee accounting.

    The reservoir is the walk's first beta1 + beta2 + ell records, handed
    out in ascending p.  Once it is used up, each regeneration appends the
    walk's next as many, again in ascending p, so no prime comes twice.
    ``delivered`` counts handed minus discarded primes (black-box
    failures).  A request made after more than _MAX_REGENERATIONS
    regenerations, or past the walk's end at 2^30, raises BlackBoxFailure.

    Regeneration cannot be sized away.  The reservoir covers beta1 + beta2
    bad primes plus ell good ones, but the bounds (beta1, beta2, ell) say
    nothing about the denominators a box meets while it evaluates: a
    straight-line program may multiply by the constant 1/P and then by P,
    for P the product of the primes of any reservoir sized from the
    bounds, so its polynomial satisfies the bounds while every one of
    those primes is discarded.  No such reservoir covers the discards.
    """

    def __init__(self, config: OracleConfig):
        self.config = config
        self._batch = config.beta1 + config.beta2 + config.ell
        self.n = choose_n(self._batch, config.mu)
        self._walk = _walk(self.n)
        self.records: List[PrimeRecord] = []
        self._by_p = {}
        self._handed = set()  # records[:len(_handed)] are handed out
        self._dead = set()
        self.delivered = 0
        self.regenerations = 0
        self._extend()

    @property
    def reservoir(self) -> tuple:
        return tuple(r.p for r in self.records)

    def next_prime(self) -> int:
        if self.regenerations > _MAX_REGENERATIONS:
            raise BlackBoxFailure(
                f"no usable primes after {self.regenerations} reservoir regenerations"
            )
        if len(self._handed) == len(self.records):
            self.regenerations += 1
            self._extend()
            if len(self._handed) == len(self.records):
                raise BlackBoxFailure("no usable primes left below 2^31")
        p = self.records[len(self._handed)].p
        self._handed.add(p)
        self.delivered += 1
        return p

    def discard(self, p: int) -> None:
        if p in self._handed and p not in self._dead:
            self._dead.add(p)
            self.delivered -= 1

    def guarantee_reached(self, k: int) -> bool:
        return self.delivered >= self.config.beta1 + self.config.beta2 + k

    def record_for(self, p: int) -> Optional[PrimeRecord]:
        return self._by_p.get(p)

    def _extend(self) -> None:
        """Append the walk's next batch of records, in ascending p."""
        batch = sorted(islice(self._walk, self._batch))
        self._by_p.update((r.p, r) for r in batch)
        self.records += batch
        if len(self._by_p) != len(self.records):
            raise RuntimeError(f"S(q) is not injective on q >= {self.n}")


# ---------------- spec operations ----------------

def generate(config: OracleConfig) -> PrimeStream:
    """Reservoir of beta1 + beta2 + ell primes p = S(q), walked from q = n."""
    return PrimeStream(config)
