"""Deterministic prime generation with a useful-prime guarantee.

One walk yields the records S(q) = k*q + 1, the least such prime below
min(q^1.89, 2^31), for the primes q = n, n+1, ... in increasing q.  n is
the least integer past 21 at which Upsilon, the paper's estimate of the
usable q in [n, 2n) with its unknown constant mu taken as 1, exceeds the
records wanted; ``choose_n`` finds it by bisecting on ``upsilon``, the one
place the formula is written.  Upsilon only places n: when [n, 2n) is
short, the walk runs on past 2n, and the guarantee below rests on the
records' distinct p and distinct q, not on Upsilon.

Among any beta1 + beta2 + k delivered primes, at least k satisfy p not
dividing C1 and (p-1) not dividing C2 for every pair (C1, C2) with
log2 C1 <= beta1 and log2 C2 <= beta2: a failing prime consumes its own
prime divisor of C1 (p) or of C2 (q), as the walk's records have distinct
q >= n and distinct p (S(q) = S(q') would need q*q' < q^1.89).

A stream hands out each batch of records in ascending p, walking it only
as far as the primes handed out need (``_ascending``).  A record depends
on q alone, so the process keeps the last 8,192 made (``_record``): each
stream walks its own primes q from n, and a record some walk already made
is read back, not made again.  8,192 holds one solve's two streams at
t = 16, bn = 32 and bh = ba = 4, one batch of 1,521 records and one of
4,000; full, the cache holds 1.9 MB (tracemalloc, near q = 89,000).  A
stream's own walk holds one sieve segment, at most min(n, 2^20) wide,
while the stream lives.  Streams share nothing else, and two threads
that make one record at once make the same one, so streams need no lock
in a caller's threads.

All logarithms here are natural.
"""

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from .densepoly import _GRID_LIMIT
from .errors import BlackBoxFailure
from .modular_core import is_prime


@dataclass(frozen=True)
class OracleConfig:
    """Bounds feeding the reservoir: log2 C1 <= beta1, log2 C2 <= beta2 and
    ell useful primes wanted.  They alone place the walk's start n."""

    beta1: int
    beta2: int
    ell: int

    def __post_init__(self):
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("beta bounds must be >= 0")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")


class PrimeRecord(NamedTuple):
    p: int
    q: int
    k: int


def upsilon(x: float) -> float:
    """3x / (5 ln x) - x / ln^2 x, the paper's estimate of the usable q in
    [x, 2x), with its density constant mu taken as 1: the paper does not
    give mu, and Upsilon only places n, so the walk does not need it to be
    a lower bound."""
    if x <= 1:
        raise ValueError("upsilon needs x > 1")
    lg = math.log(x)
    coef = 3 / (5 * lg) - 1 / (lg * lg)
    try:
        return float(x) * coef
    except OverflowError:
        return math.inf  # coef > 0 once x is past float range


# The walk caps every record at the grid limit _GRID_LIMIT = 2^31.  A record
# is p = k*q + 1 with q >= n > 21 odd, so k >= 2 and p > 2q: no q >= 2^30
# has one, and the walk (and with it n) stays below 2^30.
_N_LIMIT = _GRID_LIMIT // 2


@lru_cache(maxsize=64)
def choose_n(target: int) -> int:
    """Smallest integer n > 21 with upsilon(n) > target, where the walk
    over q starts.

    Upsilon is increasing on x > 1 (its derivative is
    (3 ln^2 x - 8 ln x + 10) / (5 ln^3 x) > 0), so one bisection over
    [22, 2^30 - 1] finds n.  ValueError when n would be >= 2^30.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    lo, hi = 22, _N_LIMIT - 1
    if upsilon(hi) <= target:
        raise ValueError(f"target = {target} needs n >= 2^30; "
                         "reservoir primes must stay below 2^31")
    while lo < hi:
        mid = (lo + hi) // 2
        if upsilon(mid) > target:
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
    for q in np.flatnonzero(base).tolist():
        start = max(q * q, (lo + q - 1) // q * q)
        if start < hi:
            seg[start - lo :: q] = False
    if lo <= 1:
        seg[: min(2 - lo, hi - lo)] = False
    return (np.flatnonzero(seg) + lo).tolist()


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


def _primes_from(lo: int, hi: int) -> Iterator[int]:
    """Primes in [lo, hi), ascending, sieved in segments [a, a + min(a, 2^20)):
    one segment's flags and primes are held at a time, whatever hi is."""
    lo = max(lo, 2)
    while lo < hi:
        top = min(lo + min(lo, 1 << 20), hi)
        yield from sieve_interval(lo, top)
        lo = top


@lru_cache(maxsize=8192)
def _record(q: int) -> Optional[PrimeRecord]:
    """The record S(q) < min(q^1.89, 2^31) of the prime q, or None when q
    has none.  It depends on q alone, so every walk through q reads it from
    here once some walk has made it."""
    p = s_of_q(q, cap=min(float(q) ** 1.89, _GRID_LIMIT))
    return None if p is None else PrimeRecord(p, q, (p - 1) // q)


def _walk(n: int) -> Iterator[PrimeRecord]:
    """The records of the primes q = n, n+1, ... below 2^30, in increasing
    q: each walk sieves its own q and reads their records from ``_record``."""
    for q in _primes_from(n, _N_LIMIT):
        r = _record(q)
        if r is not None:
            yield r


def _ascending(records: Iterable[PrimeRecord]) -> Iterator[PrimeRecord]:
    """Records given in increasing q, each with p >= 2q + 1 (k >= 2, as for
    every walk record), yielded in ascending p and read only as far as each
    yield needs.

    Read records wait in a heap.  After the record of q is read, the least
    of them is yielded while its p is at most 2q + 1: a record not read yet
    has p >= 2q' + 1 with q' > q, so none can come before it.  At the end
    of the input the heap is drained."""
    heap: List[PrimeRecord] = []
    for r in records:
        heapq.heappush(heap, r)
        while heap and heap[0].p <= 2 * r.q + 1:
            yield heapq.heappop(heap)
    yield from sorted(heap)


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

    Each batch is walked lazily by ``_ascending``; ``records`` walks the
    rest of the current batch first, so it reads what an eagerly filled
    batch would hold.  Each stream walks from n on
    its own (``_walk``), so streams of one config hand out the same primes
    in the same order, and each record is made once while ``_record``
    keeps it.

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
        self.n = choose_n(self._batch)
        self._walk = _walk(self.n)
        self._rest = _ascending(islice(self._walk, self._batch))
        self._handed: Dict[int, PrimeRecord] = {}  # p -> record, in the order handed
        self._dead = set()
        self.regenerations = 0

    @property
    def records(self) -> List[PrimeRecord]:
        """Every record of the batches begun so far: the handed ones in the
        order handed, then the rest of the current batch in ascending p."""
        rest = list(self._rest)
        self._rest = iter(rest)
        return [*self._handed.values(), *rest]

    @property
    def delivered(self) -> int:
        return len(self._handed) - len(self._dead)

    def next_prime(self) -> int:
        if self.regenerations > _MAX_REGENERATIONS:
            raise BlackBoxFailure(
                f"no usable primes after {self.regenerations} reservoir regenerations"
            )
        r = next(self._rest, None)
        if r is None:
            self.regenerations += 1
            self._rest = _ascending(islice(self._walk, self._batch))
            r = next(self._rest, None)
        if r is None:
            raise BlackBoxFailure("no usable primes left below 2^31")
        if r.p in self._handed:
            raise RuntimeError(f"S(q) is not injective on q >= {self.n}")
        self._handed[r.p] = r
        return r.p

    def discard(self, p: int) -> None:
        if p in self._handed:
            self._dead.add(p)

    def guarantee_reached(self, k: int) -> bool:
        return self.delivered >= self.config.beta1 + self.config.beta2 + k

    def record_for(self, p: int) -> Optional[PrimeRecord]:
        return self._handed.get(p)


# ---------------- spec operations ----------------

def generate(config: OracleConfig) -> PrimeStream:
    """Reservoir of beta1 + beta2 + ell primes p = S(q), walked from q = n
    as the primes are handed out."""
    return PrimeStream(config)
