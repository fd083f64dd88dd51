"""Deterministic prime generation with a useful-prime guarantee.

The reservoir is built from an interval [n, 2n), n the least integer at
which the density function Upsilon certifies enough primes q whose least
prime p = k*q + 1 stays below q^1.89.  ``choose_n`` finds n by a search on
``upsilon`` itself, the one place its formula is written, and refuses
n >= 2^30: every reservoir prime exceeds 2n and must stay below 2^31.

Among any beta1 + beta2 + k delivered reservoir primes, at least k satisfy
p not dividing C1 and (p-1) not dividing C2 for every pair (C1, C2) with
log2 C1 <= beta1 and log2 C2 <= beta2, because each failing prime consumes
a distinct prime divisor of C1 or C2.

All logarithms here are natural.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .densepoly import _GRID_LIMIT
from .errors import BlackBoxFailure
from .modular_core import is_prime


@dataclass(frozen=True)
class OracleConfig:
    """Bounds feeding the reservoir: log2 C1 <= beta1, log2 C2 <= beta2,
    ell useful primes wanted, and the current density-constant estimate mu."""

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


# Every reservoir prime is p = k*q + 1 with q >= n odd and k >= 2, so
# p > 2n; grid primes stay below _GRID_LIMIT = 2^31, so n stays below 2^30.
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


def _build_reservoir(beta1: int, beta2: int, ell: int, mu: float):
    """Collect beta1+beta2+ell records, doubling mu on shortfall.

    Primality results are cached process-wide, so restarts with a larger mu
    re-test nothing.
    """
    need = beta1 + beta2 + ell
    while True:
        n = choose_n(need, mu)
        records = []
        for q in sieve_interval(n, 2 * n):
            p = s_of_q(q)
            if p is not None:
                records.append(PrimeRecord(p, q, (p - 1) // q))
                if len(records) == need:
                    break
        if len(records) == need:
            if len({r.p for r in records}) != need:
                raise RuntimeError(f"S(q) is not injective on [{n}, {2 * n})")
            records.sort()
            return records, mu, n
        mu *= 2


# Reservoir regenerations a stream allows before it gives up.
_MAX_REGENERATIONS = 10


class PrimeStream:
    """Stateful producer over the reservoir with guarantee accounting.

    Primes are handed out in ascending order.  ``delivered`` counts handed
    minus discarded primes; discarded primes (black-box failures) never
    count toward the guarantee.  An exhausted reservoir regenerates itself
    with ell doubled, never re-delivering a prime; a request made after
    more than _MAX_REGENERATIONS regenerations raises BlackBoxFailure.

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
        self.mu = config.mu
        self._ell = config.ell
        self._handed = set()
        self._dead = set()
        self._by_p = {}
        self.delivered = 0
        self.regenerations = 0
        self._fill()

    @property
    def reservoir(self) -> tuple:
        return tuple(r.p for r in self.records)

    def next_prime(self) -> int:
        if self.regenerations > _MAX_REGENERATIONS:
            raise BlackBoxFailure(
                f"no usable primes after {self.regenerations} reservoir regenerations"
            )
        while True:
            if self._cursor >= len(self.records):
                self._regenerate()
                continue
            rec = self.records[self._cursor]
            self._cursor += 1
            if rec.p in self._handed:
                continue
            self._handed.add(rec.p)
            self.delivered += 1
            return rec.p

    def discard(self, p: int) -> None:
        if p in self._handed and p not in self._dead:
            self._dead.add(p)
            self.delivered -= 1

    def guarantee_reached(self, k: int) -> bool:
        return self.delivered >= self.config.beta1 + self.config.beta2 + k

    def record_for(self, p: int) -> Optional[PrimeRecord]:
        return self._by_p.get(p)

    def _regenerate(self) -> None:
        self.regenerations += 1
        self._ell *= 2
        self._fill()

    def _fill(self) -> None:
        """Build the reservoir for the current ell and mu, cursor at its start."""
        self.records, self.mu, self.n = _build_reservoir(
            self.config.beta1, self.config.beta2, self._ell, self.mu
        )
        self._cursor = 0
        self._by_p.update({r.p: r for r in self.records})


# ---------------- spec operations ----------------

def generate(config: OracleConfig) -> PrimeStream:
    """Reservoir of beta1 + beta2 + ell primes p = S(q), q sieved from [n, 2n)."""
    return PrimeStream(config)
