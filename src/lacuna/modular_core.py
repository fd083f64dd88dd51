"""Exact integer/rational/modular primitives shared by the whole library.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms,
positive denominator).  Everything in this module is pure and safe for
concurrent use.

Primality is always proven: ``is_prime`` takes n below about 3.3e24, where
fixed Miller-Rabin witness sets are proven.  The library itself only asks
for primes below 2^31: grid primes from the oracle, the dense regime's
moduli and the small primes that root finding lifts from.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DenominatorVanished, InconsistentResidues, NoReconstruction


# ---------------- bit sizes and remainders ----------------

def size_of(q) -> int:
    """Number of bits to represent the rational q = a/b in lowest terms.

    size(q) = ceil(log2(|a|+1)) + ceil(log2(b+1)) + 1, so size(0) = 2.
    """
    q = Fraction(q)
    return abs(q.numerator).bit_length() + q.denominator.bit_length() + 1


def remo(a: int, m: int) -> int:
    """Remainder of a in {1, 2, ..., m}; multiples of m map to m itself.

    This is the offset remainder that keeps reduced exponents nonzero.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return (a - 1) % m + 1


# ---------------- modular inverses ----------------

def frac_mod(q, m: int) -> int:
    """Image of the rational q in Z_m; DenominatorVanished if gcd(den, m) > 1.

    Modular inverses, here and across the library, are the builtin
    ``pow(a, -1, m)``.
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _ratio_mod(q.numerator, q.denominator, m)


def _ratio_mod(num: int, den: int, m: int) -> int:
    """num/den in Z_m for den > 0; DenominatorVanished if gcd(den, m) > 1.

    The inverse is taken once: ``pow`` raises ValueError exactly when den
    has no inverse modulo m.
    """
    try:
        inv = pow(den, -1, m)
    except ValueError:
        raise DenominatorVanished(m, f"denominator {den}") from None
    return num * inv % m


# ---------------- primality ----------------

def _mr_witness(n: int, a: int) -> bool:
    """True if a proves n composite (strong test); False if n passes base a."""
    a %= n
    if a == 0:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


# Deterministic witness tiers (strong-pseudoprime records).
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_PROVEN_LIMIT = _MR_TIERS[-1][0]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _factorize(n: int) -> dict:
    """Prime factorization {prime: multiplicity} by trial division.

    Meant for the group orders p - 1 < 2^31 of grid primes.  Division stops
    once the cofactor is prime (``is_prime``, checked after each factor
    found): an oracle prime has p - 1 = k q with q prime, so the search
    stops among the factors of k, well before sqrt(q).
    """
    fac = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                fac[d] = fac.get(d, 0) + 1
                n //= d
            if is_prime(n):
                break
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n below _MR_PROVEN_LIMIT (about 3.3e24).

    Uses the fixed Miller-Rabin witness set proven for the size of n.
    Larger n raise ValueError: proving them in general means factoring
    n - 1, and no part of the library needs a prime that large.  The last
    4,096 answers are cached: more than the walks of a few solves test, and
    bounded for a long walk.
    """
    if n >= _MR_PROVEN_LIMIT:
        raise ValueError(f"{n} is not accepted: primality is proven only below {_MR_PROVEN_LIMIT}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    bases = next(bases for limit, bases in _MR_TIERS if n < limit)
    return not any(_mr_witness(n, a) for a in bases)


def next_prime_above(n: int) -> int:
    """Least prime strictly greater than n; ValueError past is_prime's range."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


# ---------------- residues, CRT, rational reconstruction ----------------

@dataclass(frozen=True)
class Residue:
    """A value in Z_m with its modulus; 0 <= value < modulus, modulus >= 2."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)


def signed_lift(r: Residue) -> int:
    """Symmetric representative of r in [-floor(m/2), floor(m/2)]."""
    return r.value if r.value <= r.modulus // 2 else r.value - r.modulus


def crt_pair(a: Residue, b: Residue) -> Residue:
    """Combine two congruences with possibly non-coprime moduli.

    Returns the unique residue modulo lcm(m_a, m_b) congruent to both, or
    raises InconsistentResidues when gcd(m_a, m_b) does not divide the
    difference of the values.
    """
    ma, mb = a.modulus, b.modulus
    g = math.gcd(ma, mb)
    diff = b.value - a.value
    if diff % g:
        raise InconsistentResidues(
            f"{a.value} (mod {ma}) and {b.value} (mod {mb}) conflict modulo {g}"
        )
    l = ma // g * mb
    step = pow(ma // g, -1, mb // g)
    x = a.value + ma * (diff // g * step % (mb // g))
    return Residue(x % l, l)


def crt_list(residues) -> Residue:
    """Fold crt_pair over a non-empty sequence of residues."""
    residues = list(residues)
    if not residues:
        raise ValueError("need at least one residue")
    acc = residues[0]
    for r in residues[1:]:
        acc = crt_pair(acc, r)
    return acc


def rational_reconstruct(u: Residue, bound: int) -> Fraction:
    """Recover a/b from its image u with |a| <= bound and 1 <= b <= bound.

    Walks the half-extended Euclidean scheme; every bounded solution shows
    up among its rows, and the smallest row by bit size is returned.  The
    answer is unique when modulus >= 2*bound**2 + 1 (the caller's
    responsibility); with a smaller modulus the bit-size tie-break picks the
    most compact matching rational.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m, r = u.modulus, u.value
    if r == 0:
        return Fraction(0)
    best = None
    r0, t0, r1, t1 = m, 0, r, 1
    while r1:
        a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
        if (
            abs(a) <= bound
            and 0 < b <= bound
            and math.gcd(abs(a), b) == 1
            and math.gcd(b, m) == 1
        ):
            key = abs(a).bit_length() + b.bit_length()
            if best is None or key < best[0]:
                best = (key, Fraction(a, b))
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if best is None:
        raise NoReconstruction(f"no a/b with |a|,b <= {bound} matches {r} (mod {m})")
    return best[1]
