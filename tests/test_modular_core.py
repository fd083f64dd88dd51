"""Integer, rational and modular primitive tests."""

import math
import random
from fractions import Fraction

import pytest

from lacuna import InconsistentResidues, NoReconstruction
from lacuna.modular_core import (
    _MR_PROVEN_LIMIT,
    Residue,
    _factorize,
    crt_list,
    crt_pair,
    frac_mod,
    is_prime,
    next_prime_above,
    rational_reconstruct,
    remo,
    signed_lift,
    size_of,
)
from lacuna.errors import DenominatorVanished

from conftest import naive_crt_scan, naive_factorize, naive_probable_prime


# ---------------- size_of ----------------

def test_size_of_examples():
    assert size_of(Fraction(0)) == 2
    assert size_of(Fraction(3)) == 4
    assert size_of(Fraction(1, 2)) == 4


def test_size_of_formula_spots():
    # ceil(log2(|a|+1)) + ceil(log2(b+1)) + 1
    assert size_of(Fraction(-3)) == 4
    assert size_of(Fraction(4)) == 3 + 1 + 1
    assert size_of(Fraction(7, 8)) == 3 + 4 + 1
    assert size_of(Fraction(1)) == 3


# ---------------- remo ----------------

def test_remo_examples():
    assert remo(6, 6) == 6
    assert remo(15, 6) == 3
    assert remo(5, 6) == 5


def test_remo_rejects_zero_modulus():
    with pytest.raises(ValueError):
        remo(5, 0)


def test_remo_vs_rem_property():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        m = rng.randint(1, 10**4)
        ro, r = remo(a, m), a % m
        assert ro - r in (0, m)
        assert (ro - a) % m == 0
        assert 1 <= ro <= m


# ---------------- primality ----------------

def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael: 3 * 11 * 17


def test_is_prime_agrees_with_sieve_to_hundred_thousand():
    # the millionth-scale exhaustive run lives in the acceptance suite
    limit = 10**5
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n]), n


def test_is_prime_large_certified():
    # 2^89 - 1 is prime and 2^89 + 1 = 3 * 179951 * 3203431780337 is not;
    # both sit past the proven witness range, where is_prime refuses to answer
    for n in ((1 << 89) - 1, (1 << 89) + 1, _MR_PROVEN_LIMIT):
        with pytest.raises(ValueError, match="not accepted"):
            is_prime(n)
    # just below it, the top witness tier answers
    for n in range(_MR_PROVEN_LIMIT - 200, _MR_PROVEN_LIMIT):
        assert is_prime(n) == naive_probable_prime(n), n


def test_next_prime_above():
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(128) == 131
    assert next_prime_above(131) == 137


def test_factorize_group_orders_agrees_with_trial_division():
    # the search stops once the cofactor is prime; the factors must not change
    for p in range(2, 20000):
        if is_prime(p):
            assert _factorize(p - 1) == naive_factorize(p - 1), p
    for n in (1, 2, 4, 12, 2 * 7**2, 3 * 5 * 7 * 11, 2**20, 2 * 3 * 1000003, 1000003**2):
        assert _factorize(n) == naive_factorize(n), n


# ---------------- frac_mod ----------------

def test_frac_mod_vanishes():
    with pytest.raises(DenominatorVanished):
        frac_mod(Fraction(1, 3), 3)
    assert frac_mod(Fraction(1, 2), 5) == 3
    with pytest.raises(DenominatorVanished, match="denominator 6"):
        frac_mod(Fraction(-5, 6), 9)


@pytest.mark.parametrize("q, m", [
    (Fraction(1, 6), 9),     # a composite modulus sharing the factor 3
    (Fraction(1, 6), 3),     # a prime dividing the denominator
    (Fraction(-5, 14), 7),
    (Fraction(7, 4), 2),
])
def test_frac_mod_raises_denominator_vanished_never_value_error(q, m):
    # pow(den, -1, m) raises ValueError exactly when gcd(den, m) > 1, and
    # frac_mod turns it into DenominatorVanished with the same message
    with pytest.raises(DenominatorVanished) as info:
        frac_mod(q, m)
    err = info.value
    assert type(err) is DenominatorVanished and not isinstance(err, ValueError)
    assert err.p == m and str(err) == f"denominator vanished modulo {m}: denominator {q.denominator}"
    assert err.__cause__ is None and err.__suppress_context__


def test_frac_mod_takes_fractions_ints_and_strings_alike():
    for q in (Fraction(-7, 3), 12, -4, "5/6", Fraction(0)):
        assert frac_mod(q, 11) == Fraction(q).numerator * pow(Fraction(q).denominator, -1, 11) % 11


# ---------------- crt_pair ----------------

def test_crt_pair_derived_example():
    got = crt_pair(Residue(2, 6), Residue(4, 10))
    want = naive_crt_scan([(2, 6), (4, 10)], 30)
    assert (got.value, got.modulus) == (want, 30) == (14, 30)


def test_crt_pair_trivial_examples():
    got = crt_pair(Residue(1, 4), Residue(3, 6))
    assert (got.value, got.modulus) == (9, 12)
    with pytest.raises(InconsistentResidues):
        crt_pair(Residue(0, 4), Residue(1, 6))


def test_crt_pair_commutes_and_reduces():
    rng = random.Random(11)
    for _ in range(400):
        ma, mb = rng.randint(2, 500), rng.randint(2, 500)
        a, b = rng.randrange(ma), rng.randrange(mb)
        try:
            r1 = crt_pair(Residue(a, ma), Residue(b, mb))
        except InconsistentResidues:
            assert (a - b) % math.gcd(ma, mb) != 0
            continue
        r2 = crt_pair(Residue(b, mb), Residue(a, ma))
        assert (r1.value, r1.modulus) == (r2.value, r2.modulus)
        assert r1.modulus == math.lcm(ma, mb)
        assert r1.value % ma == a and r1.value % mb == b


def test_crt_list_matches_scan():
    rng = random.Random(13)
    for _ in range(100):
        moduli = [rng.randint(2, 30) for _ in range(3)]
        x = rng.randrange(math.lcm(*moduli))
        residues = [Residue(x % m, m) for m in moduli]
        got = crt_list(residues)
        assert got.modulus == math.lcm(*moduli)
        assert got.value == x % got.modulus


# ---------------- signed lift ----------------

def test_signed_lift():
    assert signed_lift(Residue(232, 252)) == -20
    assert signed_lift(Residue(3, 7)) == 3
    assert signed_lift(Residue(4, 7)) == -3
    assert signed_lift(Residue(3, 6)) == 3  # boundary stays nonnegative


# ---------------- rational reconstruction ----------------

def test_rational_reconstruct_examples():
    assert rational_reconstruct(Residue(51, 101), 16) == Fraction(1, 2)
    assert rational_reconstruct(Residue(3, 1001), 16) == Fraction(3)


def test_rational_reconstruct_no_solution():
    # exhaustively check that nothing with |a|, b <= 3 matches 40 mod 101
    for b in range(1, 4):
        for a in range(-3, 4):
            assert (a - b * 40) % 101 != 0 or math.gcd(abs(a), b) != 1 or a == b == 0
    with pytest.raises(NoReconstruction):
        rational_reconstruct(Residue(40, 101), 3)


def test_rational_reconstruct_round_trip():
    rng = random.Random(17)
    for _ in range(500):
        bound = rng.randint(1, 1 << 12)
        a = rng.randint(-bound, bound)
        b = rng.randint(1, bound)
        g = math.gcd(abs(a), b)
        if g:
            a, b = a // g, b // g
        m = next_prime_above(2 * bound * bound + 1)
        if b % m == 0:
            continue
        u = a * pow(b, -1, m) % m
        assert rational_reconstruct(Residue(u, m), bound) == Fraction(a, b)


def test_rational_reconstruct_zero_and_bad_bound():
    assert rational_reconstruct(Residue(0, 97), 5) == 0
    with pytest.raises(ValueError):
        rational_reconstruct(Residue(1, 97), 0)
