"""Prime reservoir generation and guarantee accounting tests."""

import math
import random

import pytest

from lacuna import (
    BlackBoxFailure,
    OracleConfig,
    choose_n,
    generate,
    is_prime,
    s_of_q,
    upsilon,
)
from lacuna import prime_oracle
from lacuna.prime_oracle import PrimeStream, sieve_interval
from lacuna.sparse_interp import interp_oracle_config
from lacuna.sparsest_shift import shift_oracle_config


# ---------------- upsilon ----------------

def test_upsilon_zero_point():
    assert upsilon(math.e ** (5 / 3), 1.0) == pytest.approx(0.0, abs=1e-9)


def test_upsilon_direct_values():
    # 60/ln(100) - 100/ln(100)^2 and the same shape at 1000
    assert upsilon(100, 1.0) == pytest.approx(8.313542, abs=1e-5)
    assert upsilon(1000, 1.0) == pytest.approx(65.90198, abs=1e-4)


def test_upsilon_rejects_domain():
    with pytest.raises(ValueError):
        upsilon(1.0, 1.0)


# ---------------- choose_n ----------------

def test_choose_n_lower_cutoff():
    # upsilon(22, 1) ~ 1.97 > 1, so the n > 21 cutoff binds
    assert choose_n(1, 1.0) == 22


def test_choose_n_minimality():
    assert choose_n(25, 1.0) == 341
    targets = list(range(1, 400)) + list(range(400, 200001, 997))
    for mu in (1.0, 2.0, 4.0, 8.0):
        for target in targets:
            n = choose_n(target, mu)
            assert n > 21 and n > mu
            assert upsilon(n, mu) > target
            if n > 22:
                assert upsilon(n - 1, mu) <= target, (mu, target, n)


def test_choose_n_respects_mu_cutoff():
    # mu = 12 puts the least n just past e^20 ~ 4.9e8, below 2^30;
    # mu = 13 needs ln n > 5 * 13 / 3, past 2^30, and so does mu = 10^6
    assert choose_n(1, 12) < 1 << 30
    for mu in (13, 10**6):
        with pytest.raises(ValueError):
            choose_n(1, mu)


# ---------------- s_of_q ----------------

def test_s_of_q_examples():
    assert s_of_q(3) == 7
    assert s_of_q(5) == 11
    assert s_of_q(7) == 29


def test_s_of_q_cap():
    assert s_of_q(5, cap=10.0) is None  # 11 is past the cap
    assert s_of_q(5, cap=12.0) == 11


def test_s_of_q_rejects_composite():
    with pytest.raises(ValueError):
        s_of_q(9)


# ---------------- sieve ----------------

def test_sieve_interval():
    assert sieve_interval(22, 44) == [23, 29, 31, 37, 41, 43]
    assert sieve_interval(2, 3) == [2]
    assert sieve_interval(10, 10) == []
    want = [p for p in range(1000, 1100) if is_prime(p)]
    assert sieve_interval(1000, 1100) == want


# ---------------- generate ----------------

def check_reservoir(stream: PrimeStream, need: int):
    assert len(stream.records) == need
    assert len({r.p for r in stream.records}) == need
    n = stream.n
    for r in stream.records:
        assert is_prime(r.p) and is_prime(r.q)
        assert n <= r.q < 2 * n
        assert r.p == r.k * r.q + 1
        assert r.p < r.q ** 1.89


def test_generate_single_prime():
    st = generate(OracleConfig(0, 0, 1))
    check_reservoir(st, 1)
    assert st.reservoir == (47,)  # S(23) = 47 from the interval [22, 44)


def test_generate_counts_and_structure():
    st = generate(OracleConfig(10, 10, 5))
    check_reservoir(st, 25)


def test_first_reservoirs_are_pinned(golden_bounds):
    # the golden example's two phases and a mid-sized config: the walk's
    # first batch is what [n, 2n) gave before there was a walk
    assert generate(shift_oracle_config(golden_bounds)).reservoir == (
        1187, 1283, 1307, 1319, 1367, 1439, 1487, 1523, 2309, 2477, 2693, 2837, 2909,
        2957, 3343, 3607, 3643, 3967, 4507, 4793, 4937, 5417, 5471, 5711, 6131, 6311,
        6829, 6911, 7331, 7691, 7717, 7883, 8219, 9059, 9739, 12113, 12619)
    assert generate(interp_oracle_config(golden_bounds)).reservoir == (
        839, 863, 887, 983, 1019, 1187, 1637, 1733, 1949, 1997, 2309, 2767, 2803, 3019,
        3343, 3593, 3833, 4211, 4391, 5231, 5471, 5557, 5711, 6829, 7883, 8219, 9739,
        13711, 16673)
    assert generate(OracleConfig(10, 10, 5)).reservoir == (
        719, 839, 863, 887, 1493, 1637, 1733, 1949, 2083, 2203, 2383, 2767, 2803, 3209,
        3491, 3593, 3833, 4211, 4391, 4549, 4597, 4943, 5557, 9337, 13711)


def test_density_shortfall_walks_on_past_2n(monkeypatch):
    # no q below the first interval's top has an S(q): the walk runs on
    # past 2n from the same n, and mu stays as configured
    need = 3 + 3 + 2
    bound = 2 * choose_n(need, 1.0)
    real = prime_oracle.s_of_q
    monkeypatch.setattr(prime_oracle, "s_of_q",
                        lambda q, cap=None: None if q < bound else real(q, cap))
    st = generate(OracleConfig(3, 3, 2))
    assert st.n == bound // 2 and st.config.mu == 1
    assert len(st.records) == need
    assert st.records == sorted(st.records)
    assert all(r.q >= bound and r.p == r.k * r.q + 1 and is_prime(r.p) for r in st.records)


def test_walk_sieves_segments_at_most_2_20_wide(monkeypatch):
    # mu = 12 starts the walk near 4.9e8, where [n, 2n) is far wider than
    # a segment; the first segment already holds the one record needed
    segments = []
    real = prime_oracle.sieve_interval

    def recording(lo, hi):
        segments.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(prime_oracle, "sieve_interval", recording)
    st = generate(OracleConfig(0, 0, 1, mu=12))
    assert segments == [(st.n, st.n + (1 << 20))]
    assert st.records[0].p < 1 << 31


def test_walk_near_the_grid_limit_stays_below_2_31(monkeypatch):
    # a walk from just below 2^30 finds only S(q) = 2q + 1, and ends at
    # 2^30: the stream hands out what it found, then fails as a black box
    n = prime_oracle._N_LIMIT - 20_000
    monkeypatch.setattr(prime_oracle, "choose_n", lambda target, mu: n)
    st = generate(OracleConfig(0, 0, 100))
    assert 0 < len(st.records) < 100
    for r in st.records:
        assert is_prime(r.p) and is_prime(r.q) and n <= r.q
        assert r.p == r.k * r.q + 1 < 1 << 31
    handed = [st.next_prime() for _ in st.records]
    assert handed == sorted(r.p for r in st.records)
    with pytest.raises(BlackBoxFailure):
        st.next_prime()
    assert st.delivered == len(handed)


def test_each_reserve_prime_has_one_interval_factor():
    # p - 1 = k*q with k < n, so q is the unique interval-sized factor:
    # the map q -> p is injective by construction
    st = generate(OracleConfig(5, 5, 3))
    qs = [r.q for r in st.records]
    assert len(set(qs)) == len(qs)
    for r in st.records:
        assert (r.p - 1) % r.q == 0


def test_a_prime_repeated_across_batches_is_refused(monkeypatch):
    # the cap makes S injective; a walk that broke that would hand out a
    # prime twice, and the stream refuses the batch instead
    monkeypatch.setattr(prime_oracle, "s_of_q", lambda q, cap=None: 1_000_003)
    st = generate(OracleConfig(0, 0, 1))
    assert st.next_prime() == 1_000_003
    with pytest.raises(RuntimeError, match="not injective"):
        st.next_prime()


def test_delivery_ascending_and_counted():
    st = generate(OracleConfig(2, 2, 2))
    seen = []
    for i in range(1, 5):
        p = st.next_prime()
        seen.append(p)
        assert st.delivered == i
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_discard_uncounts():
    st = generate(OracleConfig(0, 0, 2))
    p = st.next_prime()
    assert st.delivered == 1
    st.discard(p)
    assert st.delivered == 0
    st.discard(p)  # idempotent
    assert st.delivered == 0


def test_guarantee_threshold():
    st = generate(OracleConfig(3, 4, 2))
    assert not st.guarantee_reached(1)
    for _ in range(3 + 4):
        st.next_prime()
    assert not st.guarantee_reached(1)
    st.next_prime()
    assert st.guarantee_reached(1)
    assert not st.guarantee_reached(2)


def test_exhaustion_regenerates_with_fresh_primes():
    st = generate(OracleConfig(0, 0, 1))
    first = st.next_prime()
    second = st.next_prime()  # reservoir had one prime: must regenerate
    assert st.regenerations >= 1
    assert second != first
    assert st.delivered == 2


def test_regeneration_limit_raises_black_box_failure(monkeypatch):
    # a one-prime reservoir regenerates on the 2nd and 3rd requests; with
    # the limit lowered to one regeneration the 4th request is refused
    monkeypatch.setattr(prime_oracle, "_MAX_REGENERATIONS", 1)
    st = generate(OracleConfig(0, 0, 1))
    primes = [st.next_prime() for _ in range(3)]
    assert len(set(primes)) == 3
    assert st.regenerations == 2
    with pytest.raises(BlackBoxFailure, match="after 2 reservoir regenerations"):
        st.next_prime()
    assert st.delivered == 3


def test_regeneration_reuses_primality_work():
    # same config twice, as in repeated solves: the second walk hits the
    # is_prime cache
    import time

    generate(OracleConfig(10, 10, 5))
    t0 = time.monotonic()
    generate(OracleConfig(10, 10, 5))
    assert time.monotonic() - t0 < 2.0


def test_adversarial_divisibility_guarantee():
    # Theorem-style check: C1 from reservoir primes, C2 from certified q's
    st = generate(OracleConfig(4, 4, 3))
    records = st.records
    c1 = math.prod(r.p for r in records[:4])
    c2 = math.prod(r.q for r in records[:4])
    useful = [r for r in records if c1 % r.p != 0 and c2 % (r.p - 1) != 0]
    assert len(useful) >= 3


def test_s_of_q_conjecture_small_scan():
    # quick desk-scale slice of the full scan done in the acceptance suite
    for q in sieve_interval(3, 20000):
        s = s_of_q(q, cap=2 * q * math.log(q) ** 2 + 1)
        assert s is not None and s < 2 * q * math.log(q) ** 2, q


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(-1, 0, 1)
    with pytest.raises(ValueError):
        OracleConfig(0, 0, 0)
    for mu in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            OracleConfig(0, 0, 1, mu=mu)
