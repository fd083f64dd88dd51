"""Property tests of the prime stream's walk: requests past the reservoir and
random discards never hand a prime out twice or break the batch order, the
lazy merge ``_ascending`` yields drawn records in ascending p while reading
no more of them than each yield needs, and the lazy walk hands out each
sorted batch while walking no more of it than the hand-out needs.

Kept apart from test_prime_oracle so that the oracle tests still run where
hypothesis is not installed.
"""

from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import OracleConfig, generate, make_blackbox, prime_oracle, sparsest_shift
from lacuna.modular_core import is_prime
from lacuna.sparsest_shift import shift_oracle_config


@settings(max_examples=60, deadline=None)
@given(
    beta1=st.integers(0, 4),
    beta2=st.integers(0, 4),
    ell=st.integers(1, 4),
    discards=st.lists(st.integers(0, 200), max_size=20),
    data=st.data(),
)
def test_walk_hands_out_distinct_primes_in_batches(beta1, beta2, ell, discards, data):
    stream = generate(OracleConfig(beta1, beta2, ell))
    batch = beta1 + beta2 + ell
    # up to ten extensions, within the stream's regeneration limit
    extra = data.draw(st.integers(0, 10 * batch), label="extra")
    handed = [stream.next_prime() for _ in range(batch + extra)]
    assert len(set(handed)) == len(handed)

    dead = set()
    for i in discards:
        # past the handed primes the number i itself is discarded, handed out or not
        p = handed[i] if i < len(handed) else i
        stream.discard(p)
        dead.update({p} & set(handed))
    assert stream.delivered == len(handed) - len(dead)

    records = stream.records
    assert handed == [r.p for r in records[: len(handed)]]
    assert len(records) % batch == 0
    for r in records:
        assert is_prime(r.q) and r.q >= stream.n
        assert is_prime(r.p) and r.p == r.k * r.q + 1 < 1 << 31
    batches = [records[i : i + batch] for i in range(0, len(records), batch)]
    for b in batches:
        assert [r.p for r in b] == sorted(r.p for r in b)
    for before, after in zip(batches, batches[1:]):
        assert max(r.q for r in before) < min(r.q for r in after)


@st.composite
def increasing_q_records(draw):
    """Records in increasing q with p >= 2q + 1, not from the walk: random
    q gaps, random p above 2q + 1, ties in p allowed."""
    q = draw(st.integers(1, 50))
    records = []
    for gap, above in draw(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 300)),
                                    max_size=30)):
        q += gap
        p = 2 * q + 1 + above
        records.append(prime_oracle.PrimeRecord(p, q, (p - 1) // q))
    return records


def fewest_reads(records, handed, read):
    """Inputs read, at least ``read``, before the rule yields again: the
    least pending p is at most 2q + 1 for the last q read, or the input is
    exhausted."""
    for m in range(max(read, 1), len(records) + 1):
        pending = [r.p for r in records[:m] if r not in handed]
        if pending and min(pending) <= 2 * records[m - 1].q + 1:
            return m
    return len(records)


@settings(max_examples=200, deadline=None)
@given(records=increasing_q_records())
def test_ascending_yields_sorted_by_p_reading_only_what_it_must(records):
    read = []

    def feed():
        for r in records:
            read.append(r)
            yield r

    out, reads = [], 0
    for r in prime_oracle._ascending(feed()):
        reads = fewest_reads(records, out, reads)
        assert len(read) == reads
        out.append(r)
    assert out == sorted(records)


@contextmanager
def standing_in(name, stand_in):
    """``prime_oracle.<name>`` replaced by ``stand_in`` inside the block.
    The record cache is emptied on entry and exit, so that each hypothesis
    example reads its own records, and none outlives the block."""
    prime_oracle._record.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prime_oracle, name, stand_in)
            yield
    finally:
        prime_oracle._record.cache_clear()


@contextmanager
def counting_walk():
    """The records every stream made inside the block walks, in walk order."""
    walked = []
    real = prime_oracle._walk

    def counting(n):
        for r in real(n):
            walked.append(r)
            yield r

    with standing_in("_walk", counting):
        yield walked


@contextmanager
def counting_s_of_q():
    """The q of every record made inside the block, in the order made."""
    made = []
    real = prime_oracle.s_of_q

    def counting(q, cap=None):
        made.append(q)
        return real(q, cap)

    with standing_in("s_of_q", counting):
        yield made


def eager_batches(n, batch, count):
    """The first ``count`` batches of the walk from n, each sorted by p, as
    one list: what a stream filling each batch at once hands out."""
    walk = prime_oracle._walk(n)
    return [r for _ in range(count) for r in sorted(islice(walk, batch))]


@settings(max_examples=60, deadline=None)
@given(
    beta1=st.integers(0, 4),
    beta2=st.integers(0, 4),
    ell=st.integers(1, 4),
    data=st.data(),
)
def test_lazy_walk_hands_out_each_sorted_batch_and_walks_no_more(beta1, beta2, ell, data):
    batch = beta1 + beta2 + ell
    requests = data.draw(st.integers(0, 11 * batch), label="requests")
    with counting_walk() as walked:
        stream = generate(OracleConfig(beta1, beta2, ell))
        handed = []
        for _ in range(requests):
            handed.append(stream.next_prime())
            if data.draw(st.booleans(), label="discard"):
                stream.discard(data.draw(st.sampled_from(handed), label="which"))
            # an eager stream has walked every batch it began
            assert len(walked) <= (stream.regenerations + 1) * batch
    want = eager_batches(stream.n, batch, stream.regenerations + 1)
    assert handed == [r.p for r in want[: len(handed)]]
    assert walked == sorted(walked, key=lambda r: r.q)
    assert stream.records == want  # the current batch is completed on demand


@settings(max_examples=40, deadline=None)
@given(
    beta1=st.integers(0, 4),
    beta2=st.integers(0, 4),
    ell=st.integers(1, 4),
    data=st.data(),
)
def test_a_stream_on_a_partly_walked_memo_hands_out_the_eager_batches(beta1, beta2, ell, data):
    # an earlier walk stopped at any point, inside a batch or past it: a new
    # stream, which walks from n again, hands out what an eager one would,
    # and between them the two make each q's record once
    batch = beta1 + beta2 + ell
    n = prime_oracle.choose_n(batch)
    ahead = data.draw(st.integers(0, 4 * batch), label="ahead")
    requests = data.draw(st.integers(0, 5 * batch), label="requests")
    with counting_s_of_q() as made:
        assert len(list(islice(prime_oracle._walk(n), ahead))) == ahead
        stream = generate(OracleConfig(beta1, beta2, ell))
        handed = [stream.next_prime() for _ in range(requests)]
        records = stream.records
    want = eager_batches(n, batch, stream.regenerations + 1)
    assert handed == [r.p for r in want[:requests]] and records == want
    last = list(islice(prime_oracle._walk(n), max(ahead, len(want))))[-1]
    assert made == prime_oracle.sieve_interval(n, last.q + 1)


def test_a_shift_phase_walks_fewer_records_than_its_batch(golden_poly, golden_bounds):
    # golden's shift phase finds its shift at the first prime of a batch of
    # 37 and walks only the records that can precede it
    config = shift_oracle_config(golden_bounds)
    batch = config.beta1 + config.beta2 + config.ell
    with counting_walk() as walked:
        stream = generate(config)
        result = sparsest_shift(make_blackbox(golden_poly), golden_bounds, stream=stream)
        assert result.alpha == golden_poly.shift
        lazily_walked = len(walked)
    assert 0 < stream.delivered <= lazily_walked < batch
    assert stream.regenerations == 0
    assert stream.records == eager_batches(stream.n, batch, 1)  # handed first, in batch order
