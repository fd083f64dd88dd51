"""Property test of the prime stream's walk: requests past the reservoir and
random discards never hand a prime out twice or break the batch order.

Kept apart from test_prime_oracle so that the oracle tests still run where
hypothesis is not installed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import OracleConfig, generate, is_prime


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
