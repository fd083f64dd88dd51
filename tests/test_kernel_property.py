"""Property tests of the chirp-transform kernel and the sparse kernel at
every prime below 600.

Kept apart from test_densepoly so that the other kernel tests still run
where hypothesis is not installed.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacuna import (
    interpolate_range,
    interpolate_sparse,
    is_prime,
    tau,
)

PRIMES_BELOW_600 = [p for p in range(600) if is_prime(p)]


def grid_of(coeffs, p):
    grid = []
    for x in range(p):
        y = 0
        for c in reversed(coeffs):
            y = (y * x + c) % p
        grid.append(y)
    return grid


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), seed=st.integers(0, 2**32 - 1))
@example(p=2, seed=0)
@example(p=2, seed=3)
def test_kernel_round_trip_property(p, seed):
    rng = random.Random(seed)
    coeffs = [rng.randrange(p) for _ in range(rng.randint(0, p))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    grid = grid_of(coeffs, p)
    assert list(interpolate_range(grid, p).coeffs) == coeffs


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from(PRIMES_BELOW_600), s=st.integers(1, 5), extra=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
@example(p=2, s=1, extra=1, seed=0)
@example(p=3, s=1, extra=1, seed=1)
@example(p=5, s=3, extra=1, seed=2)
def test_sparse_kernel_property(p, s, extra, seed):
    # s - 1, s or s + 1 terms (fewer where p - 1 slots do not allow them):
    # the dense interpolant when it has at most s terms, else None
    rng = random.Random(seed)
    t = min(p - 1, max(0, s - 1 + rng.randint(0, 1) + extra))
    coeffs = [0] * p
    coeffs[0] = rng.choice([0, rng.randrange(p)])
    for e in rng.sample(range(1, p), t):
        coeffs[e] = rng.randrange(1, p)
    grid = grid_of(coeffs, p)
    dense = interpolate_range(grid, p)
    assert interpolate_sparse(grid, p, s) == (dense if tau(dense) <= s else None)
    noise = [rng.randrange(p) for _ in range(p)]  # a random grid is dense but at tiny p
    dense = interpolate_range(noise, p)
    assert interpolate_sparse(noise, p, s) == (dense if tau(dense) <= s else None)
