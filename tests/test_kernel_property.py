"""Property test of the chirp-transform kernel at every prime below 600.

Kept apart from test_densepoly so that the other kernel tests still run
where hypothesis is not installed.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacuna import DensePolyMod, evaluate_range, interpolate_range, is_prime

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
    assert list(evaluate_range(DensePolyMod(p, coeffs))) == grid
