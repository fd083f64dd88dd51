"""Property tests of violated bounds: a correct answer or a typed error,
within the oracle's prime budget.

Kept apart from test_sparse_interp so that the other pipeline tests still
run where hypothesis is not installed.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import (
    Bounds,
    LacunaError,
    NoReconstruction,
    PrimeStream,
    ShiftedLacunary,
    full_interpolate,
    make_blackbox,
)

from conftest import GOLDEN_JSON


def bits(x):
    """Least b with x <= 2^b: the bound the library checks magnitudes against."""
    return (x - 1).bit_length()


def height(q):
    return max(abs(q.numerator), q.denominator)


def rational(rng, top):
    """a/b in lowest terms with max(|a|, b) == top."""
    while True:
        other = rng.randint(1, top)
        a, b = (top, other) if rng.random() < 0.5 else (other, top)
        if Fraction(a, b).denominator == b:
            return Fraction(a * rng.choice((1, -1)), b)


def tight_instance(rng, t):
    """A random modular-path instance (deg >= 2t + 1) with its least bounds.

    Every bound is at least 2, so lowering any one by one violates it.
    """
    deg = rng.randint(max(2 * t + 1, 5), 64)
    exps = sorted(rng.sample(range(1, deg), t - 1)) + [deg]
    poly = ShiftedLacunary(
        shift=rational(rng, rng.randint(3, 16)),
        constant=rational(rng, rng.randint(1, 16)),
        terms=tuple((rational(rng, rng.randint(3, 16)), e) for e in exps),
    )
    coeffs = (poly.constant, *(c for c, _ in poly.terms))
    return poly, Bounds(
        ba=bits(height(poly.shift)), bt=t, bh=bits(max(map(height, coeffs))), bn=bits(deg)
    )


def solve(bb, bounds):
    """full_interpolate's answer or typed error, and the prime streams it made."""
    streams = []

    def recording_generate(config):
        streams.append(PrimeStream(config))
        return streams[-1]

    with mock.patch("lacuna.sparsest_shift.generate", recording_generate), mock.patch(
        "lacuna.sparse_interp.generate", recording_generate
    ):
        try:
            return full_interpolate(bb, bounds), streams
        except LacunaError as exc:
            return exc, streams


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(2, 3),
    lowered=st.sampled_from(("ba", "bt", "bh", "bn")),
)
def test_single_bound_violation_is_correct_or_typed(seed, t, lowered):
    poly, tight = tight_instance(random.Random(seed), t)
    bounds = Bounds(**{k: getattr(tight, k) - (k == lowered) for k in ("ba", "bt", "bh", "bn")})
    result, streams = solve(make_blackbox(poly), bounds)
    assert isinstance(result, LacunaError) or result == poly
    # the shift phase stops within beta1 + beta2 + 2ba + 1 primes and the
    # interpolation phase at its guarantee: neither outgrows its reservoir
    assert [s.regenerations for s in streams] == [0] * len(streams)


def test_tight_instances_recover():
    rng = random.Random(7)
    for t in (2, 3):
        poly, bounds = tight_instance(rng, t)
        result, streams = solve(make_blackbox(poly), bounds)
        assert result == poly
        assert len(streams) == 2


def test_golden_violated_degree_bound_fails_within_budget():
    # degree 15 > 2^3: the exponent polynomial has a root past the bound
    bb = make_blackbox(ShiftedLacunary.from_json(GOLDEN_JSON))
    result, streams = solve(bb, Bounds(ba=4, bt=2, bh=4, bn=3))
    assert isinstance(result, NoReconstruction)
    assert sum(s.delivered for s in streams) <= 21
    assert bb.calls <= 51_673
