"""Shift recovery tests: modular path, dense fallback, reconstruction."""

import random
from fractions import Fraction

import pytest

from lacuna import (
    Bounds,
    DenseBox,
    InconsistentResidues,
    NoReconstruction,
    ShiftedLacunary,
    ShiftPath,
    full_interpolate,
    generate,
    is_prime,
    make_blackbox,
    next_prime_above,
    reconstruct_shift,
    size_of,
    sparsest_shift,
)
from lacuna.densepoly import _taylor_rows, bounded_rational_roots
from lacuna.sparsest_shift import (
    dense_case_recover,
    dense_sparsest_shift,
    shift_oracle_config,
    taylor_shift_exact,
)

from conftest import FakeStream, naive_min_shift, naive_termwise_reduction, random_instance


# ---------------- end-to-end shift recovery ----------------

def test_golden_shift(golden_box, golden_bounds):
    res = sparsest_shift(golden_box, golden_bounds)
    assert res.alpha == 3
    assert res.path is ShiftPath.MODULAR
    assert res.residues  # at least one good prime recorded
    for alpha_p, p in res.residues:
        assert alpha_p == 3 % p


def test_monomial_shift():
    f = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 5),))
    res = sparsest_shift(make_blackbox(f), Bounds(ba=2, bt=2, bh=2, bn=3))
    assert res.alpha == 0
    assert res.path is ShiftPath.MODULAR


def test_fractional_shift_derived():
    # (x - 1/2)^9 + 3(x - 1/2)^2: cross-check each recorded residue against
    # a brute-force shift search on the term-wise reduction
    f = ShiftedLacunary(Fraction(1, 2), Fraction(0), ((Fraction(3), 2), (Fraction(1), 9)))
    res = sparsest_shift(make_blackbox(f), Bounds(ba=4, bt=2, bh=3, bn=4))
    assert res.alpha == Fraction(1, 2)
    for p in (11, 13, 17):
        dense = naive_termwise_reduction(f, p)
        gamma, tau_min, tie = naive_min_shift(dense, p)
        assert not tie
        assert gamma == pow(2, -1, p) % p
        assert tau_min == 2


def test_good_prime_residues_match_planted_shift():
    rng = random.Random(71)
    for _ in range(6):
        f, bounds = random_instance(rng, max_t=3, max_exp=300)
        res = sparsest_shift(make_blackbox(f), bounds)
        assert res.alpha == f.shift
        for ap, p in res.residues:
            assert ap == f.shift.numerator * pow(f.shift.denominator, -1, p) % p


def test_violated_term_bound_fails_within_prime_budget(golden_box):
    # two terms under bt = 1: every prime passes the degree test, none gives
    # a unique one-term shift; beta1 + beta2 + 1 = 8 + 8 + 1 primes prove it
    bounds = Bounds(ba=4, bt=1, bh=4, bn=4)
    stream = generate(shift_oracle_config(bounds))
    with pytest.raises(NoReconstruction):
        sparsest_shift(golden_box, bounds, stream=stream)
    assert stream.config.beta1 + stream.config.beta2 + 1 == 17
    assert stream.delivered <= 17
    # the same through a scripted stream, counted by its deliveries
    fake = FakeStream([p for p in range(37, 400) if is_prime(p)], guarantee_after=17)
    with pytest.raises(NoReconstruction):
        sparsest_shift(golden_box, bounds, stream=fake)
    assert fake.delivered <= 17
    # once p = 37 proved deg f > 2*bt, the low-degree image at p = 3 (both
    # terms fold onto x) spends the budget instead of starting dense recovery
    box = RecordingBox(golden_box)
    with pytest.raises(NoReconstruction):
        sparsest_shift(box, bounds, stream=FakeStream([37, 3, 41, 43], guarantee_after=2))
    assert box.primes == [37, 3]


def test_vanishing_denominator_prime_is_discarded(golden_poly):
    f = ShiftedLacunary(Fraction(1, 47), Fraction(0), ((Fraction(1), 9),))
    # 47 is delivered first (fake), must be discarded, 1187 carries the run;
    # guarantee threshold is irrelevant on the modular path
    stream = FakeStream([47, 1187, 1193, 1201], guarantee_after=100)
    res = sparsest_shift(make_blackbox(f), Bounds(ba=7, bt=1, bh=2, bn=4), stream=stream)
    assert res.alpha == Fraction(1, 47)
    assert all(p != 47 for _, p in res.residues)


# ---------------- branch exclusivity ----------------

def test_modular_path_never_fires_for_low_degree():
    # deg f = 2 <= 2*bt: every prime fails the degree test
    bb = DenseBox([Fraction(-1, 2), Fraction(1), Fraction(3)])
    res = sparsest_shift(bb, Bounds(ba=2, bt=1, bh=3, bn=2))
    assert res.path is ShiftPath.DENSE
    assert res.residues == ()
    assert res.dense_coeffs == (Fraction(-1, 2), Fraction(1), Fraction(3))


def test_dense_fallback_never_fires_with_good_prime(golden_box, golden_bounds):
    res = sparsest_shift(golden_box, golden_bounds)
    assert res.path is ShiftPath.MODULAR
    assert res.dense_coeffs is None


# ---------------- dense recovery ----------------

class RecordingBox:
    def __init__(self, inner):
        self.inner = inner
        self.primes = []
        self.calls = 0

    def eval(self, p, theta):
        self.primes.append(p)
        self.calls += 1
        return self.inner.eval(p, theta)

    def eval_range(self, p):
        self.primes.append(p)
        self.calls += p
        return self.inner.eval_range(p)


def test_dense_case_recover_example():
    bb = RecordingBox(DenseBox([Fraction(-1, 2), Fraction(1), Fraction(3)]))
    bounds = Bounds(ba=2, bt=1, bh=3, bn=2)
    coeffs = dense_case_recover(bb, bounds)
    assert coeffs == [Fraction(-1, 2), Fraction(1), Fraction(3)]
    # numerators and denominators up to N = 2 * 2^12: the first prime above
    # 2^30 already passes 2*N^2 = 2^27, and 2*bt + 1 = 3 points are read
    assert bb.primes == [next_prime_above(1 << 30)] * 3


def test_dense_case_recover_trivial():
    # size(7) = 5, so bh = 5 is the honest tight bound
    assert dense_case_recover(DenseBox([Fraction(7)]), Bounds(1, 1, 5, 1)) == [Fraction(7)]
    assert dense_case_recover(DenseBox([0, 1]), Bounds(1, 1, 1, 1)) == [0, 1]


class VanishAt:
    """Wraps a box and pretends one prime divides a needed denominator."""

    def __init__(self, inner, bad_prime):
        self.inner = inner
        self.bad = bad_prime
        self.calls = 0

    def eval(self, p, theta):
        from lacuna import DenominatorVanished

        self.calls += 1
        if p == self.bad:
            raise DenominatorVanished(p)
        return self.inner.eval(p, theta)


def test_dense_case_recover_skips_vanishing_prime():
    inner = RecordingBox(DenseBox([Fraction(-1, 2), Fraction(1), Fraction(3)]))
    bad = next_prime_above(1 << 30)
    bb = VanishAt(inner, bad)
    coeffs = dense_case_recover(bb, Bounds(ba=2, bt=1, bh=3, bn=2))
    assert coeffs == [Fraction(-1, 2), Fraction(1), Fraction(3)]
    # advanced past the vanishing prime to the next one
    assert inner.primes and set(inner.primes) == {next_prime_above(bad)}


# Instances from the benchmark's dense workload whose power-basis
# coefficients outgrow a modulus of 2^(2*bt*ba + bh): recovering them from
# such a modulus gave a wrong constant.
DENSE_REGIME_CASES = [
    ('{"constant":"-1/2","shift":"32/6625","terms":[{"coeff":"3","exp":2}]}',
     Bounds(ba=20, bt=1, bh=4, bn=2)),
    ('{"constant":"-19/3","shift":"-5/2913","terms":[{"coeff":"11/6","exp":3},'
     '{"coeff":"-19/3","exp":4}]}', Bounds(ba=16, bt=2, bh=8, bn=3)),
    ('{"constant":"-12/7","shift":"1021/26","terms":[{"coeff":"-1/34","exp":1},'
     '{"coeff":"-1/61","exp":4}]}', Bounds(ba=16, bt=2, bh=8, bn=3)),
]


def dense_coeffs_of(poly):
    """Power-basis coefficients of a shifted-sparse polynomial, exactly."""
    flat = [Fraction(0)] * (poly.degree + 1)
    flat[0] = poly.constant
    for c, e in poly.terms:
        flat[e] = c
    return taylor_shift_exact(flat, -poly.shift)


@pytest.mark.parametrize("spec, bounds", DENSE_REGIME_CASES)
def test_dense_regime_recovers_large_coefficients(spec, bounds):
    f = ShiftedLacunary.from_json(spec)
    assert dense_case_recover(make_blackbox(f), bounds) == dense_coeffs_of(f)
    assert full_interpolate(make_blackbox(f), bounds) == f


def test_dense_regime_with_24_bit_shift():
    # |num|, den of the shift need 24 bits each: ba = 49, a 2^49 search box
    f = ShiftedLacunary(Fraction(16777213, 16777199), Fraction(5),
                        ((Fraction(2), 3), (Fraction(-3, 7), 4)))
    coeffs = dense_coeffs_of(f)
    assert dense_sparsest_shift(coeffs, 49) == f.shift
    assert full_interpolate(make_blackbox(f), Bounds(ba=49, bt=2, bh=5, bn=3)) == f


# ---------------- dense sparsest shift ----------------

def test_dense_shift_examples():
    assert dense_sparsest_shift([1, 2, 1], 3) == -1
    assert dense_sparsest_shift([18, 33, 24, 8, 1], 4) == -2
    assert dense_sparsest_shift([0, 0, 0, 1], 3) == 0


def test_dense_shift_ignores_trailing_zeros():
    for coeffs, ba in (([1, 2, 1], 3), ([18, 33, 24, 8, 1], 4), ([Fraction(-1, 2), 1, 3], 3)):
        assert dense_sparsest_shift(coeffs + [0, 0], ba) == dense_sparsest_shift(coeffs, ba)


def test_dense_shift_quartic_is_planted():
    # x^4 + 8x^3 + 24x^2 + 33x + 18 == (x+2)^4 + (x+2) by expansion
    expanded = taylor_shift_exact([0, 1, 0, 0, 1], Fraction(2))
    assert [int(c) for c in expanded] == [18, 33, 24, 8, 1]


def test_dense_shift_that_is_a_multiple_root_of_every_row_but_the_last():
    # f = 7 + (x - 3/2)^5: row k of f(x + y) is C(5, k) (y - 3/2)^(5 - k),
    # so 3/2 is a simple root of row 4 alone
    coeffs = taylor_shift_exact([7, 0, 0, 0, 0, 1], Fraction(-3, 2))
    rows = _taylor_rows(coeffs, range(1, 5))
    assert [bounded_rational_roots(row, 4) for row in rows] == [[], [], [], [Fraction(3, 2)]]
    assert dense_sparsest_shift(coeffs, 2) == Fraction(3, 2)


def test_dense_shift_respects_box():
    # true sparsest shift -1/6 needs den 6 > 2^2: outside the box, 0 wins
    assert dense_sparsest_shift([Fraction(-1, 2), 1, 3], 2) == 0
    # with a wide box the better shift is found
    assert dense_sparsest_shift([Fraction(-1, 2), 1, 3], 3) == Fraction(-1, 6)


def test_dense_shift_sampled_global_minimality():
    # plant x^5 + 2x^2 + 5 shifted by 3/2: deg 5 >= 2*2 + 1 makes the
    # planted shift the unique sparsest one
    rng = random.Random(73)
    coeffs = taylor_shift_exact([Fraction(5), 0, Fraction(2), 0, 0, Fraction(1)], Fraction(-3, 2))
    ba = 4
    alpha = dense_sparsest_shift(coeffs, ba)

    def tau_at(a):
        return sum(1 for c in taylor_shift_exact(coeffs, a)[1:] if c != 0)

    assert alpha == Fraction(3, 2)
    best = tau_at(alpha)
    assert best == 2
    for _ in range(100):
        num = rng.randint(-(1 << ba), 1 << ba)
        den = rng.randint(1, 1 << ba)
        cand = Fraction(num, den)
        assert tau_at(cand) >= best + (cand != alpha)


def test_dense_shift_tie_breaks_toward_small_size():
    # x has tau 1 for every shift; 0 must win on size then value
    assert dense_sparsest_shift([0, 1], 4) == 0
    assert dense_sparsest_shift([], 4) == 0
    assert dense_sparsest_shift([Fraction(9)], 4) == 0


# ---------------- residue reconstruction ----------------

def test_reconstruct_shift_examples():
    assert reconstruct_shift([(3, 7), (3, 11), (3, 13)], 4) == 3
    assert reconstruct_shift([(4, 7), (6, 11), (7, 13)], 4) == Fraction(1, 2)


def test_reconstruct_shift_inconsistent():
    from lacuna import NoReconstruction

    with pytest.raises(NoReconstruction):
        reconstruct_shift([(1, 7), (2, 11), (3, 13)], 1)


def test_reconstruct_shift_rejects_no_residues():
    with pytest.raises(NoReconstruction):
        reconstruct_shift([], 4)


def test_reconstruct_shift_rejects_duplicate_moduli():
    with pytest.raises(ValueError):
        reconstruct_shift([(1, 7), (2, 7)], 4)


def test_sparsest_shift_raises_inconsistent_for_violated_bounds():
    # true shift is 9/7 (size 4+3+1 = 8) but claim ba = 1
    f = ShiftedLacunary(Fraction(9, 7), Fraction(0), ((Fraction(1), 9),))
    with pytest.raises(InconsistentResidues):
        sparsest_shift(make_blackbox(f), Bounds(ba=1, bt=1, bh=2, bn=4))


# ---------------- bounds type ----------------

def test_bounds_normalization():
    b = Bounds(ba=0, bt=0, bh=0, bn=0)
    assert (b.ba, b.bt, b.bh, b.bn) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        Bounds(ba=-1, bt=1, bh=1, bn=1)


def test_taylor_shift_exact_round_trip():
    rng = random.Random(79)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        there = taylor_shift_exact(coeffs, a)
        back = taylor_shift_exact(there, -a)
        assert back == coeffs
        # the round trip alone holds for the identity map too
        for x in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 2)):
            shifted = sum(c * x**k for k, c in enumerate(there))
            assert shifted == sum(c * (x + a) ** k for k, c in enumerate(coeffs))
