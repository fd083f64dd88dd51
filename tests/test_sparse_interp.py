"""Sparse interpolation tests: image collection, exponent recovery, matching."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    AmbiguousMatch,
    BlackBoxFailure,
    Bounds,
    DenominatorVanished,
    DensePolyMod,
    InconsistentResidues,
    ModularBlackBox,
    NoMatch,
    NoReconstruction,
    NotSplitting,
    PrimeRecord,
    ProgramBox,
    ShiftedLacunary,
    SymPoly,
    build_g_image,
    collect_images,
    full_interpolate,
    generate,
    integer_roots,
    make_blackbox,
    match_and_recover,
    recover_g,
    shifted_blackbox,
    sparse_interpolate,
    sparsest_shift,
)
from lacuna import LacunaError, LacunaryBox, interpolate_sparse, modular_core, prime_oracle
from lacuna import densepoly
from lacuna import sparse_interp as si
from lacuna.densepoly import _generator_powers
from lacuna.sparse_interp import PrimeImage, interp_oracle_config, q_target_bits
from lacuna.sparsest_shift import shift_oracle_config

from conftest import FakeStream, naive_crt_scan, random_instance


def unshifted_two_term():
    return ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 15), (Fraction(-2), 5)))


# ---------------- collect_images ----------------

def test_collect_images_golden_slots():
    bb = make_blackbox(unshifted_two_term())
    bounds = Bounds(ba=4, bt=2, bh=4, bn=4)
    stream = FakeStream([7, 13, 23, 29, 37, 47, 53], guarantee_after=3)
    images = collect_images(bb, bounds, stream=stream)
    first = images[0]
    assert first.p == 7
    assert first.exponents == (3, 5)  # 15 offset-reduces to 3 mod 6
    assert first.coeff_map == {3: 1, 5: 5}  # -2 = 5 mod 7
    assert first.c0 == 0


def test_collect_images_flushes_colliding_prime():
    # p = 11: 15 and 5 collide mod 10 (difference 10), so tau drops to 1;
    # delivered first, the image must be flushed once a tau-2 prime shows up
    bb = make_blackbox(unshifted_two_term())
    bounds = Bounds(ba=4, bt=2, bh=4, bn=4)
    stream = FakeStream([11, 7, 13, 23, 29, 37, 47], guarantee_after=3)
    images = collect_images(bb, bounds, stream=stream)
    assert all(im.p != 11 for im in images)
    assert all(len(im.exponents) == 2 for im in images)
    # and delivered later, it is simply dropped
    stream2 = FakeStream([7, 11, 13, 23, 29, 37, 47], guarantee_after=3)
    images2 = collect_images(bb, bounds, stream=stream2)
    assert all(im.p != 11 for im in images2)


def test_collect_images_rejects_false_prime_record():
    # a record claiming q = 5 for p = 13, where 5 does not divide 12, breaks
    # the lcm growth the reservoir certifies: a typed error, under -O too
    class FalseRecordStream(FakeStream):
        def record_for(self, p):
            return PrimeRecord(p, 5, 0) if p == 13 else None

    bb = make_blackbox(unshifted_two_term())
    stream = FalseRecordStream([7, 13, 23, 29, 37, 47, 53], guarantee_after=3)
    with pytest.raises(RuntimeError, match="certified factor"):
        collect_images(bb, Bounds(ba=4, bt=2, bh=4, bn=4), stream=stream)


def test_collect_images_constant_box():
    bb = make_blackbox(ShiftedLacunary(Fraction(0), Fraction(7, 3), ()))
    bounds = Bounds(ba=1, bt=1, bh=5, bn=1)
    stream = FakeStream([7, 13, 23, 29, 37, 47, 53, 59], guarantee_after=3)
    images = collect_images(bb, bounds, stream=stream)
    assert images and all(im.exponents == () for im in images)
    prod = math.prod(im.p for im in images)
    assert prod >= 1 << (2 * bounds.bh + 1)


def test_collect_images_accumulates_lcm_target():
    bb = make_blackbox(unshifted_two_term())
    bounds = Bounds(ba=4, bt=2, bh=4, bn=4)
    stream = FakeStream([7, 13, 23, 29, 37, 47, 53, 59], guarantee_after=3)
    images = collect_images(bb, bounds, stream=stream)
    q = math.lcm(*(im.p - 1 for im in images))
    assert q >= 1 << q_target_bits(bounds)
    assert q_target_bits(bounds) == 2 * (4 + 1) + 1


def dense_path_images(bb, images):
    """The same primes' images by dense reduction and interpolation."""
    from lacuna import reduce_mod

    return [PrimeImage.from_poly(reduce_mod(bb, im.p)) for im in images]


def test_collect_images_equal_dense_images(golden_poly, golden_bounds):
    bb = shifted_blackbox(make_blackbox(golden_poly), golden_poly.shift)
    images = collect_images(bb, golden_bounds)
    assert len(images) >= 2 and images == dense_path_images(bb, images)
    rng = random.Random(89)
    for _ in range(6):
        f, bounds = random_instance(rng, max_t=3, max_exp=1 << 8)
        bb = shifted_blackbox(make_blackbox(f), f.shift)
        images = collect_images(bb, bounds)
        assert images == dense_path_images(bb, images)
        assert all(len(im.exponents) == f.t for im in images)


def test_collect_images_rejects_more_terms_than_bt_after_one_grid():
    # three terms with bt = 2: the first grid already has three terms
    poly = ShiftedLacunary(Fraction(0), Fraction(1), ((Fraction(1), 1), (Fraction(2), 3),
                                                      (Fraction(3), 5)))
    bb = make_blackbox(poly)
    stream = FakeStream([101, 103, 107, 109], guarantee_after=1)
    with pytest.raises(NoReconstruction, match="more than bt=2 terms"):
        collect_images(bb, Bounds(ba=1, bt=2, bh=3, bn=3), stream=stream)
    assert bb.calls == 101 and stream.delivered == 1


def test_golden_runs_no_chirp_transform_at_two_or_three_terms(
        golden_poly, golden_bounds, monkeypatch):
    # at bt = 2 and at bt = 3 the Hankel filter finds every prime's shift
    # and the interpolation phase takes the sparse kernel, so no transform
    # runs in either phase; nor does one, or min_shift, where the shift
    # phase fails (golden at bt = 1) or falls to the dense regime (a
    # DenseBox and the benchmark's dense workload, deg <= 2t)
    import lacuna
    from lacuna import DenseBox, densepoly
    from test_bench_contract import load

    calls = []

    def counted(name):
        kernel = getattr(densepoly, name)

        def run(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return run

    for name in ("_power_sums_fft", "min_shift"):
        monkeypatch.setattr(densepoly, name, counted(name))
    assert full_interpolate(make_blackbox(golden_poly), golden_bounds) == golden_poly
    bt3 = Bounds(ba=golden_bounds.ba, bt=3, bh=golden_bounds.bh, bn=golden_bounds.bn)
    assert sparsest_shift(make_blackbox(golden_poly), bt3).alpha == golden_poly.shift
    assert full_interpolate(make_blackbox(golden_poly), bt3) == golden_poly
    bt1 = Bounds(ba=golden_bounds.ba, bt=1, bh=golden_bounds.bh, bn=golden_bounds.bn)
    with pytest.raises(NoReconstruction):
        full_interpolate(make_blackbox(golden_poly), bt1)
    got = full_interpolate(DenseBox([1, 2, 1]), Bounds(ba=2, bt=1, bh=3, bn=1))
    assert got.shift == -1 and got.terms == ((Fraction(1), 2),)
    workloads = load("workloads")
    for inst in workloads.build(lacuna, "dense", 1):
        assert workloads.is_correct(inst, full_interpolate(inst.box, inst.bounds)), inst.name
    assert calls == []


# ---------------- the candidate and its confirmation ----------------

def kernel_image(values, p, bt):
    return PrimeImage.from_poly(interpolate_sparse(values, p, bt))


def test_confirmed_image_sums_colliding_slots_and_drops_zeros():
    # at p = 7: 2 and 8 share slot 2 and their coefficients cancel, 14 is
    # slot 2 too, 3 keeps slot 3 but its coefficient 7 vanishes, and 13
    # keeps slot 1 with coefficient 3
    poly = ShiftedLacunary(Fraction(0), Fraction(5, 2), (
        (Fraction(1), 2), (Fraction(-1), 8), (Fraction(7), 3), (Fraction(3), 13),
        (Fraction(1, 3), 14)))
    values = LacunaryBox(poly).eval_range(7)
    got = si._confirmed_image(poly, values, 7)
    assert got == kernel_image(values, 7, 5)
    assert got == PrimeImage(7, (1, 2), ((1, 3), (2, 5)), 6)  # 1/3 = 5, 5/2 = 6 mod 7


def test_confirmed_image_leaves_a_vanishing_denominator_or_another_grid_to_the_kernel():
    poly = ShiftedLacunary(Fraction(0), Fraction(1), ((Fraction(2, 7), 3), (Fraction(1), 5)))
    other = make_blackbox(unshifted_two_term()).eval_range(7)
    assert si._confirmed_image(poly, other, 7) is None  # 7 divides the denominator 7
    values = LacunaryBox(poly).eval_range(11)
    assert si._confirmed_image(poly, values, 11) == kernel_image(values, 11, 2)
    for i in (0, 5, 10):
        changed = values.copy()
        changed[i] = (changed[i] + 1) % 11
        assert si._confirmed_image(poly, changed, 11) is None


@pytest.mark.parametrize("p", [11, 1009, 10007])
def test_confirmed_image_reads_zero_and_both_ends_of_the_generator_order(p):
    # the check compares every x in Z_p: a grid off the candidate's at
    # x = 0 alone, at x = 1 = g^0 alone or at x = g^(p-2) alone is not
    # confirmed
    poly = ShiftedLacunary(Fraction(0), Fraction(3, 5), (
        (Fraction(-2), 4), (Fraction(7, 3), 31), (Fraction(1), 1000)))
    values = LacunaryBox(poly).eval_range(p)
    assert not values.flags.writeable  # eval_range's read-only grid is accepted as it is
    assert si._confirmed_image(poly, values, p) == kernel_image(values, p, 3)
    for x in (0, 1, int(_generator_powers(p)[p - 2])):
        changed = values.copy()
        changed[x] = (changed[x] + 1) % p
        assert si._confirmed_image(poly, changed, p) is None, x


class _SpoiledBox(LacunaryBox):
    """The lacunary box of its polynomial, but for one value of its grid at
    one prime."""

    def __init__(self, poly, p, x):
        super().__init__(poly)
        self.spoiled = p, x

    def _grid(self, p):
        grid = super()._grid(p)
        if p == self.spoiled[0]:
            x = self.spoiled[1]
            grid = grid.copy()
            grid[x] = (grid[x] + 1) % p
        return grid


@pytest.mark.parametrize("where", ["at the shift", "at zero", "at random"])
def test_a_confirmation_reads_every_value(golden_poly, golden_bounds, where, monkeypatch):
    # a padding prime's grid that is the candidate's at the shift but for
    # one value, at x = alpha mod p (where every term vanishes and f reads
    # c0), at x = 0 or at a random x, is not confirmed: it goes to the
    # kernel, which reads more than bt terms in it
    confirmed, kernel = [], []
    real_confirm, real_kernel = si._confirmed_image, si.interpolate_sparse

    def confirming(candidate, values, p, shift=0):
        image = real_confirm(candidate, values, p, shift)
        confirmed.extend([p] if image is not None else [])
        return image

    def interpolating(values, p, s):
        kernel.append(p)
        return real_kernel(values, p, s)

    monkeypatch.setattr(si, "_confirmed_image", confirming)
    monkeypatch.setattr(si, "interpolate_sparse", interpolating)
    alpha = golden_poly.shift
    assert sparse_interpolate(LacunaryBox(golden_poly), golden_bounds, shift=alpha) == golden_poly
    p = confirmed[-1]
    a = modular_core.frac_mod(alpha, p)
    x = {"at the shift": a, "at zero": 0,
         "at random": random.Random(p).choice([x for x in range(1, p) if x != a])}[where]
    candidate = ShiftedLacunary(0, golden_poly.constant, golden_poly.terms)
    values = LacunaryBox(golden_poly).eval_range(p)
    assert real_confirm(candidate, values, p, a) is not None
    changed = values.copy()
    changed[x] = (changed[x] + 1) % p
    assert real_confirm(candidate, changed, p, a) is None
    kernel.clear()
    with pytest.raises(NoReconstruction, match=f"p={p} has more than bt=2 terms"):
        sparse_interpolate(_SpoiledBox(golden_poly, p, x), golden_bounds, shift=alpha)
    assert kernel[-1] == p


class _GridCountingBox(LacunaryBox):
    grid_evals = 0

    def eval_range(self, p):
        values = super().eval_range(p)
        self.grid_evals += 1
        return values


def test_a_confirmed_grid_reuses_the_sums_its_box_computed(golden_poly, golden_bounds,
                                                           monkeypatch):
    # a LacunaryBox grid is built once, and confirming it against a
    # candidate that is the box's polynomial at the shift asks for the same
    # grid: every grid is one miss of the grid cache, every confirmed grid
    # one hit, and each grid builds its prime's table once
    from lacuna.blackbox import _lacunary_grid

    accepted = []
    real = si._confirmed_image

    def recording(*args):
        image = real(*args)
        accepted.append(image is not None)
        return image

    monkeypatch.setattr(si, "_confirmed_image", recording)
    box = _GridCountingBox(golden_poly)
    _lacunary_grid.cache_clear()
    _generator_powers.cache_clear()
    assert full_interpolate(box, golden_bounds) == golden_poly
    info = _lacunary_grid.cache_info()
    assert info.misses == box.grid_evals
    assert info.hits == accepted.count(True) > 0
    assert _generator_powers.cache_info().misses == box.grid_evals


class _SwitchingBox(ModularBlackBox):
    """A test double that is one polynomial's box at the primes in ``early``
    and another's at every other prime."""

    def __init__(self, early, first, then):
        super().__init__()
        self.early = set(early)
        self.boxes = LacunaryBox(first), LacunaryBox(then)

    def _grid(self, p):
        return self.boxes[p not in self.early]._grid(p)


SWITCH_PRIMES = [7, 13, 23, 29, 37, 41, 43, 47, 53, 59, 61]  # the guarantee at the last
SWITCH_BOUNDS = Bounds(ba=1, bt=2, bh=2, bn=3)


def collect_both_ways(box_args, monkeypatch):
    """_collect's images and candidate, the candidates it built, and the
    images and answer (or error type) of the same run without candidates."""
    built = []
    real = si._candidate

    def recording(images, bounds):
        built.append(real(images, bounds))
        return built[-1]

    def stream():
        return FakeStream(SWITCH_PRIMES, guarantee_after=len(SWITCH_PRIMES))

    monkeypatch.setattr(si, "_candidate", recording)
    images, candidate = si._collect(_SwitchingBox(*box_args), SWITCH_BOUNDS, stream())
    monkeypatch.setattr(si, "_candidate", lambda images, bounds: None)
    plain = collect_images(_SwitchingBox(*box_args), SWITCH_BOUNDS, stream=stream())
    try:
        answer = sparse_interpolate(_SwitchingBox(*box_args), SWITCH_BOUNDS, stream=stream())
    except LacunaError as exc:
        answer = type(exc)
    return images, candidate, built, plain, answer


def test_a_kept_image_that_disagrees_drops_the_candidate(monkeypatch):
    # 3x^5 up to p = 37, then 2x^5: the targets are met at p = 29, the
    # candidate 3x^5 is confirmed at 37 and contradicted at 41
    first = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(3), 5),))
    then = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(2), 5),))
    images, candidate, built, plain, answer = collect_both_ways(
        (SWITCH_PRIMES[:5], first, then), monkeypatch)
    assert built == [first] and candidate is None
    assert images == plain and len(images) == 11
    assert answer is NoReconstruction  # 3 and 2 modulo different primes fit no small a/b


def test_a_flush_drops_the_candidate_and_it_is_rebuilt(monkeypatch):
    # 3x^5 up to p = 37, then 3x^5 + x^7: the second term flushes the images
    # and the first candidate; the second one is confirmed to the end
    first = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(3), 5),))
    then = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(3), 5), (Fraction(1), 7)))
    images, candidate, built, plain, answer = collect_both_ways(
        (SWITCH_PRIMES[:5], first, then), monkeypatch)
    assert built == [first, then] and candidate == then
    assert images == plain and [im.p for im in images] == SWITCH_PRIMES[5:]
    assert answer == then


def sweep_instance(rng):
    """t = 1-3, bn = 5-10, bh = 4-6, ba = 4-8, and one or two bounds
    lowered by 1-3 each, which the instance may then violate."""
    t, bn, bh, ba = rng.randint(1, 3), rng.randint(5, 10), rng.randint(4, 6), rng.randint(4, 8)

    def rat(b):
        while True:
            a = rng.randint(-(1 << b), 1 << b)
            if a:
                return Fraction(a, rng.randint(1, 1 << b))

    top = rng.randint((1 << (bn - 1)) + 1, 1 << bn)
    exps = sorted(rng.sample(range(1, top), t - 1)) + [top]
    poly = ShiftedLacunary(shift=rat(ba), constant=rng.choice((Fraction(0), rat(bh))),
                           terms=tuple((rat(bh), e) for e in exps))
    bounds = {"ba": ba, "bt": t, "bh": bh, "bn": bn}
    for k in rng.sample(sorted(bounds), rng.randint(1, 2)):
        bounds[k] = max(1, bounds[k] - rng.randint(1, 3))
    return poly, Bounds(**bounds)


def outcome(poly, bounds):
    try:
        return full_interpolate(make_blackbox(poly), bounds)
    except LacunaError as exc:
        return type(exc)


def test_violated_bounds_give_the_same_outcome_without_candidates(monkeypatch):
    rng = random.Random(2003)
    cases = [sweep_instance(rng) for _ in range(60)]
    returned = []
    real = si._collect

    def recording(*args):
        images, candidate = real(*args)
        returned.append(candidate is not None)
        return images, candidate

    monkeypatch.setattr(si, "_collect", recording)
    with_candidates = [outcome(*case) for case in cases]
    monkeypatch.setattr(si, "_candidate", lambda images, bounds: None)
    assert [outcome(*case) for case in cases] == with_candidates
    exact = sum(got == poly for got, (poly, _) in zip(with_candidates, cases))
    typed = sum(isinstance(got, type) for got in with_candidates)
    assert exact + typed == len(cases)  # no wrong answer
    assert returned.count(True) == exact > 0


# ---------------- build_g_image ----------------

def test_build_g_image_examples():
    assert build_g_image([5, 3], 6).coeffs.tolist() == [3, 4, 1]  # z^2 + 4z + 3
    assert build_g_image([9], 6).coeffs.tolist() == [3, 1]  # z - (9 mod 6)
    assert build_g_image([], 6).coeffs.tolist() == [1]
    # matches the true product (z-15)(z-5) reduced mod 6
    assert build_g_image([15, 5], 6).coeffs.tolist() == [75 % 6, -20 % 6, 1]


def test_build_g_image_order_invariant():
    rng = random.Random(83)
    for _ in range(40):
        m = rng.randint(2, 60)
        es = [rng.randint(1, 500) for _ in range(rng.randint(0, 5))]
        shuffled = es[:]
        rng.shuffle(shuffled)
        assert build_g_image(es, m) == build_g_image(shuffled, m)


# ---------------- recover_g ----------------

def true_g_mod(es, m):
    return build_g_image(es, m)


def test_recover_g_derived_example():
    # images of (z-15)(z-5) modulo 12, 36, 28; lcm 252
    images = [true_g_mod([15, 5], m) for m in (12, 36, 28)]
    g = recover_g(images)
    assert g.coeffs == (75, -20, 1)
    # cross-check the middle coefficient by scanning the CRT directly
    want = naive_crt_scan([(-20, 12), (-20, 36), (-20, 28)], 252)
    assert want == (-20) % 252 == 232


def test_recover_g_single_image_symmetric_range():
    img = true_g_mod([2, 5], 36)  # coefficients -7, 10 fit in (-18, 18]
    g = recover_g([img])
    assert g.coeffs == (10, -7, 1)


def test_recover_g_conflict():
    a = DensePolyMod(4, [(-1) % 4, 1])  # z - 1
    b = DensePolyMod(6, [(-2) % 6, 1])  # z - 2
    with pytest.raises(InconsistentResidues):
        recover_g([a, b])


def test_recover_g_validates_shape():
    with pytest.raises(ValueError):
        recover_g([])
    with pytest.raises(ValueError):
        recover_g([DensePolyMod(6, [1, 1]), DensePolyMod(8, [1])])
    with pytest.raises(ValueError):
        recover_g([DensePolyMod(6, [1, 2])])  # not monic


# ---------------- integer_roots ----------------

def test_integer_roots_examples():
    assert integer_roots(SymPoly((75, -20, 1)), 16) == {5, 15}
    assert integer_roots(SymPoly((-7, 1)), 16) == {7}
    with pytest.raises(NotSplitting):
        integer_roots(SymPoly((1, 0, 1)), 16)  # z^2 + 1


def test_integer_roots_random_planted():
    rng = random.Random(89)
    for _ in range(30):
        bound = 1 << rng.randint(3, 12)
        t = rng.randint(0, 5)
        roots = set(rng.sample(range(1, bound + 1), t)) if t else set()
        coeffs = [1]
        for e in roots:
            coeffs = [
                (coeffs[i - 1] if i else 0) - e * (coeffs[i] if i < len(coeffs) else 0)
                for i in range(len(coeffs) + 1)
            ]
        assert integer_roots(SymPoly(tuple(coeffs)), bound) == roots


def test_integer_roots_rejects_out_of_range():
    # root 40 lies outside [1, 16]
    with pytest.raises(NotSplitting):
        integer_roots(SymPoly((-40, 1)), 16)


def test_integer_roots_deterministic_for_seed():
    g = SymPoly((75, -20, 1))
    assert integer_roots(g, 16) == integer_roots(g, 16) == {5, 15}


def test_integer_roots_at_bound_2_300_reject_what_does_not_split():
    e = (1 << 299) + 12345
    assert integer_roots(SymPoly((e * (e + 1), -(2 * e + 1), 1)), 1 << 300) == {e, e + 1}
    with pytest.raises(NotSplitting):
        integer_roots(SymPoly((e * e, -2 * e, 1)), 1 << 300)  # (z - e)^2
    with pytest.raises(NotSplitting):
        integer_roots(SymPoly((-2 * e * e, 0, 1)), 1 << 300)  # z^2 - 2 e^2 is irreducible


def test_integer_roots_past_witness_range_never_test_large_primality(monkeypatch):
    # roots near 2^131 are lifted from small primes: no prime anywhere near
    # the proven witness range is asked for
    original = modular_core.is_prime

    def small_is_prime(n):
        if n > modular_core._MR_PROVEN_LIMIT:
            raise AssertionError(f"is_prime({n}) called")
        return original(n)

    bindings = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "lacuna" and getattr(module, "is_prime", None) is original
    ]
    assert modular_core in bindings
    for module in bindings:
        monkeypatch.setattr(module, "is_prime", small_is_prime)
    e1, e2 = (1 << 131) - 1234567, (1 << 131) + 98765
    g = SymPoly((e1 * e2, -(e1 + e2), 1))
    assert integer_roots(g, 1 << 132) == {e1, e2}


# ---------------- match_and_recover ----------------

def images_for(poly, primes):
    from lacuna import reduce_mod

    bb = make_blackbox(poly)
    return [PrimeImage.from_poly(reduce_mod(bb, p)) for p in primes]


def test_match_and_recover_derived():
    imgs = images_for(unshifted_two_term(), [7, 13])
    img7 = next(im for im in imgs if im.p == 7)
    img13 = next(im for im in imgs if im.p == 13)
    assert img7.coeff_map == {3: 1, 5: 5}
    assert img13.coeff_map == {3: 1, 5: 11}
    got = match_and_recover([5, 15], imgs, bh=4)
    assert got.terms == ((Fraction(-2), 5), (Fraction(1), 15))
    assert got.constant == 0
    # scan-CRT the coefficient of x^5: 5 mod 7 and 11 mod 13 meet at 89
    assert naive_crt_scan([(5, 7), (11, 13)], 91) == 89  # = -2 mod 91


def test_match_uses_offset_remainder():
    # exponent 12 at p = 7 must match slot 12 remo 6 = 6, not 12 mod 6 = 0
    poly = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 12),))
    imgs = images_for(poly, [7])
    assert imgs[0].exponents == (6,)
    got = match_and_recover([12], imgs, bh=2)
    assert got.terms == ((Fraction(1), 12),)


def test_match_constant_only():
    poly = ShiftedLacunary(Fraction(0), Fraction(7, 3), ())
    imgs = images_for(poly, [7, 13, 23, 29])
    got = match_and_recover([], imgs, bh=5)
    assert got.constant == Fraction(7, 3)
    assert got.terms == ()


def test_match_reports_missing_slot():
    imgs = images_for(unshifted_two_term(), [7])
    with pytest.raises(NoMatch):
        match_and_recover([5, 14], imgs, bh=4)  # 14 remo 6 = 2, not present


def test_match_reports_term_count_mismatch():
    imgs = images_for(unshifted_two_term(), [7])
    with pytest.raises(NoMatch, match="has 2 terms, expected 1"):
        match_and_recover([5], imgs, bh=4)


def test_match_reports_ambiguity():
    imgs = images_for(unshifted_two_term(), [7])
    # 15 and 3 both reduce to slot 3 mod 6
    with pytest.raises(AmbiguousMatch):
        match_and_recover([3, 15], imgs, bh=4)


# ---------------- tau-monotonicity (good prime characterization) ----------------

def test_tau_maximal_iff_no_collision_and_no_vanishing():
    from lacuna import reduce_mod

    rng = random.Random(97)
    primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    for _ in range(8):
        f, _ = random_instance(rng, max_t=3, max_exp=200)
        if f.shift != 0:
            f = ShiftedLacunary(Fraction(0), f.constant, f.terms)
        bb = make_blackbox(f)
        for p in primes:
            try:
                t_p = np.count_nonzero(reduce_mod(bb, p).coeffs[1:])
            except Exception:
                continue
            assert t_p <= f.t
            slots = [((e - 1) % (p - 1)) + 1 for _, e in f.terms]
            collide = len(set(slots)) != len(slots)
            vanish = any(
                c.numerator % p == 0 or c.denominator % p == 0 for c, _ in f.terms
            )
            if not collide and not vanish:
                assert t_p == f.t, (f, p)


# ---------------- the reconstruction error contract ----------------

def test_reconstruct_turns_every_misfit_into_no_reconstruction(monkeypatch):
    # _reconstruct alone names the four misfits: each comes out as
    # NoReconstruction caused by it, while one from rational reconstruction
    # passes through as it is; _candidate turns all five into None
    bounds = Bounds(ba=1, bt=2, bh=4, bn=4)
    images = collect_images(make_blackbox(unshifted_two_term()), bounds)
    assert si._reconstruct(images, bounds) == unshifted_two_term()

    def raising(exc):
        def fail(*args):
            raise exc
        return fail

    misfits = [("recover_g", InconsistentResidues("residues disagree")),
               ("integer_roots", NotSplitting("no split")),
               ("match_and_recover", NoMatch("slot missing")),
               ("match_and_recover", AmbiguousMatch("slot twice"))]
    for name, exc in misfits:
        with monkeypatch.context() as m:
            m.setattr(si, name, raising(exc))
            with pytest.raises(NoReconstruction, match="images do not fit the bounds") as info:
                si._reconstruct(images, bounds)
            assert info.value.__cause__ is exc
            assert si._candidate(images, bounds) is None
    exc = NoReconstruction("no bounded rational")
    with monkeypatch.context() as m:
        m.setattr(si, "rational_reconstruct", raising(exc))
        with pytest.raises(NoReconstruction) as info:
            si._reconstruct(images, bounds)
        assert info.value is exc
        assert si._candidate(images, bounds) is None


# ---------------- drivers ----------------

def test_sparse_interpolate_two_term():
    got = sparse_interpolate(make_blackbox(unshifted_two_term()), Bounds(ba=1, bt=2, bh=4, bn=4))
    assert got == unshifted_two_term()


def test_sparse_interpolate_constant():
    poly = ShiftedLacunary(Fraction(0), Fraction(7, 3), ())
    got = sparse_interpolate(make_blackbox(poly), Bounds(ba=1, bt=1, bh=5, bn=1))
    assert got == poly


def test_sparse_interpolate_random_round_trip():
    rng = random.Random(101)
    for _ in range(5):
        f, bounds = random_instance(rng, max_t=3, max_exp=1 << 10)
        flat = ShiftedLacunary(Fraction(0), f.constant, f.terms)
        got = sparse_interpolate(make_blackbox(flat), bounds)
        assert got == flat


def test_full_interpolate_golden(golden_poly, golden_bounds):
    got = full_interpolate(make_blackbox(golden_poly), golden_bounds)
    assert got == golden_poly
    assert got.to_json() == golden_poly.to_json()


def test_full_interpolate_monomial():
    f = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 5),))
    got = full_interpolate(make_blackbox(f), Bounds(ba=2, bt=2, bh=2, bn=3))
    assert got == f


def test_full_interpolate_fractional_shift_with_constant():
    f = ShiftedLacunary(Fraction(1, 2), Fraction(4), ((Fraction(3), 2), (Fraction(1), 9)))
    got = full_interpolate(make_blackbox(f), Bounds(ba=4, bt=2, bh=4, bn=4))
    assert got == f


def test_full_interpolate_dense_fallback_converts_exactly():
    # (x+1)^2 = x^2 + 2x + 1 with bt = 1: dense path, then exact conversion
    from lacuna import DenseBox

    got = full_interpolate(DenseBox([1, 2, 1]), Bounds(ba=2, bt=1, bh=3, bn=1))
    assert got.shift == -1
    assert got.terms == ((Fraction(1), 2),)
    assert got.constant == 0


def test_full_interpolate_exact_through_the_complete_shift_search(monkeypatch):
    # an exponent e = (p-1)/2 or 0 modulo p - 1, at the first prime p the
    # shift phase reads, makes p's grid a half-degree power or a spike,
    # whose Hankel filter keeps more shifts than grid_shift checks: the
    # shift phase then runs the dense transform and min_shift, and the solve
    # stays exact.  densepoly's interpolate_range is called only there.
    transforms = []
    dense_kernel = densepoly.interpolate_range

    def counted(values, p):
        transforms.append(p)
        return dense_kernel(values, p)

    monkeypatch.setattr(densepoly, "interpolate_range", counted)
    seen = set()
    for bt in (1, 2):
        bounds = Bounds(ba=4, bt=bt, bh=4, bn=12)
        p = generate(shift_oracle_config(bounds)).next_prime()
        for e in range((p - 1) // 2, (1 << bounds.bn) + 1, (p - 1) // 2):
            f = ShiftedLacunary(Fraction(-7, 3), Fraction(5, 2), ((Fraction(-9, 4), e),))
            transforms.clear()
            assert full_interpolate(make_blackbox(f), bounds) == f, (bt, p, e)
            assert p in transforms, (bt, p, e)
            seen.add((bt, e % (p - 1) == 0))
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


def test_regeneration_outlasts_a_box_that_divides_by_every_reservoir_prime(golden_poly,
                                                                         golden_bounds):
    # The bounds do not bound the denominators a box meets while it
    # evaluates: this program is golden times 1/P times P, P the product of
    # both phases' first reservoirs, so every one of their primes is
    # discarded and only regenerated reservoirs give usable primes.
    shift_stream = generate(shift_oracle_config(golden_bounds))
    interp_stream = generate(interp_oracle_config(golden_bounds))
    big = math.prod(shift_stream.reservoir) * math.prod(interp_stream.reservoir)
    box = ProgramBox([
        ("input",), ("const", 3), ("sub", 0, 1),            # 2: x - 3
        ("mul", 2, 2), ("mul", 3, 3), ("mul", 4, 2),        # 5: (x - 3)^5
        ("mul", 5, 5), ("mul", 6, 5),                       # 7: (x - 3)^15
        ("const", -2), ("mul", 8, 5), ("add", 7, 9),        # 10: golden
        ("const", Fraction(1, big)), ("mul", 10, 11), ("const", big), ("mul", 12, 13),
    ])
    shift = sparsest_shift(box, golden_bounds, stream=shift_stream)
    flat = sparse_interpolate(shifted_blackbox(box, shift.alpha), golden_bounds,
                              stream=interp_stream)
    assert ShiftedLacunary(shift.alpha, flat.constant, flat.terms) == golden_poly
    assert shift_stream.regenerations >= 1
    assert interp_stream.regenerations >= 1


class _VanishesEverywhere(ModularBlackBox):
    """A user box whose every evaluation hits a vanishing denominator."""

    def _eval(self, p, theta):
        raise DenominatorVanished(p)


def test_box_failing_at_every_prime_ends_in_black_box_failure(monkeypatch, golden_bounds):
    # the real limit (10 regenerations) takes seconds to reach
    monkeypatch.setattr(prime_oracle, "_MAX_REGENERATIONS", 1)
    with pytest.raises(BlackBoxFailure):
        full_interpolate(_VanishesEverywhere(), golden_bounds)


def test_signed_lift_bound_guard():
    # symmetric-function size check: |coeffs of g| <= (1 + 2^bn)^bt
    bounds = Bounds(ba=1, bt=2, bh=4, bn=4)
    limit = (1 + (1 << bounds.bn)) ** bounds.bt
    assert limit < 1 << q_target_bits(bounds)
