"""Black box construction, reduction, and serialization tests."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    DenseBox,
    DenominatorVanished,
    DensePolyMod,
    ProgramBox,
    ShiftedLacunary,
    canonical_json,
    interpolate_sparse,
    make_blackbox,
    reduce_mod,
    next_prime_above,
    shifted_blackbox,
)
from lacuna import blackbox
from lacuna.densepoly import _mod

from conftest import (
    GOLDEN_JSON,
    naive_frac_mod,
    naive_program_value,
    naive_termwise_reduction,
    random_instance,
)


def expand_golden_dense():
    """(x-3)^15 - 2(x-3)^5 over Q, expanded by schoolbook products."""
    out = [Fraction(0)] * 16
    for c, e in ((Fraction(1), 15), (Fraction(-2), 5)):
        term = [c]
        for _ in range(e):
            nxt = [Fraction(0)] * (len(term) + 1)
            for i, t in enumerate(term):
                nxt[i + 1] += t
                nxt[i] -= 3 * t
            term = nxt
        for i, t in enumerate(term):
            out[i] += t
    return out


# ---------------- make_blackbox ----------------

def test_eval_golden(golden_box):
    # (4-3)^15 - 2*(4-3)^5 = -1 = 6 mod 7
    assert golden_box.eval(7, 4) == 6


def test_eval_constant():
    bb = make_blackbox(ShiftedLacunary(Fraction(0), Fraction(5), ()))
    for p in (7, 11, 101):
        for theta in (0, 1, p - 1):
            assert bb.eval(p, theta) == 5 % p


def test_eval_denominator_vanished():
    bb = make_blackbox(ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1, 3), 1),)))
    with pytest.raises(DenominatorVanished):
        bb.eval(3, 1)
    assert bb.eval(5, 1) == 2  # 1/3 = 2 mod 5


def test_eval_purity_and_validation(golden_box):
    assert golden_box.eval(13, 5) == golden_box.eval(13, 5)
    with pytest.raises(ValueError):
        golden_box.eval(7, 7)
    with pytest.raises(ValueError):
        golden_box.eval(1, 0)


# ---------------- reduce_mod ----------------

def test_reduce_golden(golden_box):
    fp = reduce_mod(golden_box, 7)
    assert fp.coeffs.tolist() == [4, 1, 6, 3, 2, 5]


def test_reduce_constant():
    bb = make_blackbox(ShiftedLacunary(Fraction(0), Fraction(5), ()))
    assert reduce_mod(bb, 11).coeffs.tolist() == [5]


def test_reduce_unshifted_golden():
    f = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 15), (Fraction(-2), 5)))
    fp = reduce_mod(make_blackbox(f), 7)
    # 15 offset-reduces to 3 mod 6 and 5 stays: x^3 - 2x^5 = x^3 + 5x^5
    assert fp.coeffs.tolist() == [0, 0, 0, 1, 0, 5]
    want = naive_termwise_reduction(f, 7)
    assert list(fp.coeffs) == want


def test_reduce_counts_exactly_p_calls(golden_box):
    before = golden_box.calls
    reduce_mod(golden_box, 13)
    assert golden_box.calls - before == 13
    before = golden_box.calls
    reduce_mod(golden_box, 101)
    assert golden_box.calls - before == 101


def test_reduce_rejects_composite(golden_box):
    with pytest.raises(ValueError):
        reduce_mod(golden_box, 6)


def test_reduce_propagates_vanished_denominator():
    f = ShiftedLacunary(Fraction(1, 7), Fraction(0), ((Fraction(1), 9),))
    with pytest.raises(DenominatorVanished):
        reduce_mod(make_blackbox(f), 7)


def test_reduce_equals_termwise_reduction_on_fixtures(golden_poly):
    fixtures = [
        golden_poly,
        ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 5),)),
        ShiftedLacunary(Fraction(-1, 2), Fraction(4), ((Fraction(3), 2), (Fraction(1), 9))),
        ShiftedLacunary(Fraction(5), Fraction(-7, 3), ((Fraction(2, 5), 100), (Fraction(-1), 4000))),
    ]
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    for f in fixtures:
        bb = make_blackbox(f)
        for p in primes:
            want = naive_termwise_reduction(f, p)
            if want is None:
                with pytest.raises(DenominatorVanished):
                    reduce_mod(bb, p)
                continue
            assert list(reduce_mod(bb, p).coeffs) == want, (f, p)


def test_forty_term_box_past_2_20_matches_termwise_reduction():
    # above 2^20 the grid adds all 40 term products before it reduces, and the
    # sparse kernel's recurrence check reduces after each of its 80 products
    p = next_prime_above(1 << 20)
    rng = random.Random(41)
    terms = tuple((Fraction(rng.choice((-1, 1)) * rng.randrange(1, 1 << 80), rng.randrange(1, 1 << 20)),
                   k + rng.randrange(3) * (p - 1))  # exponents offset-reduce to k
                  for k in rng.sample(range(1, 81), 40))
    f = ShiftedLacunary(Fraction(-7, 3), Fraction(12345678901234567, 89), terms)
    want = DensePolyMod(p, naive_termwise_reduction(f, p))
    assert want.degree > 40
    assert interpolate_sparse(make_blackbox(f).eval_range(p), p, 80) == want


# ---------------- alternative boxes ----------------

def test_dense_box_trims_trailing_zeros():
    padded, plain = DenseBox([1, 2, 0, 0]), DenseBox([1, 2])
    assert padded.coeffs == (1, 2)
    for p in (2, 7, 31):
        assert padded.eval_range(p).tolist() == plain.eval_range(p).tolist()


def test_dense_box_matches_termwise(golden_poly):
    dense = DenseBox(expand_golden_dense())
    sparse = make_blackbox(golden_poly)
    for p in (7, 11, 31):
        assert dense.eval_range(p).tolist() == sparse.eval_range(p).tolist()


def test_program_box():
    # ((x * x) - 2/3) * x  =  x^3 - (2/3)x
    prog = ProgramBox([
        ("input",),
        ("mul", 0, 0),
        ("const", Fraction(2, 3)),
        ("sub", 1, 2),
        ("mul", 3, 0),
    ])
    assert prog.eval(7, 2) == (8 - 2 * pow(3, -1, 7) * 2) % 7
    with pytest.raises(DenominatorVanished):
        prog.eval(3, 1)
    with pytest.raises(ValueError):
        ProgramBox([("mul", 0, 1)])


@pytest.mark.parametrize("ops", [
    [],
    [("const",)],
    [("input",), ("add", 0)],
    [("const", "abc")],
    [("const", "1/0")],
    [("const", None)],
    [("const", 1, 2)],
    [("input", 0)],
    [("neg", 0)],
    [()],
    ["input"],
    [("input",), ("mul", 0, 1)],
    [("input",), ("add", 0, "0")],
    [("input",), ("add", 0, 0.0)],
    [("input",), ("add", 0, True)],
    [("input",), ("add", 0, np.int64(1))],
])
def test_program_box_rejects_malformed_program_at_construction(ops):
    with pytest.raises(ValueError):
        ProgramBox(ops)


def test_program_box_accepts_numpy_integer_operands():
    i0, i1 = np.int64(0), np.int32(1)
    prog = ProgramBox([("input",), ("const", 3), ("mul", i0, i1), ("add", np.int64(2), i0)])
    assert all(type(r) is int for op in prog.ops[2:] for r in op[1:])
    assert prog.eval(7, 2) == 1 and prog.eval_range(7).tolist() == [4 * x % 7 for x in range(7)]


def random_program(rng, length):
    """Random instruction list; the constants' denominators vanish at 2, 3, 5 or 7."""
    ops = [("input",)]
    while len(ops) < length:
        r = rng.random()
        if r < 0.15:
            ops.append(("input",))
        elif r < 0.4:
            ops.append(("const", Fraction(rng.randint(-60, 60), rng.choice((1, 1, 1, 2, 9, 35)))))
        else:
            kind = rng.choice(("add", "sub", "mul"))
            ops.append((kind, rng.randrange(len(ops)), rng.randrange(len(ops))))
    return ops


def program_image(ops, p, points):
    """The reference values mod p of the program at points, or None when a
    constant's denominator vanishes mod p."""
    if any(op[0] == "const" and Fraction(op[1]).denominator % p == 0 for op in ops):
        return None
    return [naive_frac_mod(naive_program_value(ops, x), p) for x in points]


def assert_grid_matches_reference(ops, p):
    bb = ProgramBox(ops)
    want = program_image(ops, p, range(p))
    if want is None:
        with pytest.raises(DenominatorVanished):
            bb.eval_range(p)
        assert bb.calls == 0
        return
    values = bb.eval_range(p)
    assert values.dtype == np.int64 and values.shape == (p,)
    assert values.tolist() == want, (ops, p)
    assert bb.calls == p


def test_program_box_grid_matches_exact_reference():
    rng = random.Random(606)
    for p in (2, 3, 5, 7, 31, 101, 1009):
        for _ in range(12):
            assert_grid_matches_reference(random_program(rng, rng.randint(2, 12)), p)


@pytest.mark.parametrize("ops", [
    [("const", Fraction(-7, 4))],                                 # never reads its input
    [("const", 3), ("const", 5), ("mul", 0, 1)],
    [("input",)],                                                 # the result is the input
    [("input",), ("const", Fraction(1, 2)), ("mul", 0, 1), ("input",)],
    [("input",), ("const", Fraction(1, 7)), ("mul", 0, 1)],       # vanishes at p = 7
])
def test_program_box_grid_edge_programs(ops):
    for p in (2, 3, 7, 13):
        assert_grid_matches_reference(ops, p)


def test_program_box_grid_is_fresh_and_read_only():
    bb = ProgramBox([("const", 4)])
    values = bb.eval_range(11)
    assert values.tolist() == [4] * 11 and not values.flags.writeable
    assert bb.eval_range(11) is not values


def test_program_box_scalar_path_exact_past_int64():
    # products of residues near a 70-bit prime wrap in int64: the scalar
    # path must stay on Python ints
    p = next_prime_above(1 << 70)
    assert p > 1 << 64
    rng = random.Random(607)
    programs = [
        [("input",), ("mul", 0, 0), ("mul", 1, 0), ("const", -1), ("mul", 2, 3)],
        *(random_program(rng, 10) for _ in range(6)),
    ]
    points = (p - 1, p - 2, p // 2, 12345)
    for ops in programs:
        bb = ProgramBox(ops)
        want = program_image(ops, p, points)
        assert [bb.eval(p, x) for x in points] == want, ops


def test_program_box_array_path_no_overflow_near_grid_limit():
    # at p = 2^31 - 1 a product of two residues near p is near 2^62
    p = (1 << 31) - 1
    points = [p - 1, p - 2, p - 3, p // 2 + 1, 1]
    rng = random.Random(608)
    programs = [
        [("input",), ("mul", 0, 0)],
        [("input",), ("const", -1), ("mul", 0, 1), ("mul", 2, 2), ("add", 3, 3)],
        [("input",), ("const", Fraction(-1, 3)), ("sub", 1, 0), ("mul", 2, 2)],
        *(random_program(rng, 10) for _ in range(6)),
    ]
    for ops in programs:
        want = program_image(ops, p, points)
        got = ProgramBox(ops)._eval(p, np.array(points, dtype=np.int64))
        assert np.broadcast_to(got, (len(points),)).tolist() == want, ops


# Registers are reduced only where the next operation could leave int64:
# these programs run long enough for the bounds to pass 2^63 many times.
SCHEDULE_GRID_PRIMES = (2, 3, 7, 4093)                    # every point of Z_p
SCHEDULE_POINT_PRIMES = (65521, 2097143, (1 << 31) - 1)   # a few points near p
SCALAR_PRIME = next_prime_above(1 << 70)


def schedule_points(p):
    return [p - 1, p - 2, p // 2 + 1, 2, 1, 0]


def squaring_chain(k, shift):
    """(x - shift)^(2^k) by k squarings; the first squares an unreduced difference."""
    return [("input",), ("const", shift), ("sub", 0, 1),
            *(("mul", r, r) for r in range(2, k + 2))]


def fan_in(rng, n):
    """A sum of n products of x and constants of both signs, added or
    subtracted in turn; every term is a fresh product, bound p^2 or p^3."""
    ops = [("input",), ("const", rng.randint(-9, 9))]
    acc = 1
    for _ in range(n):
        ops.append(("const", Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 1, 2, 5)))))
        ops.append(("mul", 0, len(ops) - 1))
        if rng.random() < 0.5:
            ops.append(("mul", len(ops) - 1, 0))
        ops.append((rng.choice(("add", "sub")), acc, len(ops) - 1))
        acc = len(ops) - 1
    return ops


def deep_program(rng, length, max_degree=256):
    """A random program whose operands are mostly recent registers, so its
    products nest; no register passes degree max_degree in x, which keeps
    the exact reference cheap."""
    ops, degree = [("input",)], [1]
    while len(ops) < length:
        r = rng.random()
        if r < 0.1:
            ops.append(("const", Fraction(rng.randint(-10**9, 10**9), rng.choice((1, 1, 1, 3)))))
            degree.append(0)
            continue
        if r < 0.15:
            ops.append(("input",))
            degree.append(1)
            continue
        i = rng.randrange(max(0, len(ops) - 4), len(ops))
        j = rng.choice((i, rng.randrange(len(ops))))
        kind = rng.choice(("add", "sub", "mul", "mul"))
        if kind == "mul" and degree[i] + degree[j] > max_degree:
            kind = rng.choice(("add", "sub"))
        ops.append((kind, i, j))
        degree.append(degree[i] + degree[j] if kind == "mul" else max(degree[i], degree[j]))
    return ops


def assert_schedule_exact(ops, want=None):
    """The program's values against the exact reference: the whole grid at
    the small primes, a few points near p at the others (both on the array
    path), and the scalar path at a 70-bit prime.  want(p, points) replaces
    program_image when given; either gives None where a denominator
    vanishes mod p."""
    want = want or (lambda p, points: program_image(ops, p, points))

    def grid(p, points):
        return ProgramBox(ops).eval_range(p).tolist()

    def array(p, points):
        got = ProgramBox(ops)._eval(p, np.array(points, dtype=np.int64))
        return np.broadcast_to(got, (len(points),)).tolist()

    def scalar(p, points):
        bb = ProgramBox(ops)
        return [bb.eval(p, x) for x in points]

    cases = [*((grid, p, range(p)) for p in SCHEDULE_GRID_PRIMES),
             *((array, p, schedule_points(p)) for p in SCHEDULE_POINT_PRIMES),
             (scalar, SCALAR_PRIME, schedule_points(SCALAR_PRIME))]
    for run, p, points in cases:
        expected = want(p, points)
        if expected is None:
            with pytest.raises(DenominatorVanished):
                run(p, points)
        else:
            assert run(p, points) == expected, (ops, p)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 40])
def test_program_box_squaring_chains_exact(k):
    # (x - s)^(2^40) has too many digits for exact rationals: the reference
    # is Python's exact modular pow
    shift = Fraction(-5, 2)

    def want(p, points):
        s = naive_frac_mod(shift, p)
        return None if s is None else [pow(x - s, 1 << k, p) for x in points]

    ops = squaring_chain(k, shift)
    if k <= 8:
        points = schedule_points(SCALAR_PRIME)
        assert want(SCALAR_PRIME, points) == program_image(ops, SCALAR_PRIME, points)
    assert_schedule_exact(ops, want)


def test_program_box_fan_ins_exact():
    # a fan-in is a quadratic over Q: its exact value at 0, 1 and -1 gives
    # the reference on a whole grid at the cost of three program runs
    def quadratic_image(ops):
        f0, f1, fm = (naive_program_value(ops, x) for x in (0, 1, -1))
        b, c = (f1 - fm) / 2, (f1 + fm) / 2 - f0
        return lambda p, points: (
            None if any(op[0] == "const" and Fraction(op[1]).denominator % p == 0 for op in ops)
            else [naive_frac_mod(f0 + b * x + c * x * x, p) for x in points])

    rng = random.Random(609)
    for n in (1, 2, 3, 50, 200):
        ops = fan_in(rng, n)
        # the result an unreduced difference of the sum and 10^6 x
        with_tail = ops + [("const", 10**6), ("mul", 0, len(ops)), ("sub", len(ops) - 1, len(ops) + 1)]
        for prog in (ops, with_tail):
            assert_schedule_exact(prog, quadratic_image(prog))
            points = schedule_points(4093)
            assert quadratic_image(prog)(4093, points) == program_image(prog, 4093, points)


def test_program_box_deep_random_programs_exact():
    rng = random.Random(610)
    for length in (20, 40, 60, 80):
        assert_schedule_exact(deep_program(rng, length))


@pytest.mark.parametrize("tail", [
    [("input",)],                     # the result is the caller's input
    [("const", Fraction(-7, 11))],    # the result is a constant
    [("const", 3), ("sub", 10, 9)],   # 3 - x^512, an unreduced negative difference
])
def test_program_box_schedule_result_kinds(tail):
    assert_schedule_exact([("input",), *(("mul", r, r) for r in range(9)), *tail])


def test_program_box_never_writes_the_callers_array():
    rng = random.Random(611)
    programs = [
        [("input",)],
        [("input",), ("input",), ("sub", 0, 1)],
        squaring_chain(12, 3),
        deep_program(rng, 40),
        fan_in(rng, 20),
    ]
    for p in (7, 4093, (1 << 31) - 1):
        points = schedule_points(p)
        for ops in programs:
            x = np.array(points, dtype=np.int64)
            x.flags.writeable = False
            want = program_image(ops, p, points)
            if want is None:
                continue
            got = ProgramBox(ops)._eval(p, x)
            assert np.broadcast_to(got, (len(points),)).tolist() == want, (ops, p)
            assert x.tolist() == points
    bb = ProgramBox([("input",)])
    values = bb.eval_range(13)
    assert values.tolist() == list(range(13)) and not values.flags.writeable
    again = bb.eval_range(13)
    assert again is not values and not again.flags.writeable


def count_reductions(monkeypatch):
    calls = []

    def counted(x, m):
        calls.append(m)
        return _mod(x, m)

    monkeypatch.setattr(blackbox, "_mod", counted)
    return calls


def test_program_box_reduces_only_near_int64(monkeypatch):
    # x^(2^16) by 16 squarings: at p = 4093 < 2^12 four residues multiply
    # below 2^48, so every other square is left unreduced; at 2^31 - 1 two
    # residues fill 2^62, so every product needs one reduction
    calls = count_reductions(monkeypatch)
    ops = [("input",), *(("mul", r, r) for r in range(16))]
    p = 4093
    assert ProgramBox(ops).eval_range(p).tolist() == [pow(x, 1 << 16, p) for x in range(p)]
    assert 0 < len(calls) <= 16 // 2
    calls.clear()
    p = (1 << 31) - 1
    points = schedule_points(p)
    got = ProgramBox(ops)._eval(p, np.array(points, dtype=np.int64))
    assert got.tolist() == [pow(x, 1 << 16, p) for x in points]
    assert len(calls) == 16


def test_program_box_array_path_refuses_a_product_past_int64():
    # from p >= 2^31 on, the plan's bound 2^b - 1 lets two residues multiply
    # past 2^63: the array path raises instead of wrapping, while the
    # scalar path stays exact
    bb = ProgramBox([("input",), ("mul", 0, 0)])
    for p in (next_prime_above(1 << 31), next_prime_above(1 << 32)):
        with pytest.raises(RuntimeError):
            bb._eval(p, np.array([p - 1], dtype=np.int64))
        assert bb.eval(p, p - 1) == 1


# ---------------- shifted_blackbox ----------------

def test_shifted_box_golden(golden_box):
    sb = shifted_blackbox(golden_box, Fraction(3))
    assert sb.eval(7, 0) == 0  # f(3) = 0 exactly


def test_shifted_box_zero_is_identity(golden_box):
    sb = shifted_blackbox(golden_box, Fraction(0))
    for p in (7, 13):
        for theta in range(p):
            assert sb.eval(p, theta) == golden_box.eval(p, theta)


def test_shifted_box_fractional():
    bb = make_blackbox(ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 1),)))
    sb = shifted_blackbox(bb, Fraction(1, 2))
    assert sb.eval(5, 0) == 3  # 1/2 = 3 mod 5
    with pytest.raises(DenominatorVanished):
        sb.eval(2, 0)


def test_shifted_box_range_matches_pointwise(golden_box):
    # every box's grid evaluation against its pointwise one
    boxes = [
        shifted_blackbox(golden_box, Fraction(5, 3)),
        DenseBox(expand_golden_dense()),
        ProgramBox([("input",), ("mul", 0, 0), ("const", Fraction(2, 3)), ("sub", 1, 2)]),
    ]
    p = 29
    for bb in boxes:
        values = bb.eval_range(p)
        assert values.dtype == np.int64
        assert values.tolist() == [bb.eval(p, i) for i in range(p)]


def test_eval_range_rejects_non_grid_moduli_before_any_query(golden_box):
    # 2^31 + 11 is past the grid limit and 15 is composite: a point-by-point
    # fallback would make p queries
    def no_query(p, theta):
        raise AssertionError(f"_eval({p}, {theta}) called")

    boxes = [
        golden_box,
        shifted_blackbox(golden_box, Fraction(5, 3)),
        DenseBox(expand_golden_dense()),
        ProgramBox([("input",), ("mul", 0, 0), ("const", Fraction(2, 3)), ("sub", 1, 2)]),
    ]
    for bb in boxes:
        bb._eval = no_query
        for p in ((1 << 31) + 11, 15):
            with pytest.raises(ValueError):
                bb.eval_range(p)
        assert bb.calls == 0


# ---------------- oracle equivalence over random instances ----------------

def test_reduce_equals_termwise_random_instances():
    rng = random.Random(67)
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    for _ in range(12):
        f, _ = random_instance(rng, max_exp=1 << 12)
        bb = make_blackbox(f)
        for p in rng.sample(primes, 6):
            want = naive_termwise_reduction(f, p)
            if want is None:
                continue
            assert list(reduce_mod(bb, p).coeffs) == want


# ---------------- JSON ----------------

def test_json_round_trip(golden_poly):
    text = golden_poly.to_json()
    again = ShiftedLacunary.from_json(text)
    assert again == golden_poly
    assert again.to_json() == text
    # canonical form: sorted keys, compact separators, exponents ascending
    assert ShiftedLacunary.from_json(GOLDEN_JSON).to_json() == canonical_json(
        {
            "shift": "3",
            "constant": "0",
            "terms": [{"coeff": "-2", "exp": 5}, {"coeff": "1", "exp": 15}],
        }
    )


def test_json_rationals_as_strings():
    f = ShiftedLacunary(Fraction(1, 2), Fraction(-7, 3), ((Fraction(2, 5), 4),))
    obj = json.loads(f.to_json())
    assert obj["shift"] == "1/2"
    assert obj["constant"] == "-7/3"
    assert obj["terms"] == [{"coeff": "2/5", "exp": 4}]


def test_shifted_lacunary_validation():
    with pytest.raises(ValueError):
        ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(0), 1),))
    with pytest.raises(ValueError):
        ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 0),))
    with pytest.raises(ValueError):
        ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 2), (Fraction(2), 2)))
    # exponents must be integers: no float, bool or string is read as one
    for e in (2.7, True, "3"):
        with pytest.raises(ValueError, match="integers"):
            ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), e),))
    for text in ("[1]", "3", "null"):
        with pytest.raises(ValueError, match="JSON object"):
            ShiftedLacunary.from_json(text)
    # terms are sorted on construction
    f = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 9), (Fraction(2), 3)))
    assert [e for _, e in f.terms] == [3, 9]
