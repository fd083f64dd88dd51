"""Black box construction, reduction, and serialization tests."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    DenseBox,
    DenominatorVanished,
    ProgramBox,
    ShiftedLacunary,
    canonical_json,
    make_blackbox,
    reduce_mod,
    shifted_blackbox,
)

from conftest import GOLDEN_JSON, naive_termwise_reduction, random_instance


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


# ---------------- alternative boxes ----------------

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
    # terms are sorted on construction
    f = ShiftedLacunary(Fraction(0), Fraction(0), ((Fraction(1), 9), (Fraction(2), 3)))
    assert [e for _, e in f.terms] == [3, 9]
