"""Command-line interface tests (run in-process via run())."""

import json
import random
from fractions import Fraction

import pytest

from lacuna import ShiftedLacunary, make_blackbox
from lacuna.cli import run

from conftest import GOLDEN_JSON

GOLDEN_BOUNDS = "BA=4,BT=2,BH=4,BN=4"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


# ---------------- eval / reduce ----------------

def test_eval(capsys):
    code, out, _ = invoke(capsys, "eval", "--poly", GOLDEN_JSON, "--prime", "7", "--point", "4")
    assert code == 0
    assert json.loads(out) == {"p": 7, "point": 4, "value": "6"}


def test_reduce_golden(capsys):
    code, out, _ = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", "7")
    assert code == 0
    assert json.loads(out) == {"p": 7, "coeffs": ["4", "1", "6", "3", "2", "5"]}


def test_reduce_from_file(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(GOLDEN_JSON)
    code, out, _ = invoke(capsys, "reduce", "--poly", str(path), "--prime", "7")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["4", "1", "6", "3", "2", "5"]


# ---------------- shift / interpolate ----------------

def test_shift(capsys):
    code, out, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS)
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == "3"
    assert obj["path"] == "modular"
    assert obj["residues"]
    for r in obj["residues"]:
        assert int(r["alpha_p"]) == 3 % int(r["p"])


def test_interpolate_round_trip_bytes(capsys):
    code, out, _ = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS)
    assert code == 0
    assert out == ShiftedLacunary.from_json(GOLDEN_JSON).to_json()


def test_interpolate_dense_input(capsys):
    code, out, _ = invoke(
        capsys, "interpolate", "--poly", '{"dense":["-1/2","1","3"]}', "--bounds", "BA=2,BT=1,BH=3,BN=2"
    )
    assert code == 0
    obj = json.loads(out)
    got = ShiftedLacunary.from_json(json.dumps(obj))
    assert got.evaluate_exact(Fraction(2, 3)) == Fraction(3) * Fraction(4, 9) + Fraction(2, 3) - Fraction(1, 2)


def test_interpolate_assume_shift(capsys):
    code, out, _ = invoke(
        capsys,
        "interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS, "--assume-shift", "3",
    )
    assert code == 0
    assert out == ShiftedLacunary.from_json(GOLDEN_JSON).to_json()


def test_interpolate_then_eval_agreement(capsys):
    code, out, _ = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS)
    assert code == 0
    recovered = ShiftedLacunary.from_json(out)
    bb = make_blackbox(recovered)
    src = make_blackbox(ShiftedLacunary.from_json(GOLDEN_JSON))
    rng = random.Random(3)
    primes = [p for p in range(5, 500) if all(p % d for d in range(2, p))]
    for _ in range(20):
        p = rng.choice(primes)
        theta = rng.randrange(p)
        assert bb.eval(p, theta) == src.eval(p, theta)


def test_pretty_format(capsys):
    code, out, _ = invoke(
        capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS, "--format", "pretty"
    )
    assert code == 0
    assert "alpha = 3" in out


# ---------------- oracle / sq ----------------

def test_oracle_dump(capsys):
    code, out, _ = invoke(capsys, "oracle", "--beta1", "0", "--beta2", "0", "--ell", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 22
    assert obj["mu"] == 1.0
    assert obj["primes"] == [{"p": 47, "q": 23, "k": 2}]


def test_sq_single(capsys):
    code, out, _ = invoke(capsys, "sq", "--q", "3")
    assert code == 0
    assert json.loads(out) == {"q": 3, "S": 7, "conjecture_holds": True}


def test_sq_scan(capsys):
    code, out, _ = invoke(capsys, "sq", "--scan-to", "500")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert obj["checked"] == 94  # odd primes up to 500


def test_oracle_mu_option(capsys, monkeypatch):
    oracle = ("oracle", "--beta1", "0", "--beta2", "0", "--ell", "1")
    code, out, _ = invoke(capsys, *oracle, "--mu", "2.0")
    assert code == 0
    assert json.loads(out)["mu"] == 2.0
    for bad in ("bogus", "0.5"):
        code, _, _ = invoke(capsys, *oracle, "--mu", bad)
        assert code == 2
    # the environment no longer sets it
    monkeypatch.setenv("LACUNA_MU", "bogus")
    code, out, _ = invoke(capsys, *oracle)
    assert code == 0 and json.loads(out)["mu"] == 1.0


# ---------------- exit codes ----------------

def test_exit_usage_on_bad_args(capsys):
    code, _, _ = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", "6")
    assert code == 2
    code, _, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", "BA=4")
    assert code == 2
    code, _, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", "BA=-1,BT=2,BH=4,BN=4")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--poly", "not json {", "--prime", "7", "--point", "1")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--poly", GOLDEN_JSON)  # missing args
    assert code == 2
    code, _, _ = invoke(capsys, "sq")  # neither --q nor --scan-to
    assert code == 2
    # the strategy switch, the no-op parallelism flag and the knobs only the
    # oracle's own dump reads are gone
    for flag in ("--threads", "--interp-threshold", "--seed", "--mu"):
        code, _, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS, flag, "1")
        assert code == 2


def test_exit_reconstruction_failure(capsys):
    # shift 5 cannot fit |a|, b <= 2^1
    poly = '{"shift":"5","constant":"0","terms":[{"coeff":"1","exp":9}]}'
    code, _, err = invoke(capsys, "shift", "--poly", poly, "--bounds", "BA=1,BT=1,BH=2,BN=4")
    assert code == 3
    assert "reconstruction" in err.lower()


def test_exit_reconstruction_failure_on_violated_degree_bound(capsys):
    # degree 15 needs BN = 4; with BN = 3 the image set never yields a
    # consistent answer, which is a reconstruction failure, not a box failure
    code, _, err = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", "BA=4,BT=2,BH=4,BN=3")
    assert code == 3
    assert "reconstruction" in err.lower()


def test_reduce_rejects_huge_prime_before_primality_test(capsys, monkeypatch):
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    for module in ("cli", "blackbox", "densepoly", "modular_core"):
        monkeypatch.setattr(f"lacuna.{module}.is_prime", no_primality_test)
    code, _, err = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", str(2**89 - 1))
    assert code == 2
    assert "2^31" in err


def test_eval_and_sq_reject_huge_prime_before_primality_test(capsys, monkeypatch):
    # proving this prime needs p - 1 = 84 * q1 * q2 factored, with q1 and q2
    # near 2^47: about 20 s of Pollard rho
    big = "1676789783212331770922271776557"

    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    for module in ("cli", "prime_oracle", "modular_core"):
        monkeypatch.setattr(f"lacuna.{module}.is_prime", no_primality_test)
    code, _, err = invoke(capsys, "eval", "--poly", GOLDEN_JSON, "--prime", big, "--point", "0")
    assert code == 2
    assert "not accepted" in err
    code, _, err = invoke(capsys, "sq", "--q", big)
    assert code == 2
    assert "not accepted" in err


def test_exit_reconstruction_failure_on_violated_term_bound(capsys):
    # the golden polynomial has two terms: with BT = 1 no prime gives a
    # unique one-term shift, and the prime budget runs out
    code, _, err = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", "BA=4,BT=1,BH=4,BN=4")
    assert code == 3
    assert "reconstruction" in err.lower()


def test_exit_blackbox_failure(capsys):
    poly = '{"shift":"0","constant":"0","terms":[{"coeff":"1/3","exp":1}]}'
    code, _, err = invoke(capsys, "eval", "--poly", poly, "--prime", "3", "--point", "1")
    assert code == 4
    assert "black-box" in err.lower()


def test_output_is_canonical_json(capsys):
    code, out, _ = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
