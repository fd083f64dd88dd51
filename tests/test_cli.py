"""Command-line interface tests (run in-process via run())."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lacuna import NotSplitting, ShiftedLacunary, make_blackbox
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
    # 12 starts the walk over q near 4.9e8, and its primes still fit a grid
    start = time.perf_counter()
    code, out, _ = invoke(capsys, *oracle, "--mu", "12")
    assert code == 0 and time.perf_counter() - start < 5
    assert all(rec["p"] < 1 << 31 for rec in json.loads(out)["primes"])
    # 13 and up need a walk starting past 2^30; inf and nan are not finite
    for bad in ("bogus", "0.5", "13", "16", "1e308", "inf", "nan"):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *oracle, "--mu", bad)
        assert code == 2, (bad, err)
        assert time.perf_counter() - start < 5, bad
    # the environment no longer sets it
    monkeypatch.setenv("LACUNA_MU", "bogus")
    code, out, _ = invoke(capsys, *oracle)
    assert code == 0 and json.loads(out)["mu"] == 1.0


# ---------------- exit codes ----------------

@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 16.0 GiB"), "error: out of memory: Unable to allocate 16.0 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, exc, err):
    # a grid too large for memory ends in one line, not a traceback
    def too_large(bb, p):
        raise exc

    monkeypatch.setattr("lacuna.cli.reduce_mod", too_large)
    code, out, got = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", "2147483647")
    assert (code, out, got) == (2, "", err)


def test_exit_usage_on_bad_args(capsys, tmp_path):
    code, _, _ = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", "6")
    assert code == 2
    code, _, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", "BA=4")
    assert code == 2
    code, _, err = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", "BA=1,BT=1,BH=1,BX=1")
    assert code == 2 and "bad bounds entry" in err
    code, _, err = invoke(capsys, "eval", "--poly", GOLDEN_JSON, "--prime", "9", "--point", "2")
    assert code == 2 and "not prime" in err
    code, _, _ = invoke(capsys, "shift", "--poly", GOLDEN_JSON, "--bounds", "BA=-1,BT=2,BH=4,BN=4")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--poly", "not json {", "--prime", "7", "--point", "1")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--poly", GOLDEN_JSON)  # missing args
    assert code == 2
    code, _, _ = invoke(capsys, "sq")  # neither --q nor --scan-to
    assert code == 2
    # checked once, by OracleConfig and ModularBlackBox.eval
    for argv in (("oracle", "--beta1", "-1", "--beta2", "0", "--ell", "1"),
                 ("oracle", "--beta1", "0", "--beta2", "-1", "--ell", "1"),
                 ("oracle", "--beta1", "0", "--beta2", "0", "--ell", "0"),
                 ("eval", "--poly", GOLDEN_JSON, "--prime", "7", "--point", "7"),
                 ("eval", "--poly", GOLDEN_JSON, "--prime", "7", "--point", "-1")):
        code, _, err = invoke(capsys, *argv)
        assert code == 2, (argv, err)
    # malformed polynomial specs: zero denominators, a term without an
    # exponent, dense coefficients that are not a list, exponents that are
    # not JSON integers, and booleans read as rationals
    zero_den = '{"shift":"0","constant":"0","terms":[{"coeff":"1/0","exp":2}]}'
    for poly in ('{"dense":["1","1/0"]}', zero_den, '{"shift":"1/0","terms":[{"coeff":"1","exp":2}]}',
                 '{"terms":[{"coeff":"1"}]}', '{"dense":"12"}',
                 '{"terms":[{"coeff":"1","exp":2.7}]}', '{"terms":[{"coeff":"1","exp":true}]}',
                 '{"terms":[{"coeff":true,"exp":2}]}', '{"terms":[{"coeff":"1","exp":1e400}]}'):
        code, _, err = invoke(capsys, "eval", "--poly", poly, "--prime", "7", "--point", "1")
        assert code == 2, (poly, err)
    # a spec file must hold a JSON object
    path = tmp_path / "poly.json"
    for text in ('["1", "2"]', "5"):
        path.write_text(text)
        code, _, err = invoke(capsys, "eval", "--poly", str(path), "--prime", "7", "--point", "1")
        assert code == 2, (text, err)
    code, _, _ = invoke(capsys, "interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS,
                        "--assume-shift", "1/0")
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


def test_exit_reconstruction_on_any_library_error(capsys, monkeypatch):
    # a library error without an exit code of its own, here raised inside
    # the dense shift search, exits 3 instead of escaping as a traceback
    def not_splitting(coeffs, ba):
        raise NotSplitting("equal-degree splitting failed to converge")

    # the package re-exports the function under the module's name
    monkeypatch.setattr(sys.modules["lacuna.sparsest_shift"], "dense_sparsest_shift", not_splitting)
    code, _, err = invoke(capsys, "shift", "--poly", '{"dense":["1","2","1"]}',
                          "--bounds", "BA=2,BT=1,BH=2,BN=2")
    assert code == 3
    assert "splitting" in err


def test_reduce_rejects_huge_prime_before_primality_test(capsys, monkeypatch):
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    for module in ("cli", "densepoly", "modular_core"):
        monkeypatch.setattr(f"lacuna.{module}.is_prime", no_primality_test)
    code, _, err = invoke(capsys, "reduce", "--poly", GOLDEN_JSON, "--prime", str(2**89 - 1))
    assert code == 2
    assert "2^31" in err


def test_eval_and_sq_reject_huge_prime_before_primality_test(capsys, monkeypatch):
    # past the proven witness range is_prime refuses before any witness test
    big = "1676789783212331770922271776557"

    def no_witness_test(n, a):
        raise AssertionError(f"_mr_witness({n}, {a}) called")

    monkeypatch.setattr("lacuna.modular_core._mr_witness", no_witness_test)
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


# ---------------- console entry point ----------------

def test_module_entry_point_exits_with_run_code():
    # the ``lacuna`` console script calls cli.main, which exits with run()'s code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    poly = '{"terms":[{"coeff":"1","exp":3}]}'

    def lacuna(prime):
        return subprocess.run(
            [sys.executable, "-m", "lacuna.cli", "eval", "--poly", poly, "--prime", prime, "--point", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = lacuna("7")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == "1"  # 2^3 = 8 = 1 mod 7
    assert lacuna("9").returncode == 2
