"""Command-line interface tests (run in-process via run())."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from lacuna import NotSplitting, ShiftedLacunary, make_blackbox
from lacuna import cli, prime_oracle
from lacuna.cli import build_parser, run

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
    assert set(obj) == {"n", "primes"}
    assert obj["n"] == 22
    assert obj["primes"] == [{"p": 47, "q": 23, "k": 2}]


@pytest.mark.parametrize("beta1, beta2, ell", [(0, 0, 1), (3, 5, 7), (40, 20, 30)])
def test_oracle_dumps_the_first_batch_sorted_by_p(capsys, beta1, beta2, ell):
    # the lazy stream dumps what sorting the walk's first batch gives
    code, out, _ = invoke(capsys, "oracle", "--beta1", str(beta1), "--beta2", str(beta2),
                          "--ell", str(ell))
    assert code == 0
    n = prime_oracle.choose_n(beta1 + beta2 + ell)
    batch = sorted(islice(prime_oracle._walk(n), beta1 + beta2 + ell))
    assert json.loads(out) == {"n": n, "primes": [r._asdict() for r in batch]}


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


def test_sq_scan_across_sieve_segments(capsys):
    # [3, 5001) is sieved in segments [3, 6), [6, 12), ..., [3072, 5001)
    code, out, _ = invoke(capsys, "sq", "--scan-to", "5000")
    assert code == 0
    assert json.loads(out) == {"all_hold": True, "checked": 668,
                               "worst": {"S": 7, "q": 3, "ratio": 0.966625}}


def test_oracle_mu_option(capsys, monkeypatch):
    # the bounds alone place n: --mu is gone, and the environment sets nothing
    oracle = ("oracle", "--beta1", "0", "--beta2", "0", "--ell", "1")
    for value in ("1", "2.0", "12"):
        code, _, _ = invoke(capsys, *oracle, "--mu", value)
        assert code == 2
    monkeypatch.setenv("LACUNA_MU", "bogus")
    code, out, _ = invoke(capsys, *oracle)
    assert code == 0 and json.loads(out)["n"] == 22
    # a need whose n would pass 2^30 is refused at once
    start = time.perf_counter()
    code, out, err = invoke(capsys, "oracle", "--beta1", "28498471", "--beta2", "0", "--ell", "1")
    assert (code, out) == (2, "") and "2^30" in err
    assert time.perf_counter() - start < 5


def test_sq_takes_exactly_one_of_q_and_scan_to(capsys):
    # a bare ``sq`` is refused in test_exit_usage_on_bad_args
    for argv in (("sq", "--scan-to", "20", "--q", "3"), ("sq", "--q", "3", "--scan-to", "20")):
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
    # the search cap is the walk's own q^1.89, not an option
    for value in ("1.89", "nan", "1e6"):
        code, out, _ = invoke(capsys, "sq", "--q", "3", "--cap-exp", value)
        assert (code, out) == (2, ""), value


def test_every_cli_flag_is_read():
    # a flag whose dest the command code never reads would do nothing
    source = Path(cli.__file__).read_text()
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest != "help" and f"args.{action.dest}" not in source:
                unread.append((name, action.option_strings))
    assert subparsers.choices
    assert unread == []


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

def lacuna(*argv, python_flags=()):
    """``python -m lacuna.cli`` on this source tree, in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "lacuna.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_module_entry_point_exits_with_run_code():
    # the ``lacuna`` console script calls cli.main, which exits with run()'s code
    poly = '{"terms":[{"coeff":"1","exp":3}]}'
    done = lacuna("eval", "--poly", poly, "--prime", "7", "--point", "2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == "1"  # 2^3 = 8 = 1 mod 7
    assert lacuna("eval", "--poly", poly, "--prime", "9", "--point", "2").returncode == 2


def test_sq_refuses_a_composite_q_from_the_console():
    done = lacuna("sq", "--q", "15")
    assert done.returncode == 2
    assert "must be prime" in done.stderr and not done.stdout


def test_reduce_reads_a_dense_spec_as_its_lacunary_spec_with_shift_0():
    # degree 9 > p - 1 = 6 wraps exponents; trailing zeros are trimmed
    dense = '{"dense":["-1/2","0","3","0","0","5/3","0","0","0","1","0"]}'
    sparse = ('{"shift":"0","constant":"-1/2","terms":[{"coeff":"3","exp":2},'
              '{"coeff":"5/3","exp":5},{"coeff":"1","exp":9}]}')
    got, want = (lacuna("reduce", "--poly", poly, "--prime", "7") for poly in (dense, sparse))
    assert got.returncode == want.returncode == 0, (got.stderr, want.stderr)
    assert got.stdout == want.stdout


def test_golden_interpolate_is_the_same_under_python_O():
    # python -O strips assert statements: no check the answer rests on may be one
    argv = ("interpolate", "--poly", GOLDEN_JSON, "--bounds", GOLDEN_BOUNDS)
    plain, optimized = lacuna(*argv), lacuna(*argv, python_flags=("-O",))
    assert plain.returncode == optimized.returncode == 0, (plain.stderr, optimized.stderr)
    assert optimized.stdout == plain.stdout
    assert plain.stdout == ShiftedLacunary.from_json(GOLDEN_JSON).to_json() + "\n"
