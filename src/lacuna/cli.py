"""Command-line front end exposing every pipeline stage.

Exit codes: 0 success, 2 invalid arguments or bounds (each checked once,
by the library type or method that takes it) or a problem too large for
memory, 3 reconstruction failure (bounds too small for the data) or any
other library error, 4 black-box failure.
"""

import argparse
import json
import math
import sys

from . import prime_oracle
from .blackbox import (
    DenseBox,
    ShiftedLacunary,
    _fmt_rat,
    _parse_rat,
    canonical_json,
    make_blackbox,
    reduce_mod,
)
from .errors import BlackBoxFailure, DenominatorVanished, LacunaError
from .modular_core import is_prime
from .sparse_interp import full_interpolate, sparse_interpolate
from .sparsest_shift import Bounds, sparsest_shift

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RECONSTRUCTION = 3
EXIT_BLACKBOX = 4


def _load_poly_spec(text: str):
    """Parse --poly: inline JSON (starts with '{') or a path to a JSON file."""
    raw = text.strip()
    if not raw.startswith("{"):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read().strip()
    obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise ValueError("a polynomial spec must be a JSON object")
    if "dense" in obj:
        if not isinstance(obj["dense"], list):
            raise ValueError('"dense" must be a list of rationals')
        return DenseBox([_parse_rat(s) for s in obj["dense"]])
    return make_blackbox(ShiftedLacunary.from_json(raw))


def _parse_bounds(text: str) -> Bounds:
    vals = {}
    for part in text.split(","):
        key, _, num = part.partition("=")
        key = key.strip().upper()
        if key not in ("BA", "BT", "BH", "BN") or not num.strip().lstrip("-").isdigit():
            raise ValueError(f"bad bounds entry {part!r}")
        vals[key] = int(num)
    missing = {"BA", "BT", "BH", "BN"} - set(vals)
    if missing:
        raise ValueError(f"bounds missing {sorted(missing)}")
    return Bounds(ba=vals["BA"], bt=vals["BT"], bh=vals["BH"], bn=vals["BN"])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "pretty"), default="json")

    ap = argparse.ArgumentParser(
        prog="lacuna",
        description="Interpolate rational polynomials in their sparsest shifted power basis",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate the black box at one point")
    p_eval.add_argument("--poly", required=True)
    p_eval.add_argument("--prime", type=int, required=True)
    p_eval.add_argument("--point", type=int, required=True)

    p_red = sub.add_parser("reduce", parents=[common], help="dense reduction modulo one prime")
    p_red.add_argument("--poly", required=True)
    p_red.add_argument("--prime", type=int, required=True)

    p_shift = sub.add_parser("shift", parents=[common], help="recover the sparsest shift")
    p_shift.add_argument("--poly", required=True)
    p_shift.add_argument("--bounds", required=True, help="BA=..,BT=..,BH=..,BN=..")

    p_int = sub.add_parser(
        "interpolate", parents=[common], help="full recovery into the shifted sparse basis"
    )
    p_int.add_argument("--poly", required=True)
    p_int.add_argument("--bounds", required=True, help="BA=..,BT=..,BH=..,BN=..")
    p_int.add_argument("--assume-shift", default=None, help="skip shift recovery, use this shift")

    p_or = sub.add_parser(
        "oracle", parents=[common],
        help="dump a prime reservoir, walked from the least n past 21 where Upsilon (mu = 1)"
        " exceeds beta1 + beta2 + ell",
    )
    p_or.add_argument("--beta1", type=int, required=True)
    p_or.add_argument("--beta2", type=int, required=True)
    p_or.add_argument("--ell", type=int, required=True)

    p_sq = sub.add_parser("sq", parents=[common], help="least prime congruent to 1 modulo q")
    which = p_sq.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=int)
    which.add_argument("--scan-to", type=int, help="check every prime q up to this limit")

    return ap


def _emit(args, payload, pretty_text=None):
    if args.format == "pretty" and pretty_text is not None:
        print(pretty_text)
    else:
        print(canonical_json(payload))


def _pretty_poly(f: ShiftedLacunary) -> str:
    parts = []
    if f.constant != 0 or not f.terms:
        parts.append(_fmt_rat(f.constant))
    base = "x" if f.shift == 0 else f"(x - {_fmt_rat(f.shift)})"
    for c, e in f.terms:
        parts.append(f"{_fmt_rat(c)}*{base}^{e}")
    return " + ".join(parts)


def _cmd_eval(args) -> int:
    bb = _load_poly_spec(args.poly)
    if not is_prime(args.prime):
        print(f"error: {args.prime} is not prime", file=sys.stderr)
        return EXIT_USAGE
    value = bb.eval(args.prime, args.point)
    _emit(args, {"p": args.prime, "point": args.point, "value": str(value)}, str(value))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    bb = _load_poly_spec(args.poly)
    coeffs = reduce_mod(bb, args.prime).coeffs.tolist()  # ValueError unless a prime < 2^31
    pretty = " + ".join(f"{c}*x^{k}" for k, c in enumerate(coeffs) if c) or "0"
    _emit(args, {"p": args.prime, "coeffs": [str(c) for c in coeffs]}, pretty)
    return EXIT_OK


def _cmd_shift(args) -> int:
    bb = _load_poly_spec(args.poly)
    bounds = _parse_bounds(args.bounds)
    res = sparsest_shift(bb, bounds)
    payload = {
        "alpha": _fmt_rat(res.alpha),
        "path": res.path.value,
        "residues": [{"alpha_p": str(a), "p": str(p)} for a, p in res.residues],
    }
    _emit(args, payload, f"alpha = {_fmt_rat(res.alpha)} ({res.path.value})")
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    bb = _load_poly_spec(args.poly)
    bounds = _parse_bounds(args.bounds)
    if args.assume_shift is not None:
        alpha = _parse_rat(args.assume_shift)
        result = sparse_interpolate(bb, bounds, shift=alpha)
    else:
        result = full_interpolate(bb, bounds)
    _emit(args, json.loads(result.to_json()), _pretty_poly(result))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = prime_oracle.OracleConfig(beta1=args.beta1, beta2=args.beta2, ell=args.ell)
    stream = prime_oracle.generate(config)
    payload = {
        "n": stream.n,
        "primes": [{"p": r.p, "q": r.q, "k": r.k} for r in stream.records],
    }
    pretty = f"n = {stream.n}, {len(stream.records)} primes"
    _emit(args, payload, pretty)
    return EXIT_OK


def _sq_one(q: int):
    conj_cap = 2 * q * math.log(q) ** 2
    cap = max(float(q) ** 1.89, conj_cap + 1)
    s = prime_oracle.s_of_q(q, cap=cap)
    holds = s is not None and s < conj_cap
    return s, holds


def _cmd_sq(args) -> int:
    if args.scan_to is not None:
        worst_ratio, worst = 0.0, None
        checked = 0
        # the conjectured bound uses ln q; q = 2 is its own case
        for q in prime_oracle._primes_from(3, args.scan_to + 1):
            s, holds = _sq_one(q)
            checked += 1
            if not holds:
                _emit(args, {"all_hold": False, "checked": checked, "q": q})
                return EXIT_OK
            ratio = s / (2 * q * math.log(q) ** 2)
            if ratio > worst_ratio:
                worst_ratio, worst = ratio, {"q": q, "S": s}
        payload = {
            "all_hold": True,
            "checked": checked,
            "worst": dict(worst or {}, ratio=round(worst_ratio, 6)),
        }
        _emit(args, payload, f"checked {checked} primes, all hold")
        return EXIT_OK
    if not is_prime(args.q):
        print("error: --q must be prime (or use --scan-to)", file=sys.stderr)
        return EXIT_USAGE
    s, holds = _sq_one(args.q)
    payload = {"q": args.q, "S": s, "conjecture_holds": holds}
    _emit(args, payload, f"S({args.q}) = {s}")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "reduce": _cmd_reduce,
    "shift": _cmd_shift,
    "interpolate": _cmd_interpolate,
    "oracle": _cmd_oracle,
    "sq": _cmd_sq,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_USAGE
    except (DenominatorVanished, BlackBoxFailure) as exc:
        print(f"black-box failure: {exc}", file=sys.stderr)
        return EXIT_BLACKBOX
    except LacunaError as exc:
        print(f"reconstruction failed (bounds too small?): {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
