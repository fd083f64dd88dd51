"""Shared fixtures and independent reference implementations.

The helpers here recompute expected values by the most naive route possible
(term-wise reduction, exhaustive shift search, scanning CRT) so library
results are always checked against an unrelated code path.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from lacuna import Bounds, ModularBlackBox, ShiftedLacunary, make_blackbox, prime_oracle
from lacuna.densepoly import _generator_powers, _mod, _rotate
from lacuna.modular_core import frac_mod, size_of

# ---------------- acceptance reporting ----------------

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and "::test_criterion" in report.nodeid:
        if report.when == "call" or report.outcome == "skipped":
            _ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    flags = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"[{flags.get(outcome, outcome.upper())}] {name}")


# ---------------- fixtures ----------------

@pytest.fixture(autouse=True)
def fresh_walks():
    """Every test starts and ends with an empty record cache: the records a
    stream reads are those of the ``s_of_q`` the test sees, not of an
    earlier test's stand-ins, and none of its own outlive it."""
    prime_oracle._record.cache_clear()
    yield
    prime_oracle._record.cache_clear()


GOLDEN_JSON = '{"shift":"3","constant":"0","terms":[{"coeff":"1","exp":15},{"coeff":"-2","exp":5}]}'


@pytest.fixture
def golden_poly():
    """(x - 3)^15 - 2(x - 3)^5, the worked end-to-end example."""
    return ShiftedLacunary.from_json(GOLDEN_JSON)


@pytest.fixture
def golden_box(golden_poly):
    return make_blackbox(golden_poly)


@pytest.fixture
def golden_bounds():
    return Bounds(ba=4, bt=2, bh=4, bn=4)


class FakeStream:
    """Prime stream driven by an explicit list, for steering the collectors."""

    def __init__(self, primes, guarantee_after=1):
        self._primes = list(primes)
        self._i = 0
        self.delivered = 0
        self.guarantee_after = guarantee_after

    def next_prime(self):
        if self._i >= len(self._primes):
            raise AssertionError("fake stream exhausted")
        p = self._primes[self._i]
        self._i += 1
        self.delivered += 1
        return p

    def discard(self, p):
        self.delivered -= 1

    def guarantee_reached(self, k):
        return self.delivered >= self.guarantee_after + (k - 1)

    def record_for(self, p):
        return None


# ---------------- independent reference implementations ----------------

def naive_frac_mod(q, p):
    """Image of a rational in Z_p, or None when the denominator vanishes."""
    q = Fraction(q)
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, p) % p


def naive_program_value(ops, x):
    """Value over Q of a ProgramBox instruction list at x, in Fractions."""
    regs = []
    for kind, *args in ops:
        if kind == "input":
            regs.append(Fraction(x))
        elif kind == "const":
            regs.append(Fraction(args[0]))
        else:
            a, b = regs[args[0]], regs[args[1]]
            regs.append(a + b if kind == "add" else a - b if kind == "sub" else a * b)
    return regs[-1]


class ShiftedBox(ModularBlackBox):
    """The box of g(x) = f(x + alpha) over an inner box of f: each point
    theta asks the inner box at theta + alpha mod p.  Its grid rotates the
    inner box's grid instead of asking p points one at a time, so the
    property tests built on it stay fast."""

    def __init__(self, inner: ModularBlackBox, alpha):
        super().__init__()
        self.inner = inner
        self.alpha = Fraction(alpha)

    def _eval(self, p: int, theta: int) -> int:
        a = frac_mod(self.alpha, p)
        return self.inner.eval(p, (theta + a) % p)

    def _grid(self, p: int) -> np.ndarray:
        a = frac_mod(self.alpha, p)
        return _rotate(self.inner.eval_range(p), a)


def shifted_blackbox(bb: ModularBlackBox, alpha) -> ModularBlackBox:
    """Black box for g(x) = f(x + alpha) built on top of the box for f: the
    unshifted pipeline on it is what ``sparse_interpolate``'s shift must
    match."""
    return ShiftedBox(bb, alpha)


def naive_remo(a, m):
    r = a % m
    return r if r != 0 else m


def naive_termwise_reduction(poly: ShiftedLacunary, p: int):
    """Dense coefficients of the reduction modulo p, straight off the
    shifted-sparse form: reduce the shift and coefficients, offset-reduce the
    exponents, and expand the powers of (x - shift) by schoolbook products.

    Returns None when some denominator vanishes modulo p.
    """
    c0 = naive_frac_mod(poly.constant, p)
    if c0 is None:
        return None
    dense = [0] * p
    dense[0] = c0
    if poly.terms:
        alpha_p = naive_frac_mod(poly.shift, p)
        if alpha_p is None:
            return None
        for c, e in poly.terms:
            cm = naive_frac_mod(c, p)
            if cm is None:
                return None
            k = naive_remo(e, p - 1)
            # expand cm * (x - alpha_p)^k
            term = [cm]
            for _ in range(k):
                nxt = [0] * (len(term) + 1)
                for i, t in enumerate(term):
                    nxt[i + 1] = (nxt[i + 1] + t) % p
                    nxt[i] = (nxt[i] - t * alpha_p) % p
                term = nxt
            for i, t in enumerate(term):
                dense[i] = (dense[i] + t) % p
    while dense and dense[-1] == 0:
        dense.pop()
    return dense


def naive_interpolate(values, p):
    """Coefficients (trimmed) of the degree-<p polynomial through (i, values[i])
    over Z_p, by the schoolbook Lagrange sums c_j = -sum_i v_i * i^-j."""
    coeffs = [0] * p
    for i, vi in enumerate(values):
        if i == 0 or vi == 0:
            continue
        u = pow(i, -1, p)
        w = vi * u % p
        for j in range(1, p):
            coeffs[j] = (coeffs[j] - w) % p
            w = w * u % p
    coeffs[0] = values[0] % p
    coeffs[p - 1] = (coeffs[p - 1] - values[0]) % p
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def naive_taylor_coeffs(coeffs, gamma, p):
    """Coefficients of f(x + gamma) over Z_p by repeated synthetic division."""
    out = [c % p for c in coeffs]
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] = (out[j] + gamma * out[j + 1]) % p
    return out


def naive_min_shift(coeffs, p):
    """Exhaustive (gamma, tau) search; returns (gamma, tau, tie)."""
    best_gamma, best_tau, count = 0, None, 0
    for g in range(p):
        shifted = naive_taylor_coeffs(list(coeffs), g, p)
        t = sum(1 for c in shifted[1:] if c)
        if best_tau is None or t < best_tau:
            best_gamma, best_tau, count = g, t, 1
        elif t == best_tau:
            count += 1
    return best_gamma, best_tau, count > 1


def naive_crt_scan(pairs, limit):
    """Smallest nonnegative solution of the congruences by direct scan."""
    for x in range(limit):
        if all(x % m == v % m for v, m in pairs):
            return x
    return None


def naive_simple_rational_roots(coeffs, box):
    """Simple rational roots a/b with |a| <= box and 1 <= b <= box of a
    polynomial with integer coefficients (degree 0 up), by the rational
    root theorem: a nonzero root a/b in lowest terms has a dividing the
    lowest nonzero coefficient and b the leading one."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return set()
    low = next(c for c in coeffs if c)
    candidates = {Fraction(0)} | {
        Fraction(sign * a, b)
        for a in range(1, box + 1) if low % a == 0
        for b in range(1, box + 1) if coeffs[-1] % b == 0
        for sign in (1, -1)
    }
    deriv = [k * c for k, c in enumerate(coeffs)][1:]

    def value(poly, x):
        return sum(c * x**k for k, c in enumerate(poly))

    return {r for r in candidates if value(coeffs, r) == 0 and value(deriv, r) != 0}


def naive_factorize(n):
    """{prime: multiplicity} of n >= 1 by trial division by every d up to
    sqrt of what is left."""
    fac, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def reduced_hankel_candidates(vals, p, t):
    """``densepoly._hankel_candidates`` as it was when every difference was
    reduced to [0, p) before the singularity test: the reference that the
    unreduced differences must give the same candidates as."""
    def singular(s):
        t = len(s) // 2
        m = [[s[2 * i + k] for k in range(t + 1 - i)] for i in range(t + 1)]
        while len(m) > 1:
            top, rest = m[0], m[1:]
            m = [[_mod(top[0] * row[k] - top[i] * top[i + k], p) for k in range(len(row))]
                 for i, row in enumerate(rest, 1)]
        return m[0][0]

    pw = _generator_powers(p)
    n = p - 1
    seq = []
    for j in range(2 * t + 1):
        s = _rotate(vals, int(pw[j % n]))
        s -= vals
        seq.append(_mod(s, p))
    cands = np.flatnonzero(singular(seq) == 0)
    top = vals[_mod(cands + int(pw[(2 * t + 1) % n]), p)]
    top -= vals[cands]
    shifted = [s[cands] for s in seq[1:]] + [_mod(top, p)]
    return cands[singular(shifted) == 0].tolist()


FIRST_40_PRIMES = [q for q in range(2, 174) if all(q % d for d in range(2, q))]


def naive_probable_prime(n):
    """Strong probable-prime test to the first 40 prime bases."""
    if n < 2:
        return False
    if n in FIRST_40_PRIMES:
        return True
    if any(n % q == 0 for q in FIRST_40_PRIMES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in FIRST_40_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------- random instance generation ----------------

def random_instance(rng: random.Random, max_t=4, max_exp=1 << 10,
                    coeff_size=12, shift_size=8):
    """A random shifted-sparse polynomial plus tight bounds.

    Guarantees deg >= 2t + 1 so shift recovery stays on the modular path.
    """
    t = rng.randint(1, max_t)
    while True:
        exps = sorted(rng.sample(range(1, max_exp + 1), t))
        if exps[-1] >= 2 * t + 1:
            break

    def rand_rat(size_bits, nonzero):
        # size(a/b) = bits(|a|) + bits(b) + 1 <= size_bits
        while True:
            nb = rng.randint(1, max(1, size_bits - 2))
            db = rng.randint(1, max(1, size_bits - 1 - nb))
            num = rng.randint(-(2**nb - 1), 2**nb - 1)
            den = rng.randint(1, 2**db - 1)
            q = Fraction(num, den)
            if size_of(q) <= size_bits and (not nonzero or q != 0):
                return q

    coeffs = [rand_rat(coeff_size, nonzero=True) for _ in range(t)]
    shift = rand_rat(shift_size, nonzero=False)
    constant = rand_rat(coeff_size, nonzero=False) if rng.random() < 0.7 else Fraction(0)
    poly = ShiftedLacunary(shift=shift, constant=constant,
                           terms=tuple(zip(coeffs, exps)))
    bounds = Bounds(
        ba=size_of(shift),
        bt=t,
        bh=max(size_of(c) for c in [constant, *coeffs]),
        bn=max(1, exps[-1].bit_length()),
    )
    return poly, bounds
