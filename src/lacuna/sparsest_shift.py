"""Recovery of the sparsest shift from modular reductions.

The main loop reduces the black box modulo oracle primes; every prime whose
reduction has degree >= 2*B_T + 1 pins the shift modulo p, and Chinese
remaindering plus rational reconstruction recovers it once the recorded
moduli multiply past 2^(2*B_A + 1).  Primes that record no residue count
against the oracle's bad-prime budget, so violated bounds fail after at most
beta1 + beta2 + k delivered primes.  Polynomials of degree <= 2*B_T never
pass the degree test and fall through to exact dense recovery plus a direct
candidate search.

Each prime's degree test and shift come from one ``densepoly.grid_shift``
on the box's grid for that prime.  A finite difference of a short prefix
of the grid decides the degree test first, and the whole grid's only when
that prefix reads zero.  Only a grid that passes has its shifts filtered by
two Hankel matrices of its values along the powers of a generator (Ben-Or
and Tiwari's recurrence).  When at most a few candidates pass, each is
decided by one cyclic check of that recurrence on a view of the doubled
grid, with no root search, no coefficients and no dense transform.  When
more pass (powers of degree (p-1)/2, and the spike grids of bad primes
with (p - 1) | e), it interpolates the grid densely and runs
``min_shift``, which checks the roots of the B_T coefficients of f(x + y)
just below the leading one, as polynomials in y,
``densepoly._taylor_rows``.  The dense search takes the rational roots of
all the non-constant rows of that expansion, as in Lakshman and Saunders;
at y = alpha they give ``taylor_shift_exact``.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .blackbox import ModularBlackBox, _reductions
from .densepoly import (
    _horner,
    _taylor_rows,
    _times_linear,
    bounded_rational_roots,
    grid_shift,
    poly_trim,
)
from .errors import DenominatorVanished, InconsistentResidues, NoReconstruction
from .modular_core import (
    Residue,
    crt_list,
    next_prime_above,
    rational_reconstruct,
    size_of,
)
from .prime_oracle import OracleConfig, PrimeStream, generate


@dataclass(frozen=True)
class Bounds:
    """Input promises: size(shift) <= ba, t <= bt, size(c_i) <= bh, log2 deg <= bn.

    Zero entries are lifted to 1 so the derived thresholds stay meaningful.
    """

    ba: int
    bt: int
    bh: int
    bn: int

    def __post_init__(self):
        for name in ("ba", "bt", "bh", "bn"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"bound {name} must be >= 0")
            object.__setattr__(self, name, max(1, int(v)))


class ShiftPath(enum.Enum):
    MODULAR = "modular"
    DENSE = "dense"


@dataclass(frozen=True)
class ShiftResult:
    alpha: Fraction
    residues: Tuple[Tuple[int, int], ...]  # (alpha mod p, p)
    path: ShiftPath
    dense_coeffs: Optional[Tuple[Fraction, ...]] = None


def shift_oracle_config(bounds: Bounds) -> OracleConfig:
    """Oracle sizing for shift recovery: beta1 = 2*bh, beta2 = bn*(3*bt - 1)."""
    return OracleConfig(
        beta1=2 * bounds.bh,
        beta2=bounds.bn * (3 * bounds.bt - 1),
        ell=2 * bounds.ba + 1,
    )


def sparsest_shift(
    bb: ModularBlackBox,
    bounds: Bounds,
    *,
    stream: Optional[PrimeStream] = None,
) -> ShiftResult:
    """A sparsest shift of the polynomial behind the black box.

    Unique whenever deg f >= 2*bounds.bt + 1.  Raises InconsistentResidues
    when reconstruction fails and NoReconstruction when a good prime gave no
    unique sparse shift (both: the true polynomial violated the bounds), and
    BlackBoxFailure when evaluation failures outlast the prime stream.
    """
    if stream is None:
        stream = generate(shift_oracle_config(bounds))
    ptarget = 1 << (2 * bounds.ba + 1)
    prod = 1
    recorded: List[Tuple[int, int]] = []
    passed = False  # some reduction passed the degree test, so deg f > 2*bt
    for p, _, values in _reductions(bb, stream):
        passes, gamma = grid_shift(values, p, tau_cap=bounds.bt)
        if passes:
            passed = True
            if gamma is not None:
                recorded.append((gamma, p))
                prod *= p
                if prod >= ptarget:
                    break
                continue
        if passed:
            # among beta1 + beta2 + k delivered primes at least k are good,
            # and every good prime records a residue
            if stream.guarantee_reached(len(recorded) + 1):
                raise NoReconstruction(
                    f"{stream.delivered} primes gave only {len(recorded)} unique sparse shifts"
                )
        elif stream.guarantee_reached(1):
            # Degree never reaches 2*bt + 1, so deg f <= 2*bt: dense regime.
            coeffs = dense_case_recover(bb, bounds)
            alpha = dense_sparsest_shift(coeffs, bounds.ba)
            return ShiftResult(alpha, (), ShiftPath.DENSE, tuple(coeffs))
    try:
        alpha = reconstruct_shift(recorded, bounds.ba)
    except (NoReconstruction, InconsistentResidues) as exc:
        raise InconsistentResidues(f"shift residues do not fit the bounds: {exc}") from exc
    return ShiftResult(alpha, tuple(recorded), ShiftPath.MODULAR)


def reconstruct_shift(residues: Sequence[Tuple[int, int]], ba: int) -> Fraction:
    """The unique alpha = a/b with |a|, b <= 2^ba matching every residue.

    residues holds (alpha mod p, p) pairs over pairwise distinct primes
    whose product must reach 2^(2*ba + 1).
    """
    if not residues:
        raise NoReconstruction("no residues recorded")
    primes = [p for _, p in residues]
    if len(set(primes)) != len(primes):
        raise ValueError("moduli must be pairwise distinct primes")
    combined = crt_list([Residue(a, p) for a, p in residues])
    return rational_reconstruct(combined, 1 << ba)


# ---------------- dense (low-degree) regime ----------------

def dense_case_recover(bb: ModularBlackBox, bounds: Bounds) -> List[Fraction]:
    """Exact dense f (degree d <= 2*bt) from 2*bt + 1 evaluations per prime.

    Write f = c_0 + sum_i c_i (x - r/s)^(e_i) with at most bt terms, e_i <= d,
    c_i = a_i/b_i with |a_i|, b_i < 2^bh and |r|, s < 2^ba.  The coefficient
    of x^k is sum_i c_i C(e_i, k) (-r/s)^(e_i - k), plus c_0 at k = 0.  Over
    the common denominator b_0 b_1 ... b_t s^d its numerator is
    sum_i a_i (prod_{j != i} b_j) C(e_i, k) (-r)^(e_i - k) s^(d - e_i + k):
    at most bt + 1 terms, each below 2^(bh*(bt+1)) * 2^d * 2^(ba*d).  So in
    lowest terms every coefficient has numerator at most
    N = (bt + 1) * 2^(bh*(bt+1) + 2*bt*(ba+1)) and denominator at most
    2^(bh*(bt+1) + 2*bt*ba) <= N.  Two such fractions that agree modulo
    Q > 2*N^2 are equal, so rational reconstruction modulo Q is exact.

    The values at 0..2*bt are read modulo successive primes q above 2^30,
    skipping any q that divides a denominator the box needs.  Every other
    q reduces the rational coefficients correctly, so each coefficient's
    images are combined by CRT until their product Q passes 2*N^2.  Every
    prime the library reduces by is thus below 2^31.
    """
    num_bits = bounds.bh * (bounds.bt + 1) + 2 * bounds.bt * (bounds.ba + 1)
    num = (bounds.bt + 1) << num_bits
    npts = 2 * bounds.bt + 1
    images: List[List[Residue]] = [[] for _ in range(npts)]
    q, prod = 1 << 30, 1
    while prod <= 2 * num * num:
        q = next_prime_above(q)
        try:
            vals = [bb.eval(q, i) for i in range(npts)]
        except DenominatorVanished:
            continue  # finitely many primes divide denominators
        for col, c in zip(images, _interpolate_points(vals, q)):
            col.append(Residue(c, q))
        prod *= q
    return poly_trim([rational_reconstruct(crt_list(col), num) for col in images])


def _interpolate_points(vals: Sequence[int], m: int) -> List[int]:
    """Newton interpolation at the nodes 0..len(vals)-1 over Z_m: all
    len(vals) coefficients, from degree 0 up, trailing zeros kept."""
    k = len(vals)
    dd = [v % m for v in vals]  # divided-difference table, updated in place
    for level in range(1, k):
        inv = pow(level, -1, m)
        for i in range(k - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv % m
    # fold the Newton form back into monomials, Horner-style from the top
    coeffs = [dd[k - 1]]
    for j in range(k - 2, -1, -1):
        coeffs = _times_linear(coeffs, j, m)
        coeffs[0] = (coeffs[0] + dd[j]) % m
    return coeffs


def taylor_shift_exact(coeffs: Sequence[Fraction], alpha) -> List[Fraction]:
    """Coefficients of f(x + alpha) over the rationals: each row of
    ``_taylor_rows`` evaluated at y = alpha (small degrees only)."""
    alpha = Fraction(alpha)
    f = [Fraction(c) for c in coeffs]
    return [_horner(row, alpha) for row in _taylor_rows(f, range(len(f)))]


def dense_sparsest_shift(coeffs: Sequence[Fraction], ba: int) -> Fraction:
    """Sparsest shift of an explicit rational f with |num|, den <= 2^ba.

    Candidates are 0 and every rational root of a coefficient of f(x + y)
    viewed as a polynomial in y (rows 1..deg f - 1 of ``_taylor_rows``; row
    deg f is the nonzero constant f_d): any shift that removes a term
    annihilates one of those coefficients.  ``bounded_rational_roots``
    returns only simple roots, and that loses no candidate: the derivative
    of row k is (k + 1) times row k + 1, so a root of row k of multiplicity
    mu is a simple root of row k + mu - 1, which is at most deg f - 1
    because row deg f has no root.  Ties break toward smaller term count,
    then smaller bit size, then smaller value.
    """
    f = poly_trim([Fraction(c) for c in coeffs])
    d = len(f) - 1
    if d <= 0:
        return Fraction(0)
    box = 1 << ba
    candidates = {Fraction(0)}
    for row in _taylor_rows(f, range(1, d)):
        candidates.update(bounded_rational_roots(row, box))

    def key(alpha):
        terms = sum(1 for c in taylor_shift_exact(f, alpha)[1:] if c != 0)
        return terms, size_of(alpha), alpha

    return min(candidates, key=key)
