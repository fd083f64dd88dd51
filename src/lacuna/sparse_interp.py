"""Sparse interpolation over Q[x] and the end-to-end pipeline.

Exponents are recovered through the monic integer polynomial whose roots
are exactly the exponents: its image modulo p-1 is computable from any
reduction with the maximal number of terms, because the product over the
reduced exponents does not depend on their unknown ordering.  Chinese
remaindering over the moduli p_i - 1 (never coprime: all even) rebuilds it
over Z, its roots, lifted from a small prime, are the exponents, and
per-term residue matching plus rational reconstruction yields the
coefficients.

The deterministic guarantee asks for beta1 + beta2 + 1 delivered primes,
but a few images already meet the CRT targets.  From those a candidate f
is rebuilt, and every later prime is confirmed against it, not
interpolated (``_confirmed_image`` shows that the image is the same).
The box is read at its own points: a prime compares the box's grid with
the candidate's at the shift, and only a grid that is interpolated is
rotated by the shift.  When every later image confirmed it, the candidate
is the answer (see ``sparse_interpolate``).  Every prime of the guarantee
is still reduced.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .blackbox import ModularBlackBox, ShiftedLacunary, _lacunary_grid, _reductions
from .densepoly import (
    DensePolyMod,
    _rotate,
    _times_linear,
    bounded_rational_roots,
    interpolate_sparse,
)
from .errors import (
    AmbiguousMatch,
    DenominatorVanished,
    InconsistentResidues,
    NoMatch,
    NoReconstruction,
    NotSplitting,
)
from .modular_core import (
    Residue,
    crt_list,
    frac_mod,
    rational_reconstruct,
    remo,
    signed_lift,
)
from .prime_oracle import OracleConfig, PrimeStream, generate
from .sparsest_shift import Bounds, ShiftPath, sparsest_shift, taylor_shift_exact


@dataclass(frozen=True)
class PrimeImage:
    """One good reduction: its prime, term slots and residues."""

    p: int
    exponents: Tuple[int, ...]          # slots with nonzero coefficient, ascending
    coeff_residues: Tuple[Tuple[int, int], ...]  # (slot, coefficient mod p)
    c0: int

    @classmethod
    def _from_terms(cls, p: int, c0: int, terms) -> "PrimeImage":
        """The image with constant c0 whose residue at each slot is the sum
        modulo p of the (slot, residue) pairs ``terms`` give it; slots
        summing to 0 are dropped.  Every image is built here."""
        sums: Dict[int, int] = {}
        for slot, c in terms:
            sums[slot] = (sums.get(slot, 0) + c) % p
        exponents = tuple(sorted(slot for slot, c in sums.items() if c))
        return cls(p, exponents, tuple((slot, sums[slot]) for slot in exponents), c0)

    @classmethod
    def from_poly(cls, fp: DensePolyMod) -> "PrimeImage":
        slots = np.flatnonzero(fp.coeffs[1:]) + 1
        return cls._from_terms(fp.modulus, fp.coeff(0),
                               zip(slots.tolist(), fp.coeffs[slots].tolist()))

    @property
    def coeff_map(self) -> Dict[int, int]:
        return dict(self.coeff_residues)


@dataclass(frozen=True)
class SymPoly:
    """Monic integer polynomial carrying the exponent set as its roots."""

    coeffs: Tuple[int, ...]  # a_0 .. a_t with a_t == 1

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("exponent polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def interp_oracle_config(bounds: Bounds) -> OracleConfig:
    """Oracle sizing for interpolation: beta1 = 2*bh*bt, beta2 = bn*bt*(bt-1)/2."""
    return OracleConfig(
        beta1=2 * bounds.bh * bounds.bt,
        beta2=bounds.bn * bounds.bt * (bounds.bt - 1) // 2,
        ell=max(2 * bounds.bh + 1, bounds.bn),
    )


def q_target_bits(bounds: Bounds) -> int:
    """Bits of lcm(p_i - 1) needed to lift the exponent polynomial over Z.

    Its coefficients are elementary symmetric functions of roots <= 2^bn,
    hence bounded by (1 + 2^bn)^bt < 2^(bt*(bn+1)); one extra bit covers the
    signed lift.
    """
    return bounds.bt * (bounds.bn + 1) + 1


# ---------------- image collection (the oracle loop) ----------------

def collect_images(
    bb: ModularBlackBox,
    bounds: Bounds,
    *,
    stream: Optional[PrimeStream] = None,
) -> List[PrimeImage]:
    """Reductions sharing the maximal term count, with enough mass for CRT.

    The polynomial behind the box has shift 0 (``sparse_interpolate`` takes
    a shift alpha for any other box), so every reduction f^(p) has at most
    t <= bt non-constant terms: ``interpolate_sparse`` with s = bt reads
    each image off the grid, and a grid whose interpolant has more terms
    raises NoReconstruction, since the bounds are then violated.  A
    collision of two exponents modulo p - 1 or a coefficient vanishing
    modulo p only ever removes terms, so a reduction with the maximal term
    count comes from a good prime, and one with fewer terms from a bad one.
    Among any beta1 + beta2 + 1 delivered oracle primes at least one is
    good, so once the guarantee is reached the maximal count seen is the
    true t and every kept image is good.  Images kept before a higher count
    appears came from bad primes and are flushed.  Returns once the primes
    multiply past 2^(2*bh + 1) and lcm(p - 1) reaches 2^q_target_bits.
    The primes still needed for the guarantee after that are confirmed
    against a candidate, not interpolated (``_collect``).
    """
    return _collect(bb, bounds, stream)[0]


def _collect(
    bb: ModularBlackBox,
    bounds: Bounds,
    stream: Optional[PrimeStream],
    shift=0,
) -> Tuple[List[PrimeImage], Optional[ShiftedLacunary]]:
    """``collect_images``'s images of g(x) = f(x + shift), for the f behind
    the box, and the candidate g every later kept image confirmed, or None.

    When the kept images first meet both CRT targets before the guarantee
    is reached, ``_candidate`` rebuilds g from them.  Each later grid of f
    goes to ``_confirmed_image`` first, which gives the image the sparse
    kernel would; only a grid it rejects is rotated by the shift modulo p,
    to g's grid, and runs the kernel.  Either way a prime's
    term count is the length of its image's exponents.  A flush drops the
    candidate, as does a kept image the kernel read, which disagrees with
    it; a candidate is built at most once between flushes.
    """
    if stream is None:
        stream = generate(interp_oracle_config(bounds))
    p_target = 1 << (2 * bounds.bh + 1)
    q_target = 1 << q_target_bits(bounds)
    images: List[PrimeImage] = []
    t, prod, q_lcm = -1, 1, 1
    candidate: Optional[ShiftedLacunary] = None
    tried = False
    for p, a, values in _reductions(bb, stream, shift):
        image = _confirmed_image(candidate, values, p, a) if candidate is not None else None
        confirmed = image is not None
        if not confirmed:
            fp = interpolate_sparse(_rotate(values, a), p, bounds.bt)
            if fp is None:
                raise NoReconstruction(f"the reduction at p={p} has more than bt={bounds.bt} terms")
            image = PrimeImage.from_poly(fp)
        t_p = len(image.exponents)
        if t_p > t:
            # every image kept so far came from a bad prime: flush
            images, t, prod, q_lcm = [], t_p, 1, 1
            candidate, tried = None, False
        if t_p == t:
            new_lcm = math.lcm(q_lcm, p - 1)
            # progress check: a fresh certified q >= n multiplies the lcm
            rec = stream.record_for(p)
            if rec is not None and q_lcm % rec.q != 0 and new_lcm < q_lcm * rec.q:
                raise RuntimeError(f"lcm did not gain the certified factor {rec.q} of {p} - 1")
            if not confirmed:
                candidate = None  # a kept image the candidate did not predict
            images.append(image)
            prod *= p
            q_lcm = new_lcm
        if prod >= p_target and q_lcm >= q_target:
            if stream.guarantee_reached(1):
                return images, candidate
            if not tried:
                tried = True
                candidate = _candidate(images, bounds)


def _confirmed_image(
    candidate: ShiftedLacunary, values: np.ndarray, p: int, shift: int = 0
) -> Optional[PrimeImage]:
    """The image at p of ``candidate`` g (shift 0) when the grid ``values``
    holds the values of g(x - shift) over Z_p, else None.

    The grid of g at the residue ``shift`` comes from ``_lacunary_grid``,
    and one comparison of all p values decides.  The grid's interpolant of
    degree < p is unique, so when they agree, g's grid (``values`` rotated
    by the shift) has the candidate's reduction as its interpolant: c0 mod p
    plus c_i x^remo(e_i, p - 1) over the terms, where x^e and x^remo(e, p - 1)
    agree on all of Z_p.  ``PrimeImage._from_terms`` sums the terms reduced
    to one slot and drops slots summing to 0, which is
    ``PrimeImage.from_poly(interpolate_sparse(g's grid, p, bt))`` bit for
    bit.  None also when p divides a denominator of the candidate.

    When the box is a ``LacunaryBox`` of g at the shift, its grid is the
    one ``_lacunary_grid`` just cached, and the comparison reads that array
    against itself; from any other box the candidate's grid is built here.
    The comparison reads every value either way.
    """
    try:
        c0 = frac_mod(candidate.constant, p)
        coeffs = tuple(frac_mod(c, p) for c, _ in candidate.terms)
    except DenominatorVanished:
        return None
    exps = tuple(e for _, e in candidate.terms)
    if not np.array_equal(values, _lacunary_grid(c0, shift, coeffs, exps, p)):
        return None
    return PrimeImage._from_terms(p, c0, ((remo(e, p - 1), c) for c, e in zip(coeffs, exps)))


# ---------------- exponent polynomial ----------------

def build_g_image(exponents: Sequence[int], m: int) -> DensePolyMod:
    """Monic product of (z - e) over Z_m; independent of exponent order."""
    coeffs = [1]
    for e in exponents:
        coeffs = _times_linear(coeffs, int(e), m)
    return DensePolyMod(m, coeffs)


def recover_g(images: Sequence[DensePolyMod]) -> SymPoly:
    """Coefficient-wise CRT of the modular images, lifted to signed integers.

    Moduli share factors (all are even), so the generalized merge applies;
    InconsistentResidues signals that a non-good image slipped through.
    """
    images = list(images)
    if not images:
        raise ValueError("need at least one image")
    deg = images[0].degree
    for im in images:
        if im.degree != deg:
            raise ValueError("images must share one degree")
        if im.coeff(deg) != 1:
            raise ValueError("images must be monic")
    lifted = []
    for j in range(deg + 1):
        combined = crt_list([Residue(im.coeff(j), im.modulus) for im in images])
        lifted.append(signed_lift(combined))
    return SymPoly(tuple(lifted))


def integer_roots(g: SymPoly, bound: int) -> Set[int]:
    """All deg(g) distinct integer roots of g in [1, bound].

    g is monic, so its rational roots are integers: they are the simple
    roots of ``bounded_rational_roots`` with box = bound, each verified
    exactly.  Fewer than deg(g) of them in [1, bound], as when g has a
    repeated or an irreducible factor, raise NotSplitting, which means g
    was corrupted upstream.
    """
    roots = {int(x) for x in bounded_rational_roots(g.coeffs, bound) if 1 <= x <= bound}
    if len(roots) != g.degree:
        raise NotSplitting(
            f"found {len(roots)} verified roots in [1, {bound}], expected {g.degree}"
        )
    return roots


# ---------------- matching and coefficient recovery ----------------

def match_and_recover(
    roots: Sequence[int], images: Sequence[PrimeImage], bh: int
) -> ShiftedLacunary:
    """Associate each exponent with its residue slot per image and rebuild f.

    The matched slot for exponent e in the image for p is the offset
    remainder of e modulo p-1 (never zero); good images make this map a
    bijection onto their slots.
    """
    exps = sorted(int(e) for e in roots)
    t = len(exps)
    per_term: List[List[Residue]] = [[] for _ in range(t)]
    c0_res: List[Residue] = []
    for im in images:
        cmap = im.coeff_map
        if len(im.exponents) != t:
            raise NoMatch(f"image for p={im.p} has {len(im.exponents)} terms, expected {t}")
        used = set()
        for i, e in enumerate(exps):
            slot = remo(e, im.p - 1)
            if slot not in cmap:
                raise NoMatch(f"exponent {e} reduces to slot {slot}, missing at p={im.p}")
            if slot in used:
                raise AmbiguousMatch(f"slot {slot} matched twice at p={im.p}")
            used.add(slot)
            per_term[i].append(Residue(cmap[slot], im.p))
        c0_res.append(Residue(im.c0, im.p))
    bound = 1 << bh
    coeffs = [rational_reconstruct(crt_list(rs), bound) for rs in per_term]
    constant = rational_reconstruct(crt_list(c0_res), bound) if c0_res else Fraction(0)
    terms = tuple((c, e) for c, e in zip(coeffs, exps))
    return ShiftedLacunary(shift=Fraction(0), constant=constant, terms=terms)


# ---------------- drivers ----------------

def sparse_interpolate(
    bb: ModularBlackBox,
    bounds: Bounds,
    *,
    stream: Optional[PrimeStream] = None,
    shift=0,
) -> ShiftedLacunary:
    """The sparse polynomial behind the black box in the power basis of
    x - shift, bit-exact: g(x) = f(x + shift) is interpolated, and its
    terms come back with ``shift`` set.

    The box itself is queried, not a view of it shifted: each prime reads
    f's grid, a prime dividing the shift's denominator is discarded before
    any query, and only a grid the candidate does not confirm is rotated to
    g's (``_collect``).  The answer, the box's queries and the primes, in
    order, are those of the unshifted pipeline on a view of the box that
    answers f(theta + shift) at theta (``tests/conftest.py`` keeps one as
    reference code).

    Every image collect_images keeps is good when the bounds hold (see
    there), so one pass suffices: a reduction with more than bt terms
    (``_collect``), or images whose exponent polynomial cannot be rebuilt,
    split or matched (``_reconstruct``), raise NoReconstruction.

    When every image kept after the candidate confirmed it, the candidate
    is the answer, with no second reconstruction over all images: that one
    would give the same.  The candidate's exponent polynomial G has signed
    coefficients modulo M = lcm(p - 1) over its images, and every later
    image is G modulo its p - 1, so the larger modulus lifts G again (M is
    even, and a larger lcm is at least 2M).  Its coefficients a/b, with
    |a|, b <= 2^bh, agree with every later residue, and a product of odd
    primes past 2^(2*bh + 1) is at least 2 (2^bh)^2 + 1, where such a
    rational is the only one its residue has.
    """
    images, candidate = _collect(bb, bounds, stream, shift)
    flat = candidate if candidate is not None else _reconstruct(images, bounds)
    return replace(flat, shift=shift)


def _reconstruct(images: Sequence[PrimeImage], bounds: Bounds) -> ShiftedLacunary:
    """f from good images: exponent polynomial, its roots, then matching.
    Inconsistent residues, a polynomial that does not split or roots that
    do not match raise NoReconstruction, with that misfit as its cause."""
    try:
        sym_bound = (1 + (1 << bounds.bn)) ** bounds.bt
        g = recover_g([build_g_image(im.exponents, im.p - 1) for im in images])
        if any(abs(a) > sym_bound for a in g.coeffs):
            # symmetric functions of roots <= 2^bn cannot be this big
            raise NotSplitting("exponent polynomial exceeds its size bound")
        roots = integer_roots(g, 1 << bounds.bn)
        return match_and_recover(sorted(roots), images, bounds.bh)
    except (InconsistentResidues, NotSplitting, NoMatch, AmbiguousMatch) as exc:
        raise NoReconstruction(f"images do not fit the bounds: {exc}") from exc


def _candidate(images: Sequence[PrimeImage], bounds: Bounds) -> Optional[ShiftedLacunary]:
    """``_reconstruct(images, bounds)``, or None where the images do not fit
    the bounds: the kept images may still come from bad primes."""
    try:
        return _reconstruct(images, bounds)
    except NoReconstruction:
        return None


def full_interpolate(bb: ModularBlackBox, bounds: Bounds) -> ShiftedLacunary:
    """Shift recovery followed by sparse interpolation of f(x + alpha)."""
    sr = sparsest_shift(bb, bounds)
    if sr.path is ShiftPath.DENSE:
        shifted = taylor_shift_exact(sr.dense_coeffs, sr.alpha)
        constant = shifted[0] if shifted else Fraction(0)
        terms = tuple((c, k) for k, c in enumerate(shifted) if k >= 1 and c != 0)
        return ShiftedLacunary(shift=sr.alpha, constant=constant, terms=terms)
    return sparse_interpolate(bb, bounds, shift=sr.alpha)
