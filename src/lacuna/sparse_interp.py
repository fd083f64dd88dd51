"""Sparse interpolation over Q[x] and the end-to-end pipeline.

Exponents are recovered through the monic integer polynomial whose roots
are exactly the exponents: its image modulo p-1 is computable from any
reduction with the maximal number of terms, because the product over the
reduced exponents does not depend on their unknown ordering.  Chinese
remaindering over the moduli p_i - 1 (never coprime: all even) rebuilds it
over Z, integer root extraction yields the exponents, and per-term residue
matching plus rational reconstruction yields the coefficients.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .blackbox import ModularBlackBox, ShiftedLacunary, _reductions, shifted_blackbox
from .densepoly import DensePolyMod, poly_mul_mod, poly_roots_mod, tau
from .errors import (
    AmbiguousMatch,
    InconsistentResidues,
    NoMatch,
    NoReconstruction,
    NotSplitting,
)
from .modular_core import (
    Residue,
    crt_list,
    next_prime_above,
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
    def from_poly(cls, fp: DensePolyMod) -> "PrimeImage":
        slots = np.flatnonzero(fp.coeffs[1:]) + 1
        exponents = tuple(slots.tolist())
        return cls(
            p=fp.modulus,
            exponents=exponents,
            coeff_residues=tuple(zip(exponents, fp.coeffs[slots].tolist())),
            c0=fp.coeff(0),
        )

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

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


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

    A collision of two exponents modulo p - 1 or a coefficient vanishing
    modulo p only ever removes terms, so a reduction with the maximal term
    count comes from a good prime, and one with fewer terms from a bad one.
    Among any beta1 + beta2 + 1 delivered oracle primes at least one is
    good, so once the guarantee is reached the maximal count seen is the
    true t and every kept image is good.  Images kept before a higher count
    appears came from bad primes and are flushed.  Returns once the primes
    multiply past 2^(2*bh + 1) and lcm(p - 1) reaches 2^q_target_bits.
    """
    if stream is None:
        stream = generate(interp_oracle_config(bounds))
    p_target = 1 << (2 * bounds.bh + 1)
    q_target = 1 << q_target_bits(bounds)
    images: List[PrimeImage] = []
    t, prod, q_lcm = -1, 1, 1
    for fp in _reductions(bb, stream):
        p, t_p = fp.modulus, tau(fp)
        if t_p > t:
            # every image kept so far came from a bad prime: flush
            images, t, prod, q_lcm = [], t_p, 1, 1
        if t_p == t:
            new_lcm = math.lcm(q_lcm, p - 1)
            # progress check: a fresh certified q >= n multiplies the lcm
            rec = stream.record_for(p)
            if rec is not None and q_lcm % rec.q != 0 and new_lcm < q_lcm * rec.q:
                raise RuntimeError(f"lcm did not gain the certified factor {rec.q} of {p} - 1")
            images.append(PrimeImage.from_poly(fp))
            prod *= p
            q_lcm = new_lcm
        if prod >= p_target and q_lcm >= q_target and stream.guarantee_reached(1):
            return images


# ---------------- exponent polynomial ----------------

def build_g_image(exponents: Sequence[int], m: int) -> DensePolyMod:
    """Monic product of (z - e) over Z_m; independent of exponent order."""
    coeffs = [1]
    for e in exponents:
        coeffs = poly_mul_mod(coeffs, [(-int(e)) % m, 1], m)
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


def integer_roots(g: SymPoly, bound: int, *, seed: int = 0) -> Set[int]:
    """All deg(g) distinct integer roots of g in [1, bound].

    Roots are located modulo an auxiliary prime r > 4*bound by equal-degree
    splitting with deterministic retry seeds, then verified by exact integer
    evaluation; NotSplitting means g was corrupted upstream.
    """
    t = g.degree
    if t == 0:
        return set()
    if t == 1:
        e = -g.coeffs[0]
        if 1 <= e <= bound and g(e) == 0:
            return {e}
        raise NotSplitting(f"single root {e} is outside [1, {bound}]")
    r = next_prime_above(4 * bound)
    roots_mod = poly_roots_mod(g.coeffs, r, seed=seed)
    verified = {rm for rm in roots_mod if 1 <= rm <= bound and g(rm) == 0}
    if len(verified) != t:
        raise NotSplitting(
            f"found {len(verified)} verified roots in [1, {bound}], expected {t}"
        )
    return verified


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
) -> ShiftedLacunary:
    """The sparse polynomial (shift 0) behind the black box, bit-exact.

    Every image collect_images keeps is good when the bounds hold (see
    there), so one pass suffices: any failure to rebuild the exponent
    polynomial, split it or match its roots means the data violate the
    bounds, and raises NoReconstruction.
    """
    images = collect_images(bb, bounds, stream=stream)
    sym_bound = (1 + (1 << bounds.bn)) ** bounds.bt
    try:
        g = recover_g([build_g_image(im.exponents, im.p - 1) for im in images])
        if any(abs(a) > sym_bound for a in g.coeffs):
            # symmetric functions of roots <= 2^bn cannot be this big
            raise NotSplitting("exponent polynomial exceeds its size bound")
        roots = integer_roots(g, 1 << bounds.bn)
        return match_and_recover(sorted(roots), images, bounds.bh)
    except (InconsistentResidues, NotSplitting, NoMatch, AmbiguousMatch) as exc:
        raise NoReconstruction(f"images do not fit the bounds: {exc}") from exc


def full_interpolate(bb: ModularBlackBox, bounds: Bounds) -> ShiftedLacunary:
    """Shift recovery followed by sparse interpolation of f(x + alpha)."""
    sr = sparsest_shift(bb, bounds)
    if sr.path is ShiftPath.DENSE:
        shifted = taylor_shift_exact(sr.dense_coeffs, sr.alpha)
        constant = shifted[0] if shifted else Fraction(0)
        terms = tuple((c, k) for k, c in enumerate(shifted) if k >= 1 and c != 0)
        return ShiftedLacunary(shift=sr.alpha, constant=constant, terms=terms)
    flat = sparse_interpolate(shifted_blackbox(bb, sr.alpha), bounds)
    return ShiftedLacunary(shift=sr.alpha, constant=flat.constant, terms=flat.terms)
