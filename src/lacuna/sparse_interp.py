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
    """One good reduction: its prime, polynomial, term slots and residues."""

    p: int
    poly: DensePolyMod
    exponents: Tuple[int, ...]          # slots with nonzero coefficient, ascending
    coeff_residues: Tuple[Tuple[int, int], ...]  # (slot, coefficient mod p)
    c0: int

    @classmethod
    def from_poly(cls, fp: DensePolyMod) -> "PrimeImage":
        slots = np.flatnonzero(fp.coeffs[1:]) + 1
        exponents = tuple(slots.tolist())
        return cls(
            p=fp.modulus,
            poly=fp,
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

class _Collector:
    """Resumable image collector implementing the accumulation loop."""

    def __init__(self, bb, bounds, stream):
        self.bounds = bounds
        self.stream = stream if stream is not None else generate(interp_oracle_config(bounds))
        self._reduced = _reductions(bb, self.stream)
        self.images: List[PrimeImage] = []
        self.t = 0
        self.prod = 1
        self.q_lcm = 1

    def _p_target(self) -> int:
        return 1 << (2 * self.bounds.bh + 1)

    def _q_target(self) -> int:
        return 1 << q_target_bits(self.bounds)

    def satisfied(self) -> bool:
        return (
            self.prod >= self._p_target()
            and self.q_lcm >= self._q_target()
            and self.stream.guarantee_reached(1)
        )

    def collect(self) -> None:
        while not self.satisfied():
            fp = next(self._reduced)
            t_p = tau(fp)
            if t_p > self.t:
                # every previously kept image was a bad prime: flush
                self.images = [PrimeImage.from_poly(fp)]
                self.t = t_p
                self.prod = fp.modulus
                self.q_lcm = fp.modulus - 1
            elif t_p == self.t:
                self._append(PrimeImage.from_poly(fp))
            # t_p < self.t: provably bad prime, keep only the delivery count

    def _append(self, img: PrimeImage) -> None:
        new_lcm = math.lcm(self.q_lcm, img.p - 1)
        if self.images:
            # progress check: a fresh certified q >= n multiplies the lcm
            rec = self.stream.record_for(img.p)
            if rec is not None and self.q_lcm % rec.q != 0 and new_lcm < self.q_lcm * rec.q:
                raise RuntimeError(f"lcm did not gain the certified factor {rec.q} of {img.p} - 1")
        self.images.append(img)
        self.prod *= img.p
        self.q_lcm = new_lcm

    def drop(self, p: Optional[int] = None) -> None:
        """Remove one image (the newest, or the one for prime p) and re-derive sums."""
        if not self.images:
            return
        if p is None:
            self.images.pop()
        else:
            self.images = [im for im in self.images if im.p != p]
        self.prod = math.prod(im.p for im in self.images) if self.images else 1
        self.q_lcm = math.lcm(*(im.p - 1 for im in self.images)) if self.images else 1


def collect_images(
    bb: ModularBlackBox,
    bounds: Bounds,
    *,
    stream: Optional[PrimeStream] = None,
) -> List[PrimeImage]:
    """Reductions sharing the maximal term count, with enough mass for CRT."""
    c = _Collector(bb, bounds, stream)
    c.collect()
    return c.images


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
            raise NoMatch(im.p, f"image has {len(im.exponents)} terms, expected {t}")
        used = set()
        for i, e in enumerate(exps):
            slot = remo(e, im.p - 1)
            if slot not in cmap:
                raise NoMatch(im.p, f"exponent {e} reduces to missing slot {slot}")
            if slot in used:
                raise AmbiguousMatch(im.p, f"slot {slot} matched twice")
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

    Raises NoReconstruction when the image set keeps failing to yield a
    consistent answer, which means the data violate the bounds.
    """
    coll = _Collector(bb, bounds, stream)
    sym_bound = (1 + (1 << bounds.bn)) ** bounds.bt
    for _ in range(128):
        coll.collect()
        try:
            gs = [build_g_image(im.exponents, im.p - 1) for im in coll.images]
            g = recover_g(gs)
            if any(abs(a) > sym_bound for a in g.coeffs):
                # symmetric functions of roots <= 2^bn cannot be this big
                raise NotSplitting("exponent polynomial exceeds its size bound")
            roots = integer_roots(g, 1 << bounds.bn)
            return match_and_recover(sorted(roots), coll.images, bounds.bh)
        except InconsistentResidues:
            coll.drop()
        except NotSplitting:
            coll.drop()
        except (NoMatch, AmbiguousMatch) as exc:
            coll.drop(exc.p)
    raise NoReconstruction("image set never stabilized; bounds are likely wrong")


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
