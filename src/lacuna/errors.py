"""Exception types shared across the library."""


class LacunaError(Exception):
    """Base class for all library-specific failures."""


class DenominatorVanished(LacunaError):
    """A black-box evaluation hit a denominator divisible by the prime.

    The failing prime must be discarded as a whole; evaluations at other
    primes are unaffected.
    """

    def __init__(self, p, detail=""):
        self.p = p
        super().__init__(f"denominator vanished modulo {p}" + (f": {detail}" if detail else ""))


class InconsistentResidues(LacunaError):
    """Residues that should agree on overlapping moduli do not.

    Signals a corrupted image set (or violated input bounds) upstream.
    """


class NoReconstruction(LacunaError):
    """No bounded rational matches the residue; modulus too small or data wrong."""


class NotSplitting(LacunaError):
    """The exponent polynomial does not split into distinct small integer roots."""


class NoMatch(LacunaError):
    """A recovered exponent has no matching term in some modular image."""


class AmbiguousMatch(LacunaError):
    """Two recovered exponents collide on the same term of a modular image."""


class BlackBoxFailure(LacunaError):
    """The black box kept failing until the prime stream passed its
    regeneration limit (raised by ``PrimeStream.next_prime``)."""
