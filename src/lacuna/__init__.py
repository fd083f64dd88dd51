"""Interpolation of rational polynomials in their sparsest shifted power basis.

Given only modular black-box evaluations f(theta) mod p and size bounds on
the answer, the pipeline recovers the exact representation
f(x) = c_0 + sum_i c_i (x - alpha)^(e_i) in time polynomial in the size of
that representation.

The package binds its public surface, ``__all__``; every other name stays
in the module that defines it.  ``lacuna.sparsest_shift`` is the driver
function, which shadows its module: reach the module as
``sys.modules["lacuna.sparsest_shift"]`` or through
``from lacuna.sparsest_shift import ...``.
"""

from .blackbox import (
    DenseBox,
    LacunaryBox,
    ModularBlackBox,
    ProgramBox,
    ShiftedLacunary,
    canonical_json,
    make_blackbox,
    reduce_mod,
)
from .densepoly import DensePolyMod, interpolate_range, interpolate_sparse
from .errors import (
    AmbiguousMatch,
    BlackBoxFailure,
    DenominatorVanished,
    InconsistentResidues,
    LacunaError,
    NoMatch,
    NoReconstruction,
    NotSplitting,
)
from .prime_oracle import OracleConfig, PrimeRecord, PrimeStream, generate
from .sparse_interp import full_interpolate, sparse_interpolate
from .sparsest_shift import Bounds, ShiftPath, ShiftResult, sparsest_shift

__all__ = [
    # the boxes and their spec operations
    "ModularBlackBox", "LacunaryBox", "DenseBox", "ProgramBox", "make_blackbox", "reduce_mod",
    # the representation
    "ShiftedLacunary", "canonical_json",
    # the drivers and their types
    "full_interpolate", "sparsest_shift", "sparse_interpolate", "Bounds", "ShiftResult",
    "ShiftPath",
    # the prime oracle
    "OracleConfig", "PrimeStream", "PrimeRecord", "generate",
    # the grid kernels
    "DensePolyMod", "interpolate_range", "interpolate_sparse",
    # the errors
    "LacunaError", "AmbiguousMatch", "BlackBoxFailure", "DenominatorVanished",
    "InconsistentResidues", "NoMatch", "NoReconstruction", "NotSplitting",
]

__version__ = "0.1.0"
