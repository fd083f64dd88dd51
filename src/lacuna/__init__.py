"""Interpolation of rational polynomials in their sparsest shifted power basis.

Given only modular black-box evaluations f(theta) mod p and size bounds on
the answer, the pipeline recovers the exact representation
f(x) = c_0 + sum_i c_i (x - alpha)^(e_i) in time polynomial in the size of
that representation.
"""

from .blackbox import (
    DenseBox,
    LacunaryBox,
    ModularBlackBox,
    ProgramBox,
    ShiftedBox,
    ShiftedLacunary,
    canonical_json,
    make_blackbox,
    reduce_mod,
    shifted_blackbox,
)
from .densepoly import (
    DensePolyMod,
    MinShift,
    interpolate_range,
    interpolate_sparse,
    min_shift,
)
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
from .modular_core import (
    Residue,
    crt_list,
    crt_pair,
    is_prime,
    next_prime_above,
    rational_reconstruct,
    remo,
    signed_lift,
    size_of,
)
from .prime_oracle import (
    OracleConfig,
    PrimeRecord,
    PrimeStream,
    choose_n,
    generate,
    s_of_q,
    upsilon,
)
from .sparse_interp import (
    PrimeImage,
    SymPoly,
    build_g_image,
    collect_images,
    full_interpolate,
    integer_roots,
    match_and_recover,
    recover_g,
    sparse_interpolate,
)
from .sparsest_shift import (
    Bounds,
    ShiftPath,
    ShiftResult,
    dense_case_recover,
    dense_sparsest_shift,
    reconstruct_shift,
    sparsest_shift,
)

__version__ = "0.1.0"
