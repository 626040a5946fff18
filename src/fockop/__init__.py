"""Toolkit for weighted composition operators between Fock-type Gaussian spaces.

Decide boundedness and compactness of  W f = psi * (f o phi)  with phi affine,
compute two-sided operator and essential-norm bounds, and verify everything
against independent truncated-matrix oracles.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DimensionError,
    DomainError,
    FockopError,
    NumericalError,
    ProblemFileError,
    TermBudgetError,
    UnsupportedExponentsError,
)
from .funcspace import (
    AffineMap,
    ExpPoly,
    Term,
    apply_wco,
    compose_affine,
    constant,
    kernel,
    monomial,
    multiply,
    normalized_kernel,
    slice_head,
    slice_tail,
)
from .linalg import SvdTriple, is_unitary, spectral_norm, svd
from .quad import NormResult, QuadSpec, fock_norm, slice_norm
from .wco import (
    Analysis,
    CarlesonReport,
    Classification,
    EllProfile,
    NormBounds,
    Normalization,
    WcoProblem,
    alternative_normalization,
    analyze,
    carleson_integral,
    classify,
    ell_at,
    ell_at_many,
    ell_limsup,
    ell_profile,
    ell_sup,
    essential_norm_bounds,
    norm_bounds,
    normalize,
    normalize_pair,
)
from .carleson import berezin_transform, pullback_mass
from .oracle import (
    TruncationSpec,
    basis_indices,
    compactness_witness,
    f2_inner,
    f2_matrix,
    rayleigh_sweep,
    truncated_essential_upper,
    truncated_norm,
)
from .verify import PropertyResult, format_results, random_symbol, run_suites

# the public names imported above; the submodules are reached as fockop.quad etc.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
