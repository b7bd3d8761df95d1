"""Exact analysis of pencils of quadrics over Q and rational point search
on intersections of two quadrics containing a conic."""

from .exact import (
    InternalError,
    Poly,
    QuotientField,
    factor_poly,
    is_irreducible,
)
from .forms import (
    LinearSubspace,
    ProjectivePoint,
    QuadraticForm,
    diagonalize,
    form_rank,
    radical_subspace,
    restrict_form,
    signature,
)
from .pencil import (
    DiscriminantData,
    Pencil,
    condition_E_check,
    discriminant,
    low_rank_census,
    multiplicity_bound_check,
    pencil_det_poly,
    smoothness_test,
)
from .localsolve import (
    Place,
    TernaryForm,
    conic_local_report,
    conic_rational_point,
    hilbert_symbol,
    modp_counts,
    quadric_isotropy,
    reduce_ternary,
)
from .normalize import (
    NormalizedSystem,
    hypothesis_report,
    normalize_pencil,
    verify_conic_plane,
)
from .descent import (
    SearchConfig,
    SearchOutcome,
    enumerate_hyperplanes,
    find_rational_point,
    generate_planted_instance,
    replay_obstruction,
    replay_trace,
    residual_conic_fiber,
    v0_membership,
    weil_point_transfer,
    weil_restriction_split,
)

__version__ = "0.1.0"
