"""Exact classification of tensors of border rank at most three.

All arithmetic is exact (integers and fractions); no floating point
anywhere.  The package classifies tensors into border-rank classes 0..3 or
greater-than-3, reproduces the concise 3x3x3 orbit table with ranks and
stabilizer dimensions, evaluates the degree-four commutator equations,
computes formal limit planes of colliding curves on cominuscule varieties,
and verifies ranks independently over small finite fields.
"""

from .classifier import (
    GREATER_THAN_3, UNKNOWN, ClassificationReport, classify, orbit_dimension,
    scheme_intersection_check, stabilizer_dimension,
)
from .equations import (
    cubic_line_pattern, slice_det_cubic, strassen_equations,
    strassen_jacobian_rank,
)
from .limits import (
    LimitConfig, LimitPlaneResult, PrecisionError, ScalarSeries, VectorSeries,
    chart_limit_plane, embed_curve, fubini_series, fundamental_form,
    limit_analysis, limit_config_curves, limit_config_plane, limit_plane,
    limit_type, line_tangent_span, parameterize, prolongation_check,
    secant_curve_family,
)
from .normal_forms import (
    ORBIT_IDS, ORBIT_INFO, CominusculeModel, grassmann_model, lagrangian_model,
    orbit_representative, segre_model, segre_tensor_from_ambient, sigma2_point,
    sigma3_point, spinor_model,
)
from .rank_oracle import (
    Decomposition, GreaterThan, MembershipCertificate, SearchSpaceError,
    macaulay_membership, perturbed_pencil_matrix, perturbed_pencil_minors,
    perturbed_pencil_targets, rank_over_field, rank_upper_bound,
)
from .tensor import (
    Tensor, basis_tensor, concise_core, dumps_tensor, flattening, loads_tensor,
    make_tensor, multilinear_rank, permute_modes, rank_one, random_tensor,
    tensor_from_json, tensor_to_json, zero_tensor,
)

__version__ = "0.1.0"
