"""coxkit: exact-arithmetic toolkit for the combinatorial geometry of
toric varieties and their graded coordinate rings.

Core layers: exact integer linear algebra (Smith and Hermite normal
forms, saturated kernels and lattice coordinates from Hermite forms with
no elimination over Q, proved kernel dimensions of rational matrices),
rational polyhedral cones and lattice polytopes (double description,
Hilbert bases, lattice point enumeration), fans with class groups and
divisor positivity, cone chamber decompositions of gradings, and
interpolation certificates for blow-ups of weighted projective planes at
the unit of the torus.
"""

from .blowup import (
    Certificate,
    InterpolationProblem,
    LaurentPoly,
    blowup_certificate,
    find_curve,
    forced_vertex_coefficient,
    h0,
    least_width_images,
    lm_projection,
    lm_rays,
    mukai_predicate,
    order_at_e,
)
from .chambers import (
    Chamber,
    GradingSpec,
    effective_cone,
    enumerate_chambers,
    is_cox_grading,
    mori_chamber,
    moving_cone,
    semistable_supports,
)
from .divisors import (
    ClassGroup,
    ToricDivisor,
    class_group,
    divisor_polytope,
    intersection_number_nef_surface,
    irrelevant_monomials,
    positivity,
    principal_divisor,
    section_count,
    section_ring_generators,
    veronese_generators,
)
from .fans import (
    Fan,
    fan_predicates,
    fans_unimodular_equivalent,
    hirzebruch_fan,
    normal_fan_with_ample,
    projective_space_fan,
    standard_fan,
    validate_fan,
    weighted_projective_fan,
)
from .linalg import (
    IntMatrix,
    RatMatrix,
    SmithDecomposition,
    hermite_normal_form,
    integer_kernel_saturated,
    kernel_dimension,
    smith_normal_form,
)
from .polyhedra import (
    Cone,
    Polytope,
    dd_convert,
    hilbert_basis,
    intersect,
    lattice_points,
    polytope_from_points,
)

__version__ = "0.1.0"
