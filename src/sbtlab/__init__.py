"""Symbolic-numeric laboratory for sphere transforms and their large-dimension limits."""

from .diffops import (
    DimensionError,
    OperatorMatrix,
    OperatorSpec,
    PolySpace,
    commutator,
    euler,
    g_k,
    gamma_n,
    hermite,
    jsq_a,
    jsq_abar,
    laplacian,
    spherical_laplacian,
    to_matrix,
)
from .limits import (
    ConvergenceTable,
    DiagramReport,
    diagram_check,
    diagram_convergence,
    fit_rate,
    laplacian_limit,
    measure_limit,
    transform_limit,
)
from .measures import (
    MeasureSpec,
    gamma_moment,
    gaussian_moment,
    inner_product,
    moment,
    quadric_moment,
    sphere_moment,
    xi_moment,
)
from .oracle import (
    InsufficientOrderError,
    OracleEstimate,
    isserlis_moment,
    mc_sphere_moment,
    quad_gauss_moment,
)
from .polyalg import (
    EXACT,
    FLOAT,
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    ModeMismatchError,
    RealPoly,
    add,
    coeff_distance,
    conjugate,
    cx_poly_from_json,
    dilate,
    evaluate,
    holomorphic_extend,
    mod_square,
    mul,
    poly_to_json,
    real_poly_from_json,
    scale,
)
from .semigroup import (
    BCHReport,
    FactorizationReport,
    GroupGenerator,
    bch_check,
    dilation_exp,
    exp_graded,
    factor_quadric_limit,
    flow_matrix,
    group_generator,
)
from .transforms import (
    Euclidean,
    Limit,
    Sphere,
    TransformResult,
    euclidean_sbt,
    limit_sbt,
    sphere_sbt,
    unitarity_report,
)

__version__ = "0.1.0"
