"""Symbolic-numeric laboratory for sphere transforms and their large-dimension limits."""

from .diffops import (
    EULER,
    G_K,
    HERMITE,
    LAPLACIAN,
    DimensionError,
    GroupGenerator,
    euler_op,
    g_uv_op,
    gamma_n_op,
    jsq_a_op,
    jsq_abar_op,
    laplacian_op,
    spherical_laplacian_op,
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
    norm2,
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
    coeff_distance,
    cx_poly_from_json,
    holomorphic_extend,
    poly_to_json,
    real_poly_from_json,
)
from .semigroup import (
    BCHReport,
    FactorizationReport,
    bch_check,
    dilation_exp,
    exp_graded,
    factor_quadric_limit,
)
from .transforms import (
    Euclidean,
    Limit,
    Sphere,
    Transform,
    TransformResult,
    euclidean_sbt,
    limit_sbt,
    sphere_sbt,
    unitarity_report,
)

__version__ = "0.1.0"
