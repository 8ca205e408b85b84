"""Numerical verification of intersection kinematics and Hamiltonian volume
bounds for surfaces in the product of two unit 2-spheres."""

from .errors import (
    CoaxialCircles,
    DegenerateParameterization,
    DegreeTooHigh,
    ExcessiveDiscards,
    ExpressionSyntaxError,
    GridUnstable,
    NegativeAxis,
    NonOrthonormalInput,
    NonTransversalSample,
    NotLagrangian,
    NotLagrangianNormal,
    NotTangent,
    OutOfDomain,
    QuadratureNotConverged,
    S2xS2Error,
    StepSizeTooLarge,
    UnknownVariable,
)
from .expressions import HamiltonianExpr, parse_hamiltonian
from .geometry import (
    Bivector,
    ProductPoint,
    SpherePoint,
    TangentPlane,
    TangentVector,
    kahler_angle,
    normal_plane,
    subspace_angle,
    symplectic_form,
)
from .hamiltonian import (
    FlowParams,
    HamiltonianFunction,
    deform_surface,
    flow_point,
    hamiltonian_vector_field,
)
from .intersections import (
    IntersectionResult,
    circle_circle_count,
    count_product_product,
    count_surface_product,
)
from .rotations import (
    MEASURE,
    VOL_G,
    VOL_GK,
    VOL_K,
    VOL_SO3,
    GroupElement,
    MeasureConstants,
    Rotation,
    apply,
    apply_tangent,
)
from .sigma import (
    CellInvariants,
    EllipseSemiaxes,
    ellipse_perimeter,
    semiaxes_from_normal_plane,
    sigma_general,
    sigma_lagrangian_product,
)
from .surfaces import (
    Circle,
    GraphSurface,
    MeshSurface,
    ProductTorusSurface,
    anti_diagonal,
    diagonal,
    evaluate,
    great_torus,
    lagrangian_defect,
    latitude_torus,
    load_mesh,
    save_mesh,
    tangent_plane,
    volume,
)
from .verify import (
    MonteCarloEstimate,
    VerificationReport,
    kernel_rhs_general,
    mc_expected_count,
    rhs_theorem6,
    verify_main_chain,
    verify_poincare,
    verify_prop4_bounds,
)

__version__ = "0.1.0"
