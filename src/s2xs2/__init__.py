"""Numerical verification of intersection kinematics and Hamiltonian volume
bounds for surfaces in the product of two unit 2-spheres."""

from .errors import (
    CoaxialCircles,
    DegreeTooHigh,
    ExcessiveDiscards,
    ExpressionSyntaxError,
    GridUnstable,
    NegativeAxis,
    NonTransversalSample,
    NotLagrangian,
    QuadratureNotConverged,
    S2xS2Error,
    StepSizeTooLarge,
    UnknownVariable,
)
from .expressions import HamiltonianExpr, parse_hamiltonian
from .hamiltonian import FlowParams, HamiltonianFunction, deform_surface
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
)
from .sigma import (
    CellInvariants,
    ellipse_perimeter,
    sigma_general,
)
from .surfaces import (
    Circle,
    GraphSurface,
    MeshSurface,
    ProductTorusSurface,
    anti_diagonal,
    diagonal,
    great_torus,
    lagrangian_defect,
    latitude_torus,
    load_mesh,
    save_mesh,
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
