"""Numerical verification of intersection kinematics and Hamiltonian volume
bounds for surfaces in the product of two unit 2-spheres."""

from .errors import (
    CoaxialCircles,
    DegreeTooHigh,
    ExcessiveDiscards,
    ExpressionSyntaxError,
    GridUnstable,
    InvalidInput,
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
from .rotations import VOL_G, VOL_GK, VOL_K, VOL_SO3
from .sigma import (
    CellInvariants,
    ellipse_perimeter,
    sigma_general,
    sigma_general_batch,
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
