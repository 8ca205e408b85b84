"""Rotation-averaged angle kernel for pairs of 2-planes, and ellipse arc length.

The kernel averages the wedge-norm angle of two planes over the isotropy
torus.  With the planes put into angular normal form (one plane given by its
orthogonal-complement basis u'_i, the other directly by v_i),

    u'_1 = sin(t1) e1 + cos(t1) e3,    u'_2 = sin(t2) e2 + cos(t2) e4,
    v_1  = cos(s1) e1 - sin(s1) e3,    v_2  = cos(s2) e2 - sin(s2) e4,

the averaged pairing of the rotated wedges reduces algebraically to

    |K + P cos(phi) cos(psi) + Q sin(phi) sin(psi)|

for constants K, P, Q read off the basis components (see _kernel_coefficients).
For fixed phi the psi-terms are R cos(psi - alpha), R = sqrt(P^2 cos^2 phi +
Q^2 sin^2 phi), and the psi-integral is closed-form: 2 pi |K| if |K| >= R,
else 4 sqrt(R^2 - K^2) + 4 |K| arcsin(|K| / R).  sigma_general integrates that
over phi in [0, pi/2] (R has period pi and is even about pi/2) by adaptive
quadrature, with the one kink sin^2 phi* = (K^2 - P^2) / (Q^2 - P^2), where
|K| = R, as a breakpoint.  Nothing is cached; a call takes under a millisecond.

For a plane pair in which the first plane is Lagrangian and the second is the
normal plane of a product of curves, K = 0, P = cos^2, Q = sin^2, and the
integral equals 4 times the arc length of the ellipse with semiaxes
(sin^2, cos^2); the test suite sweeps that identity against the independent
AGM perimeter below.  K = 0 stays on the phi-quadrature rather than being
routed through the AGM, so that sweep keeps comparing two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NegativeAxis, NotLagrangianNormal, QuadratureNotConverged
from .geometry import ProductPoint, TangentPlane, structure_pairing, structure_pairing_batch

LAGRANGIAN_TOL = 1e-6
DEGENERATE_AXIS = 1e-8

KERNEL_TOL = 1e-12  # relative tolerance of the kernel's phi-quadrature


@dataclass(frozen=True)
class CellInvariants:
    """Angle invariants (theta1, theta2, tau1, tau2) of a plane pair.

    The canonical range is 0 <= theta1 +- theta2 <= pi (same for tau); values
    outside it are accepted since the kernel extends smoothly and several
    reference evaluations use out-of-range representatives.
    """

    theta1: float
    theta2: float
    tau1: float
    tau2: float

    @property
    def in_cell(self) -> bool:
        return (
            0.0 <= self.theta1 + self.theta2 <= math.pi
            and 0.0 <= self.theta1 - self.theta2 <= math.pi
            and 0.0 <= self.tau1 + self.tau2 <= math.pi
            and 0.0 <= self.tau1 - self.tau2 <= math.pi
        )


def _check_semiaxes(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"semiaxes must be finite, got ({a}, {b})")
    if a < 0 or b < 0:
        raise NegativeAxis(f"semiaxes must be nonnegative, got ({a}, {b})")


@dataclass(frozen=True)
class EllipseSemiaxes:
    a: float
    b: float

    def __post_init__(self):
        _check_semiaxes(self.a, self.b)


def ellipse_perimeter(a: float, b: float) -> float:
    """Arc length of x^2/a^2 + y^2/b^2 = 1: the scalar view of ellipse_perimeter_batch.

    Continuous in (a, b) including the degenerate cases: a circle of radius r
    gives 2 pi r, a segment (one axis zero) gives 4 times the other axis.
    """
    _check_semiaxes(a, b)
    return float(ellipse_perimeter_batch(a, b))


def ellipse_perimeter_batch(a, b):
    """Arc length for equal-shape arrays of semiaxes via the AGM form of the
    complete elliptic integral of the second kind."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeAxis("semiaxes must be nonnegative")
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    safe_big = np.where(big > 0, big, 1.0)
    # the AGM loses accuracy for a near-segment; the limit there is exact
    degenerate = small / safe_big < DEGENERATE_AXIS
    m = 1.0 - (np.where(degenerate, 0.0, small) / safe_big) ** 2
    x = np.ones_like(m)
    y = np.sqrt(1.0 - m)
    S = 0.5 * m
    p = 1.0
    # quadratic convergence: 16 fixed iterations cover the admissible range
    for _ in range(16):
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        S += p * (c * c)
        p *= 2.0
    K = np.pi / (2.0 * x)
    out = 4.0 * big * K * (1.0 - S)
    return np.where(degenerate, 4.0 * big, out)


def ellipse_perimeter_quadrature(a: float, b: float) -> float:
    """Independent cross-check: adaptive quadrature of the arc-length integral."""
    _check_semiaxes(a, b)

    def speed(t):
        return math.hypot(a * math.cos(t), b * math.sin(t))

    val, _ = integrate.quad(speed, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 4.0 * val


def _normal_form_bases(inv: CellInvariants):
    """Explicit bases in angular normal form (4-dimensional model coordinates)."""
    t1, t2, s1, s2 = inv.theta1, inv.theta2, inv.tau1, inv.tau2
    u1 = np.array([math.sin(t1), 0.0, math.cos(t1), 0.0])
    u2 = np.array([0.0, math.sin(t2), 0.0, math.cos(t2)])
    v1 = np.array([math.cos(s1), 0.0, -math.sin(s1), 0.0])
    v2 = np.array([0.0, math.cos(s2), 0.0, -math.sin(s2)])
    return u1, u2, v1, v2


def _kernel_coefficients(inv: CellInvariants):
    """Constants (K, P, Q) of the reduced integrand.

    Expanding the Gram determinant of the rotated bases
    (phi in the e1-e2 plane against u', psi in the e3-e4 plane against v),
    the cos^2 and sin^2 terms collapse and only three constants survive:
    det = K + P cos(phi) cos(psi) + Q sin(phi) sin(psi).
    """
    u1, u2, v1, v2 = _normal_form_bases(inv)
    s1, c1 = u1[0], u1[2]
    s2, c2 = u2[1], u2[3]
    ct1, st1 = v1[0], -v1[2]
    ct2, st2 = v2[1], -v2[3]
    K = s1 * s2 * ct1 * ct2 + c1 * c2 * st1 * st2
    P = -(s1 * c2 * ct1 * st2 + c1 * s2 * st1 * ct2)
    Q = s1 * c2 * st1 * ct2 + c1 * s2 * ct1 * st2
    return K, P, Q


def _inner_integral(phi: float, K: float, P: float, Q: float) -> float:
    """INT_0^{2 pi} |K + P cos(phi) cos(psi) + Q sin(phi) sin(psi)| d psi, in closed form."""
    R = math.hypot(P * math.cos(phi), Q * math.sin(phi))
    k = abs(K)
    if k >= R:
        return 2.0 * math.pi * k
    # 4 w + 4 k arcsin(k / R) with w = sqrt(R^2 - k^2), written through
    # arcsin(k / R) = pi/2 - atan2(w, k): arcsin near 1 would turn the rounding
    # of k / R into an error of order sqrt(eps) where the branches meet
    w = math.sqrt((R - k) * (R + k))
    return 2.0 * math.pi * k + 4.0 * (w - k * math.atan2(w, k))


def sigma_general(inv: CellInvariants) -> float:
    """Rotation-averaged angle kernel for the plane pair with the given invariants.

    4 times the phi-quadrature over [0, pi/2] of the closed-form psi-integral,
    with the kink phi* as a breakpoint when it lies inside (module docstring).
    A quadrature that misses KERNEL_TOL raises QuadratureNotConverged.  Values
    lie in [0, (2 pi)^2].
    """
    K, P, Q = (float(c) for c in _kernel_coefficients(inv))
    s2 = (K * K - P * P) / (Q * Q - P * P) if P * P != Q * Q else 0.0
    points = (math.asin(math.sqrt(s2)),) if 0.0 < s2 < 1.0 else None
    value, _, _, *failure = integrate.quad(
        _inner_integral, 0.0, 0.5 * math.pi, args=(K, P, Q), points=points,
        epsabs=0.0, epsrel=KERNEL_TOL, limit=200, full_output=1)
    if failure:
        raise QuadratureNotConverged(
            f"kernel quadrature for K={K:.6g}, P={P:.6g}, Q={Q:.6g} missed {KERNEL_TOL:.0e}")
    return 4.0 * value


def lagrangian_semiaxes_batch(points, t1, t2):
    """Ellipse semiaxes ((1+s)/2, (1-s)/2) of Lagrangian planes along the last axis.

    (t1, t2) are orthonormal bases of tangent planes at the base points.  s is
    the sine of the plane's J' angle, which equals that of its orthogonal
    complement, so the semiaxes belong to the normal plane too.
    """
    c = structure_pairing_batch("J'", points, t1, t2)
    s = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(np.abs(c), 1.0) ** 2))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def cell_angles_batch(points, t1, t2):
    """Signed angular coordinates (A, B) of oriented planes along the last axis.

    A = arccos <J' t1, t2> and B = arccos <J t1, t2>, both in [0, pi], with
    the pairings clipped to [-1, 1].  For a plane in angular normal form with
    parameters (t1, t2) these are t1 + t2 and t1 - t2.
    """
    c_a = np.clip(structure_pairing_batch("J'", points, t1, t2), -1.0, 1.0)
    c_b = np.clip(structure_pairing_batch("J", points, t1, t2), -1.0, 1.0)
    return np.arccos(c_a), np.arccos(c_b)


def semiaxes_from_normal_plane(x: ProductPoint, plane: TangentPlane) -> EllipseSemiaxes:
    """Ellipse semiaxes attached to the normal plane of a Lagrangian tangent plane.

    The scalar view of lagrangian_semiaxes_batch.  The input must be the
    normal plane of a Lagrangian plane, i.e. itself Lagrangian for J.
    """
    c_j = abs(structure_pairing(plane, "J"))
    if c_j > LAGRANGIAN_TOL:
        raise NotLagrangianNormal(
            f"plane pairs with J at {c_j:.3e}; not the normal of a Lagrangian plane"
        )
    t1, t2 = plane.basis
    a, b = lagrangian_semiaxes_batch(plane.point.ambient, t1.ambient, t2.ambient)
    return EllipseSemiaxes(float(a), float(b))


def sigma_lagrangian_product(semiaxes: EllipseSemiaxes) -> float:
    """Kernel value for a Lagrangian plane against a product-of-curves normal plane.

    Equals 4 times the ellipse arc length; over the admissible semiaxes family
    (a + b = 1) the range is [4 pi, 16], with the minimum at the circle
    (1/2, 1/2) and the maximum at the degenerate cases (1, 0) and (0, 1).
    """
    return 4.0 * ellipse_perimeter(semiaxes.a, semiaxes.b)


def plane_cell_angles(plane: TangentPlane) -> tuple[float, float]:
    """Signed angular coordinates (A, B) of an oriented plane: the scalar view of
    cell_angles_batch."""
    t1, t2 = plane.basis
    a, b = cell_angles_batch(plane.point.ambient, t1.ambient, t2.ambient)
    return float(a), float(b)


def invariants_from_normal_planes(normal_n: TangentPlane, normal_l: TangentPlane) -> CellInvariants:
    """Cell invariants of a surface pair from their normal planes at a point pair."""
    a_n, b_n = plane_cell_angles(normal_n)
    a_l, b_l = plane_cell_angles(normal_l)
    return CellInvariants(
        theta1=0.5 * (a_n + b_n),
        theta2=0.5 * (a_n - b_n),
        tau1=0.5 * (a_l + b_l),
        tau2=0.5 * (a_l - b_l),
    )
