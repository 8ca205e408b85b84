"""Isotropy-averaged angle kernel for pairs of 2-planes, and ellipse arc length.

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

from .errors import NegativeAxis, QuadratureNotConverged
from .geometry import structure_pairing_batch

DEGENERATE_AXIS = 1e-8
AGM_SETTLED = 2.0 ** -53   # AGM gap, relative to the mean, at which the iteration stops

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


def ellipse_perimeter(a: float, b: float) -> float:
    """Arc length of x^2/a^2 + y^2/b^2 = 1: the scalar view of ellipse_perimeter_batch.

    Continuous in (a, b) including the degenerate cases: a circle of radius r
    gives 2 pi r, a segment (one axis zero) gives 4 times the other axis.
    """
    return float(ellipse_perimeter_batch(a, b))


def ellipse_perimeter_batch(a, b):
    """Arc length for equal-shape arrays of semiaxes via the AGM form of the
    complete elliptic integral of the second kind.

    Non-finite semiaxes raise ValueError, negative ones NegativeAxis.  The
    AGM stops after the first iteration at which every gap c is at most
    2^-53 x; the later iterations of the fixed 16 that bound it change no
    bit of the result (the test suite keeps that loop as the reference).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("semiaxes must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeAxis("semiaxes must be nonnegative")
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    safe_big = np.where(big > 0, big, 1.0)
    # the AGM loses accuracy for a near-segment; the limit there is exact, and
    # the AGM runs a circle in its place, which is settled at once
    degenerate = small / safe_big < DEGENERATE_AXIS
    m = np.where(degenerate, 0.0, 1.0 - (small / safe_big) ** 2)
    x = np.ones_like(m)
    y = np.sqrt(1.0 - m)
    S = 0.5 * m
    p = 1.0
    # quadratic convergence: 16 iterations cover the admissible range
    for _ in range(16):
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        S += p * (c * c)
        p *= 2.0
        if np.all(c <= AGM_SETTLED * x):
            break
    K = np.pi / (2.0 * x)
    out = 4.0 * big * K * (1.0 - S)
    return np.where(degenerate, 4.0 * big, out)


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
    """Isotropy-averaged angle kernel for the plane pair with the given invariants.

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


def lagrangian_semiaxes_batch(points, a, b, area):
    """Ellipse semiaxes ((1+s)/2, (1-s)/2) of Lagrangian planes along the last axis.

    (a, b) span tangent planes at the base points and area is their area
    element |a ^ b| (1 for orthonormal rows).  s is the sine of the plane's
    J' angle, whose cosine is <J' a, b> / area; it equals that of the
    plane's orthogonal complement, so the semiaxes belong to the normal
    plane too.
    """
    c = structure_pairing_batch("J'", points, a, b) / area
    s = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(np.abs(c), 1.0) ** 2))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def cell_angles_batch(points, a, b, area):
    """Signed angular coordinates (A, B) of oriented planes along the last axis.

    (a, b) span the planes and area is their area element |a ^ b| (1 for
    orthonormal rows).  A = arccos(<J' a, b> / area) and B =
    arccos(<J a, b> / area), both in [0, pi], with the cosines clipped to
    [-1, 1].  For a plane in angular normal form with parameters (t1, t2)
    these are t1 + t2 and t1 - t2.
    """
    c_a = np.clip(structure_pairing_batch("J'", points, a, b) / area, -1.0, 1.0)
    c_b = np.clip(structure_pairing_batch("J", points, a, b) / area, -1.0, 1.0)
    return np.arccos(c_a), np.arccos(c_b)
