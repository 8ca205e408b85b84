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
else 4 sqrt(R^2 - K^2) + 4 |K| arcsin(|K| / R).  sigma_general_batch
integrates that over phi in [0, pi/2] (R has period pi and is even about
pi/2) by a fixed Gauss-Legendre rule, on all rows at once:

* R is monotone in phi.  Measured by sigma, the distance from the end where R
  is smallest, R = hypot(R_min cos(sigma), R_max sin(sigma)).  Where |K| >= R
  the psi-integral is the constant 2 pi |K|, integrated exactly: that is all
  of [0, pi/2] when |K| >= R_max, none of it when |K| <= R_min, and otherwise
  sigma < sigma*, the kink where |K| = R.
* The rest, sigma in [sigma*, pi/2], starts with a panel of length h on which
  sigma = sigma* + h t^2: the (sigma - sigma*)^(3/2) term of the kink becomes
  analytic in t.  KERNEL_GRADED panels follow, graded geometrically from
  sigma* + h to pi/2.  h is the distance from sigma* to the nearest other
  singular point of the integrand (the kink's mirror image -sigma*, the
  complex zeros of R, or, without a real kink, the complex points where
  R = |K|), clipped to [KERNEL_FLOOR, pi/2 - sigma*].  So a near-segment
  integrand (R_min near 0), or a kink near an end, is resolved on the scale
  of its own singularity, and no breakpoint falls on sigma*.
* Each panel takes KERNEL_NODES nodes, and the rule is repeated with half as
  many; a row on which the two miss KERNEL_TOL raises QuadratureNotConverged.

Nothing is cached but the Gauss-Legendre rules; a row costs 15 x (32 + 16) =
720 integrand evaluations.  On 60 000 random, near-segment and near-end-kink
rows, and on rows with singular points at two scales, the two levels agree
to 7e-16; on 519 of them the values agree with a 30-digit mpmath quadrature
to 5e-16.

For a plane pair in which the first plane is Lagrangian and the second is the
normal plane of a product of curves, K = 0, P = cos^2, Q = sin^2, and the
integral equals 4 times the arc length of the ellipse with semiaxes
(sin^2, cos^2); the test suite sweeps that identity against the independent
AGM perimeter below.  K = 0 stays on the phi-quadrature rather than being
routed through the AGM, so that sweep keeps comparing two routes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NegativeAxis, QuadratureNotConverged
from .geometry import structure_pairing_batch
from .surfaces import _gauss_legendre

DEGENERATE_AXIS = 1e-8
AGM_SETTLED = 2.0 ** -53   # AGM gap, relative to the mean, at which the iteration stops

KERNEL_TOL = 1e-12   # relative agreement of the kernel rule's two levels
KERNEL_NODES = 32    # Gauss-Legendre nodes per kernel panel; the check level has half
# geometrically graded panels after the kink panel: their ratio is at most
# (pi/2 / KERNEL_FLOOR)^(1/14) = 4.5, so for a singular point anywhere behind
# or beside them the coarse level's Bernstein-ellipse bound is under 1e-14
KERNEL_GRADED = 14
KERNEL_FLOOR = 1e-9  # shortest kink panel: a singular point closer than this moves
                     # the integral by about its distance squared, under 1e-16 here
KERNEL_ROW_NODES = (KERNEL_GRADED + 1) * KERNEL_NODES  # a row's nodes at the finer level


class CellInvariants(NamedTuple):
    """Angle invariants (theta1, theta2, tau1, tau2) of a plane pair.

    The canonical range is 0 <= theta1 +- theta2 <= pi (same for tau); values
    outside it are accepted since the kernel extends smoothly and several
    reference evaluations use out-of-range representatives.  As a tuple it
    is one (4,) row of the kernel's invariant arrays.
    """

    theta1: float
    theta2: float
    tau1: float
    tau2: float


def ellipse_perimeter(a: float, b: float) -> float:
    """Arc length of x^2/a^2 + y^2/b^2 = 1: the scalar view of ellipse_perimeter_batch.

    Continuous in (a, b) including the degenerate cases: a circle of radius r
    gives 2 pi r, a segment (one axis zero) gives 4 times the other axis.
    """
    return float(ellipse_perimeter_batch(a, b))


def ellipse_perimeter_batch(a, b):
    """Arc length for equal-shape arrays of semiaxes via the AGM form of the
    complete elliptic integral of the second kind.

    Non-finite semiaxes, and semiaxes whose perimeter overflows, raise
    InvalidInput; negative ones raise NegativeAxis.  The AGM stops after the
    first iteration at which every gap c is at most 2^-53 x; the later
    iterations of the fixed 16 that bound it change no bit of the result
    (the test suite keeps that loop as the reference).  The passes work in
    place on the larger and smaller semiaxis, which the checks read too:
    the ratio of the two is formed once, and the AGM starts from x = 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    big = np.maximum(a, b).reshape(-1)
    small = np.minimum(a, b).reshape(-1)
    # one test passes every finite, nonnegative pair; a failure is then named
    if not ((small >= 0.0).all() and (big < np.inf).all()):
        if not (np.isfinite(big).all() and np.isfinite(small).all()):
            raise InvalidInput("semiaxes must be finite")
        raise NegativeAxis("semiaxes must be nonnegative")
    # the AGM loses accuracy for a near-segment; the limit there is exact, and
    # the AGM runs a circle (ratio 1) in its place, which is settled at once.
    # Both semiaxes 0 give the ratio nan, which the negated test counts in.
    with np.errstate(invalid="ignore"):
        m = np.divide(small, big, out=small)
    degenerate = ~(m >= DEGENERATE_AXIS)
    np.copyto(m, 1.0, where=degenerate)
    m *= m
    np.subtract(1.0, m, out=m)           # m = 1 - ratio^2
    y = np.subtract(1.0, m)
    np.sqrt(y, out=y)
    S = np.multiply(m, 0.5, out=m)
    x, c, p = 1.0, np.empty_like(y), 1.0
    # quadratic convergence: 16 iterations cover the admissible range
    for _ in range(16):
        np.subtract(x, y, out=c)
        c *= 0.5
        xy = x * y
        x += y
        x *= 0.5
        y = np.sqrt(xy, out=xy)
        settled = np.all(c <= AGM_SETTLED * x)
        c *= c
        c *= p
        S += c
        p *= 2.0
        if settled:
            break
    # 4 big K (1 - S) with K = pi / (2 x): 2 pi / x is 4 K exactly, and
    # (4 K) big rounds as (4 big) K does, since a factor of 4 is exact
    with np.errstate(over="ignore"):
        out = np.divide(2.0 * np.pi, x, out=x)
        out *= big
        out *= np.subtract(1.0, S, out=S)
        np.multiply(big, 4.0, out=out, where=degenerate)
    if not np.isfinite(out).all():
        raise InvalidInput("the perimeter overflows: semiaxes too large")
    return out.reshape(shape)


def _kernel_coefficients(inv):
    """Constants (K, P, Q) of the reduced integrand for invariant rows (..., 4).

    Expanding the Gram determinant of the rotated normal-form bases
    (phi in the e1-e2 plane against u', psi in the e3-e4 plane against v),
    the cos^2 and sin^2 terms collapse and only three constants survive:
    det = K + P cos(phi) cos(psi) + Q sin(phi) sin(psi).
    """
    t1, t2, s1, s2 = np.moveaxis(np.asarray(inv, dtype=float), -1, 0)
    sn1, c1, sn2, c2 = np.sin(t1), np.cos(t1), np.sin(t2), np.cos(t2)
    ct1, st1, ct2, st2 = np.cos(s1), np.sin(s1), np.cos(s2), np.sin(s2)
    K = sn1 * sn2 * ct1 * ct2 + c1 * c2 * st1 * st2
    P = -(sn1 * c2 * ct1 * st2 + c1 * sn2 * st1 * ct2)
    Q = sn1 * c2 * st1 * ct2 + c1 * sn2 * ct1 * st2
    return K, P, Q


def _kink_panels(k, r_min, r_max):
    """Where the psi-integral stops being constant, and the rule's first panel.

    Returns (sigma*, h): the kink sigma* (0 if R > k everywhere, pi/2 if
    nowhere) and the length h of the panel that starts there (module
    docstring).  The sines and cosines of the kink and of the complex
    singular points are ratios of differences of squares, each factored so
    that it keeps its relative accuracy.
    """
    d = (r_max - r_min) * (r_max + r_min)          # R_max^2 - R_min^2
    flat = d <= 0.0                                # R constant: no singular point
    d = np.where(flat, 1.0, d)
    kink = (r_min < k) & (k < r_max)
    above = np.sqrt(np.maximum(k - r_min, 0.0) * (k + r_min))
    below = np.sqrt(np.maximum(r_max - k, 0.0) * (r_max + k))
    start = np.where(kink, np.arctan2(above, below), np.where(k >= r_max, 0.5 * np.pi, 0.0))
    # the zeros of R sit at +-i y0 and, without a kink, the points R = k at
    # +-i y_k; with one, the mirror -sigma* is 2 sigma* away
    y0 = np.arcsinh(r_min / np.sqrt(d))
    y_k = np.arcsinh(np.sqrt(np.maximum(r_min - k, 0.0) * (r_min + k) / d))
    h = np.where(kink, np.minimum(2.0 * start, np.hypot(start, y0)), y_k)
    h = np.where(flat, np.inf, h)
    return start, np.minimum(np.maximum(h, KERNEL_FLOOR), 0.5 * np.pi - start)


def _kernel_rule(k, r_min, r_max, start, h, n):
    """4 x the phi-integral of the psi-integral on n nodes per panel, per row."""
    x, w = _gauss_legendre(n)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    start, h, kk = start[:, None], h[:, None], k[:, None]
    length = 0.5 * np.pi - start
    grade = length / np.where(h > 0.0, h, 1.0)  # h = 0 only on an empty w-branch
    edges = start + h * grade ** (np.arange(KERNEL_GRADED + 1) / KERNEL_GRADED)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    sigma = np.concatenate([start + h * (t * t), (a + (b - a) * t).reshape(len(k), -1)], axis=1)
    weight = np.concatenate([2.0 * h * (t * wt), ((b - a) * wt).reshape(len(k), -1)], axis=1)
    R = np.hypot(r_min[:, None] * np.cos(sigma), r_max[:, None] * np.sin(sigma))
    # 4 w + 4 k arcsin(k / R) with w = sqrt(R^2 - k^2), written through
    # arcsin(k / R) = pi/2 - atan2(w, k): arcsin near 1 would turn the rounding
    # of k / R into an error of order sqrt(eps) where the branches meet.
    # Where R <= k, w = 0 and this is the constant 2 pi k.
    wv = np.sqrt(np.maximum(R - kk, 0.0) * (R + kk))
    inner = 2.0 * np.pi * kk + 4.0 * (wv - kk * np.arctan2(wv, kk))
    return 4.0 * (2.0 * np.pi * k * start[:, 0] + (weight * inner).sum(axis=1))


def sigma_general_batch(inv):
    """Isotropy-averaged angle kernel of invariant rows (..., 4) = (theta1,
    theta2, tau1, tau2), one value per row.

    The fixed Gauss-Legendre phi-rule of the module docstring, on every row
    at once: its temporaries hold KERNEL_ROW_NODES floats per row, so a
    caller with many rows passes them in blocks.  A row whose two levels
    miss KERNEL_TOL raises QuadratureNotConverged.  Values lie in
    [0, (2 pi)^2].
    """
    inv = np.asarray(inv, dtype=float)
    K, P, Q = (c.reshape(-1) for c in _kernel_coefficients(inv))
    k, p, q = np.abs(K), np.abs(P), np.abs(Q)
    r_min, r_max = np.minimum(p, q), np.maximum(p, q)
    start, h = _kink_panels(k, r_min, r_max)
    value = _kernel_rule(k, r_min, r_max, start, h, KERNEL_NODES)
    check = _kernel_rule(k, r_min, r_max, start, h, KERNEL_NODES // 2)
    # phrased so that a non-finite row fails it too
    missed = ~(np.abs(value - check) <= KERNEL_TOL * np.abs(value))
    if missed.any():
        i = int(np.argmax(missed))
        raise QuadratureNotConverged(
            f"kernel quadrature for K={K[i]:.6g}, P={P[i]:.6g}, Q={Q[i]:.6g} missed {KERNEL_TOL:.0e}")
    return value.reshape(inv.shape[:-1])


def sigma_general(inv: CellInvariants) -> float:
    """The kernel of one plane pair: sigma_general_batch on its one row."""
    return float(sigma_general_batch(inv))


def lagrangian_semiaxes_batch(points, a, b, area):
    """Ellipse semiaxes ((1+s)/2, (1-s)/2) of Lagrangian planes along the last axis.

    (a, b) span tangent planes at the base points and area is their area
    element |a ^ b| (1 for orthonormal rows).  s is the sine of the plane's
    J' angle, whose cosine is <J' a, b> / area; it equals that of the
    plane's orthogonal complement, so the semiaxes belong to the normal
    plane too.
    """
    c = np.abs(structure_pairing_batch("J'", points, a, b) / area)
    # 1 - min(|c|, 1)^2 is never negative
    s = np.sqrt(1.0 - np.minimum(c, 1.0) ** 2)
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
