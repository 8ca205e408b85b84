"""Tangent-space linear and symplectic algebra on the product of two unit spheres.

The ambient model is R^3 x R^3: a point is a (..., 6) array holding a pair
(p, q) of unit vectors, and a tangent vector at (p, q) is a (..., 6) array
(u, v) with u perpendicular to p and v perpendicular to q.  A 2-plane at a
point is a pair of spanning rows (a, b) with its area element |a ^ b|.  Two
orthogonal complex structures act on each tangent space,

    J (u, v) = (p x u,  q x v),        J'(u, v) = (p x u, -q x v),

and the symplectic form, the sum of the unit-sphere area forms, is the J
pairing omega(a, b) = <J a, b>, computed by structure_pairing_batch("J", ...).

A 2-plane has angle arccos(|<J a, b>| / |a ^ b|) with respect to a
structure: 0 for complex lines, pi/2 for Lagrangian planes.  J is skew, so
a change of basis scales <J a, b> and |a ^ b| alike, up to the sign of the
orientation, and no kernel orthonormalizes a pair: the contour counter's
transversality gate, too, compares two planes by plane_area alone.  Every
kernel here broadcasts over leading axes, so a single point is a batch of
one row.  The kernels read their inputs by component, x[..., k], so they run
on contiguous rows when the (..., 6) arrays are views of component-major
(6, n) storage, as the surface quadrature's tiles are.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

STRUCTURES = ("J", "J'")


def plane_area(a, b, out=None):
    """Area element |a ^ b| = sqrt(EG - F^2) of (..., 6) spanning-row pairs,
    and their degenerate mask.

    A pair is degenerate where a row is shorter than 1e-14 or the sine of
    their angle, |a ^ b| / (|a| |b|), is below 1e-12, in terms of E = |a|^2,
    G = |b|^2 and the area.  EG - F^2 cancels as the square of that sine, so
    a sine below about 1e-8 is not resolved and the mask there follows the
    rounding of F.  The area is written to out when it is given.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    E, F, G = _dot(a, a), _dot(a, b), _dot(b, b)
    EG = E * G
    area = np.sqrt(np.maximum(EG - F * F, 0.0), out=out)
    degenerate = (E < 1e-28) | (G < 1e-28) | (area < 1e-12 * np.sqrt(EG))
    return area, degenerate


def _dot(a, b):
    """<a, b> along the last axis of (..., 6) arrays, by components.

    The products are summed in two lanes, ((a0 b0 + a2 b2) + a4 b4) +
    ((a1 b1 + a3 b3) + a5 b5): the order numpy's einsum takes over a
    contiguous axis of six (two double lanes, no fused multiply-add), so the
    rows agree bitwise with np.einsum("...k,...k->...", a, b) on C-ordered
    arrays.
    """
    even = a[..., 0] * b[..., 0]
    even += a[..., 2] * b[..., 2]
    even += a[..., 4] * b[..., 4]
    odd = a[..., 1] * b[..., 1]
    odd += a[..., 3] * b[..., 3]
    odd += a[..., 5] * b[..., 5]
    even += odd
    return even


def structure_pairing_batch(structure, points, a, b):
    """Signed pairing <J a, b> rows for J or J' at the given base points."""
    if structure not in STRUCTURES:
        raise InvalidInput(f"structure must be one of {STRUCTURES}, got {structure!r}")
    points = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not points.shape == a.shape == b.shape:   # _cross_dot works in place
        points, a, b = np.broadcast_arrays(points, a, b)
    pairing = _cross_dot(points[..., :3], a[..., :3], b[..., :3], negate=False)
    pairing += _cross_dot(points[..., 3:], a[..., 3:], b[..., 3:], negate=structure == "J'")
    return pairing


def _cross_dot(p, a, b, negate):
    """<p x a, b> (or its negative) along the last axis, by components.

    The products and the order of the sum are those of np.cross followed by
    np.sum over the last axis, which adds from +0.0, so the rows agree with
    that form bitwise, signed zeros included, without its temporaries: each
    term is formed in place in the array of its first product.
    """
    p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    t0 = p1 * a2
    t0 -= p2 * a1
    t0 *= b[..., 0]
    t1 = p2 * a0
    t1 -= p0 * a2
    t1 *= b[..., 1]
    t2 = p0 * a1
    t2 -= p1 * a0
    t2 *= b[..., 2]
    if negate:
        t0 = 0.0 - t0
        t0 -= t1
        t0 -= t2
    else:
        t0 += 0.0
        t0 += t1
        t0 += t2
    return t0
