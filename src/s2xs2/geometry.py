"""Tangent-space linear and symplectic algebra on the product of two unit spheres.

The ambient model is R^3 x R^3: a point is a (..., 6) array holding a pair
(p, q) of unit vectors, and a tangent vector at (p, q) is a (..., 6) array
(u, v) with u perpendicular to p and v perpendicular to q.  A 2-plane at a
point is an orthonormal row pair (t1, t2).  Two orthogonal complex
structures act on each tangent space,

    J (u, v) = (p x u,  q x v),        J'(u, v) = (p x u, -q x v),

and the symplectic form is the sum of the unit-sphere area forms,

    omega((u1,v1), (u2,v2)) = <p, u1 x u2> + <q, v1 x v2>.

A 2-plane has angle arccos|<J t1, t2>| with respect to a structure: 0 for
complex lines, pi/2 for Lagrangian planes.  Every kernel here broadcasts
over leading axes, so a single point is a batch of one row.
"""

from __future__ import annotations

import numpy as np

STRUCTURES = ("J", "J'")


def wedge_norm(rows):
    """||r1 ^ ... ^ rk|| for each stack of k rows in a (..., k, d) array.

    The square root of the Gram determinant, clipped to [0, 1]: for two
    orthonormal pairs it vanishes iff their spans meet and equals 1 iff they
    are orthogonal.
    """
    rows = np.asarray(rows, dtype=float)
    det = np.linalg.det(rows @ np.swapaxes(rows, -1, -2))
    return np.sqrt(np.clip(det, 0.0, 1.0))


def orthonormal_pairs(du, dv):
    """Orthonormalize (du, dv) row pairs; returns (t1, t2, degenerate_mask).

    A pair is degenerate where a row vanishes or the sine of their angle is
    below 1e-12.
    """
    du = np.asarray(du, dtype=float)
    dv = np.asarray(dv, dtype=float)
    n1 = np.sqrt(np.einsum("...k,...k->...", du, du))
    nv = np.sqrt(np.einsum("...k,...k->...", dv, dv))
    bad = (n1 < 1e-14) | (nv < 1e-14)
    n1s = np.where(bad, 1.0, n1)
    t1 = du / n1s[..., None]
    r = dv - np.einsum("...k,...k->...", dv, t1)[..., None] * t1
    n2 = np.sqrt(np.einsum("...k,...k->...", r, r))
    sin_angle = n2 / np.where(bad, 1.0, nv)
    bad = bad | (sin_angle < 1e-12)
    t2 = r / np.where(bad, 1.0, n2)[..., None]
    return t1, t2, bad


def omega_batch(points, a, b):
    """Symplectic form on rows of tangent vectors a, b at base points (all (n, 6))."""
    points = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.sum(points[..., :3] * np.cross(a[..., :3], b[..., :3]), axis=-1)
    out += np.sum(points[..., 3:] * np.cross(a[..., 3:], b[..., 3:]), axis=-1)
    return out


def structure_pairing_batch(structure, points, a, b):
    """Signed pairing <J a, b> rows for J or J' at the given base points."""
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
    points = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _cross_dot(points[..., :3], a[..., :3], b[..., :3], negate=False) \
        + _cross_dot(points[..., 3:], a[..., 3:], b[..., 3:], negate=structure == "J'")


def _cross_dot(p, a, b, negate):
    """<p x a, b> (or its negative) along the last axis, by components.

    The products and the order of the sum are those of np.cross followed by
    np.sum over the last axis, which adds from +0.0, so the rows agree with
    that form bitwise, signed zeros included, without its temporaries.
    """
    p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    t0 = (p1 * a2 - p2 * a1) * b[..., 0]
    t1 = (p2 * a0 - p0 * a2) * b[..., 1]
    t2 = (p0 * a1 - p1 * a0) * b[..., 2]
    if negate:
        return 0.0 - t0 - t1 - t2
    return 0.0 + t0 + t1 + t2
