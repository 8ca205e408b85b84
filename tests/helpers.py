"""Shared constructions and references for the test suite.

As in the package, a point of S2 x S2 and a tangent vector are (6,) ambient
arrays, and a 2-plane at a point x is a (2, 6) array of orthonormal rows
(t1, t2).  These constructions build planes literally, one at a time, as
references for the batch kernels.
"""

import math

import numpy as np
from scipy import integrate

from s2xs2.geometry import orthonormal_pairs, structure_pairing_batch
from s2xs2.hamiltonian import flow_points


def random_sphere_point(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_product_point(rng):
    return np.concatenate([random_sphere_point(rng), random_sphere_point(rng)])


def random_tangent_vector(rng, x, scale=1.0):
    v1 = np.cross(x[:3], rng.normal(size=3))
    v2 = np.cross(x[3:], rng.normal(size=3))
    return scale * np.concatenate([v1, v2])


def kahler_angle(x, plane, structure):
    """arccos |<J t1, t2>| of the plane (t1, t2) at x, in [0, pi/2], from the batch pairing."""
    c = structure_pairing_batch(structure, x, plane[0], plane[1])
    return float(np.arccos(min(abs(float(c)), 1.0)))


def projector(plane):
    return plane.T @ plane


def orthonormalize(rows):
    """Modified Gram-Schmidt on the rows, re-orthogonalized if badly conditioned.

    Returns a (k, d) array with orthonormal rows spanning the same subspace.
    Raises ValueError on rank deficiency.
    """
    A = np.array(rows, dtype=float)
    norms_in = np.linalg.norm(A, axis=1)
    if np.any(norms_in < 1e-14):
        raise ValueError("rank-deficient input to orthonormalize")

    def mgs(M):
        Q = M.copy()
        shrink = 1.0
        for i in range(Q.shape[0]):
            for j in range(i):
                Q[i] -= np.dot(Q[i], Q[j]) * Q[j]
            n = np.linalg.norm(Q[i])
            if n < 1e-14:
                raise ValueError("rank-deficient input to orthonormalize")
            shrink = min(shrink, n / np.linalg.norm(M[i]))
            Q[i] /= n
        return Q, shrink

    Q, shrink = mgs(A / norms_in[:, None])
    if shrink < 1e-6:  # a row lost six digits to the projections: run MGS again
        Q, _ = mgs(Q)
    return Q


def tangent_frame(x):
    """Deterministic orthonormal frame, rows (e1, e2, e3, e4), of the tangent space at x.

    e1, e2 span the first-factor tangent plane with e2 = p x e1, and likewise
    e3, e4 for the second factor with e4 = q x e3, so the frame is adapted to
    both complex structures.
    """
    frame = np.zeros((4, 6))
    for k, base in ((0, x[:3]), (1, x[3:])):
        aux = np.array([0.0, 1.0, 0.0]) if abs(base[1]) <= 0.9 else np.array([1.0, 0.0, 0.0])
        b1 = np.cross(aux, base)
        b1 /= np.linalg.norm(b1)
        frame[2 * k, 3 * k:3 * k + 3] = b1
        frame[2 * k + 1, 3 * k:3 * k + 3] = np.cross(base, b1)
    return frame


def rotate_tangent_about_factors(x, v, phi, psi):
    """Isotropy action at x: rotate the factor parts of v by phi about p and psi about q."""

    def rot(axis, w, ang):
        # Rodrigues for w perpendicular-ish to axis; exact for tangent inputs
        return (
            w * np.cos(ang)
            + np.cross(axis, w) * np.sin(ang)
            + axis * np.dot(axis, w) * (1 - np.cos(ang))
        )

    return np.concatenate([rot(x[:3], v[:3], phi), rot(x[3:], v[3:], psi)])


def plane_from_invariants(x, theta1, theta2, phi=0.0, psi=0.0):
    """Plane spanned by sin(t1) e1 + cos(t1) e3 and sin(t2) e2 + cos(t2) e4.

    Built in the adapted frame at x and optionally moved by the isotropy
    rotations (phi, psi).  The angle invariants of the resulting plane are
    arccos|cos(theta1 - theta2)| for J and arccos|cos(theta1 + theta2)| for J'.
    """
    e1, e2, e3, e4 = tangent_frame(x)
    b1 = np.sin(theta1) * e1 + np.cos(theta1) * e3
    b2 = np.sin(theta2) * e2 + np.cos(theta2) * e4
    return np.stack([rotate_tangent_about_factors(x, b, phi, psi) for b in (b1, b2)])


def random_lagrangian_plane(rng, x):
    """Uniformly scattered Lagrangian plane: cell angle plus isotropy rotations."""
    theta = rng.uniform(np.pi / 4, 3 * np.pi / 4)
    phi, psi = rng.uniform(0.0, 2 * np.pi, size=2)
    return plane_from_invariants(x, theta, theta - np.pi / 2, phi, psi)


def normal_plane(x, plane):
    """Orthogonal complement of a 2-plane inside the 4-dimensional tangent space at x.

    The returned rows are orthonormal; applying the operation twice yields a
    plane spanning the same subspace as the input.
    """
    frame = tangent_frame(x)          # 4 x 6
    coords = plane @ frame.T          # 2 x 4 coordinates of the rows in the frame
    # nullspace of coords: directions in the frame orthogonal to the plane
    _, _, vt = np.linalg.svd(coords)
    return orthonormalize(vt[2:] @ frame)


def tangent_plane(surface, u, v, chart=0):
    """The point x and the orthonormalized tangent plane of a surface at chart parameters (u, v).

    Built explicitly: partials, Gram-Schmidt, radial components projected
    out, then a second orthonormalization.
    """
    x = surface.points(chart, u, v)
    du, dv = surface.partials(chart, u, v)
    t1, t2, bad = orthonormal_pairs(du, dv)
    assert not bad, f"partials degenerate at ({u}, {v})"
    # project out radial components left by differencing noise
    b = np.stack([t1, t2])
    for k in (slice(0, 3), slice(3, 6)):
        b[:, k] -= np.outer(b[:, k] @ x[k], x[k])
    return x, orthonormalize(b)


def wedge(a, b):
    """a ^ b for two 4-vectors, in the orthonormal basis e_i ^ e_j (i < j) of
    Lambda^2 ordered (12, 13, 14, 23, 24, 34)."""
    return np.array([
        a[0] * b[1] - a[1] * b[0],
        a[0] * b[2] - a[2] * b[0],
        a[0] * b[3] - a[3] * b[0],
        a[1] * b[2] - a[2] * b[1],
        a[1] * b[3] - a[3] * b[1],
        a[2] * b[3] - a[3] * b[2],
    ])


def ellipse_perimeter_quadrature(a, b):
    """Arc length of the ellipse with semiaxes (a, b) by adaptive quadrature:
    the reference for the AGM perimeter."""

    def speed(t):
        return math.hypot(a * math.cos(t), b * math.sin(t))

    val, _ = integrate.quad(speed, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 4.0 * val


def pushforward(H, x, v, params, eps=1e-5):
    """Central-difference pushforward of a tangent vector v at x under the time-t flow."""
    Y = flow_points(H, np.stack([x + eps * v, x - eps * v]), params)
    return (Y[0] - Y[1]) / (2.0 * eps)
