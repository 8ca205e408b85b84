"""Tangent-space linear and symplectic algebra on the product of two unit spheres.

The ambient model is R^3 x R^3: a point is a pair (p, q) of unit vectors and a
tangent vector at (p, q) is a pair (u, v) with u perpendicular to p and v
perpendicular to q.  Two orthogonal complex structures act on each tangent
space,

    J (u, v) = (p x u,  q x v),        J'(u, v) = (p x u, -q x v),

and the symplectic form is the sum of the unit-sphere area forms,

    omega((u1,v1), (u2,v2)) = <p, u1 x u2> + <q, v1 x v2>.

A 2-plane with orthonormal basis {t1, t2} has angle arccos|<J t1, t2>| with
respect to a structure: 0 for complex lines, pi/2 for Lagrangian planes.  All
angle computations here use that unsigned convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonOrthonormalInput, NotTangent

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-8
ORTHO_TOL = 1e-8

STRUCTURES = ("J", "J'")


def _as_unit(v, tol=UNIT_TOL):
    v = np.asarray(v, dtype=float).reshape(3)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit 2-sphere; coordinates are renormalized on construction."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(_as_unit(self.coords)))

    def __eq__(self, other):
        return isinstance(other, SpherePoint) and np.array_equal(self.coords, other.coords)


@dataclass(frozen=True)
class ProductPoint:
    """A point of S2 x S2 as a pair of sphere points."""

    first: SpherePoint
    second: SpherePoint

    @classmethod
    def from_ambient(cls, xyz6):
        xyz6 = np.asarray(xyz6, dtype=float).reshape(6)
        return cls(SpherePoint(xyz6[:3]), SpherePoint(xyz6[3:]))

    @property
    def ambient(self):
        return np.concatenate([self.first.coords, self.second.coords])

    def __eq__(self, other):
        return (
            isinstance(other, ProductPoint)
            and self.first == other.first
            and self.second == other.second
        )


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector of S2 x S2, one 3-vector per factor."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "first", _readonly(np.asarray(self.first, dtype=float).reshape(3)))
        object.__setattr__(self, "second", _readonly(np.asarray(self.second, dtype=float).reshape(3)))

    @classmethod
    def from_ambient(cls, v6):
        v6 = np.asarray(v6, dtype=float).reshape(6)
        return cls(v6[:3], v6[3:])

    @property
    def ambient(self):
        return np.concatenate([self.first, self.second])

    def norm(self):
        return float(np.linalg.norm(self.ambient))


def check_tangent(x: ProductPoint, v: TangentVector, tol: float = TANGENT_TOL):
    """Raise NotTangent if v is not tangent at x within tol."""
    d1 = abs(float(np.dot(v.first, x.first.coords)))
    d2 = abs(float(np.dot(v.second, x.second.coords)))
    if d1 > tol or d2 > tol:
        raise NotTangent(f"tangency defect ({d1:.3e}, {d2:.3e}) exceeds {tol:.1e}")


@dataclass(frozen=True)
class TangentPlane:
    """An oriented 2-plane in the tangent space at a point, as an orthonormal pair."""

    point: ProductPoint
    basis: tuple[TangentVector, TangentVector]

    def __post_init__(self):
        if len(self.basis) != 2:
            raise ValueError("TangentPlane basis must contain exactly two vectors")
        for v in self.basis:
            check_tangent(self.point, v)
        M = self.matrix
        _check_orthonormal(M.T, "TangentPlane basis")

    @classmethod
    def from_ambient(cls, point, b1, b2):
        return cls(point, (TangentVector.from_ambient(b1), TangentVector.from_ambient(b2)))

    @property
    def matrix(self):
        """6x2 matrix whose columns are the ambient basis vectors."""
        return np.stack([self.basis[0].ambient, self.basis[1].ambient], axis=1)


@dataclass(frozen=True)
class Bivector:
    """Element of Lambda^2 of a 4-dimensional inner-product space.

    Components are ordered in the basis e_i ^ e_j with i < j:
    (12, 13, 14, 23, 24, 34).  The basis is orthonormal for the induced
    inner product, so <e1^e2, e1^e2> = 1.
    """

    components: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        object.__setattr__(self, "components", _readonly(np.asarray(self.components, dtype=float).reshape(6)))

    @classmethod
    def wedge(cls, a, b):
        """a ^ b for two 4-vectors."""
        a = np.asarray(a, dtype=float).reshape(4)
        b = np.asarray(b, dtype=float).reshape(4)
        return cls([
            a[0] * b[1] - a[1] * b[0],
            a[0] * b[2] - a[2] * b[0],
            a[0] * b[3] - a[3] * b[0],
            a[1] * b[2] - a[2] * b[1],
            a[1] * b[3] - a[3] * b[1],
            a[2] * b[3] - a[3] * b[2],
        ])

    def inner(self, other: "Bivector") -> float:
        return float(np.dot(self.components, other.components))

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def _check_orthonormal(rows, what, tol=ORTHO_TOL):
    """rows: (k, d) array of basis vectors as rows."""
    G = rows @ rows.T
    dev = float(np.abs(G - np.eye(rows.shape[0])).max())
    if dev > tol:
        raise NonOrthonormalInput(f"{what}: Gram deviation {dev:.3e} exceeds {tol:.1e}")
    return dev


def _vectors_to_rows(vectors):
    rows = []
    for v in vectors:
        if isinstance(v, TangentVector):
            rows.append(v.ambient)
        else:
            rows.append(np.asarray(v, dtype=float).ravel())
    return np.stack(rows, axis=0)


def subspace_angle(V, W) -> float:
    """Wedge-norm angle between the spans of two orthonormal vector lists.

    Returns ||v1 ^ ... ^ vp ^ w1 ^ ... ^ wq||, computed as the square root of
    the Gram determinant of the concatenated system.  The value lies in
    [0, 1]: it vanishes iff the spans intersect nontrivially and equals 1 iff
    they are orthogonal complements of each other inside their joint span.
    """
    rv = _vectors_to_rows(V)
    rw = _vectors_to_rows(W)
    if rv.shape[1] != rw.shape[1]:
        raise ValueError("V and W must live in the same ambient space")
    if rv.shape[0] + rw.shape[0] > rv.shape[1]:
        raise ValueError("p + q exceeds the ambient dimension")
    _check_orthonormal(rv, "V")
    _check_orthonormal(rw, "W")
    return float(wedge_norm(np.concatenate([rv, rw], axis=0)))


def wedge_norm(rows):
    """||r1 ^ ... ^ rk|| for each stack of k rows in a (..., k, d) array.

    The square root of the Gram determinant, clipped to [0, 1]; for
    orthonormal pairs of planes it is the wedge-norm angle of subspace_angle.
    """
    rows = np.asarray(rows, dtype=float)
    det = np.linalg.det(rows @ np.swapaxes(rows, -1, -2))
    return np.sqrt(np.clip(det, 0.0, 1.0))


def apply_structure(structure: str, x: ProductPoint, v: TangentVector) -> TangentVector:
    """Apply the complex structure J or J' at x to a tangent vector."""
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
    sign = 1.0 if structure == "J" else -1.0
    return TangentVector(
        np.cross(x.first.coords, v.first),
        sign * np.cross(x.second.coords, v.second),
    )


def kahler_angle(plane: TangentPlane, structure: str) -> float:
    """Unsigned angle of a 2-plane with respect to J or J', in [0, pi/2].

    beta = arccos |<J t1, t2>| for any orthonormal basis {t1, t2}; the value
    is independent of the basis choice and of orientation.
    """
    return float(np.arccos(min(abs(structure_pairing(plane, structure)), 1.0)))


def structure_pairing(plane: TangentPlane, structure: str) -> float:
    """Signed pairing <J t1, t2> of the oriented plane with a structure."""
    t1, t2 = plane.basis
    return float(structure_pairing_batch(structure, plane.point.ambient, t1.ambient, t2.ambient))


def symplectic_form(x: ProductPoint, u: TangentVector, v: TangentVector) -> float:
    """Sum of unit-sphere area forms evaluated on two tangent vectors at x."""
    check_tangent(x, u)
    check_tangent(x, v)
    return float(omega_batch(x.ambient, u.ambient, v.ambient))


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


def tangent_frame(x: ProductPoint):
    """Deterministic orthonormal frame (e1, e2, e3, e4) of the tangent space at x.

    e1, e2 span the first-factor tangent plane with e2 = p x e1, and likewise
    e3, e4 for the second factor with e4 = q x e3, so the frame is adapted to
    both complex structures.
    """
    frame = []
    for base in (x.first.coords, x.second.coords):
        aux = np.array([0.0, 1.0, 0.0]) if abs(base[1]) <= 0.9 else np.array([1.0, 0.0, 0.0])
        b1 = _as_unit(np.cross(aux, base))
        b2 = np.cross(base, b1)
        frame.append((b1, b2))
    (e1f, e2f), (e3s, e4s) = frame
    z = np.zeros(3)
    return (
        TangentVector(e1f, z),
        TangentVector(e2f, z),
        TangentVector(z, e3s),
        TangentVector(z, e4s),
    )


def rotate_tangent_about_factors(x: ProductPoint, v: TangentVector, phi: float, psi: float) -> TangentVector:
    """Isotropy action at x: rotate factor components by phi about p and psi about q."""

    def rot(axis, w, ang):
        # Rodrigues for w perpendicular-ish to axis; exact for tangent inputs
        return (
            w * np.cos(ang)
            + np.cross(axis, w) * np.sin(ang)
            + axis * np.dot(axis, w) * (1 - np.cos(ang))
        )

    return TangentVector(rot(x.first.coords, v.first, phi), rot(x.second.coords, v.second, psi))


def plane_from_invariants(x: ProductPoint, theta1: float, theta2: float,
                          phi: float = 0.0, psi: float = 0.0) -> TangentPlane:
    """Plane spanned by sin(t1) e1 + cos(t1) e3 and sin(t2) e2 + cos(t2) e4.

    Built in the adapted frame at x and optionally moved by the isotropy
    rotations (phi, psi).  The angle invariants of the resulting plane are
    arccos|cos(theta1 - theta2)| for J and arccos|cos(theta1 + theta2)| for J'.
    """
    e1, e2, e3, e4 = (v.ambient for v in tangent_frame(x))
    b1 = np.sin(theta1) * e1 + np.cos(theta1) * e3
    b2 = np.sin(theta2) * e2 + np.cos(theta2) * e4
    p1 = rotate_tangent_about_factors(x, TangentVector.from_ambient(b1), phi, psi)
    p2 = rotate_tangent_about_factors(x, TangentVector.from_ambient(b2), phi, psi)
    return TangentPlane(x, (p1, p2))


def normal_plane(x: ProductPoint, plane: TangentPlane) -> TangentPlane:
    """Orthogonal complement of a 2-plane inside the 4-dimensional tangent space at x.

    The returned basis is orthonormal; applying the operation twice yields a
    plane spanning the same subspace as the input.
    """
    frame = np.stack([v.ambient for v in tangent_frame(x)], axis=1)  # 6x4
    coords = frame.T @ plane.matrix  # 4x2 coordinates of the basis in the frame
    # nullspace of coords^T: directions in the frame orthogonal to the plane
    _, _, vt = np.linalg.svd(coords.T)
    null = vt[2:]  # 2x4
    basis = (frame @ null.T).T  # 2x6
    basis = orthonormalize(basis)
    return TangentPlane.from_ambient(x, basis[0], basis[1])


# ---------------------------------------------------------------------------
# batch kernels on raw (n, 6) arrays; structure_pairing and symplectic_form are views
# ---------------------------------------------------------------------------

def orthonormal_pairs(du, dv, min_sin=1e-12):
    """Orthonormalize (du, dv) row pairs; returns (t1, t2, degenerate_mask)."""
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
    bad = bad | (sin_angle < min_sin)
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
