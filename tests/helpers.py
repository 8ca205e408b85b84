"""Shared constructions and references for the test suite.

As in the package, a point of S2 x S2 and a tangent vector are (6,) ambient
arrays, and a 2-plane at a point x is a (2, 6) array of orthonormal rows
(t1, t2).  These constructions build planes literally, one at a time, as
references for the batch kernels.
"""

import math

import numpy as np
from scipy import integrate

from s2xs2.errors import InvalidInput, NegativeAxis
from s2xs2.geometry import _dot, structure_pairing_batch
from s2xs2.hamiltonian import _component_major, _field, _points, _renormalize, flow_points
from s2xs2.intersections import (
    _CORNER_OFFSETS,
    CULL_BLOCK,
    CULL_MARGIN,
    GRAPH_COUNT_BAND,
    _cell_seeds,
    _sign_change_cells,
)
from s2xs2.rotations import group_matrices, haar_matrices, haar_quaternions
from s2xs2.sigma import AGM_SETTLED, DEGENERATE_AXIS, _kernel_coefficients
from s2xs2.surfaces import (
    Circle,
    GraphSurface,
    MeshSurface,
    ProductTorusSurface,
    _default_grid,
    chart_axes,
    surface_quadrature,
)


def random_sphere_point(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_product_point(rng):
    return np.concatenate([random_sphere_point(rng), random_sphere_point(rng)])


def random_tangent_vector(rng, x, scale=1.0):
    v1 = np.cross(x[:3], rng.normal(size=3))
    v2 = np.cross(x[3:], rng.normal(size=3))
    return scale * np.concatenate([v1, v2])


def group_sample(seed, index):
    """Sample index of a group-element stream as two (3, 3) rotation matrices."""
    r1, r2 = group_matrices(seed, index, 1)
    return r1[0], r2[0]


def group_quaternions(seed, start, count):
    """Two (count, 4) quaternion arrays for group-element stream indices:
    rotation blocks 2i and 2i+1 of the stream."""
    q = haar_quaternions(seed, 2 * start, 2 * count).reshape(count, 2, 4)
    return q[:, 0, :], q[:, 1, :]


def mean_stderr_by_fsum(counts):
    """Sample mean and standard error of counts, by math.fsum over the counts
    as floats one at a time: the reference for verify._mean_stderr."""
    counts = [float(c) for c in counts]
    n = len(counts)
    mean = math.fsum(counts) / n
    var = math.fsum((c - mean) ** 2 for c in counts) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def haar_stats_by_one_batch(seed, n):
    """The six numbers of a haar-stats report, by the formulas it used when
    it drew all n rotations as one haar_matrices batch: the reference for
    the chunked stream."""
    mats = haar_matrices(seed, 0, n)
    r11 = mats[:, 0, 0]
    sq = r11 ** 2
    trace = np.trace(mats, axis1=1, axis2=2)
    return {
        "lhs": float(sq.mean()),
        "stderr": float(sq.std(ddof=1) / math.sqrt(n)),
        "mean_r11": float(r11.mean()),
        "stderr_r11": float(r11.std(ddof=1) / math.sqrt(n)),
        "mean_trace": float(trace.mean()),
        "stderr_trace": float(trace.std(ddof=1) / math.sqrt(n)),
    }


def act(r1, r2, x):
    """Factor-wise action of the group element (r1, r2) on ambient rows x
    (points or tangent vectors)."""
    return np.concatenate([x[..., :3] @ r1.T, x[..., 3:] @ r2.T], axis=-1)


def moved_circle(circle, r):
    """The circle r C: its axis turned by the rotation matrix r, its offset kept."""
    return Circle(r @ circle.axis, circle.offset)


def moved_surface(surface, r1, r2):
    """The surface g N for the group element g = (r1, r2), in the same model.

    A graph {(z, M z)} goes to {(r1 z, r2 M z)}, the graph of r2 M r1^T.
    """
    if isinstance(surface, ProductTorusSurface):
        return ProductTorusSurface(moved_circle(surface.circle1, r1), moved_circle(surface.circle2, r2))
    if isinstance(surface, GraphSurface):
        return GraphSurface(r2 @ surface.rotation @ r1.T, surface.antipodal)
    if isinstance(surface, MeshSurface):
        return MeshSurface(act(r1, r2, surface.nodes))
    raise TypeError(f"no group action for {surface!r}")


def orthonormal_pairs(du, dv):
    """Orthonormalize (du, dv) row pairs; returns (t1, t2, degenerate_mask).

    A pair is degenerate where a row vanishes or the sine of their angle is
    below 1e-12: the mask plane_area gives.  The package orthonormalized
    planes this way before every kernel took the raw spanning rows; the
    frame routes built on it are the references for those kernels.
    """
    du = np.asarray(du, dtype=float)
    dv = np.asarray(dv, dtype=float)
    n1 = np.sqrt(_dot(du, du))
    nv = np.sqrt(_dot(dv, dv))
    bad = (n1 < 1e-14) | (nv < 1e-14)
    n1s = np.where(bad, 1.0, n1)
    t1 = du / n1s[..., None]
    r = dv - _dot(dv, t1)[..., None] * t1
    n2 = np.sqrt(_dot(r, r))
    sin_angle = n2 / np.where(bad, 1.0, nv)
    bad = bad | (sin_angle < 1e-12)
    t2 = r / np.where(bad, 1.0, n2)[..., None]
    return t1, t2, bad


def wedge_norm(rows):
    """||r1 ^ ... ^ rk|| for each stack of k rows in a (..., k, d) array.

    The square root of the Gram determinant, clipped to [0, 1]: for two
    orthonormal pairs it vanishes iff their spans meet and equals 1 iff they
    are orthogonal.
    """
    rows = np.asarray(rows, dtype=float)
    det = np.linalg.det(rows @ np.swapaxes(rows, -1, -2))
    return np.sqrt(np.clip(det, 0.0, 1.0))


def transversality_by_frames(n_surface, chart, u, v, a1, a2):
    """The contour counter's transversality gate as it was before it measured
    planes with plane_area: the wedge norm of N's orthonormalized partials
    and the unit tangents of the circles about the axis rows a1, a2 at N's
    points, 0 where the pair is degenerate or a point lies on its axis."""
    pts = n_surface.points(chart, u, v)
    du, dv = n_surface.partials(chart, u, v)
    t1, t2, bad = orthonormal_pairs(du, dv)
    rows = np.zeros(pts.shape[:-1] + (2, 6))
    rows[:, 0, :3] = np.cross(a1, pts[:, :3])
    rows[:, 1, 3:] = np.cross(a2, pts[:, 3:])
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    rows /= np.where(norms > 0, norms, 1.0)
    sigma = wedge_norm(np.concatenate([np.stack([t1, t2], axis=1), rows], axis=1))
    return np.where(bad | np.any(norms < 1e-12, axis=(1, 2)), 0.0, sigma)


def kahler_angle(x, plane, structure):
    """arccos |<J t1, t2>| of the plane (t1, t2) at x, in [0, pi/2], from the batch pairing."""
    c = structure_pairing_batch(structure, x, plane[0], plane[1])
    return float(np.arccos(min(abs(float(c)), 1.0)))


def omega_by_triple_product(points, a, b):
    """The symplectic form as the sum of the factors' triple products,
    <p, a x b> + <q, a' x b'>, on (..., 6) rows: the reference for the J
    pairing <J a, b>, which equals it term by term."""
    out = np.sum(points[..., :3] * np.cross(a[..., :3], b[..., :3]), axis=-1)
    out += np.sum(points[..., 3:] * np.cross(a[..., 3:], b[..., 3:]), axis=-1)
    return out


def lagrangian_defect_by_frames(surface):
    """Max of |omega(t1, t2)| over the orthonormalized partials at the nodes
    lagrangian_defect reads: the gate as it was before it read the J cosine
    from the raw partials, kept as its reference."""
    m = _default_grid(surface, None)
    worst = 0.0
    for chart in range(len(surface.charts)):
        (us, _), (vs, _) = chart_axes(surface, chart, m)
        u, v = us[:, None], vs[None, :]
        pts = surface.points(chart, u, v).reshape(-1, 6)
        du, dv = surface.partials(chart, u, v)
        t1, t2, bad = orthonormal_pairs(du.reshape(-1, 6), dv.reshape(-1, 6))
        vals = np.abs(omega_by_triple_product(pts, t1, t2))
        if np.any(~bad):
            worst = max(worst, float(vals[~bad].max()))
    return worst


def field_batch(H, X):
    """The Hamiltonian field X_H at ambient points X (..., 6), from the
    flow's own field on component-major rows."""
    X = _points(X)
    S = _component_major(X)
    field = _field(H, S, np.empty_like(S), np.empty(S.shape[1:]))
    return np.ascontiguousarray(field.T).reshape(X.shape)


def _field_by_expressions(H, S):
    """X_H at component-major points S, each cross-product row one numpy
    expression with fresh temporaries."""
    G = H.gradient(S.T).T
    out = np.empty_like(S)
    for k in (0, 3):
        (g0, g1, g2), (x0, x1, x2) = G[k:k + 3], S[k:k + 3]
        out[k] = g1 * x2 - g2 * x1
        out[k + 1] = g2 * x0 - g0 * x2
        out[k + 2] = g0 * x1 - g1 * x0
    return out


def flow_points_by_expressions(H, X, params):
    """The component-major RK4 loop of hamiltonian.flow_points as it was
    before its stages lived in per-flow buffers: every stage, stage point
    and sum a fresh array.  The reference for flow_points."""
    X = _points(X)
    S = _renormalize(_component_major(X))
    dt = params.dt
    for _ in range(params.steps):
        k1 = _field_by_expressions(H, S)
        k2 = _field_by_expressions(H, _renormalize(S + (0.5 * dt) * k1))
        k3 = _field_by_expressions(H, _renormalize(S + (0.5 * dt) * k2))
        k4 = _field_by_expressions(H, _renormalize(S + dt * k3))
        S = _renormalize(S + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.ascontiguousarray(S.T).reshape(X.shape)


def mesh_rows_by_expression(mesh, u, v, part):
    """(6, ...) rows of a MeshSurface part's bilinear interpolant at (u, v),
    renormalized for the points, the four weighted corners summed as one
    numpy expression: the reference for MeshSurface.rows, which forms the
    same sum in two buffers."""
    u = np.asarray(u, dtype=float) / mesh.spacing
    v = np.asarray(v, dtype=float) / mesh.spacing
    u, v = np.broadcast_arrays(u, v)
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    fu = u - i0
    fv = v - j0
    m = mesh.m
    i0 %= m
    j0 %= m
    i1 = (i0 + 1) % m
    j1 = (j0 + 1) % m
    i0 *= m
    i1 *= m
    rows = mesh._tables[part]
    pts = (
        rows[:, i0 + j0] * (1 - fu) * (1 - fv)
        + rows[:, i1 + j0] * fu * (1 - fv)
        + rows[:, i0 + j1] * (1 - fu) * fv
        + rows[:, i1 + j1] * fu * fv
    )
    if part == "points":
        pts[:3] /= np.sqrt((pts[0] * pts[0] + pts[1] * pts[1]) + pts[2] * pts[2])
        pts[3:] /= np.sqrt((pts[3] * pts[3] + pts[4] * pts[4]) + pts[5] * pts[5])
    return pts


def in_cell(inv):
    """Whether invariants (theta1, theta2, tau1, tau2) lie in the canonical
    cell 0 <= theta1 +- theta2 <= pi, 0 <= tau1 +- tau2 <= pi."""
    theta1, theta2, tau1, tau2 = inv
    return all(0.0 <= s <= math.pi for s in (theta1 + theta2, theta1 - theta2, tau1 + tau2, tau1 - tau2))


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


def normal_form_bases(inv):
    """Explicit bases (u'_1, u'_2, v_1, v_2) in angular normal form, in the
    4-dimensional model coordinates of the s2xs2.sigma docstring."""
    t1, t2, s1, s2 = inv
    u1 = np.array([math.sin(t1), 0.0, math.cos(t1), 0.0])
    u2 = np.array([0.0, math.sin(t2), 0.0, math.cos(t2)])
    v1 = np.array([math.cos(s1), 0.0, -math.sin(s1), 0.0])
    v2 = np.array([0.0, math.cos(s2), 0.0, -math.sin(s2)])
    return u1, u2, v1, v2


def sigma_general_quad(inv):
    """The angle kernel by adaptive quadrature, the reference for the fixed
    rule of sigma_general_batch.

    scipy.integrate.quad integrates the closed-form psi-integral over phi in
    [0, pi/2], split at the kink and at points 10^-j (j = 1, 3, ..., 15) on
    either side of the kink and of both ends, so that near-segment integrands
    and kinks near an end are resolved too.
    """
    K, P, Q = (float(c) for c in _kernel_coefficients(inv))
    k = abs(K)

    def inner(phi):
        R = math.hypot(P * math.cos(phi), Q * math.sin(phi))
        if k >= R:
            return 2.0 * math.pi * k
        w = math.sqrt((R - k) * (R + k))
        return 2.0 * math.pi * k + 4.0 * (w - k * math.atan2(w, k))

    centres = [0.0, 0.5 * math.pi]
    s2 = (K * K - P * P) / (Q * Q - P * P) if P * P != Q * Q else 0.0
    if 0.0 < s2 < 1.0:
        centres.append(math.asin(math.sqrt(s2)))
    cuts = set(centres)
    for c in centres:
        for j in range(1, 16, 2):
            cuts.update(x for x in (c - 10.0 ** -j, c + 10.0 ** -j) if 0.0 < x < 0.5 * math.pi)
    cuts = sorted(cuts)
    # full_output: quad's roundoff warnings on near-flat pieces are not failures;
    # the tests judge the value
    return 4.0 * math.fsum(integrate.quad(inner, a, b, epsabs=0.0, epsrel=1e-13, limit=200, full_output=1)[0]
                           for a, b in zip(cuts, cuts[1:]))


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


def ellipse_perimeter_fixed_agm(a, b):
    """The AGM perimeter with a fixed 16 iterations: the loop ellipse_perimeter_batch
    ran before it stopped at the first settled iteration, kept as its reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    safe_big = np.where(big > 0, big, 1.0)
    degenerate = small / safe_big < DEGENERATE_AXIS
    m = 1.0 - (np.where(degenerate, 0.0, small) / safe_big) ** 2
    x = np.ones_like(m)
    y = np.sqrt(1.0 - m)
    S = 0.5 * m
    p = 1.0
    for _ in range(16):
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        S += p * (c * c)
        p *= 2.0
    K = np.pi / (2.0 * x)
    out = 4.0 * big * K * (1.0 - S)
    return np.where(degenerate, 4.0 * big, out)


def plane_area_reference(a, b):
    """geometry.plane_area before it formed E G once: the reference its
    trimmed form is checked against bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    E, F, G = _dot(a, a), _dot(a, b), _dot(b, b)
    area = np.sqrt(np.maximum(E * G - F * F, 0.0))
    degenerate = (E < 1e-28) | (G < 1e-28) | (area < 1e-12 * np.sqrt(E * G))
    return area, degenerate


def structure_pairing_reference(structure, points, a, b):
    """<J a, b> (or <J' a, b>) as geometry.structure_pairing_batch took it
    before its terms were formed in place: np.cross's products, added from
    +0.0 in np.sum's order."""
    points, a, b = (np.asarray(x, dtype=float) for x in (points, a, b))

    def cross_dot(p, a, b, negate):
        t0 = (p[..., 1] * a[..., 2] - p[..., 2] * a[..., 1]) * b[..., 0]
        t1 = (p[..., 2] * a[..., 0] - p[..., 0] * a[..., 2]) * b[..., 1]
        t2 = (p[..., 0] * a[..., 1] - p[..., 1] * a[..., 0]) * b[..., 2]
        return 0.0 - t0 - t1 - t2 if negate else 0.0 + t0 + t1 + t2

    return cross_dot(points[..., :3], a[..., :3], b[..., :3], False) \
        + cross_dot(points[..., 3:], a[..., 3:], b[..., 3:], structure == "J'")


def lagrangian_semiaxes_reference(points, a, b, area):
    """sigma.lagrangian_semiaxes_batch before its passes were trimmed."""
    c = structure_pairing_reference("J'", points, a, b) / area
    s = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(np.abs(c), 1.0) ** 2))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def ellipse_perimeter_reference(a, b):
    """sigma.ellipse_perimeter_batch before its passes were trimmed: the ratio
    formed twice, np.where for the safe divisor and the result, the AGM
    started from an array of ones."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInput("semiaxes must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeAxis("semiaxes must be nonnegative")
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    safe_big = np.where(big > 0, big, 1.0)
    degenerate = small / safe_big < DEGENERATE_AXIS
    m = np.where(degenerate, 0.0, 1.0 - (small / safe_big) ** 2)
    x = np.ones_like(m)
    y = np.sqrt(1.0 - m)
    S = 0.5 * m
    p = 1.0
    for _ in range(16):
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        S += p * (c * c)
        p *= 2.0
        if np.all(c <= AGM_SETTLED * x):
            break
    K = np.pi / (2.0 * x)
    with np.errstate(over="ignore"):
        out = np.where(degenerate, 4.0 * big, 4.0 * big * K * (1.0 - S))
    if not np.isfinite(out).all():
        raise InvalidInput("the perimeter overflows: semiaxes too large")
    return out


def perimeters_by_frames(block):
    """Each node's perimeter and degenerate mask in a quadrature tile, as the
    quadrature took them before it read the J' cosine from the raw partials:
    the node's partials orthonormalized (on C-ordered copies, as the
    whole-grid arrays were), the frame paired with J', and the perimeter by
    the fixed 16-iteration AGM."""
    points, du, dv = (np.ascontiguousarray(block[key]) for key in ("points", "du", "dv"))
    t1, t2, bad = orthonormal_pairs(du, dv)
    c = structure_pairing_batch("J'", points, t1, t2)
    s = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(np.abs(c), 1.0) ** 2))
    return ellipse_perimeter_fixed_agm((1.0 + s) / 2.0, (1.0 - s) / 2.0), bad


def perimeter_integral_by_frames(surface, m):
    """INT_N perim dA with perimeters_by_frames at each node.  The reference
    for verify._perimeter_integral; the tiles and their measure are the
    quadrature's own."""
    total = []
    for block in surface_quadrature(surface, m):
        per, _ = perimeters_by_frames(block)
        total.append(float(np.sum(block["measure"] * per)))
    return math.fsum(total)


def chart_node_grid(surface, chart, n):
    """(pts (n + 1, n + 1, 6), u_nodes, v_nodes): a chart's points on n + 1
    nodes per direction, with the periodic wrap, as the contour counter
    evaluates them."""
    ch = surface.charts[chart]
    u_lo, u_hi = (0.0, GRAPH_COUNT_BAND) if isinstance(surface, GraphSurface) else (ch.u_min, ch.u_max)
    u_nodes, v_nodes = np.linspace(u_lo, u_hi, n + 1), np.linspace(ch.v_min, ch.v_max, n + 1)
    pts = surface.points(chart, u_nodes[:, None], v_nodes[None, :])
    if ch.periodic_u:
        pts[-1, :] = pts[0, :]
    if ch.periodic_v:
        pts[:, -1] = pts[:, 0]
    return pts, u_nodes, v_nodes


class ReferenceChartGrid:
    """One level's block grid as the two-pass contour counter built it: per
    factor, point-major block nodes p1, p2 (blocks, B+1, B+1, 3) and caps
    (centre, cos r, sin r), beside the node parameters u, v and the cell
    mask of intersections._ChartGrid."""

    def __init__(self, pts, u_nodes, v_nodes):
        m = len(u_nodes) - 1
        span = np.arange(0, m, CULL_BLOCK)[:, None] + np.arange(CULL_BLOCK + 1)
        side = np.minimum(span, m)
        cells = span[:, :-1] < m
        bu, bv = np.divmod(np.arange(len(span) ** 2), len(span))
        block = pts[side[bu][:, :, None], side[bv][:, None, :]]
        self.p1 = block[..., :3]
        self.p2 = block[..., 3:]
        self.u = u_nodes[side[bu]]
        self.v = v_nodes[side[bv]]
        self.cells = cells[bu][:, :, None] & cells[bv][:, None, :]
        self.cap1 = bounding_cap_by_sines(self.p1)
        self.cap2 = bounding_cap_by_sines(self.p2)


def bounding_cap_by_sines(pts):
    """(centre, cos r, sin r) of the cap about each block's middle node that
    holds its nodes pts (blocks, B+1, B+1, 3), r from the largest chord."""
    mid = pts.shape[1] // 2
    centre = pts[:, mid, mid]
    diff = pts - centre[:, None, None, :]
    chord = np.sqrt(np.einsum("bijx,bijx->bij", diff, diff).max(axis=(1, 2)))
    radius = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
    return centre, np.cos(radius), np.sin(radius)


def cap_straddles_by_sines(cap, axes, offset, blocks=None):
    """Mask of the pairs of an axis row a and a block whose cap interval of
    <x, a>, padded by CULL_MARGIN, holds offset: (S, blocks) over every
    pair, or (S,) when blocks names one block per row.  The interval is
    [cos(min(theta + r, pi)), cos(max(theta - r, 0))] for theta the angle
    from the cap centre to a, expanded by the angle-sum formulas."""
    centre, cos_r, sin_r = cap
    if blocks is None:
        axes, centre = axes[:, None, :], centre[None, :, :]
    else:
        centre, cos_r, sin_r = centre[blocks], cos_r[blocks], sin_r[blocks]
    d = axes[..., 0] * centre[..., 0] + axes[..., 1] * centre[..., 1] + axes[..., 2] * centre[..., 2]
    e = np.sqrt(np.maximum(1.0 - d * d, 0.0))
    hi = np.where(d < cos_r, d * cos_r + e * sin_r, 1.0)
    lo = np.where(d > -cos_r, d * cos_r - e * sin_r, -1.0)
    return (lo - CULL_MARGIN <= offset) & (offset <= hi + CULL_MARGIN)


def node_values_by_einsum(pts, axes, offset):
    """Residuals <x, a> - offset at point-major block nodes pts (K, B+1, B+1, 3),
    one axis row a per block."""
    return np.einsum("kijx,kx->kij", pts, axes) - offset


def block_seeds_by_levels(grid, ks, kb, a1, a2, c1, c2):
    """(sample, u, v) of the Newton seeds in the (sample, block) pairs ks, kb
    of one ReferenceChartGrid, in pair order, from that level's own node
    values."""
    f1 = node_values_by_einsum(grid.p1[kb], a1[ks], c1)
    f2 = node_values_by_einsum(grid.p2[kb], a2[ks], c2)
    k, i, j = np.nonzero(_sign_change_cells(f1) & _sign_change_cells(f2) & grid.cells[kb])
    corners = lambda f: np.stack([f[k, i + di, j + dj] for di, dj in _CORNER_OFFSETS], axis=1)
    cell, seeds_u, seeds_v = _cell_seeds(
        corners(f1), corners(f2),
        np.stack([grid.u[kb[k], i + di] for di, _ in _CORNER_OFFSETS], axis=1),
        np.stack([grid.v[kb[k], j + dj] for _, dj in _CORNER_OFFSETS], axis=1),
    )
    return ks[k[cell]], seeds_u, seeds_v


def two_pass_seeds(grids, a1, a2, c1, c2):
    """Per level, (sample, u, v) of the seeds of the two-pass counter on the
    ReferenceChartGrids of levels m and 2m: each level culled by its own
    per-block cap test and evaluated on its own nodes."""
    levels = []
    for grid in grids:
        kept = cap_straddles_by_sines(grid.cap1, a1, c1) & cap_straddles_by_sines(grid.cap2, a2, c2)
        ks, kb = np.nonzero(kept)
        levels.append(block_seeds_by_levels(grid, ks, kb, a1, a2, c1, c2))
    return levels
