"""Surface models in S2 x S2: points and partials, areas, Lagrangian defect.

Three concrete models are supported:

* ProductTorusSurface -- a product of two circles (planes cutting the spheres),
  one periodic chart, analytic derivatives;
* GraphSurface -- the graph of a sphere isometry (rotation, optionally composed
  with the antipodal map), parameterized by two polar charts with a smooth
  partition of unity;
* MeshSurface -- a periodic lattice of points, evaluated by bilinear
  interpolation with renormalization, differentiated by central differences.

Area quadrature is a composite rule over chart grids: node grids along
periodic directions (trapezoidal weights, exact for the flat tori), midpoint
grids along non-periodic ones.  The grids are streamed in row tiles of about
QUADRATURE_TILE nodes, so the working memory is set by the tile, not by the
grid.  The models evaluate separably: given a column of u values and a row of
v values they work out their trig and circle factors on the two axes and
broadcast once, so a tile costs one transcendental per axis value, and each
node gets the same value as in a whole-grid evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import omega_batch, orthonormal_pairs
from .rotations import GroupElement, Rotation

TWO_PI = 2.0 * math.pi
CAP_RADIUS = 0.2          # polar cap excluded from each graph chart
RAMP_HALF_WIDTH = 0.3     # partition-of-unity ramp around the equator
MIN_CIRCLE_RADIUS = 1e-6
QUADRATURE_TILE = 1 << 13  # nodes per streamed quadrature tile


@dataclass(frozen=True)
class Chart:
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    periodic_u: bool
    periodic_v: bool


def _stack(*parts):
    """One writable (..., k) array from k broadcastable coordinate arrays."""
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _join(first, second):
    """One writable (..., 6) array from two broadcastable (..., 3) factor blocks."""
    return np.concatenate(np.broadcast_arrays(first, second), axis=-1)


def _smoothstep4(t):
    """C^4 smoothstep on [0, 1]; satisfies s(t) + s(1 - t) = 1."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))


class Circle:
    """A circle on the unit sphere: {x : <axis, x> = offset}."""

    __slots__ = ("axis", "offset", "radius", "_b1", "_b2")

    def __init__(self, axis, offset: float = 0.0):
        axis = np.asarray(axis, dtype=float).reshape(3)
        offset = float(offset)
        if not (np.isfinite(axis).all() and math.isfinite(offset)):
            raise ValueError(f"circle axis and offset must be finite, got {axis}, {offset}")
        n = np.linalg.norm(axis)
        if n < 1e-14:
            raise ValueError("circle axis must be nonzero")
        axis = axis / n
        if abs(offset) >= 1.0 or math.sqrt(max(0.0, 1.0 - offset * offset)) < MIN_CIRCLE_RADIUS:
            raise ValueError(f"degenerate circle: offset {offset}")
        aux = np.array([0.0, 1.0, 0.0]) if abs(axis[1]) <= 0.9 else np.array([1.0, 0.0, 0.0])
        b1 = np.cross(aux, axis)
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(axis, b1)
        for a in (axis, b1, b2):
            a.flags.writeable = False
        self.axis = axis
        self.offset = offset
        self.radius = math.sqrt(1.0 - offset * offset)
        self._b1 = b1
        self._b2 = b2

    def points(self, s):
        s = np.asarray(s, dtype=float)
        return (
            self.offset * self.axis
            + self.radius * (np.cos(s)[..., None] * self._b1 + np.sin(s)[..., None] * self._b2)
        )

    def derivatives(self, s):
        s = np.asarray(s, dtype=float)
        return self.radius * (-np.sin(s)[..., None] * self._b1 + np.cos(s)[..., None] * self._b2)

    def length(self):
        return TWO_PI * self.radius

    def transform(self, rot: Rotation) -> "Circle":
        return Circle(rot.apply_vec(self.axis), self.offset)

    def __repr__(self):
        return f"Circle(axis={self.axis.tolist()}, offset={self.offset})"


class ProductTorusSurface:
    """Product of two circles, parameterized by (u, v) in [0, 2pi)^2."""

    def __init__(self, circle1: Circle, circle2: Circle):
        self.circle1 = circle1
        self.circle2 = circle2

    @property
    def charts(self):
        return (Chart(0.0, TWO_PI, 0.0, TWO_PI, True, True),)

    def points(self, chart, u, v):
        return _join(self.circle1.points(u), self.circle2.points(v))

    def partials(self, chart, u, v):
        du = _join(self.circle1.derivatives(u), np.zeros(np.shape(v) + (3,)))
        dv = _join(np.zeros(np.shape(u) + (3,)), self.circle2.derivatives(v))
        return du, dv

    def weights(self, chart, u, v):
        return np.ones(np.broadcast_shapes(np.shape(u), np.shape(v)))

    def transform(self, g: GroupElement) -> "ProductTorusSurface":
        return ProductTorusSurface(self.circle1.transform(g.first), self.circle2.transform(g.second))

    def __repr__(self):
        return f"ProductTorusSurface({self.circle1!r}, {self.circle2!r})"


def great_torus() -> ProductTorusSurface:
    """The product of equators about the z-axis."""
    return ProductTorusSurface(Circle([0.0, 0.0, 1.0], 0.0), Circle([0.0, 0.0, 1.0], 0.0))


def latitude_torus(c1: float, c2: float, axis1=(0.0, 0.0, 1.0), axis2=(0.0, 0.0, 1.0)) -> ProductTorusSurface:
    return ProductTorusSurface(Circle(axis1, c1), Circle(axis2, c2))


class GraphSurface:
    """Graph {(z, M z)} of a sphere isometry M = rotation (optionally after antipode).

    Two polar charts (colatitude, longitude), each excluding a cap of radius
    CAP_RADIUS around its antipodal pole; quadrature blends them with a C^4
    partition of unity supported on the equatorial ramp.
    """

    def __init__(self, rotation: Rotation | None = None, antipodal: bool = False):
        self.rotation = rotation if rotation is not None else Rotation.identity()
        self.antipodal = bool(antipodal)
        M = self.rotation.matrix
        if self.antipodal:
            M = -M
        M.flags.writeable = False
        self.map_matrix = M

    @property
    def charts(self):
        c = Chart(0.0, math.pi - CAP_RADIUS, 0.0, TWO_PI, False, True)
        return (c, c)

    def _base_points(self, chart, theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        if chart == 0:
            return _stack(st * cp, st * sp, ct)
        return _stack(st * cp, -st * sp, -ct)

    def _base_partials(self, chart, theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        if chart == 0:
            dth = _stack(ct * cp, ct * sp, -st)
            dph = _stack(-st * sp, st * cp, 0.0)
        else:
            dth = _stack(ct * cp, -ct * sp, st)
            dph = _stack(-st * sp, -st * cp, 0.0)
        return dth, dph

    def points(self, chart, u, v):
        z = self._base_points(chart, u, v)
        return np.concatenate([z, z @ self.map_matrix.T], axis=-1)

    def partials(self, chart, u, v):
        dth, dph = self._base_partials(chart, u, v)
        du = np.concatenate([dth, dth @ self.map_matrix.T], axis=-1)
        dv = np.concatenate([dph, dph @ self.map_matrix.T], axis=-1)
        return du, dv

    def weights(self, chart, u, v):
        # In each chart's own colatitude the blend profile is the same; the
        # two weights sum to 1 because the smoothstep satisfies s(t)+s(1-t)=1.
        lo = math.pi / 2 - RAMP_HALF_WIDTH
        w = 1.0 - _smoothstep4((u - lo) / (2.0 * RAMP_HALF_WIDTH))
        return np.broadcast_to(w, np.broadcast_shapes(np.shape(u), np.shape(v)))

    def transform(self, g: GroupElement) -> "GraphSurface":
        rot = g.second * self.rotation * g.first.inverse()
        return GraphSurface(rot, self.antipodal)

    def __repr__(self):
        return f"GraphSurface(rotation={self.rotation.quaternion.tolist()}, antipodal={self.antipodal})"


def anti_diagonal() -> GraphSurface:
    """The graph of the antipodal map, z -> (z, -z)."""
    return GraphSurface(Rotation.identity(), antipodal=True)


def diagonal() -> GraphSurface:
    """The graph of the identity, z -> (z, z); symplectic, not Lagrangian."""
    return GraphSurface(Rotation.identity(), antipodal=False)


class MeshSurface:
    """Periodic m x m lattice of points of S2 x S2 over (u, v) in [0, 2pi)^2.

    Evaluation between nodes is bilinear followed by renormalization to each
    sphere; parameter derivatives use a 5-point central-difference stencil at
    the lattice spacing.
    """

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[0] != nodes.shape[1] or nodes.shape[2] != 6:
            raise ValueError(f"nodes must be (m, m, 6), got {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValueError("mesh nodes must be finite")
        n1 = np.linalg.norm(nodes[..., :3], axis=-1)
        n2 = np.linalg.norm(nodes[..., 3:], axis=-1)
        worst = max(float(np.abs(n1 - 1.0).max()), float(np.abs(n2 - 1.0).max()))
        if worst > 1e-10:
            raise ValueError(f"mesh node off the spheres by {worst:.3e}")
        nodes[..., :3] /= n1[..., None]
        nodes[..., 3:] /= n2[..., None]
        nodes.flags.writeable = False
        self.nodes = nodes
        self.m = nodes.shape[0]
        self.spacing = TWO_PI / self.m

    @property
    def charts(self):
        return (Chart(0.0, TWO_PI, 0.0, TWO_PI, True, True),)

    def points(self, chart, u, v):
        u = np.asarray(u, dtype=float) / self.spacing
        v = np.asarray(v, dtype=float) / self.spacing
        u, v = np.broadcast_arrays(u, v)
        i0 = np.floor(u).astype(int)
        j0 = np.floor(v).astype(int)
        fu = (u - i0)[..., None]
        fv = (v - j0)[..., None]
        i0 %= self.m
        j0 %= self.m
        i1 = (i0 + 1) % self.m
        j1 = (j0 + 1) % self.m
        nd = self.nodes
        pts = (
            nd[i0, j0] * (1 - fu) * (1 - fv)
            + nd[i1, j0] * fu * (1 - fv)
            + nd[i0, j1] * (1 - fu) * fv
            + nd[i1, j1] * fu * fv
        )
        pts = pts.copy()
        pts[..., :3] /= np.linalg.norm(pts[..., :3], axis=-1, keepdims=True)
        pts[..., 3:] /= np.linalg.norm(pts[..., 3:], axis=-1, keepdims=True)
        return pts

    def partials(self, chart, u, v):
        h = self.spacing

        def d(axis_u):
            def shift(k):
                if axis_u:
                    return self.points(chart, np.asarray(u) + k * h, v)
                return self.points(chart, u, np.asarray(v) + k * h)

            return (-shift(2) + 8 * shift(1) - 8 * shift(-1) + shift(-2)) / (12 * h)

        return d(True), d(False)

    def weights(self, chart, u, v):
        return np.ones(np.broadcast_shapes(np.shape(u), np.shape(v)))

    def transform(self, g: GroupElement) -> "MeshSurface":
        nodes = np.empty_like(self.nodes)
        nodes[..., :3] = self.nodes[..., :3] @ g.first.matrix.T
        nodes[..., 3:] = self.nodes[..., 3:] @ g.second.matrix.T
        return MeshSurface(nodes)

    @classmethod
    def sample_from(cls, surface, m: int) -> "MeshSurface":
        """Sample a single-chart periodic surface on its node lattice."""
        if len(surface.charts) != 1:
            raise ValueError("sample_from requires a single-chart periodic surface")
        return cls(lattice_points(surface, m))

    def __repr__(self):
        return f"MeshSurface(m={self.m})"


def lattice_points(surface, m: int):
    """(m, m, 6) points of chart 0 at the periodic lattice nodes (2 pi i/m, 2 pi j/m)."""
    t = np.arange(m) * (TWO_PI / m)
    return surface.points(0, t[:, None], t[None, :])


def save_mesh(surface: MeshSurface, path):
    """Plain-text grid format: header 'mesh m', then m*m rows of 6 coordinates."""
    lines = [f"mesh {surface.m}"]
    for row in surface.nodes.reshape(-1, 6):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> MeshSurface:
    text = Path(path).read_text().strip().splitlines()
    head = text[0].split()
    if len(head) != 2 or head[0] != "mesh":
        raise ValueError(f"bad mesh header: {text[0]!r}")
    m = int(head[1])
    if len(text) != 1 + m * m:
        raise ValueError(f"expected {m * m} node rows, found {len(text) - 1}")
    nodes = np.array([[float(x) for x in line.split()] for line in text[1:]])
    return MeshSurface(nodes.reshape(m, m, 6))


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def chart_axes(surface, chart: int, m: int):
    """Quadrature nodes of one chart: the u axis, the v axis and the cell area.

    Node grids along periodic directions, midpoint grids along bounded ones.
    """
    ch = surface.charts[chart]
    spans = []
    for lo, hi, periodic in ((ch.u_min, ch.u_max, ch.periodic_u), (ch.v_min, ch.v_max, ch.periodic_v)):
        h = (hi - lo) / m
        offset = 0.0 if periodic else 0.5
        spans.append((lo + (np.arange(m) + offset) * h, h))
    (us, hu), (vs, hv) = spans
    return us, vs, hu * hv


def surface_quadrature(surface, m: int):
    """Yield the quadrature of each chart's m x m grid as row tiles.

    A tile holds whole rows (fixed u) of one chart, about QUADRATURE_TILE
    nodes; the tiles run through each chart's rows in order.  Each is a dict
    of flat per-node arrays:

    * 'points' (n, 6): the surface points;
    * 'du', 'dv' (n, 6): the parameter partials;
    * 'measure' (n,): the weighted area element w * sqrt(EG - F^2) * dA.

    A node's values do not depend on the tile it falls in.
    """
    if m < 1:
        raise ValueError(f"quadrature grid must be at least 1, got {m}")
    rows = max(1, QUADRATURE_TILE // m)
    for chart in range(len(surface.charts)):
        us, vs, cell = chart_axes(surface, chart, m)
        v = vs[None, :]
        for start in range(0, m, rows):
            u = us[start:start + rows, None]
            pts = surface.points(chart, u, v)
            du, dv = surface.partials(chart, u, v)
            E = np.einsum("...k,...k->...", du, du)
            G = np.einsum("...k,...k->...", dv, dv)
            F = np.einsum("...k,...k->...", du, dv)
            dens = np.sqrt(np.maximum(E * G - F * F, 0.0))
            w = surface.weights(chart, u, v)
            yield {
                "points": pts.reshape(-1, 6),
                "du": du.reshape(-1, 6),
                "dv": dv.reshape(-1, 6),
                "measure": (w * dens * cell).reshape(-1),
            }


def _default_grid(surface, m):
    if m is not None:
        return int(m)
    if isinstance(surface, MeshSurface):
        return surface.m
    if isinstance(surface, GraphSurface):
        return 1024
    return 64


def volume(surface, m: int | None = None) -> float:
    """Two-dimensional area by composite quadrature of sqrt(EG - F^2)."""
    m = _default_grid(surface, m)
    return float(math.fsum(float(block["measure"].sum()) for block in surface_quadrature(surface, m)))


def lagrangian_defect(surface, samples: int = 1024) -> float:
    """Max of |omega(t1, t2)| over orthonormal tangent bases at grid samples.

    Meshes are sampled on their own node lattice (where the difference stencil
    is exact); other surfaces on the quadrature grid closest to the requested
    sample count.
    """
    if isinstance(surface, MeshSurface):
        per_chart = surface.m
    else:
        per_chart = max(4, int(math.ceil(math.sqrt(samples / len(surface.charts)))))
    worst = 0.0
    for chart in range(len(surface.charts)):
        us, vs, _ = chart_axes(surface, chart, per_chart)
        u, v = us[:, None], vs[None, :]
        pts = surface.points(chart, u, v).reshape(-1, 6)
        du, dv = surface.partials(chart, u, v)
        t1, t2, bad = orthonormal_pairs(du.reshape(-1, 6), dv.reshape(-1, 6))
        vals = np.abs(omega_batch(pts, t1, t2))
        if np.any(~bad):
            worst = max(worst, float(vals[~bad].max()))
    return worst
