"""Surface models in S2 x S2: points and partials, areas, Lagrangian defect.

Three concrete models are supported:

* ProductTorusSurface -- a product of two circles (planes cutting the spheres),
  one periodic chart, analytic derivatives;
* GraphSurface -- the graph of a sphere isometry (rotation, optionally composed
  with the antipodal map), parameterized by two polar charts with a smooth
  partition of unity;
* MeshSurface -- a periodic lattice of points and of their spectral partials,
  each read between nodes by bilinear interpolation (the points renormalized
  to the spheres), stored component-major.

Area quadrature is a product rule over chart grids: the trapezoid rule along
periodic directions (spectrally accurate on their smooth periodic
integrands, exact for the flat tori), Gauss-Legendre along bounded ones, on
panels that end where the chart's weight stops being one polynomial.  A
graph chart's panels cover only the support of its weight, so no node is
spent where the weight is 0.  The grids are streamed in row tiles of about
QUADRATURE_TILE nodes, so the working memory is set by the tile, not by the
grid.

Each model has one evaluator, rows(chart, u, factors, part, out), which
fills out with the component-major (6, ...) rows of the points or of one
partial.  What depends on v alone, the model's v_factors (a graph's
longitude factors, a torus's second circle), is its own argument, so the
quadrature computes it once per chart and pass and a tile pays only for
its own nodes: one product or copy per component and node.  Each node gets
the same value as in a whole-grid evaluation.  points and partials, defined
once for the three models, run the same evaluator on fresh storage and hand
out (..., 6) views of its component-major rows.

A tile's points and partials are component-major (6, n) rows, handed out as
their (n, 6) transposes: each coordinate is one contiguous row, which the
kernels read by component.  They and the tile's per-node scalars are written
into one workspace per pass, allocated for its largest tile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .geometry import plane_area, structure_pairing_batch

TWO_PI = 2.0 * math.pi
CAP_RADIUS = 0.2          # polar cap excluded from each graph chart
RAMP_HALF_WIDTH = 0.3     # partition-of-unity ramp around the equator
MIN_CIRCLE_RADIUS = 1e-6
ROTATION_TOL = 1e-10      # largest entry of R^T R - I accepted for a graph's rotation
MIN_MESH_LATTICE = 5      # smallest mesh lattice whose partials resolve wavenumber 2 on each axis
# nodes per streamed quadrature tile.  The tile fixes the order of the
# partial sums, so every total stays bitwise what it was.  Its rows and
# per-node scalars live in one workspace per pass, so a graph's or a torus's
# tile allocates nothing over its 64 KiB per-node temporaries, which glibc
# serves from the heap without mapping or trimming (a mesh's bilinear
# evaluator still takes one (6, n) corner temporary).
QUADRATURE_TILE = 1 << 13


@dataclass(frozen=True)
class Chart:
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    periodic_u: bool
    periodic_v: bool
    # Gauss-Legendre panels along a bounded u: the quadrature integrates over
    # [u_panels[0], u_panels[-1]], which must hold the support of the chart's
    # weight, with one Gauss rule per panel.  Empty means the one panel
    # [u_min, u_max].
    u_panels: tuple = ()

    @property
    def min_grid(self) -> int:
        """Fewest nodes per direction that leave no Gauss-Legendre panel empty."""
        return max(len(self.u_panels) - 1, 1)


class _Evaluated:
    """The points and partials of a model, read through its one evaluator
    (module docstring) as (..., 6) views of fresh component-major rows."""

    def _evaluate(self, chart, u, v, part):
        out = np.empty((6,) + np.broadcast_shapes(np.shape(u), np.shape(v)))
        return np.moveaxis(self.rows(chart, u, self.v_factors(chart, v, part), part, out), 0, -1)

    def points(self, chart, u, v):
        return self._evaluate(chart, u, v, "points")

    def partials(self, chart, u, v):
        """(d/du, d/dv)."""
        return self._evaluate(chart, u, v, "du"), self._evaluate(chart, u, v, "dv")


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
            raise InvalidInput(f"circle axis and offset must be finite, got {axis}, {offset}")
        with np.errstate(over="ignore"):
            n = np.linalg.norm(axis)
        if not 1e-14 <= n < math.inf:
            raise InvalidInput(f"circle axis must be nonzero and of finite norm, got {axis}")
        axis = axis / n
        if abs(offset) >= 1.0 or math.sqrt(max(0.0, 1.0 - offset * offset)) < MIN_CIRCLE_RADIUS:
            raise InvalidInput(f"degenerate circle: offset {offset}")
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

    def __repr__(self):
        return f"Circle(axis={self.axis.tolist()}, offset={self.offset})"


class ProductTorusSurface(_Evaluated):
    """Product of two circles, parameterized by (u, v) in [0, 2pi)^2."""

    def __init__(self, circle1: Circle, circle2: Circle):
        self.circle1 = circle1
        self.circle2 = circle2

    @property
    def charts(self):
        return (Chart(0.0, TWO_PI, 0.0, TWO_PI, True, True),)

    def v_factors(self, chart, v, part):
        """The second circle's (3, ...) rows at v: its points, its derivatives, or 0 for du."""
        if part == "du":
            return 0.0
        circle = self.circle2.points if part == "points" else self.circle2.derivatives
        return np.moveaxis(circle(v), -1, 0)

    def rows(self, chart, u, factors, part, out):
        """Fill out with the (6, ...) rows of one part: the first circle's at u, then v_factors."""
        first = {"points": self.circle1.points, "du": self.circle1.derivatives}.get(part)
        out[:3] = 0.0 if first is None else np.moveaxis(first(u), -1, 0)
        out[3:] = factors
        return out

    def weights(self, chart, u, v):
        return np.broadcast_to(1.0, np.broadcast_shapes(np.shape(u), np.shape(v)))

    def __repr__(self):
        return f"ProductTorusSurface({self.circle1!r}, {self.circle2!r})"


def great_torus() -> ProductTorusSurface:
    """The product of equators about the z-axis."""
    return ProductTorusSurface(Circle([0.0, 0.0, 1.0], 0.0), Circle([0.0, 0.0, 1.0], 0.0))


def latitude_torus(c1: float, c2: float, axis1=(0.0, 0.0, 1.0), axis2=(0.0, 0.0, 1.0)) -> ProductTorusSurface:
    return ProductTorusSurface(Circle(axis1, c1), Circle(axis2, c2))


class GraphSurface(_Evaluated):
    """Graph {(z, M z)} of a sphere isometry M = rotation (optionally after antipode).

    The rotation is a 3 x 3 matrix, the identity by default; one that is not
    orthogonal with determinant +1 is refused.

    Two polar charts (colatitude, longitude), each excluding a cap of radius
    CAP_RADIUS around its antipodal pole; quadrature blends them with a C^4
    partition of unity supported on the equatorial ramp.  A chart's weight
    is 1 up to the ramp, a polynomial across it and 0 beyond, so its
    quadrature panels end at the ramp's two edges.
    """

    def __init__(self, rotation=None, antipodal: bool = False):
        R = np.eye(3) if rotation is None else np.array(rotation, dtype=float)
        if R.shape != (3, 3) or not np.isfinite(R).all():
            raise InvalidInput(f"rotation must be a finite 3 x 3 matrix, got shape {R.shape}")
        if np.abs(R.T @ R - np.eye(3)).max() > ROTATION_TOL or np.linalg.det(R) < 0.0:
            raise InvalidInput("rotation must be orthogonal with determinant +1")
        self.rotation = R
        self.antipodal = bool(antipodal)
        self.map_matrix = -R if self.antipodal else R
        for a in (R, self.map_matrix):
            a.flags.writeable = False

    @property
    def charts(self):
        ramp = (math.pi / 2 - RAMP_HALF_WIDTH, math.pi / 2 + RAMP_HALF_WIDTH)
        c = Chart(0.0, math.pi - CAP_RADIUS, 0.0, TWO_PI, False, True, u_panels=(0.0, *ramp))
        return (c, c)

    def v_factors(self, chart, phi, part):
        """The longitude factors of one part: the rows (e0, e1) of the base
        direction and the three rows of M e.

        On chart 0 the base point is z = sin(theta) e(phi) + cos(theta) k,
        with e = (cos phi, sin phi, 0) and k = (0, 0, 1); chart 1 flips the
        sign of the second and third axes.  The points and d/dtheta take e,
        d/dphi takes de/dphi.
        """
        sign = 1.0 if chart == 0 else -1.0
        cp, sp = np.cos(phi), np.sin(phi)
        e = (-sp, sign * cp) if part == "dv" else (cp, sign * sp)
        M = self.map_matrix
        return e, tuple(M[i, 0] * e[0] + M[i, 1] * e[1] for i in range(3))

    def rows(self, chart, theta, factors, part, out):
        """Fill out, the component-major (6, ...) rows of the points or of one partial.

        The map half is M z, so each of the six components is
        f(theta) * a(phi) + pole(theta) * b, where a and b are the components
        of (e, M e) and (k, M k): (f, pole) is (sin, cos) for the points and
        (cos, -sin) for d/dtheta, and d/dphi is sin(theta) * de/dphi with no
        pole term.  a comes from v_factors, so each component costs one
        product over the grid, plus one sum where b is nonzero.
        """
        sign = 1.0 if chart == 0 else -1.0
        st = np.sin(theta)
        if part == "dv":
            f, pole = st, None
        else:
            ct = np.cos(theta)
            f, pole = (st, ct) if part == "points" else (ct, -st)
        e, me = factors
        np.multiply(f, e[0], out=out[0, ...])
        np.multiply(f, e[1], out=out[1, ...])
        out[2, ...] = 0.0 if pole is None else sign * pole
        M = self.map_matrix
        for i in range(3):
            row = out[3 + i, ...]
            np.multiply(f, me[i], out=row)
            if pole is not None and M[i, 2] != 0.0:
                row += (M[i, 2] * sign) * pole
        return out

    def weights(self, chart, u, v):
        # In each chart's own colatitude the blend profile is the same; the
        # two weights sum to 1 because the smoothstep satisfies s(t)+s(1-t)=1.
        # It is written s(1 - t), not 1 - s(t), so that it stays positive up
        # to the ramp's end, where 1 - s(t) would round to 0.
        hi = math.pi / 2 + RAMP_HALF_WIDTH
        w = _smoothstep4((hi - u) / (2.0 * RAMP_HALF_WIDTH))
        return np.broadcast_to(w, np.broadcast_shapes(np.shape(u), np.shape(v)))

    def __repr__(self):
        return f"GraphSurface(rotation={self.rotation.tolist()}, antipodal={self.antipodal})"


def anti_diagonal() -> GraphSurface:
    """The graph of the antipodal map, z -> (z, -z)."""
    return GraphSurface(antipodal=True)


def diagonal() -> GraphSurface:
    """The graph of the identity, z -> (z, z); symplectic, not Lagrangian."""
    return GraphSurface()


def _check_lattice(m: int):
    """Refuse a mesh lattice under MIN_MESH_LATTICE (see MeshSurface)."""
    if m < MIN_MESH_LATTICE:
        raise InvalidInput(f"mesh lattice {m} is too coarse to resolve wavenumber 2 on each axis; "
                           f"m must be at least {MIN_MESH_LATTICE}")


class MeshSurface(_Evaluated):
    """Periodic m x m lattice of points of S2 x S2 over (u, v) in [0, 2pi)^2.

    Three lattice tables are built once: the nodes, and their u and v
    partials by FFT, the exact derivatives of the lattice's trigonometric
    interpolant.  One evaluator reads every part as the bilinear interpolant
    of its table, renormalizing the points to each sphere.  A lattice under
    MIN_MESH_LATTICE, which resolves no wavenumber 2 on an axis, is refused.
    """

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[0] != nodes.shape[1] or nodes.shape[2] != 6:
            raise InvalidInput(f"nodes must be (m, m, 6), got {nodes.shape}")
        _check_lattice(nodes.shape[0])
        if not np.isfinite(nodes).all():
            raise InvalidInput("mesh nodes must be finite")
        n1 = np.linalg.norm(nodes[..., :3], axis=-1)
        n2 = np.linalg.norm(nodes[..., 3:], axis=-1)
        worst = max(float(np.abs(n1 - 1.0).max()), float(np.abs(n2 - 1.0).max()))
        if worst > 1e-10:
            raise InvalidInput(f"mesh node off the spheres by {worst:.3e}")
        nodes[..., :3] /= n1[..., None]
        nodes[..., 3:] /= n2[..., None]
        m = self.m = nodes.shape[0]
        self.spacing = TWO_PI / m
        # component-major tables: row k holds coordinate k of the points, or of
        # one partial, at node (i, j) in column i*m + j
        lattice = np.ascontiguousarray(np.moveaxis(nodes, -1, 0))
        k = np.arange(m // 2 + 1.0)  # the wavenumbers of rfft
        if m % 2 == 0:
            k[-1] = 0.0           # an even lattice's Nyquist mode has no real derivative
        # a component at a time: whole-lattice FFT temporaries, freed into
        # glibc's heap, raised a counting run's peak RSS by about 2 MB at m = 128
        du, dv = np.empty_like(lattice), np.empty_like(lattice)
        for c, component in enumerate(lattice):
            du[c] = np.fft.irfft(np.fft.rfft(component, axis=0) * (1j * k[:, None]), m, axis=0)
            dv[c] = np.fft.irfft(np.fft.rfft(component, axis=1) * (1j * k), m, axis=1)
        self._tables = {part: _read_only(table.reshape(6, m * m))
                        for part, table in (("points", lattice), ("du", du), ("dv", dv))}

    @property
    def nodes(self):
        """The (m, m, 6) read-only view of the nodes."""
        return self._tables["points"].T.reshape(self.m, self.m, 6)

    @property
    def charts(self):
        return (Chart(0.0, TWO_PI, 0.0, TWO_PI, True, True),)

    def v_factors(self, chart, v, part):
        """The interpolant mixes u and v, so the v values are its factors."""
        return v

    def rows(self, chart, u, v, part, out):
        """Fill out with the (6, ...) rows of the points or of one partial: the
        bilinear interpolant of the part's lattice table, renormalized to the
        spheres for the points."""
        u = np.asarray(u, dtype=float) / self.spacing
        v = np.asarray(v, dtype=float) / self.spacing
        u, v = np.broadcast_arrays(u, v)
        i0 = np.floor(u).astype(int)
        j0 = np.floor(v).astype(int)
        fu = u - i0
        fv = v - j0
        m = self.m
        i0 %= m
        j0 %= m
        i1 = (i0 + 1) % m
        j1 = (j0 + 1) % m
        i0 *= m  # flat node index i*m + j
        i1 *= m
        gu, gv = 1 - fu, 1 - fv
        # each corner enters as (node * weight_u) * weight_v and the four are
        # added in order, as the one-expression form rounds them; take's
        # "clip" mode writes straight to dest (the indices are in range), and
        # term is its own array, freed when out is returned
        table = self._tables[part]
        term = np.empty((6,) + u.shape)
        idx = np.empty_like(i0)
        corners = ((i0, j0, gu, gv), (i1, j0, fu, gv), (i0, j1, gu, fv), (i1, j1, fu, fv))
        for k, (i, j, wu, wv) in enumerate(corners):
            dest = term if k else out
            np.take(table, np.add(i, j, out=idx), axis=1, out=dest, mode="clip")
            dest *= wu
            dest *= wv
            if k:
                out += term
        if part == "points":
            # squares summed in np.linalg.norm's order, so the bits are the (..., 6) form's
            out[:3] /= np.sqrt((out[0] * out[0] + out[1] * out[1]) + out[2] * out[2])
            out[3:] /= np.sqrt((out[3] * out[3] + out[4] * out[4]) + out[5] * out[5])
        return out

    def weights(self, chart, u, v):
        return np.broadcast_to(1.0, np.broadcast_shapes(np.shape(u), np.shape(v)))

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
    if not text:
        raise InvalidInput(f"empty mesh file {str(path)!r}")
    head = text[0].split()
    if len(head) != 2 or head[0] != "mesh":
        raise InvalidInput(f"bad mesh header: {text[0]!r}")
    m = int(head[1])
    _check_lattice(m)
    if len(text) != 1 + m * m:
        raise InvalidInput(f"expected {m * m} node rows, found {len(text) - 1}")
    nodes = np.array([[float(x) for x in line.split()] for line in text[1:]])
    return MeshSurface(nodes.reshape(m, m, 6))


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def _legendre_pair(n: int, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, n >= 1."""
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p2 = x * p1
        p2 *= (2 * j - 1) / j
        p0 *= (j - 1) / j
        p2 -= p0
        p0, p1 = p1, p2
    return p1, p0


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on P_n from Tricomi's asymptotic guess
    cos(pi (k - 1/4) / (n + 1/2)), for the nonnegative nodes only; the rule is
    mirrored about 0.  The weight 2 / ((1 - x^2) P_n'(x)^2) is taken at the
    last iterate and moved to first order by the last Newton step, so a
    node near +-1, where the rounding of x is large against 1 - x^2, keeps a
    weight good to about 1e-12 relative up to n = 1024.  Cached: a rule costs
    O(n^2) time (about 4 ms at n = 512), and the charts, panels, levels and
    the angle kernel ask for the same few n again.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos((4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0))
    for _ in range(8):
        p, q = _legendre_pair(n, x)
        s = (1.0 - x) * (1.0 + x)
        d = n * (q - x * p) / s    # P_n'(x)
        dx = p / d
        w = 2.0 / (s * d * d) * (1.0 + 2.0 * x * dx / s)
        x = x - dx
        if np.all(np.abs(dx) <= 1e-8 * s):
            break
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    x = np.concatenate([-x[:half], x[::-1]])
    w = np.concatenate([w[:half], w[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _axis_rule(lo, hi, periodic, panels, m):
    """Nodes and weights of an m-node rule on [lo, hi].

    The trapezoid rule along a periodic direction; along a bounded one,
    Gauss-Legendre on each panel between consecutive breakpoints (lo, hi if
    there are none), the m nodes dealt out evenly with the remainder going
    to the first panels.
    """
    if periodic:
        h = (hi - lo) / m
        return lo + np.arange(m) * h, np.full(m, h)
    edges = panels or (lo, hi)
    count = len(edges) - 1
    nodes, weights = [], []
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        x, w = _gauss_legendre(m // count + (k < m % count))
        half = 0.5 * (b - a)
        nodes.append(a + half * (x + 1.0))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def chart_axes(surface, chart: int, m: int):
    """Quadrature nodes of one chart: (u nodes, u weights), (v nodes, v weights).

    The trapezoid rule along periodic directions, Gauss-Legendre panels along
    bounded ones (_axis_rule); a node's cell weight is the product of its u
    and v weights.  A grid that would leave a panel without a node is
    refused.
    """
    ch = surface.charts[chart]
    if m < ch.min_grid:
        raise InvalidInput(f"quadrature grid {m} leaves a Gauss-Legendre panel without a node; "
                           f"the grid must be at least {ch.min_grid}")
    return (_axis_rule(ch.u_min, ch.u_max, ch.periodic_u, ch.u_panels, m),
            _axis_rule(ch.v_min, ch.v_max, ch.periodic_v, (), m))


def _read_only(x):
    """A read-only view of x."""
    view = x.view()
    view.flags.writeable = False
    return view


class _Tile(dict):
    """One tile of surface_quadrature.  Its 'points' are evaluated on their
    first read, so an integral that does not read them does not pay for
    them; until then the key is absent from the dict's own keys."""

    def __init__(self, points, **rows):
        super().__init__(rows)
        self._points = points

    def __missing__(self, key):
        if key != "points":
            raise KeyError(key)
        self[key] = value = _read_only(self._points().reshape(6, -1).T)
        return value


def surface_quadrature(surface, m: int):
    """Yield the quadrature of each chart's m x m grid as row tiles.

    A tile holds whole rows (fixed u) of one chart, about QUADRATURE_TILE
    nodes; the tiles run through each chart's rows in order.  Each is a
    mapping of flat per-node arrays:

    * 'points' (n, 6): the surface points, evaluated when first read;
    * 'du', 'dv' (n, 6): the parameter partials;
    * 'area' (n,): the area element |du ^ dv| = sqrt(EG - F^2);
    * 'measure' (n,): the weighted area element w * area * dA, where dA is
      the node's cell weight from chart_axes.

    The arrays are read-only views of one workspace that the generator
    allocates for the largest tile it yields and reuses for every tile:
    they are valid until the next tile, so a caller that keeps a tile's
    values copies them.  The (n, 6) arrays are transposes of component-major
    (6, n) rows, so x[:, k] is contiguous and the kernels, which read by
    component, run on whole rows.  A node's values do not depend on the
    tile it falls in.  Whatever depends on one axis alone is computed once
    per chart: the surface's v_factors along v and its weights along u.
    A surface whose partials span no plane at some node (geometry.plane_area)
    has no area measure there, and is refused when its tile is built.
    lagrangian_defect reads the same tiles from _quadrature_tiles: it
    integrates nothing, so a tracer wrapping this function sees quadrature
    nodes only.
    """
    return _quadrature_tiles(surface, m)


def _quadrature_tiles(surface, m: int):
    """The generator behind surface_quadrature."""
    if m < 1:
        raise InvalidInput(f"quadrature grid must be at least 1, got {m}")
    rows = max(1, QUADRATURE_TILE // m)
    size = min(rows, m) * m    # nodes of the largest tile
    parts = ("points", "du", "dv")
    workspace = {part: np.empty(6 * size) for part in parts}
    area, measure = np.empty(size), np.empty(size)
    for chart in range(len(surface.charts)):
        (us, wu), (vs, wv) = chart_axes(surface, chart, m)
        v = vs[None, :]
        factors = {part: surface.v_factors(chart, v, part) for part in parts}
        weights = surface.weights(chart, us[:, None], v)
        for start in range(0, m, rows):
            u = us[start:start + rows, None]
            shape = (len(u), m)
            n = shape[0] * m
            out = {part: workspace[part][:6 * n].reshape(6, *shape) for part in parts}
            du, dv = (surface.rows(chart, u, factors[part], part, out[part]).reshape(6, n).T
                      for part in ("du", "dv"))
            _, degenerate = plane_area(du, dv, out=area[:n])
            if degenerate.any():
                raise InvalidInput(f"the partials of {surface!r} span no plane at a quadrature "
                                   f"node of chart {chart}, so it has no area measure there")
            tile_measure = measure[:n].reshape(shape)
            np.multiply(weights[start:start + rows], area[:n].reshape(shape), out=tile_measure)
            tile_measure *= wu[start:start + rows, None] * wv
            yield _Tile(
                functools.partial(surface.rows, chart, u, factors["points"], "points", out["points"]),
                du=_read_only(du),
                dv=_read_only(dv),
                area=_read_only(area[:n]),
                measure=_read_only(measure[:n]),
            )


def _default_grid(surface, m):
    if m is not None:
        return int(m)
    if isinstance(surface, MeshSurface):
        return surface.m
    return 64


def quadrature_levels(surface, m: int | None = None):
    """The grids of a checked quadrature: each level checks the last, whose value counts.

    A mesh has one level, its own node lattice.  A graph counts grid m and
    checks it against m // 2, refusing a coarse level that would leave a
    Gauss-Legendre panel without a node.  A torus counts 2m and checks m.
    """
    if isinstance(surface, MeshSurface):
        return (surface.m,)
    m = _default_grid(surface, m)
    if all(ch.periodic_u and ch.periodic_v for ch in surface.charts):
        return (m, 2 * m)
    floor = max(ch.min_grid for ch in surface.charts)
    if m // 2 < floor:
        raise InvalidInput(f"quadrature grid {m} is checked against grid {m // 2}, which leaves a "
                           f"Gauss-Legendre panel without a node; the grid must be at least {2 * floor}")
    return (m // 2, m)


def volume(surface, m: int | None = None) -> float:
    """Two-dimensional area by composite quadrature of sqrt(EG - F^2)."""
    m = _default_grid(surface, m)
    return float(math.fsum(float(block["measure"].sum()) for block in surface_quadrature(surface, m)))


def lagrangian_defect(surface) -> float:
    """Max of |<J du, dv>| / |du ^ dv| over the grid nodes of every chart.

    The J cosine of each node, read from the raw partials and their area
    element as the perimeter integral reads the J' cosine; a surface with a
    degenerate node is refused by the quadrature's tiles.  The grid is
    _default_grid's: a mesh's own node lattice (where its partials are the
    spectral tables), 64 nodes per direction otherwise, streamed in
    surface_quadrature's tiles, so the working set is one tile.
    """
    worst = 0.0
    for block in _quadrature_tiles(surface, _default_grid(surface, None)):
        cosine = np.abs(structure_pairing_batch("J", block["points"], block["du"], block["dv"]))
        cosine /= block["area"]
        worst = max(worst, float(cosine.max()))
    return worst
