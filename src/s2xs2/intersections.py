"""Transversal intersection counting against products of circles.

For a product torus L and a group element g, a point x of a surface N lies on
g L iff the two scalar residuals

    f1(u, v) = <N1(u, v), g1 n1> - c1,      f2(u, v) = <N2(u, v), g2 n2> - c2

vanish, where (n_i, c_i) are the circle axes/offsets of L.  Product-torus N
admits a closed-form count (each factor pair is a circle-circle intersection
on a sphere); every other surface is counted by marching-squares extraction
of the f1 = 0 contour on a chart grid, sign-change detection of f2 along the
contour segments, two-variable Newton refinement, ambient deduplication, and
a transversality gate.  Every sample is counted at grid m and at grid 2m, and
a disagreement is reported as GridUnstable rather than silently resolved.

The gate reads the wedge angle |e1 ^ e2 ^ l1 ^ l2| between the tangent plane
of N, (e1, e2) orthonormal, and that of g L, spanned by the unit tangents l1
and l2 of the moved circles, one per factor.  With P the projection off l1
and l2, which takes from each factor of a row its component along that
factor's tangent, it equals |P du ^ P dv| / |du ^ dv| for the partials
(du, dv) of N: two plane_area calls, with no orthonormal frame.

Each chart is evaluated once, on its level-2m nodes; level m is every second
node, bitwise the grid of m + 1 nodes per direction.  Both levels are counted
in one pass: a root's owner is its sample at level m and S + its sample at
level 2m, so per chart one Newton and one transversality call take both
levels' seeds, and per batch one deduplication (a sort by owner and
coordinates, then the greedy radius rule over each root's rank in its owner)
and one bincount count both; the status compares the two halves.

The counter is output sensitive.  Each chart grid is cut into blocks of
CULL_BLOCK x CULL_BLOCK cells, and each block carries a bounding cap (unit
centre, angular radius) of its N1 nodes and one of its N2 nodes.  Since f_i
is linear in N_i, the cap bounds f_i over the block's nodes by an interval;
a (sample, block) pair is evaluated only when both intervals, padded by
CULL_MARGIN, contain zero; L's offsets are fixed, so each cap's test is set
up once as a band of <centre, a> (_band).  The padding lies far above the
rounding of the bound and of the node values, so a block is skipped only
when every node value the counter would compute there has one sign for f1
or for f2, and no cell of it could carry the sign changes of both that a
seed needs: the count is the one the dense grid gives.

The culling is hierarchical.  The children of a level-m block are the
level-2m blocks that tile it, and its super-cap holds their nodes, which
include its own.  The level-m pairs are those whose super-caps straddle both
circles (the second tested only where the first holds); the level-2m pairs
are their children whose own caps do.  Only the level-2m pairs are
evaluated, once per batch, and level m reads the values at their even
nodes.  CULL_BLOCK must be even for that: each child then holds
CULL_BLOCK / 2 whole level-m cells per side, so every level-m cell lies in
one child, and a child left out has one sign for f1 or for f2 at every node,
so it holds no level-m seed either.  The seeds of both levels are those of
the per-block test on each grid evaluated apart, in the order of the kept
level-2m blocks.

Newton reads its Jacobian from the surface's own partials: each iterate
evaluates the points and the partials once, and the partials at the roots
go on to the transversality gate, which evaluates nothing.  A mesh's
partials are its spectral tables, not those of the bilinear interpolant its
residuals read, so on a mesh Newton converges linearly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput
from .geometry import plane_area
from .surfaces import TWO_PI, Circle, GraphSurface, ProductTorusSurface

COAXIAL_TOL = 1e-12
SAME_PLANE_TOL = 1e-9
DEDUP_RADIUS = 1e-6
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 30
NEWTON_MAX_STEP = 0.5     # largest Newton step per parameter
RESIDUAL_ACCEPT = 1e-10
TRANSVERSALITY_MIN = 1e-8
MIN_COUNT_GRID = 128
CULL_BLOCK = 8            # cells per side of a culling block
CULL_MARGIN = 1e-6        # padding of a block's value interval, far above its rounding
BAND_ROUNDING = 1e-12     # widening of each end of a cap's band, far above its rounding
GRAPH_COUNT_BAND = math.pi / 2 + 0.1  # per-chart seed band; the two bands cover the sphere


# ---------------------------------------------------------------------------
# analytic circle pair counting
# ---------------------------------------------------------------------------

def _circle_pairs(cn: Circle, axes, offset):
    """The circle cn against the circles {x : <a, x> = offset} for the unit rows a of axes.

    Returns (gamma, disc, coaxial) per row: gamma = <cn.axis, a>; disc is
    positive, zero or negative for two, one or no intersection points (-inf
    for parallel axes, whose distinct planes meet the sphere in disjoint
    circles); coaxial flags coincident planes, which have no point count.
    """
    gamma = axes @ cn.axis
    parallel = np.abs(gamma) > 1.0 - COAXIAL_TOL
    coaxial = parallel & (np.abs(offset - np.sign(gamma) * cn.offset) <= SAME_PLANE_TOL)
    safe = np.where(parallel, 0.0, gamma)
    disc = 1.0 - (cn.offset ** 2 + offset ** 2 - 2.0 * cn.offset * offset * safe) / (1.0 - safe ** 2)
    return gamma, np.where(parallel, -np.inf, disc), coaxial


def _circle_tangents(a1, a2, p, q):
    """Unit tangents (k, 3) at the points p and q of the circles about the
    axes a1 and a2, and the mask of the points on their axis."""
    t1, t2 = np.cross(a1, p), np.cross(a2, q)
    n1 = np.linalg.norm(t1, axis=-1, keepdims=True)
    n2 = np.linalg.norm(t2, axis=-1, keepdims=True)
    on_axis = (n1 < 1e-12) | (n2 < 1e-12)
    return t1 / np.where(n1 > 0, n1, 1.0), t2 / np.where(n2 > 0, n2, 1.0), on_axis[:, 0]


def counts_product_batch(n_surface: ProductTorusSurface, r1, r2,
                         l_surface: ProductTorusSurface):
    """Vectorized factor-count product over rotation batches (r1, r2: (S, 3, 3)).

    Returns (counts, coaxial_mask); coaxial samples carry count 0 and must be
    discarded by the caller.
    """
    counts = np.ones(r1.shape[0], dtype=int)
    coaxial = np.zeros(r1.shape[0], dtype=bool)
    for cn, cl, rot in ((n_surface.circle1, l_surface.circle1, r1),
                        (n_surface.circle2, l_surface.circle2, r2)):
        _, disc, same_plane = _circle_pairs(cn, rot @ cl.axis, cl.offset)
        counts *= np.where(disc > 0.0, 2, np.where(disc == 0.0, 1, 0))
        coaxial |= same_plane
    return counts, coaxial


def transversality_product_batch(n_surface: ProductTorusSurface, r1, r2,
                                 l_surface: ProductTorusSurface):
    """(S,) wedge angles between the tangent planes of N and g L at their
    intersection points, for rotation batches (r1, r2: (S, 3, 3)).

    The planes are products of circle tangents, so the wedge angle is the
    product of the two factors' sin(theta), theta the angle at which a circle
    of N meets its moved circle of L.  Both points of a circle pair meet at
    the same angle, sin(theta) = sqrt((1 - gamma^2) disc) / (r_N r_L) in the
    terms of _circle_pairs; samples with no point get 1.0.
    """
    sines = np.ones(r1.shape[0])
    meets = np.ones(r1.shape[0], dtype=bool)
    for cn, cl, rot in ((n_surface.circle1, l_surface.circle1, r1),
                        (n_surface.circle2, l_surface.circle2, r2)):
        gamma, disc, _ = _circle_pairs(cn, rot @ cl.axis, cl.offset)
        meets &= disc >= 0.0
        sines *= np.sqrt((1.0 - gamma ** 2) * np.maximum(disc, 0.0)) / (cn.radius * cl.radius)
    return np.where(meets, sines, 1.0)


# ---------------------------------------------------------------------------
# contour counting on chart grids
# ---------------------------------------------------------------------------

class _ChartGrid:
    """Node grid of one chart at one resolution, cut into blocks of cells.

    pts holds the chart's surface points at the nodes u_nodes x v_nodes;
    along periodic directions the wrap row/column repeats the opening one,
    so sign bookkeeping is exact at the seam.  A block is CULL_BLOCK x
    CULL_BLOCK cells with their boundary nodes; the last block along each
    direction may be ragged, its node indices clamped to the grid and its
    missing cells masked out.  Each block carries, per factor, a bounding cap
    of its nodes; with keep_nodes, also the nodes, per factor component-major
    (blocks, 3, (B+1)^2) with node (i, j) of a block at i (B+1) + j.
    """

    def __init__(self, pts, u_nodes, v_nodes, keep_nodes=True):
        m = len(u_nodes) - 1
        span = np.arange(0, m, CULL_BLOCK)[:, None] + np.arange(CULL_BLOCK + 1)
        side = np.minimum(span, m)                 # node indices along one block side
        cells = span[:, :-1] < m                   # real cells along one block side
        bu, bv = np.divmod(np.arange(len(span) ** 2), len(span))   # block row, column
        self.u = u_nodes[side[bu]]                        # (blocks, B+1)
        self.v = v_nodes[side[bv]]
        self.cells = cells[bu][:, :, None] & cells[bv][:, None, :]   # (blocks, B, B)
        self.side = len(span)                             # blocks along each direction
        index = (side[bu][:, :, None] * (m + 1) + side[bv][:, None, :]).reshape(len(bu), -1)
        nodes = np.empty((2, len(bu), 3, index.shape[1]))
        for k, plane in enumerate(np.moveaxis(pts, -1, 0)):   # "clip" writes straight to out
            np.take(plane, index, out=nodes[k // 3, :, k % 3], mode="clip")
        self.cap1, self.cap2 = map(_bounding_cap, nodes)
        if keep_nodes:
            self.nodes1, self.nodes2 = nodes


class _BlockHierarchy:
    """One chart's grids at levels m and 2m, both read from one evaluation of
    its level-2m nodes, with each level-m block's children, culled against
    the circles of offsets c1 and c2; only level 2m keeps its nodes.

    The children of a level-m block are the <= 4 level-2m blocks that tile
    its cells.  Per factor, the block's super-cap has the block's own cap
    centre and the largest, over the children, of the angle to the child's
    centre plus the child's radius: it holds every node of the children, and
    so every node of the block.  Each super-cap and each level-2m cap is kept
    as its band for its factor's offset (_band).
    """

    def __init__(self, surface, chart: int, m: int, c1, c2):
        ch = surface.charts[chart]
        graph = isinstance(surface, GraphSurface)
        u_lo, u_hi = (0.0, GRAPH_COUNT_BAND) if graph else (ch.u_min, ch.u_max)
        self.chart = chart
        u_nodes = np.linspace(u_lo, u_hi, 2 * m + 1)
        v_nodes = np.linspace(ch.v_min, ch.v_max, 2 * m + 1)
        pts = surface.points(chart, u_nodes[:, None], v_nodes[None, :])
        if ch.periodic_u:
            pts[-1, :] = pts[0, :]
        if ch.periodic_v:
            pts[:, -1] = pts[:, 0]
        self.coarse = coarse = _ChartGrid(pts[::2, ::2], u_nodes[::2], v_nodes[::2], keep_nodes=False)
        self.fine = fine = _ChartGrid(pts, u_nodes, v_nodes)
        bu, bv = np.divmod(np.arange(coarse.side ** 2), coarse.side)
        cu = 2 * bu[:, None] + (0, 0, 1, 1)
        cv = 2 * bv[:, None] + (0, 1, 0, 1)
        self.real = (cu < fine.side) & (cv < fine.side)   # a ragged last block may have fewer
        self.children = np.where(self.real, cu * fine.side + cv, 0)        # (blocks, 4)
        self.super1 = _band(self._super_cap(coarse.cap1[0], fine.cap1), c1)
        self.super2 = _band(self._super_cap(coarse.cap2[0], fine.cap2), c2)
        self.band1, self.band2 = _band(fine.cap1, c1), _band(fine.cap2, c2)
        self.c1, self.c2 = c1, c2

    def _super_cap(self, centre, child_cap):
        child_centre, child_radius = child_cap
        chord = np.linalg.norm(child_centre[self.children] - centre[:, None, :], axis=-1)
        reach = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0)) + child_radius[self.children]
        return centre, np.minimum(np.where(self.real, reach, 0.0).max(axis=1), math.pi)

    def kept_parents(self, a1, a2):
        """(samples, blocks): the level-m pairs whose super-caps straddle both
        circles, in (sample, block) order; the second is tested only where
        the first holds."""
        ks, kb = np.nonzero(_straddles(self.super1, a1))
        keep = _straddles(self.super2, a2[ks], kb)
        return ks[keep], kb[keep]

    def kept_blocks(self, a1, a2):
        """(samples, blocks): the level-2m pairs that can hold a cell where
        both residuals change sign, in (sample, level-m block, child) order.
        They are the children of the kept level-m pairs whose own caps
        straddle both circles."""
        ks, kb = self.kept_parents(a1, a2)
        real = self.real[kb]
        fs = np.broadcast_to(ks[:, None], real.shape)[real]
        fb = self.children[kb][real]
        keep = _straddles(self.band1, a1[fs], fb) & _straddles(self.band2, a2[fs], fb)
        return fs[keep], fb[keep]

    def seeds(self, a1, a2):
        """((samples, u, v) at level m, the same at level 2m): the Newton
        seeds of both levels, each in the order of the kept level-2m blocks
        and, within a block, of its cells and segments, from one evaluation
        of those blocks; level m's cells are those of the blocks' even
        nodes."""
        fs, fb = self.kept_blocks(a1, a2)
        grid = self.fine
        f1 = _node_values(grid.nodes1[fb], a1[fs], self.c1)
        f2 = _node_values(grid.nodes2[fb], a2[fs], self.c2)
        cells, u, v = grid.cells[fb], grid.u[fb], grid.v[fb]
        k, seeds_u, seeds_v = _seeds(f1[:, ::2, ::2], f2[:, ::2, ::2], cells[:, ::2, ::2], u[:, ::2], v[:, ::2])
        fine_k, fine_u, fine_v = _seeds(f1, f2, cells, u, v)
        return (fs[k], seeds_u, seeds_v), (fs[fine_k], fine_u, fine_v)


def _bounding_cap(nodes):
    """(centre, r) of a spherical cap about each block's middle node that
    holds every node of the block; nodes is (blocks, 3, (B+1)^2), and B is
    even, so the middle node is the middle column.  The angular radius r
    comes from the largest chord, which stays accurate for small blocks."""
    centre = nodes[:, :, nodes.shape[2] // 2].copy()
    square = 0.0
    for x in range(3):
        diff = nodes[:, x] - centre[:, x, None]
        square = square + diff * diff
    return centre, 2.0 * np.arcsin(np.minimum(0.5 * np.sqrt(square.max(axis=1)), 1.0))


def _band(cap, offset):
    """A cap (centre, r) as _straddles reads it for the circles
    {x : <x, a> = offset}: rows cx, cy, cz, lo, hi (5, blocks), such that the
    cap straddles the circle of a iff d = <centre, a> lies in [lo, hi].

    With theta the angle from the centre to a, the cap's nodes have <x, a>
    in [cos(min(theta + r, pi)), cos(max(theta - r, 0))].  That interval,
    padded by M = CULL_MARGIN, holds offset iff d lies in
    [cos(min(arccos(offset - M) + r, pi)), cos(max(arccos(offset + M) - r, 0))].
    Each end is widened by BAND_ROUNDING, far above the rounding of d and of
    the ends (a few ulp), so the test drops only pairs the exact test drops;
    and M lies far above the rounding of the cap and of the node values
    (~1e-15), so a block left out has every node value, as _node_values
    computes it, of one sign.
    """
    centre, radius = cap
    lo = np.cos(np.minimum(np.arccos(np.clip(offset - CULL_MARGIN, -1.0, 1.0)) + radius, math.pi))
    hi = np.cos(np.maximum(np.arccos(np.clip(offset + CULL_MARGIN, -1.0, 1.0)) - radius, 0.0))
    return np.vstack([centre.T, lo - BAND_ROUNDING, hi + BAND_ROUNDING])


def _straddles(band, axes, blocks=None):
    """Mask of the pairs of an axis row a and a block whose band holds
    <centre, a>: (S, blocks) over every pair, or (S,) when blocks names one
    block per row.  Both forms take <centre, a> in one order of terms."""
    if blocks is None:
        axes = axes[:, :, None]
    else:
        band = band[:, blocks]
    cx, cy, cz, lo, hi = band
    d = axes[:, 0] * cx + axes[:, 1] * cy + axes[:, 2] * cz
    return (lo <= d) & (d <= hi)


def _node_values(nodes, axes, offset):
    """Residuals <x, a> - offset (K, B+1, B+1) at block nodes (K, 3, (B+1)^2),
    one axis row a per block.  The terms are added in the order np.einsum
    adds a three-term contraction, (x0 a0 + x2 a2) + x1 a1, so the values
    are bitwise those of the point-major einsum."""
    x, y, z = nodes.transpose(1, 0, 2)
    f = (x * axes[:, 0, None] + z * axes[:, 2, None]) + y * axes[:, 1, None]
    f -= offset
    return f.reshape(len(nodes), CULL_BLOCK + 1, CULL_BLOCK + 1)


def _sign_change_cells(f):
    """(K, B, B) mask of the cells whose corner values of f (K, B+1, B+1) change sign."""
    s = f > 0.0
    a = s[:, :-1, :-1]
    return (s[:, 1:, :-1] != a) | (s[:, 1:, 1:] != a) | (s[:, :-1, 1:] != a)


_EDGES = ((0, 1), (1, 2), (3, 2), (0, 3))            # ab, bc, dc, ad
_CORNER_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))   # a, b, c, d
_EDGE_FROM, _EDGE_TO = np.array(_EDGES).T
_SADDLE_BD = ((0, 1), (2, 3))                         # edge pairs isolating b and d
_SADDLE_AC = ((0, 3), (1, 2))                         # edge pairs isolating a and c


def _cell_seeds(f1c, f2c, cu, cv):
    """Newton seeds from cells: marching-squares segments of f1 = 0 that carry
    a sign change of the interpolated f2 between their endpoints.

    Each row is one cell with a sign change of f1: corner values f1c, f2c and
    corner parameters cu, cv, all (A, 4) in corner order a, b, c, d.
    Returns (cell row, u, v) arrays with one entry per seed.
    """
    fa, fb = f1c[:, _EDGE_FROM], f1c[:, _EDGE_TO]
    crossed = (fa > 0.0) != (fb > 0.0)
    t = fa / np.where(crossed, fa - fb, 1.0)
    eu = cu[:, _EDGE_FROM] + t * (cu[:, _EDGE_TO] - cu[:, _EDGE_FROM])
    ev = cv[:, _EDGE_FROM] + t * (cv[:, _EDGE_TO] - cv[:, _EDGE_FROM])
    eg = f2c[:, _EDGE_FROM] + t * (f2c[:, _EDGE_TO] - f2c[:, _EDGE_FROM])
    # two crossed edges make one segment; at a saddle all four are crossed and
    # the sign of the cell-centre average against corner a picks the pairing
    saddle = crossed.all(axis=1)
    isolate_bd = (f1c.sum(axis=1) > 0.0) == (f1c[:, 0] > 0.0)
    ends = np.where(isolate_bd[:, None, None], _SADDLE_BD, _SADDLE_AC)
    ends[~saddle, 0] = np.stack([np.argmax(crossed, axis=1),
                                 3 - np.argmax(crossed[:, ::-1], axis=1)], axis=1)[~saddle]
    live = np.stack([np.ones_like(saddle), saddle], axis=1)
    g = eg[np.arange(len(eg))[:, None, None], ends]
    cell, seg = np.nonzero(live & ((g[..., 0] > 0.0) != (g[..., 1] > 0.0)))
    e0, e1 = ends[cell, seg, 0], ends[cell, seg, 1]
    g0, g1 = g[cell, seg, 0], g[cell, seg, 1]
    t = g0 / (g0 - g1)
    u0, v0 = eu[cell, e0], ev[cell, e0]
    return cell, u0 + t * (eu[cell, e1] - u0), v0 + t * (ev[cell, e1] - v0)


def _seeds(f1, f2, cells, u, v):
    """(block row, u, v) of the Newton seeds in K blocks, from their node
    values f1, f2 (K, n+1, n+1), cell mask (K, n, n) and node parameters
    u, v (K, n+1); in (block row, cell row, cell column, segment) order."""
    k, i, j = np.nonzero(_sign_change_cells(f1) & _sign_change_cells(f2) & cells)
    corners = lambda f: np.stack([f[k, i + di, j + dj] for di, dj in _CORNER_OFFSETS], axis=1)
    cell, seeds_u, seeds_v = _cell_seeds(
        corners(f1), corners(f2),
        np.stack([u[k, i + di] for di, _ in _CORNER_OFFSETS], axis=1),
        np.stack([v[k, j + dj] for _, dj in _CORNER_OFFSETS], axis=1),
    )
    return k[cell], seeds_u, seeds_v


def _factor_pairings(x, a1, a2):
    """(<x_1, a1>, <x_2, a2>) row by row, x_1 and x_2 the factors of x (k, 6)."""
    return np.sum(x[:, :3] * a1, axis=-1), np.sum(x[:, 3:] * a2, axis=-1)


def _newton_refine(surface, chart_index, U, V, a1, a2, c1, c2):
    """Vectorized damped Newton on (f1, f2) = 0 for seed arrays with per-seed axes.

    f_i is linear in the factor N_i, so the Jacobian is read from the
    surface's own partials (du, dv): j11 = <du_1, a1>, j12 = <dv_1, a1>,
    j21 = <du_2, a2>, j22 = <dv_2, a2>.  Each iterate evaluates the points
    and the partials once, on its active seeds.  Returns (points, du, dv,
    converged, jacobian_sigma_min), the points and the partials at the
    returned roots."""
    chart = surface.charts[chart_index]

    def clampwrap(u, v):
        u = np.mod(u, TWO_PI) if chart.periodic_u else np.clip(u, chart.u_min + 1e-9, chart.u_max - 1e-9)
        v = np.mod(v, TWO_PI) if chart.periodic_v else np.clip(v, chart.v_min + 1e-9, chart.v_max - 1e-9)
        return u, v

    def residual(u, v, a1, a2):
        """(f1, f2) at (u, v) for the axis rows a1, a2, and the points they read."""
        pts = surface.points(chart_index, u, v)
        f1, f2 = _factor_pairings(pts, a1, a2)
        return f1 - c1, f2 - c2, pts

    U, V = clampwrap(U, V)   # new arrays, updated in place below
    n = U.shape[0]
    active = np.ones(n, dtype=bool)
    sig_min = np.zeros(n)
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        u, v = U[idx], V[idx]
        A1, A2 = a1[idx], a2[idx]
        f1, f2, _ = residual(u, v, A1, A2)
        du, dv = surface.partials(chart_index, u, v)
        j11, j21 = _factor_pairings(du, A1, A2)
        j12, j22 = _factor_pairings(dv, A1, A2)
        det = j11 * j22 - j12 * j21
        singular = np.abs(det) < 1e-300
        det = np.where(singular, 1.0, det)
        step_u = np.clip((j22 * f1 - j12 * f2) / det, -NEWTON_MAX_STEP, NEWTON_MAX_STEP)
        step_v = np.clip((-j21 * f1 + j11 * f2) / det, -NEWTON_MAX_STEP, NEWTON_MAX_STEP)
        t = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
        root = np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))
        sig_min[idx] = np.where(singular, 0.0, np.sqrt(np.maximum(0.5 * (t - root), 0.0)))
        U[idx], V[idx] = clampwrap(u - step_u, v - step_v)
        done = ((np.maximum(np.abs(f1), np.abs(f2)) < NEWTON_TOL) & ~singular) | singular
        active[idx[done]] = False
    f1, f2, pts = residual(U, V, a1, a2)
    converged = np.maximum(np.abs(f1), np.abs(f2)) < RESIDUAL_ACCEPT
    return (pts, *surface.partials(chart_index, U, V), converged, sig_min)


def _dedup(owner, points):
    """Indices of the roots (owner (R,), points (R, 6)) that greedy clustering keeps.

    In (sample, coordinates) order, equal rows in input order, a root is dropped
    when an earlier kept root of its sample lies within DEDUP_RADIUS."""
    order = np.lexsort((*points.T[::-1], owner))
    owner, points = owner[order], points[order]
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    kept = rank == 0
    for k in range(1, rank.max(initial=0) + 1):
        i = np.nonzero(rank == k)[0]
        earlier = i[:, None] - np.arange(1, k + 1)
        dist = np.linalg.norm(points[i][:, None] - points[earlier], axis=-1)
        kept[i] = np.all(~kept[earlier] | (dist > DEDUP_RADIUS), axis=1)
    return order[kept]


class _CountingProblem:
    """Precomputed grids for counting many group samples against one (N, L)."""

    def __init__(self, n_surface, l_surface: ProductTorusSurface, m: int):
        if m < MIN_COUNT_GRID:
            raise InvalidInput(f"counting grid m must be >= {MIN_COUNT_GRID}, got {m}")
        self.n_surface = n_surface
        self.l_surface = l_surface
        c1, c2 = l_surface.circle1.offset, l_surface.circle2.offset
        try:
            self.hierarchies = [_BlockHierarchy(n_surface, chart, m, c1, c2)
                                for chart in range(len(n_surface.charts))]
        except MemoryError:
            raise InvalidInput(f"counting grid m = {m} needs over {48 * (2 * m + 1) ** 2} bytes per chart "
                               f"for its (2m + 1)^2 nodes, which cannot be allocated") from None

    def run_batch(self, r1, r2):
        """Per-sample outcomes over a batch of group samples.

        Each outcome is (status, count, min_transversality, points) with
        status in {'ok', 'nontransversal', 'gridunstable'}, decided over the
        per-sample arrays of both grid levels; points is the list of
        deduplicated ambient 6-vectors from the fine grid, empty unless the
        status is 'ok'.
        """
        S = r1.shape[0]
        a1 = r1 @ self.l_surface.circle1.axis
        a2 = r2 @ self.l_surface.circle2.axis
        c1, c2 = self.l_surface.circle1.offset, self.l_surface.circle2.offset
        failed = np.zeros(2 * S, dtype=bool)
        roots = []   # each chart's converged seeds: owner, points, min(sigma_min, trans), trans
        for h in self.hierarchies:
            levels = h.seeds(a1, a2)
            sidx, U, V = map(np.concatenate, zip(*levels))
            owner = np.concatenate([levels[0][0], S + levels[1][0]])
            A1, A2 = a1[sidx], a2[sidx]
            pts, du, dv, converged, smin = _newton_refine(self.n_surface, h.chart, U, V, A1, A2, c1, c2)
            trans = self._transversality(du, dv, pts, A1, A2)
            failed[owner[~converged]] = True
            quality = np.minimum(smin, trans)
            roots.append((owner[converged], pts[converged], quality[converged], trans[converged]))
        owner, points, quality, trans = map(np.concatenate, zip(*roots))
        keep = _dedup(owner, points)
        owner, points, quality, trans = owner[keep], points[keep], quality[keep], trans[keep]
        failed[owner[quality <= TRANSVERSALITY_MIN]] = True
        count = np.bincount(owner, minlength=2 * S)
        min_trans = np.ones(2 * S)   # trans lies in [0, 1], so a sample without roots keeps 1.0
        np.minimum.at(min_trans, owner, trans)
        status = np.where(~failed[:S] & ~failed[S:], np.where(count[:S] == count[S:], "ok", "gridunstable"),
                          "nontransversal")
        # owners are sorted, so level m's roots come first and the rest split by sample
        groups = np.split(points, np.searchsorted(owner, np.arange(S, 2 * S)))[1:]
        outcomes = zip(status.tolist(), count[S:].tolist(), min_trans[S:].tolist(), groups)
        return [(st, count, trans, list(pts)) if st == "ok" else (st, 0, 0.0, [])
                for st, count, trans, pts in outcomes]

    def _transversality(self, du, dv, pts, a1, a2):
        """Wedge angle between the N tangent plane, spanned by the partials
        (du, dv) at the points pts, and the moved-L tangent plane, capped at
        1 (module docstring); 0 where (du, dv) is degenerate or a point lies
        on its circle's axis."""
        t1, t2, on_axis = _circle_tangents(a1, a2, pts[:, :3], pts[:, 3:])
        tl = np.stack([t1, t2], axis=1)                     # (k, 2, 3)

        def project(w):
            w = w.reshape(-1, 2, 3)
            return (w - np.sum(w * tl, axis=-1, keepdims=True) * tl).reshape(-1, 6)

        area, degenerate = plane_area(du, dv)
        moved, _ = plane_area(project(du), project(dv))
        sigma = np.minimum(moved / np.where(degenerate, 1.0, area), 1.0)
        return np.where(degenerate | on_axis, 0.0, sigma)
