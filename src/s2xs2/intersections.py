"""Transversal intersection counting against products of circles.

For a product torus L and a group element g, a point x of a surface N lies on
g L iff the two scalar residuals

    f1(u, v) = <N1(u, v), g1 n1> - c1,      f2(u, v) = <N2(u, v), g2 n2> - c2

vanish, where (n_i, c_i) are the circle axes/offsets of L.  Product-torus N
admits a closed-form count (each factor pair is a circle-circle intersection
on a sphere); every other surface is counted by marching-squares extraction
of the f1 = 0 contour on a chart grid, sign-change detection of f2 along the
contour segments, two-variable Newton refinement, ambient deduplication, and
a transversality gate.  Counts are recomputed on the doubled grid and any
disagreement is reported as GridUnstable rather than silently resolved.

The counter is output sensitive.  Each chart grid is cut into blocks of
CULL_BLOCK x CULL_BLOCK cells, and each block carries a bounding cap (unit
centre, angular radius) of its N1 nodes and one of its N2 nodes.  Since f_i
is linear in N_i, the cap bounds f_i over the block's nodes by an interval;
a (sample, block) pair is evaluated only when both intervals, padded by
CULL_MARGIN, contain zero.  The padding lies far above the rounding of the
bound and of the node values, so a block is skipped only when every node
value the counter would compute there has one sign for f1 or for f2, and no
cell of it could carry the sign changes of both that a seed needs: the count
is the one the dense grid gives.  Node values, sign tests and seed
extraction then run over the kept blocks alone, all samples of a batch at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoaxialCircles, GridUnstable, NonTransversalSample
from .geometry import orthonormal_pairs, wedge_norm
from .rotations import GroupElement
from .surfaces import TWO_PI, Circle, GraphSurface, ProductTorusSurface

COAXIAL_TOL = 1e-12
SAME_PLANE_TOL = 1e-9
DEDUP_RADIUS = 1e-6
NEWTON_TOL = 1e-11
RESIDUAL_ACCEPT = 1e-10
TRANSVERSALITY_MIN = 1e-8
MIN_COUNT_GRID = 128
CULL_BLOCK = 8            # cells per side of a culling block
CULL_MARGIN = 1e-6        # padding of a block's value interval, far above its rounding
GRAPH_COUNT_BAND = math.pi / 2 + 0.1  # per-chart seed band; the two bands cover the sphere


@dataclass(frozen=True)
class IntersectionResult:
    """Transversal intersection count with the found points as (count, 6) rows.

    min_transversality is the smallest wedge angle between the tangent planes
    of the two surfaces over the found points (1.0 when there are none).
    """

    count: int
    points: np.ndarray
    min_transversality: float


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


def circle_circle_count(c1: Circle, c2: Circle) -> int:
    """0, 1 or 2 intersection points of two circles on the unit sphere."""
    return len(circle_circle_points(c1, c2))


def circle_circle_points(c1: Circle, c2: Circle):
    """The intersection points (possibly empty) as unit 3-vectors."""
    (gamma,), (disc,), (coaxial,) = _circle_pairs(c1, c2.axis[None, :], c2.offset)
    if coaxial:
        raise CoaxialCircles(f"coincident circle planes (gamma = {float(gamma)!r})")
    if disc < 0.0:
        return []
    denom = 1.0 - gamma ** 2
    alpha = (c1.offset - c2.offset * gamma) / denom
    beta = (c2.offset - c1.offset * gamma) / denom
    base = alpha * c1.axis + beta * c2.axis
    if disc == 0.0:
        return [base / np.linalg.norm(base)]
    out_of_plane = math.sqrt(disc / denom) * np.cross(c1.axis, c2.axis)
    return [base + out_of_plane, base - out_of_plane]


def _circle_tangent_rows(a1, a2, p, q):
    """Unit tangents at the points (p, q) of the circles about the axes a1 and
    a2, one per factor, as (k, 2, 6) rows; degenerate where p or q lies on its axis."""
    rows = np.zeros(p.shape[:-1] + (2, 6))
    rows[:, 0, :3] = np.cross(a1, p)
    rows[:, 1, 3:] = np.cross(a2, q)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.where(norms > 0, norms, 1.0), np.any(norms < 1e-12, axis=(1, 2))


def count_product_product(n_surface: ProductTorusSurface, g: GroupElement,
                          l_surface: ProductTorusSurface) -> IntersectionResult:
    """Closed-form count for two product tori: the factor counts multiply."""
    moved1 = l_surface.circle1.transform(g.first)
    moved2 = l_surface.circle2.transform(g.second)
    x = np.array([np.concatenate([p, q])
                  for p in circle_circle_points(n_surface.circle1, moved1)
                  for q in circle_circle_points(n_surface.circle2, moved2)]).reshape(-1, 6)
    tn, _ = _circle_tangent_rows(n_surface.circle1.axis, n_surface.circle2.axis, x[:, :3], x[:, 3:])
    tl, _ = _circle_tangent_rows(moved1.axis, moved2.axis, x[:, :3], x[:, 3:])
    trans = wedge_norm(np.concatenate([tn, tl], axis=1))
    return IntersectionResult(len(x), x, float(trans.min(initial=1.0)))


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


# ---------------------------------------------------------------------------
# contour counting on chart grids
# ---------------------------------------------------------------------------

class _ChartGrid:
    """Node grid of one chart at one resolution, cut into blocks of cells.

    Along periodic directions the wrap row/column of nodes repeats the opening
    one, so sign bookkeeping is exact at the seam.  A block is CULL_BLOCK x
    CULL_BLOCK cells with their boundary nodes; the last block along each
    direction may be ragged, its node indices clamped to the grid and its
    missing cells masked out.  Each block carries, per factor, a bounding cap
    of its nodes.
    """

    def __init__(self, surface, chart: int, m: int):
        ch = surface.charts[chart]
        if isinstance(surface, GraphSurface):
            u_lo, u_hi = 0.0, GRAPH_COUNT_BAND
        else:
            u_lo, u_hi = ch.u_min, ch.u_max
        self.chart = ch
        self.chart_index = chart
        u_nodes = np.linspace(u_lo, u_hi, m + 1)
        v_nodes = np.linspace(ch.v_min, ch.v_max, m + 1)
        pts = surface.points(chart, u_nodes[:, None], v_nodes[None, :])
        if ch.periodic_u:
            pts[-1, :] = pts[0, :]
        if ch.periodic_v:
            pts[:, -1] = pts[:, 0]
        span = np.arange(0, m, CULL_BLOCK)[:, None] + np.arange(CULL_BLOCK + 1)
        side = np.minimum(span, m)                 # node indices along one block side
        cells = span[:, :-1] < m                   # real cells along one block side
        bu, bv = np.divmod(np.arange(len(span) ** 2), len(span))   # block row, column
        block = pts[side[bu][:, :, None], side[bv][:, None, :]]
        self.p1 = block[..., :3]                          # (blocks, B+1, B+1, 3)
        self.p2 = block[..., 3:]
        self.u = u_nodes[side[bu]]                        # (blocks, B+1)
        self.v = v_nodes[side[bv]]
        self.cells = cells[bu][:, :, None] & cells[bv][:, None, :]   # (blocks, B, B)
        self.cap1 = _bounding_cap(self.p1)
        self.cap2 = _bounding_cap(self.p2)


def _bounding_cap(pts):
    """(centre, cos r, sin r) of a spherical cap about each block's middle
    node that holds every node of the block; pts is (blocks, B+1, B+1, 3).
    The angular radius r comes from the largest chord, which stays accurate
    for small blocks."""
    mid = pts.shape[1] // 2
    centre = pts[:, mid, mid]
    diff = pts - centre[:, None, None, :]
    chord = np.sqrt(np.einsum("bijx,bijx->bij", diff, diff).max(axis=(1, 2)))
    radius = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
    return centre, np.cos(radius), np.sin(radius)


def _cap_straddles(cap, axes, offset):
    """(S, blocks) mask: offset lies in the cap interval of <x, a> for the axis rows a.

    With theta the angle from the cap centre to a, a node within angle r of
    the centre has <x, a> in [cos(min(theta + r, pi)), cos(max(theta - r, 0))].
    The interval is padded by CULL_MARGIN, well above its worst rounding
    (sin theta = sqrt(1 - cos^2 theta) moves by up to ~6e-8 near the poles,
    every other term by ~1e-15), so a block left out has every node value,
    as _node_values computes it, of one sign.
    """
    centre, cos_r, sin_r = cap
    d = axes @ centre.T
    e = np.sqrt(np.maximum(1.0 - d * d, 0.0))
    hi = np.where(d < cos_r, d * cos_r + e * sin_r, 1.0)
    lo = np.where(d > -cos_r, d * cos_r - e * sin_r, -1.0)
    return (lo - CULL_MARGIN <= offset) & (offset <= hi + CULL_MARGIN)


def _node_values(pts, axes, offset):
    """Residuals <x, a> - offset at block nodes pts (K, B+1, B+1, 3), one axis row a per block."""
    return np.einsum("kijx,kx->kij", pts, axes) - offset


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


def _newton_refine(surface, chart_index, chart, U, V, a1, a2, c1, c2,
                   max_iter=30, fd_step=1e-6, max_step=0.5):
    """Vectorized damped Newton on (f1, f2) = 0 for seed arrays with per-seed axes.

    Returns (U, V, converged, jacobian_sigma_min)."""

    def clampwrap(u, v):
        if chart.periodic_u:
            u = np.mod(u, TWO_PI)
        else:
            u = np.clip(u, chart.u_min + 1e-9, chart.u_max - 1e-9)
        if chart.periodic_v:
            v = np.mod(v, TWO_PI)
        else:
            v = np.clip(v, chart.v_min + 1e-9, chart.v_max - 1e-9)
        return u, v

    def residual(u, v):
        pts = surface.points(chart_index, u, v)
        f1 = np.sum(pts[..., :3] * a1sub, axis=-1) - c1
        f2 = np.sum(pts[..., 3:] * a2sub, axis=-1) - c2
        return f1, f2

    U = np.array(U, dtype=float)
    V = np.array(V, dtype=float)
    U, V = clampwrap(U, V)
    n = U.shape[0]
    active = np.ones(n, dtype=bool)
    sig_min = np.zeros(n)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        u, v = U[idx], V[idx]
        a1sub, a2sub = a1[idx], a2[idx]
        f1, f2 = residual(u, v)
        f1u, f2u = residual(*clampwrap(u + fd_step, v))
        f1mu, f2mu = residual(*clampwrap(u - fd_step, v))
        f1v, f2v = residual(*clampwrap(u, v + fd_step))
        f1mv, f2mv = residual(*clampwrap(u, v - fd_step))
        j11 = (f1u - f1mu) / (2 * fd_step)
        j21 = (f2u - f2mu) / (2 * fd_step)
        j12 = (f1v - f1mv) / (2 * fd_step)
        j22 = (f2v - f2mv) / (2 * fd_step)
        det = j11 * j22 - j12 * j21
        singular = np.abs(det) < 1e-300
        det = np.where(singular, 1.0, det)
        du = np.clip((j22 * f1 - j12 * f2) / det, -max_step, max_step)
        dv = np.clip((-j21 * f1 + j11 * f2) / det, -max_step, max_step)
        t = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
        root = np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))
        sig_min[idx] = np.where(singular, 0.0, np.sqrt(np.maximum(0.5 * (t - root), 0.0)))
        U[idx], V[idx] = clampwrap(u - du, v - dv)
        done = ((np.maximum(np.abs(f1), np.abs(f2)) < NEWTON_TOL) & ~singular) | singular
        active[idx[done]] = False
    a1sub, a2sub = a1, a2
    f1, f2 = residual(U, V)
    converged = np.maximum(np.abs(f1), np.abs(f2)) < RESIDUAL_ACCEPT
    return U, V, converged, sig_min


def _dedup(points, quality):
    """Greedy ambient-radius clustering in a deterministic coordinate order."""
    if not points:
        return [], []
    arr = np.stack(points, axis=0)
    order = np.lexsort(arr.T[::-1])
    kept_pts, kept_q = [], []
    for idx in order:
        p = points[idx]
        if all(np.linalg.norm(p - kp) > DEDUP_RADIUS for kp in kept_pts):
            kept_pts.append(p)
            kept_q.append(quality[idx])
    return kept_pts, kept_q


class _CountingProblem:
    """Precomputed grids for counting many group samples against one (N, L)."""

    def __init__(self, n_surface, l_surface: ProductTorusSurface, m: int):
        if m < MIN_COUNT_GRID:
            raise ValueError(f"counting grid m must be >= {MIN_COUNT_GRID}, got {m}")
        self.n_surface = n_surface
        self.l_surface = l_surface
        self.m = m
        self.grids = {
            level: [_ChartGrid(n_surface, chart, level) for chart in range(len(n_surface.charts))]
            for level in (m, 2 * m)
        }

    def run_batch(self, r1, r2, collect_points=False):
        """Per-sample outcomes over a batch of group samples.

        Each outcome is (status, count, min_transversality, points) with
        status in {'ok', 'nontransversal', 'gridunstable'}; points is a list
        of ambient 6-vectors from the fine grid when collect_points is set.
        """
        S = r1.shape[0]
        a1 = r1 @ self.l_surface.circle1.axis
        a2 = r2 @ self.l_surface.circle2.axis
        c1 = self.l_surface.circle1.offset
        c2 = self.l_surface.circle2.offset
        coarse = self._count_level(self.grids[self.m], a1, a2, c1, c2, S)
        fine = self._count_level(self.grids[2 * self.m], a1, a2, c1, c2, S)
        out = []
        for s in range(S):
            ok0, count0, _, _ = coarse[s]
            ok1, count1, trans1, pts1 = fine[s]
            if not (ok0 and ok1):
                out.append(("nontransversal", 0, 0.0, []))
            elif count0 != count1:
                out.append(("gridunstable", 0, 0.0, []))
            else:
                out.append(("ok", count1, trans1, pts1 if collect_points else []))
        return out

    def _count_level(self, grids, a1, a2, c1, c2, S):
        roots = [[] for _ in range(S)]
        quality = [[] for _ in range(S)]
        failed = np.zeros(S, dtype=bool)
        for grid in grids:
            # only (sample, block) pairs whose caps reach both circles can hold
            # a cell where both residuals change sign
            ks, kb = np.nonzero(_cap_straddles(grid.cap1, a1, c1) & _cap_straddles(grid.cap2, a2, c2))
            f1 = _node_values(grid.p1[kb], a1[ks], c1)
            f2 = _node_values(grid.p2[kb], a2[ks], c2)
            k, i, j = np.nonzero(_sign_change_cells(f1) & _sign_change_cells(f2) & grid.cells[kb])
            corners = lambda f: np.stack([f[k, i + di, j + dj] for di, dj in _CORNER_OFFSETS], axis=1)
            cell, seeds_u, seeds_v = _cell_seeds(
                corners(f1), corners(f2),
                np.stack([grid.u[kb[k], i + di] for di, _ in _CORNER_OFFSETS], axis=1),
                np.stack([grid.v[kb[k], j + dj] for _, dj in _CORNER_OFFSETS], axis=1),
            )
            if not cell.size:
                continue
            sidx = ks[k[cell]]
            U, V, converged, smin = _newton_refine(
                self.n_surface, grid.chart_index, grid.chart,
                seeds_u, seeds_v, a1[sidx], a2[sidx], c1, c2,
            )
            pts = self.n_surface.points(grid.chart_index, U, V)
            trans = self._transversality(grid.chart_index, U, V, pts, a1[sidx], a2[sidx])
            failed[sidx[~converged]] = True
            for r in np.nonzero(converged)[0]:
                roots[sidx[r]].append(pts[r])
                quality[sidx[r]].append((float(smin[r]), float(trans[r])))
        out = []
        for s in range(S):
            if failed[s]:
                out.append((False, 0, 0.0, []))
                continue
            pts, qual = _dedup(roots[s], quality[s])
            if any(sig <= TRANSVERSALITY_MIN or tr <= TRANSVERSALITY_MIN for sig, tr in qual):
                out.append((False, 0, 0.0, []))
                continue
            min_trans = min((tr for _, tr in qual), default=1.0)
            out.append((True, len(pts), min_trans, pts))
        return out

    def _transversality(self, chart_index, U, V, pts, a1, a2):
        """Wedge angle between the N tangent plane and the moved-L tangent plane."""
        du, dv = self.n_surface.partials(chart_index, U, V)
        t1, t2, bad = orthonormal_pairs(du, dv)
        tl, degenerate = _circle_tangent_rows(a1, a2, pts[:, :3], pts[:, 3:])
        sigma = wedge_norm(np.concatenate([np.stack([t1, t2], axis=1), tl], axis=1))
        return np.where(degenerate | bad, 0.0, sigma)


def count_surface_product(n_surface, g: GroupElement, l_surface: ProductTorusSurface,
                          grid: int = MIN_COUNT_GRID) -> IntersectionResult:
    """Contour-based transversal count of N against g L, cross-checked at grid 2m."""
    problem = _CountingProblem(n_surface, l_surface, grid)
    (status, count, min_trans, pts), = problem.run_batch(
        g.first.matrix[None, :, :], g.second.matrix[None, :, :], collect_points=True
    )
    if status == "gridunstable":
        raise GridUnstable(f"count changed between grids {grid} and {2 * grid}")
    if status == "nontransversal":
        raise NonTransversalSample("an intersection point failed the transversality gate")
    return IntersectionResult(count, np.array(pts, dtype=float).reshape(-1, 6), float(min_trans))
