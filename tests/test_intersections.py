import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2xs2.errors import CoaxialCircles, GridUnstable
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.intersections import (
    _CORNER_OFFSETS,
    _EDGES,
    _cap_straddles,
    _cell_seeds,
    _ChartGrid,
    _CountingProblem,
    _node_values,
    circle_circle_count,
    circle_circle_points,
    count_product_product,
    count_surface_product,
    counts_product_batch,
)
from s2xs2.rotations import GroupElement, Rotation, group_element_at, group_matrices
from s2xs2.surfaces import (
    Circle,
    GraphSurface,
    ProductTorusSurface,
    anti_diagonal,
    great_torus,
    latitude_torus,
)


# the partner seed the anti-diagonal benchmark workload derives from its seed 804
PARTNER_SEED = 3990515194


def bisection_circle_count(c1: Circle, c2: Circle, n=4096):
    """Independent oracle: count sign changes of the second plane constraint
    along a fine parameterization of the first circle."""
    s = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    f = c1.points(s) @ c2.axis - c2.offset
    signs = f > 0
    return int(np.count_nonzero(signs != np.roll(signs, 1)))


class TestCircleCircle:
    def test_two_great_circles(self):
        assert circle_circle_count(Circle([0, 0, 1], 0), Circle([1, 0, 0], 0)) == 2

    def test_disjoint_caps_on_antiparallel_axes(self):
        assert circle_circle_count(Circle([0, 0, 1], 0.9), Circle([0, 0, -1], 0.9)) == 0

    def test_parallel_distinct_planes(self):
        assert circle_circle_count(Circle([0, 0, 1], 0.2), Circle([0, 0, 1], 0.6)) == 0

    def test_mid_latitude_pair_against_discriminant_and_bisection(self):
        c1 = Circle([0, 0, 1], 0.5)
        c2 = Circle([1, 0, 0], 0.5)
        assert circle_circle_count(c1, c2) == 2
        assert bisection_circle_count(c1, c2) == 2

    def test_random_pairs_match_bisection_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a1 = rng.normal(size=3)
            a2 = rng.normal(size=3)
            c1 = Circle(a1, rng.uniform(-0.95, 0.95))
            c2 = Circle(a2, rng.uniform(-0.95, 0.95))
            try:
                count = circle_circle_count(c1, c2)
            except CoaxialCircles:
                continue
            assert count == bisection_circle_count(c1, c2)

    def test_points_lie_on_both_circles(self):
        c1 = Circle([0.2, -0.3, 0.93], 0.4)
        c2 = Circle([0.9, 0.1, -0.4], -0.2)
        pts = circle_circle_points(c1, c2)
        assert len(pts) == circle_circle_count(c1, c2)
        for p in pts:
            assert abs(np.linalg.norm(p) - 1) < 1e-12
            assert abs(p @ c1.axis - c1.offset) < 1e-12
            assert abs(p @ c2.axis - c2.offset) < 1e-12

    def test_coincident_plane_raises(self):
        with pytest.raises(CoaxialCircles):
            circle_circle_count(Circle([0, 0, 1], 0.5), Circle([0, 0, 1], 0.5))
        with pytest.raises(CoaxialCircles):
            circle_circle_count(Circle([0, 0, 1], 0.5), Circle([0, 0, -1], -0.5))


class TestProductProduct:
    def test_great_pair_counts_four(self):
        g = group_element_at(7, 0)
        res = count_product_product(great_torus(), g, great_torus())
        assert res.count == 4
        assert len(res.points) == 4
        assert res.min_transversality > 1e-8

    def test_points_lie_on_both_surfaces(self):
        g = group_element_at(13, 2)
        n = latitude_torus(0.3, -0.2)
        l = latitude_torus(0.1, 0.4)
        res = count_product_product(n, g, l)
        moved1 = l.circle1.transform(g.first)
        moved2 = l.circle2.transform(g.second)
        for p in res.points:
            assert abs(p[:3] @ n.circle1.axis - n.circle1.offset) < 1e-8
            assert abs(p[3:] @ n.circle2.axis - n.circle2.offset) < 1e-8
            assert abs(p[:3] @ moved1.axis - moved1.offset) < 1e-8
            assert abs(p[3:] @ moved2.axis - moved2.offset) < 1e-8

    def test_antipodal_caps_give_zero(self):
        n = latitude_torus(0.9, 0.9)
        l = latitude_torus(0.9, 0.9)
        flip = Rotation.from_axis_angle([1, 0, 0], math.pi)
        g = GroupElement(flip, flip)
        assert count_product_product(n, g, l).count == 0

    def test_identity_on_equal_tori_is_coaxial(self):
        with pytest.raises(CoaxialCircles):
            count_product_product(great_torus(), GroupElement.identity(), great_torus())

    def test_batch_matches_scalar(self):
        n = latitude_torus(0.5, 0.5)
        l = great_torus()
        r1, r2 = group_matrices(21, 0, 200)
        counts, coaxial = counts_product_batch(n, r1, r2, l)
        assert not coaxial.any()
        for k in (0, 17, 63, 199):
            g = group_element_at(21, k)
            assert counts[k] == count_product_product(n, g, l).count


class TestContourCounter:
    def test_antidiagonal_against_split_axes(self):
        n = anti_diagonal()
        l = ProductTorusSurface(Circle([0, 0, 1], 0), Circle([1, 0, 0], 0))
        res = count_surface_product(n, GroupElement.identity(), l)
        assert res.count == 2
        found = sorted(round(p[1]) for p in res.points)
        assert found == [-1, 1]  # z = -e_y and z = +e_y
        for p in res.points:
            assert np.abs(np.abs(p[:3]) - [0, 1, 0]).max() < 1e-8
            assert np.abs(p[3:] + p[:3]).max() < 1e-8

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            count_surface_product(anti_diagonal(), group_element_at(1, 0), great_torus(), grid=64)

    def test_grid_unstable_near_tangency(self):
        # a near-tangent pair of roots that only the 512-node level resolves,
        # so grid 256 disagrees with its own 2m check
        g = group_element_at(PARTNER_SEED, 150)
        with pytest.raises(GridUnstable):
            count_surface_product(anti_diagonal(), g, latitude_torus(0.3, -0.5), grid=256)
        res = count_surface_product(anti_diagonal(), g, latitude_torus(0.3, -0.5), grid=512)
        assert res.count == 2
        assert res.min_transversality == pytest.approx(0.00465, abs=5e-6)

    @pytest.mark.xfail(strict=True, reason="both grids miss the near-tangent pair: a silent 0")
    def test_near_tangent_pair_found_at_the_floor_grid(self):
        g = group_element_at(PARTNER_SEED, 150)
        assert count_surface_product(anti_diagonal(), g, latitude_torus(0.3, -0.5), grid=128).count == 2

    def test_undeformed_mesh_counts_four(self):
        mesh = deform_surface(HamiltonianFunction.zero(), great_torus(), FlowParams(0.5, 40), m=64)
        for k in range(5):
            g = group_element_at(33, k)
            res = count_surface_product(mesh, g, great_torus())
            assert res.count == 4

    def test_contour_agrees_with_analytic_on_product_tori(self):
        n = latitude_torus(0.4, -0.3)
        l = latitude_torus(0.2, 0.1)
        for k in range(40):
            g = group_element_at(71, k)
            analytic = count_product_product(n, g, l).count
            contour = count_surface_product(n, g, l).count
            assert contour == analytic

    def test_group_action_symmetry(self):
        n = latitude_torus(0.25, 0.55)
        l = great_torus()
        for k in range(10):
            g = group_element_at(101, k)
            direct = count_product_product(n, g, l).count
            moved = count_product_product(n.transform(g.inverse()), GroupElement.identity(), l)
            assert moved.count == direct

    def test_ragged_blocks_agree_with_analytic_on_product_tori(self):
        # 130 is not a multiple of the block size: the last block of each
        # direction is ragged at both levels (130 and 260)
        n = latitude_torus(-0.35, 0.45)
        l = latitude_torus(0.15, -0.2)
        for k in range(20):
            g = group_element_at(131, k)
            assert count_surface_product(n, g, l, grid=130).count == count_product_product(n, g, l).count

    @pytest.mark.parametrize("antipodal", [False, True])
    @pytest.mark.parametrize("l_surface", [great_torus(), latitude_torus(0.3, -0.5)],
                             ids=["great", "latitude"])
    def test_graphs_match_circle_oracle(self, antipodal, l_surface):
        """N = {(z, Mz)} meets g L where z lies on g1 C1 and on M^T g2 C2, so
        every accepted count must equal that circle-circle count."""
        checked = silent = flagged = 0
        for graph in range(2):
            rot = group_element_at(8800 + graph, 0).first
            n_surface = GraphSurface(rot, antipodal=antipodal)
            problem = _CountingProblem(n_surface, l_surface, 128)
            r1, r2 = group_matrices(8810 + graph, 0, 256)
            outcomes = [o for start in range(0, 256, 64)
                        for o in problem.run_batch(r1[start:start + 64], r2[start:start + 64])]
            c1, c2 = l_surface.circle1, l_surface.circle2
            for k, (status, count, _, _) in enumerate(outcomes):
                moved1 = Circle(r1[k] @ c1.axis, c1.offset)
                pulled2 = Circle(n_surface.map_matrix.T @ (r2[k] @ c2.axis), c2.offset)
                try:
                    oracle = circle_circle_count(moved1, pulled2)
                except CoaxialCircles:
                    oracle = None
                checked += 1
                if status != "ok" or oracle is None:
                    flagged += 1
                elif count != oracle:
                    silent += 1
        assert checked == 512
        assert silent == 0
        assert flagged <= 0.01 * checked


def reference_cell_seeds(f1c, f2c, cu, cv):
    """The per-cell loop the vectorized seed extraction replaced: one cell's
    marching-squares segments of f1 = 0 with a sign change of f2 along them."""
    crossings = {}
    for e0, e1 in _EDGES:
        fa, fb = f1c[e0], f1c[e1]
        if (fa > 0.0) == (fb > 0.0):
            continue
        t = fa / (fa - fb)
        crossings[(e0, e1)] = (cu[e0] + t * (cu[e1] - cu[e0]), cv[e0] + t * (cv[e1] - cv[e0]),
                               f2c[e0] + t * (f2c[e1] - f2c[e0]))
    if len(crossings) == 2:
        segments = [tuple(crossings.values())]
    elif len(crossings) == 4:
        if (f1c.sum() > 0.0) == (f1c[0] > 0.0):
            pairing = (((0, 1), (1, 2)), ((3, 2), (0, 3)))
        else:
            pairing = (((0, 1), (0, 3)), ((1, 2), (3, 2)))
        segments = [(crossings[e0], crossings[e1]) for e0, e1 in pairing]
    else:
        return []
    seeds = []
    for s0, s1 in segments:
        g0, g1 = s0[2], s1[2]
        if (g0 > 0.0) != (g1 > 0.0):
            t = g0 / (g0 - g1)
            seeds.append((s0[0] + t * (s1[0] - s0[0]), s0[1] + t * (s1[1] - s0[1])))
    return seeds


class TestSeedExtraction:
    def test_vectorized_seeds_equal_the_cell_loop(self):
        rng = np.random.default_rng(5)
        f1c = rng.normal(size=(4000, 4))
        f1c[:1000] *= (1, -1, 1, -1) * np.sign(f1c[:1000])   # saddles
        f1c = f1c[(f1c > 0).any(axis=1) & (f1c <= 0).any(axis=1)]
        f2c = rng.normal(size=f1c.shape)
        u0, v0 = rng.uniform(0, 6, size=(2, len(f1c)))
        cu = u0[:, None] + 0.05 * np.array([du for du, _ in _CORNER_OFFSETS])
        cv = v0[:, None] + 0.05 * np.array([dv for _, dv in _CORNER_OFFSETS])
        cell, su, sv = _cell_seeds(f1c, f2c, cu, cv)
        vectorized = sorted(zip(cell.tolist(), su.tolist(), sv.tolist()))
        looped = sorted((a, u, v) for a in range(len(f1c))
                        for u, v in reference_cell_seeds(f1c[a], f2c[a], cu[a], cv[a]))
        assert len(looped) > 1000
        assert vectorized == looped


@functools.lru_cache(maxsize=None)
def cull_grid(kind, chart, m):
    surface = {"anti-diagonal": anti_diagonal(), "latitude": latitude_torus(0.3, -0.6)}[kind]
    return _ChartGrid(surface, chart, m)


unit_vectors = st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(lambda v: 0.1 < np.linalg.norm(v))


class TestBlockCulling:
    def test_blocks_tile_the_grid(self):
        for m in (128, 130):
            grid = cull_grid("latitude", 0, m)
            assert grid.cells.sum() == m * m
            shape = grid.p1.shape[:3]
            nodes = set(zip(np.broadcast_to(grid.u[:, :, None], shape).ravel(),
                            np.broadcast_to(grid.v[:, None, :], shape).ravel()))
            assert len(nodes) == (m + 1) ** 2

    def test_most_blocks_are_culled(self):
        grid = cull_grid("anti-diagonal", 0, 128)
        r1, _ = group_matrices(3, 0, 64)
        kept = _cap_straddles(grid.cap1, r1 @ [0.0, 0.0, 1.0], 0.0)
        assert kept.mean() < 0.35

    @settings(max_examples=300)
    @given(kind=st.sampled_from(["anti-diagonal", "latitude"]), chart=st.integers(0, 1),
           m=st.sampled_from([128, 130, 133]), factor=st.integers(0, 1),
           block=st.integers(0, 10 ** 6), axis=unit_vectors,
           toward_centre=st.floats(0.0, 1.0), offset=st.floats(-0.999, 0.999),
           at_extreme=st.booleans(), nudge=st.floats(-1e-5, 1e-5))
    def test_culled_blocks_have_one_sign(self, kind, chart, m, factor, block, axis,
                                         toward_centre, offset, at_extreme, nudge):
        grid = cull_grid(kind, chart if kind == "anti-diagonal" else 0, m)
        b = block % len(grid.cells)
        pts = (grid.p1, grid.p2)[factor][b:b + 1]
        centre, cos_r, sin_r = (grid.cap1, grid.cap2)[factor]
        cap = (centre[b:b + 1], cos_r[b:b + 1], sin_r[b:b + 1])
        # pull the axis toward the cap centre to reach the small-angle case
        a = (1.0 - toward_centre) * np.asarray(axis) / np.linalg.norm(axis) + toward_centre * centre[b]
        a = (a / np.linalg.norm(a))[None, :]
        if at_extreme:
            # an offset beside the block's extreme node value
            values = _node_values(pts, a, 0.0)
            offset = float(values.max() if offset > 0 else values.min()) + nudge
        (kept,), = _cap_straddles(cap, a, offset)
        if not kept:
            positive = _node_values(pts, a, offset) > 0.0
            assert positive.all() or not positive.any()
