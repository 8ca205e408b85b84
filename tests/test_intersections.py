import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceChartGrid,
    chart_node_grid,
    moved_circle,
    moved_surface,
    transversality_by_frames,
    two_pass_seeds,
)
from s2xs2 import intersections
from s2xs2.expressions import parse_hamiltonian
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.intersections import (
    _CORNER_OFFSETS,
    _EDGES,
    CULL_BLOCK,
    DEDUP_RADIUS,
    _band,
    _BlockHierarchy,
    _cell_seeds,
    _ChartGrid,
    _CountingProblem,
    _dedup,
    _node_values,
    _straddles,
    counts_product_batch,
    transversality_product_batch,
)
from s2xs2.rotations import group_matrices
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
EQUATOR = Circle([0, 0, 1], 0.0)
# one-row rotation batches: the identity and turns about the x-axis
IDENTITY = np.eye(3)[None, :, :]
QUARTER_TURN_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])[None, :, :]
HALF_TURN_X = np.diag([1.0, -1.0, -1.0])[None, :, :]


def bisection_circle_count(c1: Circle, c2: Circle, n=4096):
    """Independent oracle: count sign changes of the second plane constraint
    along a fine parameterization of the first circle."""
    s = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    f = c1.points(s) @ c2.axis - c2.offset
    signs = f > 0
    return int(np.count_nonzero(signs != np.roll(signs, 1)))


def circle_count(c1: Circle, c2: Circle):
    """(#(c1 n c2), coaxial) from counts_product_batch on one row: c1 x E against
    c2 x E turned a quarter about x in the second factor, so the equators E
    meet twice and the count is twice that of the circle pair."""
    (count,), (coaxial,) = counts_product_batch(
        ProductTorusSurface(c1, EQUATOR), IDENTITY, QUARTER_TURN_X,
        ProductTorusSurface(c2, EQUATOR))
    assert count % 2 == 0
    return count // 2, coaxial


def contour_outcome(n_surface, r1, r2, l_surface, grid=128):
    """The contour counter's outcome for the one sample (r1, r2), each (1, 3, 3)."""
    (outcome,) = _CountingProblem(n_surface, l_surface, grid).run_batch(r1, r2)
    return outcome


def outcome_bytes(outcomes):
    """run_batch outcomes with min_transversality and the points as bytes."""
    return [(status, count, np.float64(trans).tobytes(), np.array(points).tobytes())
            for status, count, trans, points in outcomes]


@functools.lru_cache(maxsize=None)
def chain_mesh():
    """The great torus flowed by x1*x2 + 0.5*y1*y2*z2 for t = 0.5 on a 128-node lattice."""
    h = parse_hamiltonian("x1*x2 + 0.5*y1*y2*z2").polynomial()
    return deform_surface(h, great_torus(), FlowParams.for_time(0.5, 0.0125), m=128)


class TestCircleCircle:
    def test_two_great_circles(self):
        assert circle_count(Circle([0, 0, 1], 0), Circle([1, 0, 0], 0)) == (2, False)

    def test_disjoint_caps_on_antiparallel_axes(self):
        assert circle_count(Circle([0, 0, 1], 0.9), Circle([0, 0, -1], 0.9)) == (0, False)

    def test_parallel_distinct_planes(self):
        assert circle_count(Circle([0, 0, 1], 0.2), Circle([0, 0, 1], 0.6)) == (0, False)

    def test_mid_latitude_pair_against_discriminant_and_bisection(self):
        c1 = Circle([0, 0, 1], 0.5)
        c2 = Circle([1, 0, 0], 0.5)
        assert circle_count(c1, c2) == (2, False)
        assert bisection_circle_count(c1, c2) == 2

    def test_random_pairs_match_bisection_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a1 = rng.normal(size=3)
            a2 = rng.normal(size=3)
            c1 = Circle(a1, rng.uniform(-0.95, 0.95))
            c2 = Circle(a2, rng.uniform(-0.95, 0.95))
            count, coaxial = circle_count(c1, c2)
            if not coaxial:
                assert count == bisection_circle_count(c1, c2)

    def test_points_lie_on_both_circles(self):
        # the contour counter's points for the product c1 x E against c2 x E'
        c1 = Circle([0.2, -0.3, 0.93], 0.4)
        c2 = Circle([0.9, 0.1, -0.4], -0.2)
        n, l = ProductTorusSurface(c1, EQUATOR), ProductTorusSurface(c2, EQUATOR)
        status, count, _, pts = contour_outcome(n, IDENTITY, QUARTER_TURN_X, l)
        assert status == "ok" and count == 2 * circle_count(c1, c2)[0] == len(pts) > 0
        for p in pts:
            assert abs(np.linalg.norm(p[:3]) - 1) < 1e-12
            assert abs(p[:3] @ c1.axis - c1.offset) < 1e-10
            assert abs(p[:3] @ c2.axis - c2.offset) < 1e-10

    def test_coincident_plane_raises(self):
        assert circle_count(Circle([0, 0, 1], 0.5), Circle([0, 0, 1], 0.5)) == (0, True)
        assert circle_count(Circle([0, 0, 1], 0.5), Circle([0, 0, -1], -0.5)) == (0, True)


class TestProductProduct:
    def test_great_pair_counts_four(self):
        r1, r2 = group_matrices(7, 0, 1)
        (count,), (coaxial,) = counts_product_batch(great_torus(), r1, r2, great_torus())
        assert count == 4 and not coaxial
        assert transversality_product_batch(great_torus(), r1, r2, great_torus())[0] > 1e-8
        status, contour_count, _, pts = contour_outcome(great_torus(), r1, r2, great_torus())
        assert status == "ok" and contour_count == len(pts) == 4

    def test_points_lie_on_both_surfaces(self):
        r1, r2 = group_matrices(13, 2, 1)
        n = latitude_torus(0.3, -0.2)
        l = latitude_torus(0.1, 0.4)
        status, count, _, pts = contour_outcome(n, r1, r2, l)
        assert status == "ok" and count == counts_product_batch(n, r1, r2, l)[0][0] == len(pts) > 0
        moved1 = moved_circle(l.circle1, r1[0])
        moved2 = moved_circle(l.circle2, r2[0])
        for p in pts:
            assert abs(p[:3] @ n.circle1.axis - n.circle1.offset) < 1e-8
            assert abs(p[3:] @ n.circle2.axis - n.circle2.offset) < 1e-8
            assert abs(p[:3] @ moved1.axis - moved1.offset) < 1e-8
            assert abs(p[3:] @ moved2.axis - moved2.offset) < 1e-8

    def test_antipodal_caps_give_zero(self):
        n = latitude_torus(0.9, 0.9)
        l = latitude_torus(0.9, 0.9)
        counts, coaxial = counts_product_batch(n, HALF_TURN_X, HALF_TURN_X, l)
        assert counts[0] == 0 and not coaxial[0]
        assert transversality_product_batch(n, HALF_TURN_X, HALF_TURN_X, l)[0] == 1.0

    def test_identity_on_equal_tori_is_coaxial(self):
        counts, coaxial = counts_product_batch(great_torus(), IDENTITY, IDENTITY, great_torus())
        assert coaxial[0] and counts[0] == 0

    def test_batch_matches_scalar(self):
        n = latitude_torus(0.5, 0.5)
        l = great_torus()
        r1, r2 = group_matrices(21, 0, 200)
        counts, coaxial = counts_product_batch(n, r1, r2, l)
        assert not coaxial.any()
        for k in (0, 17, 63, 199):
            one1, one2 = group_matrices(21, k, 1)
            assert counts[k] == counts_product_batch(n, one1, one2, l)[0][0]

    @pytest.mark.parametrize("n, l", [
        (great_torus(), great_torus()),
        (latitude_torus(0.3, -0.2), latitude_torus(0.1, 0.4)),
        (latitude_torus(0.5, 0.5, (0.0, 0.6, 0.8), (1.0, 0.0, 0.0)), latitude_torus(-0.7, 0.2)),
    ], ids=["great", "latitude", "tilted"])
    def test_transversality_is_the_wedge_norm_of_the_tangent_planes(self, n, l):
        # the closed form against the wedge angle of the contour counter's
        # frames at its points, sample by sample
        r1, r2 = group_matrices(44, 0, 300)
        counts, coaxial = counts_product_batch(n, r1, r2, l)
        trans = transversality_product_batch(n, r1, r2, l)
        assert not coaxial.any() and (counts == 4).any()
        assert (trans[counts == 0] == 1.0).all()
        outcomes = _CountingProblem(n, l, 128).run_batch(r1, r2)
        assert sum(status == "ok" for status, *_ in outcomes) >= 297
        for k, (status, count, min_trans, _) in enumerate(outcomes):
            if status == "ok":
                assert count == counts[k]
                assert trans[k] == pytest.approx(min_trans, abs=1e-8)


class TestTransversalityGate:
    @pytest.mark.parametrize("n_surface", [anti_diagonal, chain_mesh], ids=["anti-diagonal", "chain-mesh"])
    def test_gate_is_the_wedge_norm_of_the_orthonormal_frames(self, n_surface):
        # the gate against the route it replaced, at random chart points and
        # random unit axes; the first rows put the point on an axis, where
        # both routes give 0
        surface = n_surface()
        problem = _CountingProblem(surface, great_torus(), 128)
        rng = np.random.default_rng(2200)
        for chart, ch in enumerate(surface.charts):
            U = rng.uniform(ch.u_min, ch.u_max, 1000)
            V = rng.uniform(ch.v_min, ch.v_max, 1000)
            pts = surface.points(chart, U, V)
            a1, a2 = rng.normal(size=(2, 1000, 3))
            a1[:5], a2[5:10] = pts[:5, :3], -pts[5:10, 3:]
            a1 /= np.linalg.norm(a1, axis=1, keepdims=True)
            a2 /= np.linalg.norm(a2, axis=1, keepdims=True)
            got = problem._transversality(*surface.partials(chart, U, V), pts, a1, a2)
            want = transversality_by_frames(surface, chart, U, V, a1, a2)
            assert (got[:10] == 0.0).all() and (want[:10] == 0.0).all()
            assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("n_surface", [anti_diagonal, chain_mesh], ids=["anti-diagonal", "chain-mesh"])
    def test_no_lapack_determinant_reaches_a_count(self, n_surface, monkeypatch):
        problem = _CountingProblem(n_surface(), great_torus(), 128)
        r1, r2 = group_matrices(22, 0, 32)

        def det(*args, **kwargs):
            raise AssertionError("numpy.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", det)
        outcomes = problem.run_batch(r1, r2)
        assert sum(status == "ok" for status, *_ in outcomes) >= 31


class TestContourCounter:
    def test_antidiagonal_against_split_axes(self):
        n = anti_diagonal()
        l = ProductTorusSurface(Circle([0, 0, 1], 0), Circle([1, 0, 0], 0))
        status, count, _, pts = contour_outcome(n, IDENTITY, IDENTITY, l)
        assert status == "ok" and count == 2
        found = sorted(round(p[1]) for p in pts)
        assert found == [-1, 1]  # z = -e_y and z = +e_y
        for p in pts:
            assert np.abs(np.abs(p[:3]) - [0, 1, 0]).max() < 1e-8
            assert np.abs(p[3:] + p[:3]).max() < 1e-8

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            _CountingProblem(anti_diagonal(), great_torus(), 64)

    def test_grid_unstable_near_tangency(self):
        # a near-tangent pair of roots that only the 512-node level resolves,
        # so grid 256 disagrees with its own 2m check
        r1, r2 = group_matrices(PARTNER_SEED, 150, 1)
        assert contour_outcome(anti_diagonal(), r1, r2, latitude_torus(0.3, -0.5), 256)[:3] \
            == ("gridunstable", 0, 0.0)
        status, count, min_trans, _ = contour_outcome(anti_diagonal(), r1, r2, latitude_torus(0.3, -0.5), 512)
        assert (status, count) == ("ok", 2)
        assert min_trans == pytest.approx(0.00465, abs=5e-6)

    @pytest.mark.xfail(strict=True, reason="both grids miss the near-tangent pair: a silent 0")
    def test_near_tangent_pair_found_at_the_floor_grid(self):
        r1, r2 = group_matrices(PARTNER_SEED, 150, 1)
        assert contour_outcome(anti_diagonal(), r1, r2, latitude_torus(0.3, -0.5))[:2] == ("ok", 2)

    def test_an_unconverged_seed_discards_its_sample_alone(self, monkeypatch):
        problem = _CountingProblem(anti_diagonal(), great_torus(), 128)
        r1, r2 = group_matrices(6, 0, 16)
        before = problem.run_batch(r1, r2)
        target = 5
        axis = (r1 @ great_torus().circle1.axis)[target]
        real = intersections._newton_refine
        flagged = []

        def refine(surface, chart_index, U, V, a1, a2, c1, c2):
            pts, du, dv, converged, smin = real(surface, chart_index, U, V, a1, a2, c1, c2)
            seeds = np.nonzero((a1 == axis).all(axis=1) & converged)[0]
            if seeds.size and not flagged:   # one seed of the target, at its first chart
                flagged.append(seeds[0])
                converged = converged.copy()
                converged[seeds[0]] = False
            return pts, du, dv, converged, smin

        monkeypatch.setattr(intersections, "_newton_refine", refine)
        after = problem.run_batch(r1, r2)
        assert len(flagged) == 1 and before[target][:2] == ("ok", 2)
        assert after[target] == ("nontransversal", 0, 0.0, [])
        del before[target], after[target]
        assert outcome_bytes(after) == outcome_bytes(before)

    def test_the_transversality_gate_discards_its_sample_alone(self, monkeypatch):
        problem = _CountingProblem(anti_diagonal(), great_torus(), 128)
        r1, r2 = group_matrices(6, 0, 16)
        before = problem.run_batch(r1, r2)
        assert all(status == "ok" for status, *_ in before)
        (lowest, target), (second, _) = sorted((trans, k) for k, (_, _, trans, _) in enumerate(before))[:2]
        monkeypatch.setattr(intersections, "TRANSVERSALITY_MIN", 0.5 * (lowest + second))
        after = problem.run_batch(r1, r2)
        assert after[target] == ("nontransversal", 0, 0.0, [])
        del before[target], after[target]
        assert outcome_bytes(after) == outcome_bytes(before)

    def test_undeformed_mesh_counts_four(self):
        mesh = deform_surface(HamiltonianFunction({}), great_torus(), FlowParams(0.5, 40), m=64)
        outcomes = _CountingProblem(mesh, great_torus(), 128).run_batch(*group_matrices(33, 0, 5))
        assert [o[:2] for o in outcomes] == [("ok", 4)] * 5

    def test_deformed_chain_counts_are_even_and_at_least_four(self):
        # a Hamiltonian deformation of the great torus keeps the mod-2
        # intersection number (parity) and, transversally, meets the great
        # torus in at least four points (the Floer floor)
        problem = _CountingProblem(chain_mesh(), great_torus(), 128)
        r1, r2 = group_matrices(404, 0, 512)
        counts = [count for start in range(0, 512, 64)
                  for status, count, _, _ in problem.run_batch(r1[start:start + 64], r2[start:start + 64])
                  if status == "ok"]
        assert len(counts) >= 0.99 * 512
        assert all(count % 2 == 0 and count >= 4 for count in counts)
        assert max(counts) > 4

    def test_contour_agrees_with_analytic_on_product_tori(self):
        n = latitude_torus(0.4, -0.3)
        l = latitude_torus(0.2, 0.1)
        r1, r2 = group_matrices(71, 0, 40)
        analytic, coaxial = counts_product_batch(n, r1, r2, l)
        outcomes = _CountingProblem(n, l, 128).run_batch(r1, r2)
        assert not coaxial.any()
        assert [o[:2] for o in outcomes] == [("ok", c) for c in analytic]

    def test_group_action_symmetry(self):
        n = latitude_torus(0.25, 0.55)
        l = great_torus()
        r1, r2 = group_matrices(101, 0, 10)
        direct, _ = counts_product_batch(n, r1, r2, l)
        for k in range(10):
            moved = moved_surface(n, r1[k].T, r2[k].T)
            assert counts_product_batch(moved, IDENTITY, IDENTITY, l)[0][0] == direct[k]

    def test_ragged_blocks_agree_with_analytic_on_product_tori(self):
        # 130 is not a multiple of the block size: the last block of each
        # direction is ragged at both levels (130 and 260)
        n = latitude_torus(-0.35, 0.45)
        l = latitude_torus(0.15, -0.2)
        r1, r2 = group_matrices(131, 0, 20)
        analytic, _ = counts_product_batch(n, r1, r2, l)
        outcomes = _CountingProblem(n, l, 130).run_batch(r1, r2)
        assert [o[:2] for o in outcomes] == [("ok", c) for c in analytic]

    @pytest.mark.parametrize("antipodal", [False, True])
    @pytest.mark.parametrize("l_surface", [great_torus(), latitude_torus(0.3, -0.5)],
                             ids=["great", "latitude"])
    def test_graphs_match_circle_oracle(self, antipodal, l_surface):
        """N = {(z, Mz)} meets g L where z lies on g1 C1 and on M^T g2 C2, so
        every accepted count must equal that circle-circle count."""
        checked = silent = flagged = 0
        for graph in range(2):
            rot = group_matrices(8800 + graph, 0, 1)[0][0]
            n_surface = GraphSurface(rot, antipodal=antipodal)
            problem = _CountingProblem(n_surface, l_surface, 128)
            r1, r2 = group_matrices(8810 + graph, 0, 256)
            outcomes = [o for start in range(0, 256, 64)
                        for o in problem.run_batch(r1[start:start + 64], r2[start:start + 64])]
            c1, c2 = l_surface.circle1, l_surface.circle2
            for k, (status, count, _, _) in enumerate(outcomes):
                moved1 = moved_circle(c1, r1[k])
                pulled2 = moved_circle(c2, n_surface.map_matrix.T @ r2[k])
                oracle, coaxial = circle_count(moved1, pulled2)
                checked += 1
                if status != "ok" or coaxial:
                    flagged += 1
                elif count != oracle:
                    silent += 1
        assert checked == 512
        assert silent == 0
        assert flagged <= 0.01 * checked


# SHA-256 of the outcome_bytes of 1024 samples of each stream, counted in
# batches of 64.  Culling is free to change how it works, but not a bit of
# any outcome.  Three streams hold grid-unstable samples (anti-diagonal
# against the latitude torus at sample 275, the ragged latitude pair at 969,
# and the ragged two-chart grid 133 at 111 and 924).  All five were recorded
# again when Newton took its Jacobian from the surface's own partials in
# place of central differences: every status, count and root set stayed,
# the roots moved by at most 6.2e-15 (9.6e-12 on the chain mesh) and
# min_transversality by at most 1.4e-15 (7.2e-13 on the chain mesh).
GOLDEN = [
    pytest.param(anti_diagonal, great_torus, 128, 1601, 0,
                 "38dd7780c05597bb229c4d74f72efabbf737c87e7c7714ebec6ca5266c282682",
                 id="anti-diagonal-great"),
    pytest.param(anti_diagonal, lambda: latitude_torus(0.3, -0.5), 128, 1627, 1,
                 "bad67806095cfb0b1293582050a9aadd45ba6e92972a531c256740d86f6ce7e5",
                 id="anti-diagonal-latitude"),
    pytest.param(lambda: latitude_torus(-0.35, 0.45), lambda: latitude_torus(0.15, -0.2), 130, 1604, 1,
                 "e7de61f805b31b3a23b59062e2856588bee45cc9966b24dd9b510a3184ccfa2e",
                 id="latitude-pair-ragged-130"),
    pytest.param(chain_mesh, great_torus, 128, 1605, 0,
                 "a3497bfa9d9f8a4e087b7bbd27f4d42fb2b0724bc366caa7c5fcb3ad9e5544cc",
                 id="deformed-chain-great"),
    pytest.param(anti_diagonal, lambda: latitude_torus(0.3, -0.5), 133, 1640, 2,
                 "5a8c2766536500eb01d23bd74bbadb262c4e2189aede505f081b221fc38bb176",
                 id="anti-diagonal-latitude-ragged-133"),
]


class TestGoldenOutcomes:
    @pytest.mark.parametrize("n_surface, l_surface, grid, seed, discards, digest", GOLDEN)
    def test_outcomes_match_the_recorded_digest(self, n_surface, l_surface, grid, seed, discards, digest):
        problem = _CountingProblem(n_surface(), l_surface(), grid)
        r1, r2 = group_matrices(seed, 0, 1024)
        outcomes = [o for start in range(0, 1024, 64)
                    for o in problem.run_batch(r1[start:start + 64], r2[start:start + 64])]
        assert sum(status != "ok" for status, *_ in outcomes) == discards
        assert hashlib.sha256(repr(outcome_bytes(outcomes)).encode()).hexdigest() == digest


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


def reference_dedup(points, quality):
    """The per-sample clustering the array _dedup replaced: roots in
    lexicographic coordinate order, each kept unless an earlier kept root lies
    within DEDUP_RADIUS; returns the kept points and their quality entries."""
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


coordinates = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


@st.composite
def root_batches(draw):
    """(owner, points) for the roots of a few samples, in shuffled order.

    Roots come in chains from a small pool of base points, each chain moving
    only in its trailing coordinates, so chain members tie exactly in the
    leading ones and chains of one or several samples can share points.  A
    chain is spaced 0, 1e-10 to 1e-8, 0.51 to 0.99 or 1.01 to 3 radii apart;
    in a chain spaced under one radius, but over half of it, greedy
    clustering keeps every second root, where comparing each root with its
    sorted neighbour alone would keep only the first.  Some samples own no
    root, and the batch may be empty.
    """
    samples = draw(st.integers(0, 5))
    bases = draw(st.lists(coordinates, min_size=1, max_size=3))
    owner, points = [], []
    for _ in range(draw(st.integers(0, 6)) if samples else 0):
        sample = draw(st.integers(0, samples - 1))
        base = np.array(draw(st.sampled_from(bases)))
        lead = draw(st.integers(0, 5))
        step = np.zeros(6)
        step[lead:] = draw(st.lists(st.floats(-1.0, 1.0), min_size=6 - lead, max_size=6 - lead))
        step[-1] += 1.0 if np.linalg.norm(step) < 0.1 else 0.0
        spacing = draw(st.one_of(st.just(0.0), st.floats(1e-10, 1e-8),
                                 st.floats(0.51, 0.99), st.floats(1.01, 3.0)))
        step *= spacing * DEDUP_RADIUS / np.linalg.norm(step)
        for j in range(draw(st.integers(1, 5))):
            owner.append(sample)
            points.append(base + j * step)
    shuffle = draw(st.permutations(range(len(owner))))
    return np.array(owner, dtype=np.intp)[shuffle], np.reshape(points, (-1, 6))[shuffle]


# three roots 0.6 radii apart in one sample: the first and the third are kept
CHAIN = (np.zeros(3, dtype=np.intp), np.outer([0.0, 0.6, 1.2], np.eye(6)[2]) * DEDUP_RADIUS)


class TestDedup:
    @settings(max_examples=300)
    @given(batch=root_batches())
    @example(batch=CHAIN)
    @example(batch=(np.zeros(0, dtype=np.intp), np.zeros((0, 6))))
    def test_array_dedup_keeps_what_the_sample_loop_keeps(self, batch):
        owner, points = batch
        expected = []
        for sample in range(owner.max(initial=-1) + 1):
            roots = np.nonzero(owner == sample)[0]
            expected += reference_dedup([points[r] for r in roots], roots.tolist())[1]
        assert _dedup(owner, points).tolist() == expected


CULL_SURFACES = {"anti-diagonal": anti_diagonal, "latitude": lambda: latitude_torus(0.3, -0.6), "mesh": chain_mesh}


@functools.lru_cache(maxsize=None)
def cull_surface(kind):
    return CULL_SURFACES[kind]()


@functools.lru_cache(maxsize=None)
def cull_hierarchy(kind, chart, m):
    """The hierarchy culled against great circles; its grids do not depend on the offsets."""
    return _BlockHierarchy(cull_surface(kind), chart, m, 0.0, 0.0)


def cull_grid(kind, chart, m):
    return cull_hierarchy(kind, chart, m).coarse


def one_sign(nodes, axes, offset):
    """(K,) mask: the residual <x, a> - offset has one sign over the
    component-major nodes (K, 3, n) of each row, a the row of axes (K, 3)."""
    positive = np.einsum("kxn,kx->kn", nodes, axes) - offset > 0.0
    return positive.all(axis=1) | ~positive.any(axis=1)


def pair_set(samples, blocks):
    return set(zip(samples.tolist(), blocks.tolist()))


unit_vectors = st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(lambda v: 0.1 < np.linalg.norm(v))
# offsets of L's circles, with tiny circles near either pole among them
offsets = st.one_of(st.floats(-0.999, 0.999), st.floats(0.999, 1.0, exclude_max=True),
                    st.floats(-1.0, -0.999, exclude_min=True))


class TestBlockCulling:
    def test_blocks_tile_the_grid(self):
        for m in (128, 130):
            grid = cull_grid("latitude", 0, m)
            assert grid.cells.sum() == m * m
            shape = (len(grid.u), grid.u.shape[1], grid.v.shape[1])
            nodes = set(zip(np.broadcast_to(grid.u[:, :, None], shape).ravel(),
                            np.broadcast_to(grid.v[:, None, :], shape).ravel()))
            assert len(nodes) == (m + 1) ** 2

    def test_most_blocks_are_culled(self):
        grid = cull_grid("anti-diagonal", 0, 128)
        r1, _ = group_matrices(3, 0, 64)
        kept = _straddles(_band(grid.cap1, 0.0), r1 @ [0.0, 0.0, 1.0])
        assert kept.mean() < 0.35

    @settings(max_examples=300)
    @given(kind=st.sampled_from(["anti-diagonal", "latitude"]), chart=st.integers(0, 1),
           m=st.sampled_from([128, 130, 133]), factor=st.integers(0, 1),
           block=st.integers(0, 10 ** 6), axis=unit_vectors,
           toward_centre=st.floats(0.0, 1.0), offset=st.floats(-0.999, 0.999),
           at_extreme=st.booleans(), nudge=st.floats(-1e-5, 1e-5))
    def test_culled_blocks_have_one_sign(self, kind, chart, m, factor, block, axis,
                                         toward_centre, offset, at_extreme, nudge):
        grid = cull_hierarchy(kind, chart if kind == "anti-diagonal" else 0, m).fine
        b = block % len(grid.cells)
        nodes = (grid.nodes1, grid.nodes2)[factor][b:b + 1]
        centre, radius = (grid.cap1, grid.cap2)[factor]
        # pull the axis toward the cap centre to reach the small-angle case
        a = (1.0 - toward_centre) * np.asarray(axis) / np.linalg.norm(axis) + toward_centre * centre[b]
        a = (a / np.linalg.norm(a))[None, :]
        if at_extreme:
            # an offset beside the block's extreme node value
            values = _node_values(nodes, a, 0.0)
            offset = float(values.max() if offset > 0 else values.min()) + nudge
        (kept,), = _straddles(_band((centre[b:b + 1], radius[b:b + 1]), offset), a)
        if not kept:
            positive = _node_values(nodes, a, offset) > 0.0
            assert positive.all() or not positive.any()

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["anti-diagonal", "latitude"]), chart=st.integers(0, 1),
           m=st.sampled_from([128, 130, 133]), seed=st.integers(0, 2 ** 32 - 1),
           offsets=st.tuples(offsets, offsets), at_extreme=st.booleans(),
           block=st.integers(0, 10 ** 6), nudge=st.floats(-1e-5, 1e-5))
    def test_hierarchy_drops_only_one_signed_pairs(self, kind, chart, m, seed, offsets,
                                                   at_extreme, block, nudge):
        chart = chart if kind == "anti-diagonal" else 0
        fine = cull_hierarchy(kind, chart, m).fine
        r1, r2 = group_matrices(seed, 0, 4)
        a1, a2 = r1[:, :, 2], r2[:, :, 2]
        c1, c2 = offsets
        if at_extreme:
            # offsets beside the extreme node values of one level-2m block for sample 0
            b = block % len(fine.cells)
            f1, f2 = a1[0] @ fine.nodes1[b], a2[0] @ fine.nodes2[b]
            c1 = float(f1.max() if c1 > 0 else f1.min()) + nudge
            c2 = float(f2.max() if c2 > 0 else f2.min()) + nudge
        h = _BlockHierarchy(cull_surface(kind), chart, m, c1, c2)
        coarse, fine = h.coarse, h.fine
        ks, kb = h.kept_parents(a1, a2)
        fs, fb = h.kept_blocks(a1, a2)
        # the pairs the flat per-block test keeps are kept at both levels
        for grid, kept in ((coarse, pair_set(ks, kb)), (fine, pair_set(fs, fb))):
            flat = _straddles(_band(grid.cap1, c1), a1) & _straddles(_band(grid.cap2, c2), a2)
            assert set(zip(*np.nonzero(flat))) <= kept
        # a dropped (sample, level-m block) pair has one sign for f1 or for f2
        # over every node of the block's children, which hold the block's own
        # (a missing child of a ragged block repeats the first one)
        children = np.where(h.real, h.children, h.children[:, :1])
        tree = lambda nodes: nodes[children].transpose(0, 2, 1, 3).reshape(len(children), 3, -1)
        nodes1, nodes2 = tree(fine.nodes1), tree(fine.nodes2)
        dropped = np.ones((4, len(children)), dtype=bool)
        dropped[ks, kb] = False
        ds, db = np.nonzero(dropped)
        assert (one_sign(nodes1[db], a1[ds], c1) | one_sign(nodes2[db], a2[ds], c2)).all()
        # so does a dropped (sample, level-2m block) pair over its block's nodes
        dropped = np.ones((4, len(fine.cells)), dtype=bool)
        dropped[fs, fb] = False
        ds, db = np.nonzero(dropped)
        assert (one_sign(fine.nodes1[db], a1[ds], c1) | one_sign(fine.nodes2[db], a2[ds], c2)).all()


def direct_grid(surface, chart, m):
    """The level-m grid evaluated on its own m + 1 nodes per direction, with
    the periodic wrap, as a counter that evaluates each level apart builds it."""
    return _ChartGrid(*chart_node_grid(surface, chart, m))


@functools.lru_cache(maxsize=None)
def reference_grids(kind, chart, m):
    """The ReferenceChartGrids of levels m and 2m, from one level-2m evaluation."""
    pts, u_nodes, v_nodes = chart_node_grid(cull_surface(kind), chart, 2 * m)
    return (ReferenceChartGrid(pts[::2, ::2], u_nodes[::2], v_nodes[::2]),
            ReferenceChartGrid(pts, u_nodes, v_nodes))


ONE_GRID_SURFACES = [
    pytest.param(anti_diagonal, id="graph"),
    pytest.param(lambda: latitude_torus(0.3, -0.6), id="torus"),
    pytest.param(chain_mesh, id="mesh"),
]


class TestOneGridOnePass:
    @pytest.mark.parametrize("surface", ONE_GRID_SURFACES)
    @pytest.mark.parametrize("m", [128, 133])
    def test_level_m_nodes_are_the_even_nodes_of_level_2m(self, surface, m):
        surface = surface()
        half = CULL_BLOCK // 2
        for chart in range(len(surface.charts)):
            h = _BlockHierarchy(surface, chart, m, 0.0, 0.0)
            coarse, fine = h.coarse, h.fine
            direct = direct_grid(surface, chart, m)
            assert not hasattr(coarse, "nodes1") and not hasattr(coarse, "nodes2")
            for name in ("u", "v", "cells"):
                assert getattr(coarse, name).tobytes() == getattr(direct, name).tobytes(), name
            for got, want in zip(coarse.cap1 + coarse.cap2, direct.cap1 + direct.cap2):
                assert got.tobytes() == want.tobytes()
            # each real child's even nodes are the nodes of its quarter of
            # the level-m block, and their residuals are the direct grid's
            shape = (3, CULL_BLOCK + 1, CULL_BLOCK + 1)
            a = np.array([0.48, -0.6, 0.64])
            for b, (real, children) in enumerate(zip(h.real, h.children)):
                for q in np.nonzero(real)[0]:
                    du, dv = divmod(q, 2)
                    quarter = np.s_[:, du * half:du * half + half + 1, dv * half:dv * half + half + 1]
                    for got, want in ((fine.nodes1, direct.nodes1), (fine.nodes2, direct.nodes2)):
                        even = got[children[q]].reshape(shape)[:, ::2, ::2]
                        assert even.tobytes() == want[b].reshape(shape)[quarter].tobytes()
                        values = _node_values(got[children[q]][None], a[None], 0.1)[:, ::2, ::2]
                        direct_values = _node_values(want[b][None], a[None], 0.1)[(0, *quarter[1:])]
                        assert values[0].tobytes() == direct_values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(CULL_SURFACES)), chart=st.integers(0, 1),
           m=st.sampled_from([128, 130, 133]), seed=st.integers(0, 2 ** 32 - 1),
           offsets=st.tuples(offsets, offsets))
    @example(kind="anti-diagonal", chart=1, m=133, seed=1640, offsets=(0.3, -0.5))
    @example(kind="mesh", chart=0, m=128, seed=1605, offsets=(0.0, 0.0))
    def test_one_pass_seeds_equal_the_two_pass_reference(self, kind, chart, m, seed, offsets):
        chart %= len(cull_surface(kind).charts)
        c1, c2 = offsets
        r1, r2 = group_matrices(seed, 0, 8)
        a1, a2 = r1[:, :, 2], r2[:, :, 2]
        h = _BlockHierarchy(cull_surface(kind), chart, m, c1, c2)
        want = two_pass_seeds(reference_grids(kind, chart, m), a1, a2, c1, c2)
        # the same seeds, bit for bit; the one pass keeps them in the order
        # of its kept blocks, so both sides are compared in (sample, u, v) order
        by_sample_u_v = lambda level: [x[np.lexsort(level[::-1])] for x in level]
        for got_level, want_level in zip(h.seeds(a1, a2), want):
            for g, w in zip(by_sample_u_v(got_level), by_sample_u_v(want_level)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("surface", ONE_GRID_SURFACES)
    def test_one_grid_evaluation_per_chart(self, surface, monkeypatch):
        surface = surface()
        calls = []
        real = type(surface).points

        def points(self, chart, u, v):
            calls.append(chart)
            return real(self, chart, u, v)

        monkeypatch.setattr(type(surface), "points", points)
        _CountingProblem(surface, great_torus(), 128)
        assert calls == list(range(len(surface.charts)))

    def test_one_newton_transversality_and_dedup_call_per_pass(self, monkeypatch):
        problem = _CountingProblem(anti_diagonal(), latitude_torus(0.3, -0.5), 128)
        r1, r2 = group_matrices(1627, 0, 64)
        before = problem.run_batch(r1, r2)
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(intersections, "_newton_refine", counted("newton", intersections._newton_refine))
        monkeypatch.setattr(intersections, "_dedup", counted("dedup", intersections._dedup))
        monkeypatch.setattr(_CountingProblem, "_transversality",
                            counted("transversality", _CountingProblem._transversality))
        after = problem.run_batch(r1, r2)
        assert calls == ["newton", "transversality"] * 2 + ["dedup"]
        assert outcome_bytes(after) == outcome_bytes(before)


class TestNewtonOnTheEvaluator:
    @pytest.mark.parametrize("surface", [anti_diagonal, chain_mesh], ids=["graph", "mesh"])
    def test_one_points_and_one_partials_call_per_iterate(self, surface, monkeypatch):
        # Newton reads its Jacobian from the surface's partials, not from
        # offset points, and the transversality gate takes the partials of
        # Newton's roots instead of evaluating them again
        surface = surface()
        problem = _CountingProblem(surface, great_torus(), 128)
        cls, gate = type(surface), _CountingProblem._transversality
        calls = []   # (part, chart, u, v, inside the gate)
        inside = [False]

        def recorded(part, real):
            def wrapper(self, chart, u, v):
                calls.append((part, chart, np.array(u), np.array(v), inside[0]))
                return real(self, chart, u, v)
            return wrapper

        def transversality(self, *args):
            inside[0] = True
            try:
                return gate(self, *args)
            finally:
                inside[0] = False

        monkeypatch.setattr(cls, "points", recorded("points", cls.points))
        monkeypatch.setattr(cls, "partials", recorded("partials", cls.partials))
        monkeypatch.setattr(_CountingProblem, "_transversality", transversality)
        problem.run_batch(*group_matrices(24, 0, 64))
        assert not any(in_gate for *_, in_gate in calls)
        for chart in range(len(surface.charts)):
            points = [(u, v) for part, c, u, v, _ in calls if part == "points" and c == chart]
            partials = [(u, v) for part, c, u, v, _ in calls if part == "partials" and c == chart]
            assert all(u.ndim == 1 and v.ndim == 1 for u, v in points)
            # each iterate, then the roots: one points and one partials call at the same (u, v)
            assert len(points) >= 2 and len(partials) == len(points)
            for (pu, pv), (qu, qv) in zip(points, partials):
                assert pu.tobytes() == qu.tobytes() and pv.tobytes() == qv.tobytes()
            # the iterates take the active seeds, fewer or as many each time; the roots take all
            sizes = [len(u) for u, _ in points]
            assert sizes[-1] == sizes[0] > 0 and sizes[:-1] == sorted(sizes[:-1], reverse=True)
