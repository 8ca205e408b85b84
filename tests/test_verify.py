import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    group_sample,
    mean_stderr_by_fsum,
    moved_surface,
    perimeter_integral_by_frames,
    perimeters_by_frames,
)
from s2xs2 import verify
from s2xs2.errors import ExcessiveDiscards, InvalidInput, NotLagrangian, QuadratureNotConverged
from s2xs2.expressions import parse_hamiltonian
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.intersections import _CountingProblem, counts_product_batch
from s2xs2.rotations import VOL_G, group_matrices
from s2xs2.sigma import (
    KERNEL_ROW_NODES,
    CellInvariants,
    ellipse_perimeter_batch,
    lagrangian_semiaxes_batch,
    sigma_general,
)
from s2xs2.surfaces import (
    QUADRATURE_TILE,
    GraphSurface,
    anti_diagonal,
    diagonal,
    great_torus,
    latitude_torus,
    surface_quadrature,
    volume,
)
from s2xs2.verify import (
    kernel_rhs_general,
    mc_expected_count,
    rhs_theorem6,
    verify_main_chain,
    verify_poincare,
    verify_prop4_bounds,
)

PI4_256 = 256 * math.pi ** 4
PI4_128 = 128 * math.pi ** 4
DEFORMING = parse_hamiltonian("0.3*z1*z2 + 0.2*x1*x2").polynomial()


@pytest.fixture(scope="module")
def deformed_mesh():
    return deform_surface(DEFORMING, great_torus(), FlowParams.for_time(0.5, 0.0125), m=128)


class TestMonteCarlo:
    def test_great_pair_zero_variance(self):
        est = mc_expected_count(great_torus(), great_torus(), 1000, seed=7)
        assert est.mean == 4.0
        assert est.stderr == 0.0
        assert est.discard_count == 0
        assert est.integral == pytest.approx(4 * VOL_G, rel=1e-15)

    def test_latitude_mean_three(self):
        est = mc_expected_count(latitude_torus(0.5, 0.5), great_torus(), 5000, seed=11)
        assert abs(est.mean - 3.0) <= 3 * est.stderr

    def test_determinism_across_batch_sizes(self):
        problem = _CountingProblem(anti_diagonal(), great_torus(), 128)
        r1, r2 = group_matrices(5, 0, 64)
        split = problem.run_batch(r1[:17], r2[:17]) + problem.run_batch(r1[17:], r2[17:])
        as_bytes = lambda outcomes: [(s, c, t, np.array(p).tobytes()) for s, c, t, p in outcomes]
        assert as_bytes(split) == as_bytes(problem.run_batch(r1, r2))
        est = mc_expected_count(latitude_torus(0.3, 0.3), great_torus(), 2000, seed=5)
        counts, coaxial = counts_product_batch(latitude_torus(0.3, 0.3), *group_matrices(5, 0, 2000),
                                               great_torus())
        assert not coaxial.any()
        assert est.mean == counts.mean()

    def test_contour_estimate_is_bitwise_the_same_across_batch_sizes(self, monkeypatch):
        # the stream of seed 1627 discards its sample 275 as grid-unstable
        estimates = []
        for batch in (17, 64, 128):
            monkeypatch.setattr(verify, "CONTOUR_BATCH", batch)
            estimates.append(mc_expected_count(anti_diagonal(), latitude_torus(0.3, -0.5), 1000, seed=1627))
        assert estimates[0].discard_count >= 1
        assert estimates[1:] == estimates[:1] * 2

    def test_anti_diagonal_contour_zero_variance(self):
        est = mc_expected_count(anti_diagonal(), great_torus(), 1000, seed=3)
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_contour_matches_analytic_path(self):
        # the contour counter on a product torus, sample by sample against its closed form
        n_surface, l_surface = latitude_torus(0.5, 0.5), great_torus()
        r1, r2 = group_matrices(13, 0, 1000)
        counts, coaxial = counts_product_batch(n_surface, r1, r2, l_surface)
        outcomes = _CountingProblem(n_surface, l_surface, 128).run_batch(r1, r2)
        assert not coaxial.any()
        assert [status for status, *_ in outcomes] == ["ok"] * 1000
        assert [count for _, count, *_ in outcomes] == counts.tolist()

    @pytest.mark.parametrize("threshold, message", [
        (-2.0, "discards against 1000 requested samples"),  # every sample: the in-loop cap
        (0.96, "samples discarded"),                        # about 2%: the final check
    ], ids=["all", "two-percent"])
    def test_excessive_discards(self, monkeypatch, threshold, message):
        # flag a sample as coaxial where R11 of its first factor, uniform on
        # [-1, 1] under the Haar measure, exceeds the threshold
        real = verify.counts_product_batch

        def flagging(n_surface, r1, r2, l_surface):
            counts, coaxial = real(n_surface, r1, r2, l_surface)
            return counts, coaxial | (r1[:, 0, 0] > threshold)

        monkeypatch.setattr(verify, "counts_product_batch", flagging)
        with pytest.raises(ExcessiveDiscards, match=message):
            mc_expected_count(latitude_torus(0.5, 0.5), great_torus(), 1000, seed=11)

    @given(counts=st.lists(st.integers(0, 12), min_size=1, max_size=3000))
    def test_count_moments_match_fsum_bitwise(self, counts):
        mean, stderr = verify._mean_stderr(np.bincount(counts))
        ref_mean, ref_stderr = mean_stderr_by_fsum(counts)
        assert (mean, stderr) == (ref_mean, ref_stderr)

    def test_memory_does_not_grow_with_the_samples(self):
        # counts are kept as a running histogram, so a run holds one chunk of
        # samples at a time; a list of every count took 29 MB at 10**6 samples
        torus = latitude_torus(0.5, 0.5)
        mc_expected_count(torus, great_torus(), 1000, seed=4)  # imports and caches outside the window
        tracemalloc.start()
        try:
            est = mc_expected_count(torus, great_torus(), 1_000_000, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.sample_count == 1_000_000
        assert peak < 6e6

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_expected_count(great_torus(), great_torus(), 500, seed=1)

    def test_l_must_be_product(self):
        with pytest.raises(ValueError):
            mc_expected_count(great_torus(), anti_diagonal(), 1000, seed=1)


# volume and rhs_theorem6 at their default grids, pinned as literals: the
# trapezoid rule of the tori and the mesh lattice are kept to the bit
A4_HAMILTONIAN = parse_hamiltonian("x1*x2 + 0.5*y1*y2*z2").polynomial()
PINNED = [
    pytest.param(great_torus, 39.47841760435743, 24936.727304704622, id="great-torus"),
    pytest.param(lambda: latitude_torus(0.3, -0.6), 30.12800813016434, 19030.49738480166, id="latitude-torus"),
    pytest.param(lambda: deform_surface(A4_HAMILTONIAN, great_torus(), FlowParams.for_time(0.5, 0.0125), m=128),
                 42.01640673063309, 25270.598165235504, id="a4-mesh"),
]


class TestRhsTheorem6:
    @pytest.mark.parametrize("make, vol, rhs", PINNED)
    def test_torus_and_mesh_values_are_pinned(self, make, vol, rhs):
        surface = make()
        assert volume(surface) == vol
        assert rhs_theorem6(surface, great_torus()) == rhs

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 64 - 1), index=st.integers(0, 2 ** 20))
    def test_rotated_antipodal_graphs_are_exact_at_grid_32(self, seed, index):
        surface = moved_surface(anti_diagonal(), *group_sample(seed, index))
        assert volume(surface, 32) == pytest.approx(8 * math.pi, rel=1e-12)
        assert rhs_theorem6(surface, great_torus(), m=32) == pytest.approx(PI4_128, rel=1e-12)

    def test_anti_diagonal_at_the_a3_grid(self):
        assert rhs_theorem6(anti_diagonal(), great_torus(), m=1024) == pytest.approx(PI4_128, rel=1e-13)

    def test_graph_grid_that_leaves_a_panel_empty_is_refused(self):
        with pytest.raises(ValueError, match="must be at least 4"):
            rhs_theorem6(anti_diagonal(), great_torus(), m=3)

    def test_great_pair_upper_value(self):
        assert rhs_theorem6(great_torus(), great_torus()) == pytest.approx(PI4_256, rel=1e-9)

    def test_latitude_scales_with_area(self):
        got = rhs_theorem6(latitude_torus(0.5, 0.5), great_torus())
        assert got == pytest.approx(0.75 * PI4_256, rel=1e-9)

    def test_rejects_non_lagrangian(self):
        with pytest.raises(NotLagrangian):
            rhs_theorem6(diagonal(), great_torus())

    def test_deformed_mesh_between_bounds(self, deformed_mesh):
        got = rhs_theorem6(deformed_mesh, great_torus())
        vol = volume(deformed_mesh)
        lower = 4 * math.pi * vol * 4 * math.pi ** 2
        upper = 16 * vol * 4 * math.pi ** 2
        assert lower < got < upper


def flowed_mesh_64():
    h = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 0.3, (1, 0, 0, 0, 0, 0): 0.2})
    return deform_surface(h, great_torus(), FlowParams(0.4, 16), m=64)


class TestKernelSideRoute:
    """The J' cosine read from the raw partials against the orthonormal-frame route."""

    @pytest.mark.parametrize("make", [great_torus, lambda: latitude_torus(0.3, -0.6), flowed_mesh_64],
                             ids=["great-torus", "latitude-torus", "flowed-mesh"])
    def test_rhs_equals_the_frame_route(self, monkeypatch, make):
        surface = make()
        got = rhs_theorem6(surface, great_torus())
        monkeypatch.setattr(verify, "_perimeter_integral", perimeter_integral_by_frames)
        assert got == rhs_theorem6(surface, great_torus())

    def test_anti_diagonal_perimeter_integral_agrees_with_the_frame_route(self):
        # node by node the routes round the J' cosine differently at about a
        # fifth of the nodes, so a perimeter may differ by up to 2 ulps; the
        # totals part by at most one ulp (m = 64) or tie (m = 130)
        for block in surface_quadrature(anti_diagonal(), 64):
            frames, bad = perimeters_by_frames(block)
            assert not bad.any()
            per = ellipse_perimeter_batch(
                *lagrangian_semiaxes_batch(block["points"], block["du"], block["dv"], block["area"]))
            assert np.all(np.abs(per - frames) <= 2 * np.spacing(frames))
        got = verify._perimeter_integral(anti_diagonal(), 64)
        assert abs(got - perimeter_integral_by_frames(anti_diagonal(), 64)) <= math.ulp(got)
        assert verify._perimeter_integral(anti_diagonal(), 130) == perimeter_integral_by_frames(anti_diagonal(), 130)

    @pytest.mark.parametrize("surface", [
        GraphSurface(group_sample(3, 0)[0], antipodal=True),
        moved_surface(anti_diagonal(), *group_sample(12, 5)),
    ], ids=["rotated", "transformed"])
    def test_rotated_graph_agrees_with_the_frame_route(self, surface):
        assert verify._perimeter_integral(surface, 64) == pytest.approx(
            perimeter_integral_by_frames(surface, 64), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("level", [0, 1])
    def test_non_finite_level_is_not_converged(self, monkeypatch, bad, level):
        levels = {}

        def perimeter_integral(surface, m):
            levels[m] = bad if len(levels) == level else 1.0
            return levels[m]

        monkeypatch.setattr(verify, "_perimeter_integral", perimeter_integral)
        with pytest.raises(QuadratureNotConverged):
            rhs_theorem6(anti_diagonal(), great_torus(), m=16)
        assert sorted(levels) == [8, 16]


class TestHowardGeneral:
    def test_great_pair(self):
        got = kernel_rhs_general(great_torus(), great_torus(), m=8)
        assert got == pytest.approx(PI4_256, rel=1e-4)

    def test_anti_diagonal(self):
        got = kernel_rhs_general(anti_diagonal(), great_torus(), m=128)
        assert got == pytest.approx(PI4_128, rel=1e-12)

    @pytest.mark.parametrize("make", [anti_diagonal, great_torus], ids=["anti-diagonal", "great-torus"])
    def test_constant_invariants_take_one_kernel_row(self, monkeypatch, make):
        # arccos near 1 spreads the rounding of a constant cosine over angle
        # steps of 1.5e-8, which must not split it into several kernel rows
        rows = []
        real = verify.sigma_general_batch
        monkeypatch.setattr(verify, "sigma_general_batch", lambda inv: rows.append(len(inv)) or real(inv))
        kernel_rhs_general(make(), great_torus(), m=128)
        assert rows == [1]

    def test_one_kernel_call_per_block_of_pairs(self, monkeypatch, deformed_mesh):
        rows = []
        real = verify.sigma_general_batch
        monkeypatch.setattr(verify, "sigma_general_batch", lambda inv: rows.append(len(inv)) or real(inv))
        got = kernel_rhs_general(deformed_mesh, great_torus(), m=16)
        block = QUADRATURE_TILE // KERNEL_ROW_NODES
        pairs = sum(rows)
        assert pairs > block and rows == [block] * (pairs // block) + ([pairs % block] if pairs % block else [])
        # the blocks sum to the kernel of every pair, one row at a time
        uniq_n, mass_n = verify._distinct_invariants(*verify._normal_invariant_samples(deformed_mesh, 16))
        uniq_l, mass_l = verify._distinct_invariants(*verify._normal_invariant_samples(great_torus(), 16))
        assert len(uniq_n) * len(uniq_l) == pairs
        one_at_a_time = math.fsum(
            wn * wl * sigma_general(CellInvariants(0.5 * (a + b), 0.5 * (a - b), 0.5 * (c + d), 0.5 * (c - d)))
            for (a, b), wn in zip(uniq_n, mass_n) for (c, d), wl in zip(uniq_l, mass_l))
        assert got == one_at_a_time

    def test_matches_specialized_form_on_latitude_torus(self):
        n = latitude_torus(0.5, 0.5)
        assert kernel_rhs_general(n, great_torus(), m=8) == pytest.approx(
            rhs_theorem6(n, great_torus()), rel=1e-4)

    def test_matches_specialized_form_on_deformed_mesh(self, deformed_mesh):
        got = kernel_rhs_general(deformed_mesh, great_torus(), m=16)
        assert got == pytest.approx(rhs_theorem6(deformed_mesh, great_torus()), rel=1e-4)


class TestBoundsReport:
    def test_upper_equality_for_great_pair(self):
        report = verify_prop4_bounds(great_torus(), great_torus(), 1000, seed=17)
        assert report.passed
        assert report.config["gap_upper"] == pytest.approx(0.0, abs=1e-9)

    def test_lower_equality_for_anti_diagonal(self):
        report = verify_prop4_bounds(anti_diagonal(), great_torus(), 1000, seed=19)
        assert report.passed
        assert report.config["gap_lower"] == pytest.approx(0.0, abs=2e-6)

    def test_strict_inequalities_for_deformed_torus(self, deformed_mesh):
        report = verify_prop4_bounds(deformed_mesh, great_torus(), 3000, seed=23)
        assert report.passed
        stat_rel = report.tolerance / report.rhs[1]
        assert report.config["gap_lower"] > stat_rel
        assert report.config["gap_upper"] > stat_rel


class TestPoincareReport:
    def test_identity_on_great_pair(self):
        report = verify_poincare(great_torus(), great_torus(), 1000, seed=29, rel_quad_tol=1e-6)
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-9)

    def test_identity_on_deformed_mesh(self, deformed_mesh):
        report = verify_poincare(deformed_mesh, great_torus(), 2000, seed=31)
        assert report.passed

    def test_non_lagrangian_surface_is_refused_before_the_monte_carlo(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran before the Lagrangian gate")

        monkeypatch.setattr(verify, "mc_expected_count", never)
        with pytest.raises(NotLagrangian, match="Lagrangian defect"):
            verify_poincare(diagonal(), great_torus(), 1000, seed=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_tolerance_is_refused_before_any_work(self, monkeypatch, tol):
        # a nan tolerance gave a fail verdict
        def never(*args, **kwargs):
            raise AssertionError("the report started before its tolerance was checked")

        monkeypatch.setattr(verify, "rhs_theorem6", never)
        monkeypatch.setattr(verify, "mc_expected_count", never)
        with pytest.raises(InvalidInput, match="rel_quad_tol must be finite and >= 0"):
            verify_poincare(great_torus(), great_torus(), 1000, seed=1, rel_quad_tol=tol)

    def test_report_schema(self):
        report = verify_poincare(great_torus(), great_torus(), 1000, seed=37)
        payload = json.loads(report.to_json())
        assert set(payload) == {"name", "lhs", "rhs", "stderr", "tolerance",
                                "verdict", "runtime_ms", "seed", "config"}
        assert payload["verdict"] == "pass"
        assert payload["seed"] == 37


class TestNegativeControl:
    def test_small_torus_breaks_the_count_bound(self):
        """Documented experiment, not a gate: a small latitude torus is
        displaceable, so the group-averaged count drops far below 4 vol(G).
        This guards against a vacuously-passing chain harness."""
        small = latitude_torus(0.95, 0.95)
        est = mc_expected_count(small, small, 2000, seed=61)
        assert est.integral < 4 * VOL_G * 0.1
        # while the two-sided bounds still hold for this (N, L) pair
        report = verify_prop4_bounds(small, small, 2000, seed=61)
        assert report.passed


class TestMainChain:
    def test_zero_hamiltonian_saturates_chain(self):
        report = verify_main_chain(HamiltonianFunction({}), 0.5, 1000, seed=41, m=128)
        assert report.passed
        cfg = report.config
        assert cfg["b"] == pytest.approx(cfg["c"], rel=1e-12)
        assert cfg["a"] == pytest.approx(cfg["c"], rel=1e-5)

    def test_axial_rotation_keeps_equalities(self):
        h = parse_hamiltonian("z1").polynomial()
        report = verify_main_chain(h, 0.5, 1000, seed=43, m=128)
        assert report.passed
        assert report.lhs == pytest.approx(4 * math.pi ** 2, rel=1e-6)

    def test_deforming_hamiltonian_grows_volume(self):
        report = verify_main_chain(DEFORMING, 0.5, 1500, seed=47)
        assert report.passed
        assert report.lhs > 4 * math.pi ** 2 + 1e-3
        assert report.config["a"] > report.config["b"] - report.config["stat_tolerance"]
        assert report.config["b"] >= report.config["c"] - report.config["stat_tolerance"]
