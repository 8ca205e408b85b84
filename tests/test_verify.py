import json
import math

import pytest

from s2xs2 import verify
from s2xs2.errors import ExcessiveDiscards, NotLagrangian
from s2xs2.expressions import parse_hamiltonian
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.intersections import _CountingProblem, counts_product_batch
from s2xs2.rotations import VOL_G, group_matrices
from s2xs2.surfaces import anti_diagonal, diagonal, great_torus, latitude_torus
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
        assert split == problem.run_batch(r1, r2)
        est = mc_expected_count(latitude_torus(0.3, 0.3), great_torus(), 2000, seed=5)
        counts, coaxial = counts_product_batch(latitude_torus(0.3, 0.3), *group_matrices(5, 0, 2000),
                                               great_torus())
        assert not coaxial.any()
        assert est.mean == counts.mean()

    def test_anti_diagonal_contour_zero_variance(self):
        est = mc_expected_count(anti_diagonal(), great_torus(), 1000, seed=3)
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_contour_matches_analytic_path(self):
        direct = mc_expected_count(latitude_torus(0.5, 0.5), great_torus(), 1000, seed=13)
        contour = mc_expected_count(latitude_torus(0.5, 0.5), great_torus(), 1000, seed=13,
                                    force_contour=True)
        assert contour.mean == direct.mean
        assert contour.stderr == direct.stderr

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

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_expected_count(great_torus(), great_torus(), 500, seed=1)

    def test_l_must_be_product(self):
        with pytest.raises(ValueError):
            mc_expected_count(great_torus(), anti_diagonal(), 1000, seed=1)


class TestRhsTheorem6:
    def test_great_pair_upper_value(self):
        assert rhs_theorem6(great_torus(), great_torus()) == pytest.approx(PI4_256, rel=1e-9)

    def test_latitude_scales_with_area(self):
        got = rhs_theorem6(latitude_torus(0.5, 0.5), great_torus())
        assert got == pytest.approx(0.75 * PI4_256, rel=1e-9)

    def test_rejects_non_lagrangian(self):
        with pytest.raises(NotLagrangian):
            rhs_theorem6(diagonal(), great_torus())

    def test_deformed_mesh_between_bounds(self, deformed_mesh):
        from s2xs2.surfaces import volume

        got = rhs_theorem6(deformed_mesh, great_torus())
        vol = volume(deformed_mesh)
        lower = 4 * math.pi * vol * 4 * math.pi ** 2
        upper = 16 * vol * 4 * math.pi ** 2
        assert lower < got < upper


class TestHowardGeneral:
    def test_great_pair(self):
        got = kernel_rhs_general(great_torus(), great_torus(), m=8)
        assert got == pytest.approx(PI4_256, rel=1e-4)

    def test_anti_diagonal(self):
        got = kernel_rhs_general(anti_diagonal(), great_torus(), m=128)
        assert got == pytest.approx(PI4_128, rel=1e-4)

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
        report = verify_main_chain(HamiltonianFunction.zero(), 0.5, 1000, seed=41, m=128)
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
