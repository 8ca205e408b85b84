import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ellipse_perimeter_fixed_agm,
    ellipse_perimeter_quadrature,
    group_sample,
    in_cell,
    kahler_angle,
    normal_form_bases,
    normal_plane,
    plane_from_invariants,
    random_lagrangian_plane,
    random_product_point,
    sigma_general_quad,
    tangent_plane,
    wedge,
)
from s2xs2.errors import InvalidInput, NegativeAxis, QuadratureNotConverged
from s2xs2.sigma import (
    DEGENERATE_AXIS,
    CellInvariants,
    _kernel_coefficients,
    cell_angles_batch,
    ellipse_perimeter,
    ellipse_perimeter_batch,
    lagrangian_semiaxes_batch,
    sigma_general,
    sigma_general_batch,
)
from s2xs2.surfaces import (
    GraphSurface,
    MeshSurface,
    anti_diagonal,
    chart_axes,
    latitude_torus,
    surface_quadrature,
)
from s2xs2.verify import _normal_invariant_samples

FOUR_PI = 4 * math.pi
FOUR_PI_SQ = 4 * math.pi ** 2

# the first 12 draws of default_rng(1) in [0, pi]^4; the 2-D midpoint/Richardson
# route the kernel used to take raised QuadratureNotConverged on two of them
REGRESSION_DRAWS = np.random.default_rng(1).uniform(0, math.pi, (12, 4))

angles = st.floats(-math.pi, 2 * math.pi)
small = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -1.0))
near_zero = st.one_of(st.just(0.0), small)


@st.composite
def near_segment_invariants(draw):
    """Perturbations of the A5 row (theta, theta - pi/2, pi/2, 0) with theta
    near 0 or pi/2: K ~ 0, P = cos^2 theta, Q = sin^2 theta, so R(phi) is
    nearly a segment's |cos phi| or |sin phi|."""
    theta = draw(st.sampled_from([0.0, math.pi / 2])) + draw(small)
    return CellInvariants(theta, theta - math.pi / 2 + draw(near_zero),
                          math.pi / 2 + draw(near_zero), draw(near_zero))


@st.composite
def near_end_kink_invariants(draw):
    """Rows whose kink |K| = R(phi*) lies near phi = 0 or pi/2.

    With tau2 = 0, K = sin t1 sin t2 cos s1, P = -cos t1 sin t2 sin s1 and
    Q = sin t1 cos t2 sin s1: |K| = |P|, the kink at phi = 0, where
    tan s1 = +-tan t1, and |K| = |Q|, the kink at pi/2, where tan s1 = +-tan t2.
    """
    t1, t2 = draw(angles), draw(angles)
    s1 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([t1, t2])) + draw(small)
    return CellInvariants(t1, t2, s1, draw(near_zero))


def semiaxes(x, plane):
    """Ellipse semiaxes (a, b) of the orthonormal plane (t1, t2) at x, from the batch kernel."""
    a, b = lagrangian_semiaxes_batch(x, plane[0], plane[1], 1.0)
    return float(a), float(b)


def invariants_from_normal_planes(x_n, normal_n, x_l, normal_l):
    """Cell invariants of a surface pair from their normal planes at a point pair."""
    a_n, b_n = cell_angles_batch(x_n, normal_n[0], normal_n[1], 1.0)
    a_l, b_l = cell_angles_batch(x_l, normal_l[0], normal_l[1], 1.0)
    return CellInvariants(0.5 * (a_n + b_n), 0.5 * (a_n - b_n), 0.5 * (a_l + b_l), 0.5 * (a_l - b_l))


def lagrangian_invariants(theta):
    return CellInvariants(theta, theta - math.pi / 2, math.pi / 2, 0.0)


def _midpoint_level(K, P, Q, n, m=None):
    """Midpoint sum of |K + P cos(phi) cos(psi) + Q sin(phi) sin(psi)| on n x m torus nodes."""
    m = n if m is None else m
    h_phi, h_psi = 2.0 * np.pi / n, 2.0 * np.pi / m
    phi = (np.arange(n) + 0.5) * h_phi
    psi = (np.arange(m) + 0.5) * h_psi
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    chunk = max(1, (1 << 16) // m)  # rows per block; a block stays in cache
    parts = []
    for i in range(0, n, chunk):
        rows = phi[i:i + chunk]
        M = K + P * np.outer(np.cos(rows), cos_psi) + Q * np.outer(np.sin(rows), sin_psi)
        parts.append(float(np.abs(M, out=M).sum()))
    return math.fsum(parts) * h_phi * h_psi


def sigma_general_reference(inv: CellInvariants, n: int = 256) -> float:
    """Literal evaluation of the averaged wedge pairing on an n x n midpoint grid.

    Builds the rotated bases and their wedges explicitly; used to validate the
    algebraic reduction behind sigma_general, not for production accuracy.
    """
    u1, u2, v1, v2 = normal_form_bases(inv)
    h = 2.0 * np.pi / n
    t = (np.arange(n) + 0.5) * h
    wedge_u = np.empty((n, 6))
    wedge_v = np.empty((n, 6))
    for i, angle in enumerate(t):
        ca, sa = math.cos(angle), math.sin(angle)
        a = np.array([[ca, sa, 0, 0], [-sa, ca, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, ca, sa], [0, 0, -sa, ca]])
        wedge_u[i] = wedge(a @ u1, a @ u2)
        wedge_v[i] = wedge(b @ v1, b @ v2)
    return float(np.abs(wedge_u @ wedge_v.T).sum()) * h * h


def richardson_reference(inv, n=2048):
    """The 2-D route: Richardson extrapolation of the midpoint sums at n and 2n phi-nodes.

    psi takes 4 more nodes than phi.  With P = +-Q (any tie theta1 = theta2 or
    tau1 = tau2) the integrand depends on phi +- psi alone, and on a square
    grid the sum collapses to an n-point rule across a kink that Richardson
    cannot extrapolate: 1.1e-7 off at (1, 1, 0.5, pi/2).  An n x (n + 4) grid
    spreads phi +- psi over lcm(n, n + 4) points and keeps 0, pi/2, pi, 3pi/2
    on cell edges at both levels.
    """
    K, P, Q = _kernel_coefficients(inv)
    coarse = _midpoint_level(K, P, Q, n, n + 4)
    fine = _midpoint_level(K, P, Q, 2 * n, 2 * n + 8)
    return (4.0 * fine - coarse) / 3.0


def _agm_families(n=20000):
    """Semiaxis pairs (a, b) by family, drawn from one fixed generator."""
    rng = np.random.default_rng(2024)
    a = rng.uniform(0.0, 1.0, n)
    s = rng.uniform(0.0, 1.0, n)
    tiny = 10.0 ** rng.uniform(-17.0, -3.0, n)
    edge = DEGENERATE_AXIS * (1.0 + rng.uniform(-1e-3, 1e-3, n))
    return {
        "random": (a, rng.uniform(0.0, 1.0, n)),
        "near-circle": (a, a * (1.0 - tiny)),
        "lagrangian": ((1.0 + s) / 2.0, (1.0 - s) / 2.0),
        "lagrangian-near-circle": ((1.0 + tiny) / 2.0, (1.0 - tiny) / 2.0),
        # ratios on both sides of DEGENERATE_AXIS, and far below it
        "degenerate-edge": (a, a * edge),
        "near-segment": (a, a * DEGENERATE_AXIS * 10.0 ** rng.uniform(-8.0, 2.0, n)),
        "zero-axes": (np.array([0.0, 0.0, 1.0, 0.5, 0.0]), np.array([0.0, 1.0, 0.0, 0.0, 1e-300])),
    }


AGM_FAMILIES = _agm_families()


class TestEllipsePerimeter:
    def test_circle(self):
        assert ellipse_perimeter(1.0, 1.0) == pytest.approx(2 * math.pi, abs=1e-14)

    def test_degenerate_segment(self):
        assert ellipse_perimeter(1.0, 0.0) == 4.0
        assert ellipse_perimeter(0.0, 0.7) == pytest.approx(2.8, abs=1e-15)

    def test_half_axis_value(self):
        # frozen from the adaptive-quadrature oracle
        assert ellipse_perimeter(1.0, 0.5) == pytest.approx(4.844224110273838, abs=1e-12)
        assert ellipse_perimeter_quadrature(1.0, 0.5) == pytest.approx(4.844224110273838, abs=1e-11)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for a, b in rng.uniform(0, 1, size=(20, 2)):
            assert ellipse_perimeter(a, b) == ellipse_perimeter(b, a)

    def test_negative_axis(self):
        with pytest.raises(NegativeAxis):
            ellipse_perimeter(-0.1, 1.0)
        with pytest.raises(NegativeAxis):
            ellipse_perimeter(1.0, -1e-9)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (0.5, -math.inf)])
    def test_non_finite_axis(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            ellipse_perimeter(a, b)

    @pytest.mark.parametrize("a, b", [(1e308, 1e308), (1e308, 0.0)], ids=["circle", "segment"])
    def test_overflowing_perimeter_is_refused_without_a_warning(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="perimeter overflows"):
                ellipse_perimeter_batch(np.array([1.0, a]), np.array([0.5, b]))
            assert ellipse_perimeter(1e307, 1e307) == pytest.approx(2e307 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("family", AGM_FAMILIES)
    def test_settled_agm_equals_the_fixed_loop_bitwise(self, family):
        # the stop is decided per call: the whole family, tiles of 8192 and
        # single rows each stop at their own iteration
        a, b = AGM_FAMILIES[family]
        want = ellipse_perimeter_fixed_agm(a, b)
        assert ellipse_perimeter_batch(a, b).tobytes() == want.tobytes()
        tiles = [ellipse_perimeter_batch(a[i:i + 8192], b[i:i + 8192]) for i in range(0, a.size, 8192)]
        assert np.concatenate(tiles).tobytes() == want.tobytes()
        rows = np.array([ellipse_perimeter_batch(x, y) for x, y in zip(a[:64], b[:64])])
        assert rows.tobytes() == want[:64].tobytes()

    def test_batch_rejects_non_finite_axes(self):
        with pytest.raises(ValueError, match="finite"):
            ellipse_perimeter_batch([math.nan, 1.0, math.inf], [0.5, math.nan, 1.0])
        for a, b in [(math.nan, 1.0), (1.0, math.inf), (0.5, -math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                ellipse_perimeter_batch(np.array([0.5, a]), np.array([0.5, b]))

    def test_agm_matches_quadrature(self):
        rng = np.random.default_rng(100)
        pairs = rng.uniform(0.0, 1.0, size=(100, 2))
        batch = ellipse_perimeter_batch(pairs[:, 0], pairs[:, 1])
        for (a, b), got in zip(pairs, batch):
            oracle = ellipse_perimeter_quadrature(a, b)
            assert abs(got - oracle) < 1e-13
            assert abs(ellipse_perimeter(a, b) - oracle) < 1e-13

    def test_continuity_near_degenerate(self):
        lo = ellipse_perimeter(1.0, 9.9e-9)
        hi = ellipse_perimeter(1.0, 1.01e-8)
        assert abs(lo - 4.0) < 1e-7
        assert abs(hi - lo) < 1e-7


class TestSigmaGeneral:
    def test_separable_endpoint(self):
        # integrand reduces to |cos(phi) cos(psi)|, integral (int |cos|)^2 = 16
        assert sigma_general(CellInvariants(0.0, -math.pi / 2, math.pi / 2, 0.0)) \
            == pytest.approx(16.0, abs=1e-8)

    def test_diagonal_midpoint(self):
        # integrand |cos(phi - psi)| / 2, integral 4 pi; P = Q makes R constant
        # with |K| < R, so no phi separates the branches and there is no breakpoint
        inv = CellInvariants(math.pi / 4, -math.pi / 4, math.pi / 2, 0.0)
        k, p, q = _kernel_coefficients(inv)
        assert p == q and abs(k) < abs(p)
        assert sigma_general(inv) == pytest.approx(FOUR_PI, abs=1e-14)

    def test_matches_ellipse_form_on_cell_interior(self):
        for theta in np.linspace(math.pi / 4, 3 * math.pi / 4, 33):
            inv = lagrangian_invariants(theta)
            assert in_cell(inv)
            lhs = sigma_general(inv)
            rhs = 4.0 * ellipse_perimeter(math.sin(theta) ** 2, math.cos(theta) ** 2)
            assert abs(lhs - rhs) / rhs < 1e-6

    def test_reduced_integrand_equals_wedge_construction(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            inv = CellInvariants(*rng.uniform(0, math.pi, 4))
            reference = sigma_general_reference(inv, n=96)
            k, p, q = _kernel_coefficients(inv)
            reduced = _midpoint_level(k, p, q, 96)
            assert abs(reference - reduced) < 1e-12

    def test_product_pair_value(self):
        # both planes product-type: integrand |sin(phi) sin(psi)|, value 16
        assert sigma_general(CellInvariants(math.pi / 2, 0.0, math.pi / 2, 0.0)) \
            == pytest.approx(16.0, abs=1e-8)

    @pytest.mark.parametrize("draw", range(len(REGRESSION_DRAWS)))
    def test_generic_draws_converge(self, draw):
        inv = CellInvariants(*REGRESSION_DRAWS[draw])
        value = sigma_general(inv)
        assert 0.0 <= value <= FOUR_PI_SQ
        assert value == pytest.approx(richardson_reference(inv), rel=1e-7)

    @settings(max_examples=30)
    @given(st.builds(CellInvariants, angles, angles, angles, angles))
    # |K|, |P| and |Q| agree to rounding, so R(phi) grazes |K| at every phi
    @example(CellInvariants(0.0, 1.0, 1.0, 1.0))
    def test_matches_two_dimensional_reference(self, inv):
        value = sigma_general(inv)
        assert 0.0 <= value <= FOUR_PI_SQ
        assert value == pytest.approx(richardson_reference(inv), rel=1e-7)

    def test_constant_sign_branch(self):
        # |K| >= R(phi) for every phi: the integrand keeps one sign, value 4 pi^2 |K|
        inv = CellInvariants(math.pi / 2, math.pi / 2 - 0.1, 0.05, 0.0)
        k, p, q = _kernel_coefficients(inv)
        assert abs(k) > max(abs(p), abs(q)) and p != q
        assert sigma_general(inv) == pytest.approx(FOUR_PI_SQ * abs(k), rel=1e-14)
        assert sigma_general(inv) == pytest.approx(richardson_reference(inv), rel=1e-12)

    def test_kink_breakpoint(self):
        # sin^2 phi* = 0.0379 lies inside; without the breakpoint the quadrature
        # reports convergence 4.8e-10 off.  Frozen from a 40-digit mpmath
        # quadrature of the closed-form psi-integral, split at phi*.
        inv = CellInvariants(-2.341478275900152, -1.3176381689926122,
                             -1.1259437531783743, 4.950916904879859)
        assert sigma_general(inv) == pytest.approx(4.886461805739943961537, rel=1e-14)

    def test_zero_coefficients(self):
        assert _kernel_coefficients(CellInvariants(0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
        assert sigma_general(CellInvariants(0.0, 0.0, 0.0, 0.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.builds(CellInvariants, angles, angles, angles, angles),
                     near_segment_invariants(), near_end_kink_invariants()))
    # the A5 row at theta = pi/64: K = -3e-18, P = 0.9976, Q = 0.0024, a
    # near-segment on which a rule without graded panels missed its check
    @example(CellInvariants(math.pi / 64, math.pi / 64 - math.pi / 2, math.pi / 2, 0.0))
    @example(CellInvariants(1.0, 0.4, 1.0 - 1e-9, 0.0))     # kink 1.9e-5 from phi = 0
    @example(CellInvariants(0.4, 1.0, 1.0 - 1e-9, 0.0))     # kink 1.9e-5 from phi = pi/2
    @example(CellInvariants(1.0, 0.4, 1.0 + 1e-9, 0.0))     # sin^2 phi* = -3.5e-10: just outside
    def test_batch_matches_adaptive_quadrature(self, inv):
        value = sigma_general_batch(np.array([inv]))[0]
        assert 0.0 <= value <= FOUR_PI_SQ
        # abs: a subnormal value keeps fewer than 16 digits
        assert value == pytest.approx(sigma_general_quad(inv), rel=1e-12, abs=1e-300)

    def test_batch_keeps_the_leading_axes(self):
        rows = np.random.default_rng(4).uniform(-math.pi, 2 * math.pi, (2, 3, 4))
        values = sigma_general_batch(rows)
        assert values.shape == (2, 3)
        assert np.array_equal(values.reshape(-1), sigma_general_batch(rows.reshape(6, 4)))

    def test_non_finite_row_is_not_converged(self):
        rows = np.array([[0.3, 0.2, 1.0, 0.5], [0.3, math.nan, 1.0, 0.5]])
        with pytest.raises(QuadratureNotConverged, match="kernel quadrature"):
            sigma_general_batch(rows)

    def test_cell_membership_flag(self):
        assert in_cell(CellInvariants(math.pi / 2, 0.0, math.pi / 2, 0.0))
        assert not in_cell(CellInvariants(0.0, -math.pi / 2, math.pi / 2, 0.0))


class TestSemiaxes:
    def test_product_normal_plane(self):
        rng = np.random.default_rng(14)
        x = random_product_point(rng)
        tangent = plane_from_invariants(x, math.pi / 2, 0.0)
        normal = normal_plane(x, tangent)
        assert semiaxes(x, normal) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_antidiagonal_normal_plane(self):
        x, plane = tangent_plane(anti_diagonal(), 1.1, 0.7)
        normal = normal_plane(x, plane)
        assert semiaxes(x, normal) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_cell_plane_value(self):
        rng = np.random.default_rng(15)
        x = random_product_point(rng)
        plane = plane_from_invariants(x, math.pi / 3, math.pi / 3 - math.pi / 2)
        assert semiaxes(x, plane) == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_normal_and_tangent_share_the_second_structure_angle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            comp = normal_plane(x, plane)
            assert kahler_angle(x, plane, "J'") == pytest.approx(kahler_angle(x, comp, "J'"), abs=1e-10)


class TestSigmaLagrangianProduct:
    def test_circle_minimum(self):
        assert 4.0 * ellipse_perimeter(0.5, 0.5) == pytest.approx(FOUR_PI, abs=1e-12)

    def test_degenerate_maximum(self):
        assert 4.0 * ellipse_perimeter(1.0, 0.0) == 16.0

    def test_interior_value_from_quadrature_oracle(self):
        oracle = 4.0 * ellipse_perimeter_quadrature(0.75, 0.25)
        assert oracle == pytest.approx(13.36489322055526, abs=1e-10)
        assert 4.0 * ellipse_perimeter(0.75, 0.25) == pytest.approx(oracle, abs=1e-10)

    def test_range_over_admissible_family(self):
        values = []
        for s in np.linspace(0.0, 1.0, 101):
            v = 4.0 * ellipse_perimeter((1 + s) / 2, (1 - s) / 2)
            assert FOUR_PI - 1e-12 <= v <= 16.0 + 1e-12
            values.append(v)
        assert values[0] == pytest.approx(FOUR_PI, abs=1e-12)   # circle end
        assert values[-1] == 16.0                                # degenerate end
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestInvariantExtraction:
    def test_roundtrip_through_cell_planes(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            x = random_product_point(rng)
            a_target = rng.uniform(0.1, math.pi - 0.1)
            b_target = rng.uniform(0.1, math.pi - 0.1)
            t1, t2 = 0.5 * (a_target + b_target), 0.5 * (a_target - b_target)
            # normal-form plane with those signed angles
            plane = plane_from_invariants(x, math.pi / 2 - t1, -t2)
            a_got, b_got = cell_angles_batch(x, plane[0], plane[1], 1.0)
            # plane_from_invariants builds the complement family, so compare
            # invariants through the kernel instead of raw angles
            inv1 = invariants_from_normal_planes(x, plane, x, plane)
            inv2 = CellInvariants(0.5 * (a_got + b_got), 0.5 * (a_got - b_got),
                                  0.5 * (a_got + b_got), 0.5 * (a_got - b_got))
            assert sigma_general(inv1) == pytest.approx(sigma_general(inv2), rel=1e-9)

    def test_kernel_invariant_under_orientation_flip(self):
        rng = np.random.default_rng(25)
        for _ in range(6):
            x = random_product_point(rng)
            p = random_lagrangian_plane(rng, x)
            q = plane_from_invariants(x, rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            flipped = p[::-1]
            v1 = sigma_general(invariants_from_normal_planes(x, p, x, q))
            v2 = sigma_general(invariants_from_normal_planes(x, flipped, x, q))
            assert v1 == pytest.approx(v2, rel=1e-7)


LAGRANGIAN_SURFACES = {
    "anti-diagonal": anti_diagonal(),
    "rotated-graph": GraphSurface(group_sample(3, 0)[0], antipodal=True),
    "latitude-torus": latitude_torus(0.3, -0.6),
}
NODE_GRID = 8
EPS = np.finfo(float).eps


def _grid_nodes(surface, m):
    """(chart, u, v) of every quadrature node, in the order surface_quadrature yields them."""
    nodes = []
    for chart in range(len(surface.charts)):
        (us, _), (vs, _) = chart_axes(surface, chart, m)
        nodes += [(chart, u, v) for u in us for v in vs]
    return nodes


def _explicit_normal_plane(surface, chart, u, v):
    """The point and its normal plane built literally: tangent plane, then orthogonal complement."""
    x, plane = tangent_plane(surface, u, v, chart)
    return x, normal_plane(x, plane)


def _tilted_torus(m=64):
    """A mesh torus that is neither Lagrangian nor symplectic: the second factor's
    equator tilts about the x-axis by 0.4 sin(u) as the first factor's point turns."""
    t = np.arange(m) * (2 * np.pi / m)
    u, v = t[:, None, None], t[None, :, None]
    tilt = 0.4 * np.sin(u)
    p = np.concatenate(np.broadcast_arrays(np.cos(u), np.sin(u), 0 * u), axis=-1)
    q = np.concatenate(np.broadcast_arrays(np.cos(v), np.sin(v) * np.cos(tilt), np.sin(v) * np.sin(tilt)), axis=-1)
    return MeshSurface(np.concatenate(np.broadcast_arrays(p, q), axis=-1))


@pytest.mark.parametrize("name", LAGRANGIAN_SURFACES)
def test_semiaxes_kernel_matches_explicit_normal_plane(name):
    # s = sqrt(1 - c^2) turns a rounding of the J' cosine c near |c| = 1
    # (graph nodes, where the ellipse is a circle) into an error of order
    # sqrt(eps) in the semiaxes, 1.05e-8 at the graph nodes; the perimeter is
    # flat in s there, so what the quadrature integrates agrees to 1e-12.
    # The kernel reads c from the raw partials, as the quadrature does.
    surface = LAGRANGIAN_SURFACES[name]
    nodes = iter(_grid_nodes(surface, NODE_GRID))
    for block in surface_quadrature(surface, NODE_GRID):
        for a, b in zip(*lagrangian_semiaxes_batch(block["points"], block["du"], block["dv"], block["area"])):
            ax = semiaxes(*_explicit_normal_plane(surface, *next(nodes)))
            assert (a, b) == pytest.approx(ax, abs=math.sqrt(4 * EPS))
            assert ellipse_perimeter_batch(a, b) == pytest.approx(
                ellipse_perimeter(*ax), abs=1e-12)


TILTED = _tilted_torus()


@pytest.mark.parametrize("surface", [*LAGRANGIAN_SURFACES.values(), TILTED],
                         ids=[*LAGRANGIAN_SURFACES, "tilted-mesh"])
def test_complement_map_invariants_match_explicit_normal_plane(surface):
    # only the surface's side takes the shortcut; the partner is an explicit
    # normal plane of the tilted mesh.  The kernel is blind to A -> pi - A
    # against a product torus, with the map applied to both sides, or where
    # B = pi/2 (Lagrangian planes), so the tilted mesh is what checks the map
    x_l, partner_normal = _explicit_normal_plane(TILTED, 0, 0.25 * math.pi, 0.5 * math.pi)
    a_l, b_l = cell_angles_batch(x_l, partner_normal[0], partner_normal[1], 1.0)
    angles, _ = _normal_invariant_samples(surface, NODE_GRID)
    # the nodes it keeps: those of positive weight, in quadrature order
    measure = np.concatenate([np.array(b["measure"]) for b in surface_quadrature(surface, NODE_GRID)])
    kept = [node for node, w in zip(_grid_nodes(surface, NODE_GRID), measure) if w > 0.0]
    assert len(kept) == len(angles)
    for (a_n, b_n), node in list(zip(angles, kept))[::3]:
        shortcut = CellInvariants(0.5 * (a_n + b_n), 0.5 * (a_n - b_n),
                                  0.5 * (a_l + b_l), 0.5 * (a_l - b_l))
        explicit = invariants_from_normal_planes(*_explicit_normal_plane(surface, *node), x_l, partner_normal)
        assert sigma_general(shortcut) == pytest.approx(sigma_general(explicit), rel=1e-9)
