import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_lagrangian_plane, random_product_point
from s2xs2.errors import NegativeAxis, NotLagrangianNormal
from s2xs2.geometry import Bivector, normal_plane, orthonormal_pairs, plane_from_invariants
from s2xs2.rotations import group_element_at
from s2xs2.sigma import (
    CellInvariants,
    EllipseSemiaxes,
    _kernel_coefficients,
    _normal_form_bases,
    ellipse_perimeter,
    ellipse_perimeter_batch,
    ellipse_perimeter_quadrature,
    invariants_from_normal_planes,
    lagrangian_semiaxes_batch,
    plane_cell_angles,
    semiaxes_from_normal_plane,
    sigma_general,
    sigma_lagrangian_product,
)
from s2xs2.surfaces import (
    GraphSurface,
    MeshSurface,
    anti_diagonal,
    chart_axes,
    latitude_torus,
    surface_quadrature,
    tangent_plane,
)
from s2xs2.verify import _normal_invariant_samples

FOUR_PI = 4 * math.pi
FOUR_PI_SQ = 4 * math.pi ** 2

# the first 12 draws of default_rng(1) in [0, pi]^4; the 2-D midpoint/Richardson
# route the kernel used to take raised QuadratureNotConverged on two of them
REGRESSION_DRAWS = np.random.default_rng(1).uniform(0, math.pi, (12, 4))

angles = st.floats(-math.pi, 2 * math.pi)


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
    u1, u2, v1, v2 = _normal_form_bases(inv)
    h = 2.0 * np.pi / n
    t = (np.arange(n) + 0.5) * h
    wedge_u = np.empty((n, 6))
    wedge_v = np.empty((n, 6))
    for i, angle in enumerate(t):
        ca, sa = math.cos(angle), math.sin(angle)
        a = np.array([[ca, sa, 0, 0], [-sa, ca, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, ca, sa], [0, 0, -sa, ca]])
        wedge_u[i] = Bivector.wedge(a @ u1, a @ u2).components
        wedge_v[i] = Bivector.wedge(b @ v1, b @ v2).components
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
            EllipseSemiaxes(1.0, -1e-9)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (0.5, -math.inf)])
    def test_non_finite_axis(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            ellipse_perimeter(a, b)
        with pytest.raises(ValueError, match="finite"):
            EllipseSemiaxes(a, b)

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
            assert inv.in_cell
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

    def test_cell_membership_flag(self):
        assert CellInvariants(math.pi / 2, 0.0, math.pi / 2, 0.0).in_cell
        assert not CellInvariants(0.0, -math.pi / 2, math.pi / 2, 0.0).in_cell


class TestSemiaxes:
    def test_product_normal_plane(self):
        rng = np.random.default_rng(14)
        x = random_product_point(rng)
        tangent = plane_from_invariants(x, math.pi / 2, 0.0)
        normal = normal_plane(x, tangent)
        ax = semiaxes_from_normal_plane(x, normal)
        assert (ax.a, ax.b) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_antidiagonal_normal_plane(self):
        from s2xs2.surfaces import anti_diagonal, tangent_plane

        surf = anti_diagonal()
        plane = tangent_plane(surf, 1.1, 0.7)
        normal = normal_plane(plane.point, plane)
        ax = semiaxes_from_normal_plane(plane.point, normal)
        assert (ax.a, ax.b) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_cell_plane_value(self):
        rng = np.random.default_rng(15)
        x = random_product_point(rng)
        plane = plane_from_invariants(x, math.pi / 3, math.pi / 3 - math.pi / 2)
        ax = semiaxes_from_normal_plane(x, plane)
        assert (ax.a, ax.b) == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_rejects_non_lagrangian(self):
        rng = np.random.default_rng(16)
        x = random_product_point(rng)
        complex_plane = plane_from_invariants(x, math.pi / 2, math.pi / 2)
        with pytest.raises(NotLagrangianNormal):
            semiaxes_from_normal_plane(x, complex_plane)

    def test_normal_and_tangent_share_the_second_structure_angle(self):
        rng = np.random.default_rng(17)
        from s2xs2.geometry import kahler_angle

        for _ in range(20):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            comp = normal_plane(x, plane)
            assert kahler_angle(plane, "J'") == pytest.approx(kahler_angle(comp, "J'"), abs=1e-10)


class TestSigmaLagrangianProduct:
    def test_circle_minimum(self):
        assert sigma_lagrangian_product(EllipseSemiaxes(0.5, 0.5)) == pytest.approx(FOUR_PI, abs=1e-12)

    def test_degenerate_maximum(self):
        assert sigma_lagrangian_product(EllipseSemiaxes(1.0, 0.0)) == 16.0

    def test_interior_value_from_quadrature_oracle(self):
        oracle = 4.0 * ellipse_perimeter_quadrature(0.75, 0.25)
        assert oracle == pytest.approx(13.36489322055526, abs=1e-10)
        assert sigma_lagrangian_product(EllipseSemiaxes(0.75, 0.25)) == pytest.approx(oracle, abs=1e-10)

    def test_range_over_admissible_family(self):
        values = []
        for s in np.linspace(0.0, 1.0, 101):
            v = sigma_lagrangian_product(EllipseSemiaxes((1 + s) / 2, (1 - s) / 2))
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
            a_got, b_got = plane_cell_angles(plane)
            # plane_from_invariants builds the complement family, so compare
            # invariants through the kernel instead of raw angles
            inv1 = invariants_from_normal_planes(plane, plane)
            inv2 = CellInvariants(0.5 * (a_got + b_got), 0.5 * (a_got - b_got),
                                  0.5 * (a_got + b_got), 0.5 * (a_got - b_got))
            assert sigma_general(inv1) == pytest.approx(sigma_general(inv2), rel=1e-9)

    def test_kernel_invariant_under_orientation_flip(self):
        rng = np.random.default_rng(25)
        from s2xs2.geometry import TangentPlane

        for _ in range(6):
            x = random_product_point(rng)
            p = random_lagrangian_plane(rng, x)
            q = plane_from_invariants(x, rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            flipped = TangentPlane(x, (p.basis[1], p.basis[0]))
            v1 = sigma_general(invariants_from_normal_planes(p, q))
            v2 = sigma_general(invariants_from_normal_planes(flipped, q))
            assert v1 == pytest.approx(v2, rel=1e-7)


LAGRANGIAN_SURFACES = {
    "anti-diagonal": anti_diagonal(),
    "rotated-graph": GraphSurface(group_element_at(3, 0).first, antipodal=True),
    "latitude-torus": latitude_torus(0.3, -0.6),
}
NODE_GRID = 8
EPS = np.finfo(float).eps


def _grid_nodes(surface, m):
    """(chart, u, v) of every quadrature node, in the order surface_quadrature yields them."""
    nodes = []
    for chart in range(len(surface.charts)):
        us, vs, _ = chart_axes(surface, chart, m)
        nodes += [(chart, u, v) for u in us for v in vs]
    return nodes


def _explicit_normal_plane(surface, chart, u, v):
    """The normal plane built literally: tangent plane, then orthogonal complement."""
    plane = tangent_plane(surface, u, v, chart)
    return normal_plane(plane.point, plane)


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
    # s = sqrt(1 - c^2) turns a rounding of the J' pairing c near |c| = 1
    # (graph nodes, where the ellipse is a circle) into an error of order
    # sqrt(eps) in the semiaxes, 1.05e-8 at the graph nodes; the perimeter is
    # flat in s there, so what the quadrature integrates agrees to 1e-12
    surface = LAGRANGIAN_SURFACES[name]
    nodes = iter(_grid_nodes(surface, NODE_GRID))
    for block in surface_quadrature(surface, NODE_GRID):
        t1, t2, bad = orthonormal_pairs(block["du"], block["dv"])
        assert not bad.any()
        for a, b in zip(*lagrangian_semiaxes_batch(block["points"], t1, t2)):
            normal = _explicit_normal_plane(surface, *next(nodes))
            ax = semiaxes_from_normal_plane(normal.point, normal)
            assert (a, b) == pytest.approx((ax.a, ax.b), abs=math.sqrt(4 * EPS))
            assert ellipse_perimeter_batch(a, b) == pytest.approx(
                ellipse_perimeter(ax.a, ax.b), abs=1e-12)


TILTED = _tilted_torus()


@pytest.mark.parametrize("surface", [*LAGRANGIAN_SURFACES.values(), TILTED],
                         ids=[*LAGRANGIAN_SURFACES, "tilted-mesh"])
def test_complement_map_invariants_match_explicit_normal_plane(surface):
    # only the surface's side takes the shortcut; the partner is an explicit
    # normal plane of the tilted mesh.  The kernel is blind to A -> pi - A
    # against a product torus, with the map applied to both sides, or where
    # B = pi/2 (Lagrangian planes), so the tilted mesh is what checks the map
    partner_normal = _explicit_normal_plane(TILTED, 0, 0.25 * math.pi, 0.5 * math.pi)
    a_l, b_l = plane_cell_angles(partner_normal)
    angles, _ = _normal_invariant_samples(surface, NODE_GRID)
    # the nodes it keeps: those of positive weight, in quadrature order
    measure = np.concatenate([b["measure"] for b in surface_quadrature(surface, NODE_GRID)])
    kept = [node for node, w in zip(_grid_nodes(surface, NODE_GRID), measure) if w > 0.0]
    assert len(kept) == len(angles)
    for (a_n, b_n), node in list(zip(angles, kept))[::3]:
        shortcut = CellInvariants(0.5 * (a_n + b_n), 0.5 * (a_n - b_n),
                                  0.5 * (a_l + b_l), 0.5 * (a_l - b_l))
        explicit = invariants_from_normal_planes(_explicit_normal_plane(surface, *node), partner_normal)
        assert sigma_general(shortcut) == pytest.approx(sigma_general(explicit), rel=1e-9)
