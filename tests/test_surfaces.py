import collections
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    group_sample,
    kahler_angle,
    lagrangian_defect_by_frames,
    mesh_rows_by_expression,
    moved_surface,
    orthonormal_pairs,
    tangent_plane,
)
from s2xs2 import surfaces, verify
from s2xs2.errors import InvalidInput, S2xS2Error
from s2xs2.expressions import parse_hamiltonian
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.surfaces import (
    Circle,
    GraphSurface,
    MeshSurface,
    anti_diagonal,
    chart_axes,
    diagonal,
    great_torus,
    lagrangian_defect,
    latitude_torus,
    lattice_points,
    load_mesh,
    save_mesh,
    volume,
)

FOUR_PI_SQ = 4 * math.pi ** 2


def mp_gauss_legendre(n, guess):
    """Gauss-Legendre nodes near the given guesses, and their weights, to 50
    digits: Newton iteration in mpmath, an independent reference for the
    rule's last bits."""
    with mpmath.workdps(50):
        nodes, weights = [], []
        for g in guess:
            x, dx = mpmath.mpf(float(g)), 1
            while abs(dx) > mpmath.mpf(10) ** -45:
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                d = n * (p0 - x * p1) / (1 - x * x)
                dx = p1 / d
                x -= dx
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * d * d)))
    return np.array(nodes), np.array(weights)


class TestCircle:
    def test_equator_chart_convention(self):
        c = Circle([0, 0, 1], 0.0)
        assert np.allclose(c.points(0.0), [1, 0, 0], atol=1e-15)
        assert np.allclose(c.points(math.pi / 2), [0, 1, 0], atol=1e-15)

    def test_latitude_point(self):
        c = Circle([0, 0, 1], 0.5)
        assert np.allclose(c.points(0.0), [math.sqrt(0.75), 0, 0.5], atol=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Circle([0, 0, 1], 1.0)
        with pytest.raises(ValueError):
            Circle([0, 0, 1], 1.0 - 1e-14)

    @pytest.mark.parametrize("axis, offset", [
        ([math.nan, 0, 1], 0.2), ([math.inf, 0, 1], 0.2), ([0, 0, 1], math.nan), ([0, 0, 1], -math.inf),
    ])
    def test_non_finite_rejected(self, axis, offset):
        with pytest.raises(ValueError):
            Circle(axis, offset)

    def test_axis_norm_must_lie_in_1e_14_to_inf(self):
        # the norm of (1e308, 1e308, 0) overflows, and the axis divided by it was zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="nonzero and of finite norm"):
                Circle([1e308, 1e308, 0.0])
            with pytest.raises(InvalidInput, match="nonzero and of finite norm"):
                Circle([1e-15, 0.0, 0.0])
        assert Circle([1e-13, 0.0, 0.0]).axis.tolist() == [1.0, 0.0, 0.0]

    def test_points_on_constraint_plane(self):
        c = Circle([0.3, -0.4, 0.5], 0.37)
        s = np.linspace(0, 2 * math.pi, 50)
        pts = c.points(s)
        assert np.abs(pts @ c.axis - 0.37).max() < 1e-12
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12


class TestEvaluate:
    def test_equator_torus_origin(self):
        x = great_torus().points(0, 0.0, 0.0)
        assert np.allclose(x, [1, 0, 0, 1, 0, 0], atol=1e-15)

    def test_anti_diagonal_pole(self):
        x = anti_diagonal().points(0, 0.0, 0.0)
        assert np.allclose(x, [0, 0, 1, 0, 0, -1], atol=1e-15)

    def test_periodic_wrap(self):
        a = great_torus().points(0, 0.1, 0.2)
        b = great_torus().points(0, 0.1 + 2 * math.pi, 0.2)
        assert np.abs(a - b).max() < 1e-12


class TestTangentPlanes:
    def test_product_torus_tangent_is_doubly_lagrangian(self):
        surf = latitude_torus(0.2, -0.4)
        for u, v in [(0.0, 0.0), (1.0, 2.5), (4.4, 0.3)]:
            x, p = tangent_plane(surf, u, v)
            assert kahler_angle(x, p, "J") == pytest.approx(math.pi / 2, abs=1e-12)
            assert kahler_angle(x, p, "J'") == pytest.approx(math.pi / 2, abs=1e-12)

    def test_anti_diagonal_angles(self):
        surf = anti_diagonal()
        rng = np.random.default_rng(6)
        for _ in range(100):
            chart = rng.integers(0, 2)
            u = rng.uniform(0.05, math.pi - 0.25)
            v = rng.uniform(0, 2 * math.pi)
            x, p = tangent_plane(surf, u, v, chart=int(chart))
            # arccos near 0 maps machine error in the pairing to ~sqrt(eps)
            assert kahler_angle(x, p, "J'") == pytest.approx(0.0, abs=1e-7)
            assert kahler_angle(x, p, "J") == pytest.approx(math.pi / 2, abs=1e-10)

    def test_degenerate_parameterization(self):
        ring = Circle([0, 0, 1], 0.0).points(np.linspace(0, 2 * math.pi, 64, endpoint=False))
        nodes = np.concatenate([
            np.repeat(ring[:, None, :], 64, axis=1),
            np.repeat(ring[:, None, :], 64, axis=1),
        ], axis=2)  # second parameter does not move the point
        surf = MeshSurface(nodes)
        du, dv = surf.partials(0, 0.0, 0.0)
        _, _, bad = orthonormal_pairs(du, dv)
        assert bad


class TestVolume:
    def test_great_torus(self):
        assert volume(great_torus()) == pytest.approx(FOUR_PI_SQ, rel=1e-13)

    def test_latitude_torus(self):
        v = volume(latitude_torus(0.6, 0.8))
        assert v == pytest.approx(FOUR_PI_SQ * 0.8 * 0.6, rel=1e-13)

    def test_anti_diagonal(self):
        v = volume(anti_diagonal(), 1024)
        assert v == pytest.approx(8 * math.pi, rel=1e-13)

    def test_isometry_invariance(self):
        g = group_sample(64, 2)
        t = latitude_torus(0.3, 0.5)
        assert volume(moved_surface(t, *g)) == pytest.approx(volume(t), rel=1e-8)
        ad = anti_diagonal()
        assert volume(moved_surface(ad, *g), 512) == pytest.approx(volume(ad, 512), rel=1e-8)

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_latitude_torus_lattice_has_the_torus_volume(self, m):
        # the lattice's spectral partials are the circles' own, so the
        # trapezoid rule on them is exact
        target = volume(latitude_torus(0.35, -0.2))
        mesh = MeshSurface(lattice_points(latitude_torus(0.35, -0.2), m))
        assert volume(mesh) == pytest.approx(target, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [64, 128])
    def test_x1x2_flow_has_the_closed_form_volume(self, m):
        # F = 0 and sqrt(EG) = 1 + t^2 sin^2 u sin^2 v on the image of the
        # great torus, so its volume is 4 pi^2 + pi^2 t^2; what is left is
        # the RK4 error, about 3e-10
        t = 0.5
        mesh = deform_surface(parse_hamiltonian("x1*x2").polynomial(), great_torus(), FlowParams.for_time(t), m=m)
        assert volume(mesh) == pytest.approx(FOUR_PI_SQ + math.pi ** 2 * t * t, rel=1e-9, abs=0.0)


# surfaces on which the gate is checked against its orthonormal-frame form:
# the deformed-chain mesh is A4's (x1*x2 + 0.5*y1*y2*z2 at t = 0.5, m = 128)
DEFECT_SURFACES = {
    "great-torus": great_torus,
    "latitude-torus": lambda: latitude_torus(0.5, 0.7),
    "anti-diagonal": anti_diagonal,
    "diagonal": diagonal,
    "deformed-chain-mesh": lambda: deform_surface(
        parse_hamiltonian("x1*x2 + 0.5*y1*y2*z2").polynomial(), great_torus(),
        FlowParams.for_time(0.5, 0.0125), m=128),
    "cubic-flow-mesh": lambda: deform_surface(
        parse_hamiltonian("z1*z2 + 0.3*x1*y2 - 0.2*y1*y1*x2").polynomial(), great_torus(),
        FlowParams(0.5, 40), m=64),
}


class TestLagrangianDefect:
    def test_product_tori(self):
        assert lagrangian_defect(great_torus()) < 1e-10
        assert lagrangian_defect(latitude_torus(0.5, 0.7)) < 1e-10

    def test_anti_diagonal(self):
        assert lagrangian_defect(anti_diagonal()) < 1e-10

    def test_diagonal_is_symplectic(self):
        d = lagrangian_defect(diagonal())
        assert d == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name", DEFECT_SURFACES)
    def test_raw_partials_match_the_orthonormal_frames(self, name):
        surface = DEFECT_SURFACES[name]()
        assert abs(lagrangian_defect(surface) - lagrangian_defect_by_frames(surface)) <= 1e-15

    def test_isometric_flow_is_exactly_lagrangian_both_ways(self):
        mesh = deform_surface(parse_hamiltonian("0.1*z1").polynomial(), great_torus(), FlowParams(0.5, 40), m=64)
        assert lagrangian_defect(mesh) == lagrangian_defect_by_frames(mesh) == 0.0


class TestMeshSurface:
    def test_rejects_off_sphere_nodes(self):
        nodes = np.ones((5, 5, 6))
        with pytest.raises(ValueError, match="off the spheres"):
            MeshSurface(nodes)

    @pytest.mark.parametrize("m", [1, 4])
    def test_rejects_a_lattice_below_the_floor(self, m):
        with pytest.raises(ValueError, match="m must be at least 5"):
            MeshSurface(lattice_points(great_torus(), m))

    def test_smallest_lattice_has_the_analytic_partials(self):
        # a circle is wavenumber 1 along its axis, which m = 5 resolves
        mesh = MeshSurface(lattice_points(great_torus(), 5))
        t = np.arange(5) * (2 * math.pi / 5)
        u, v = t[:, None], t[None, :]
        for got, want in zip(mesh.partials(0, u, v), great_torus().partials(0, u, v)):
            assert np.abs(got - want).max() <= 1e-14

    @settings(max_examples=25)
    @given(c1=st.floats(-0.9, 0.9), c2=st.floats(-0.9, 0.9), m=st.integers(5, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rotated_latitude_torus_lattice_is_exact(self, c1, c2, m, seed):
        torus = moved_surface(latitude_torus(c1, c2), *group_sample(seed, 0))
        mesh = MeshSurface(lattice_points(torus, m))
        t = np.arange(m) * (2 * math.pi / m)
        u, v = t[:, None], t[None, :]
        for got, want in zip(mesh.partials(0, u, v), torus.partials(0, u, v)):
            assert np.abs(got - want).max() <= 1e-12
        closed_form = FOUR_PI_SQ * math.sqrt(1 - c1 * c1) * math.sqrt(1 - c2 * c2)
        assert volume(mesh) == pytest.approx(closed_form, rel=1e-12, abs=0.0)
        assert lagrangian_defect(mesh) <= 1e-12

    @pytest.mark.parametrize("m", [0, -3])
    def test_load_refuses_a_header_below_the_floor(self, tmp_path, m):
        # refused from the header itself, not by the count of node rows
        # that a negative size asks for
        path = tmp_path / "small.mesh"
        path.write_text(f"mesh {m}\n")
        with pytest.raises(ValueError, match="m must be at least 5"):
            load_mesh(path)

    def test_a_lattice_with_no_area_measure_is_refused(self):
        # all 25 nodes are one point, so the partials vanish and span no plane
        point = MeshSurface(np.tile([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (5, 5, 1)))
        for measure in (volume, lagrangian_defect):
            with pytest.raises(InvalidInput, match="span no plane"):
                measure(point)

    def test_invalid_input_is_a_value_error_and_a_package_error(self):
        assert issubclass(InvalidInput, ValueError) and issubclass(InvalidInput, S2xS2Error)

    def test_rejects_non_finite_node(self):
        nodes = MeshSurface(lattice_points(great_torus(), 8)).nodes.copy()
        nodes[2, 5, 4] = math.nan
        with pytest.raises(ValueError, match="finite"):
            MeshSurface(nodes)

    def test_interpolation_matches_nodes(self):
        surf = MeshSurface(lattice_points(great_torus(), 32))
        h = 2 * math.pi / 32
        for i, j in [(0, 0), (3, 7), (31, 31)]:
            a = surf.points(0, i * h, j * h)
            b = great_torus().points(0, i * h, j * h)
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("part", ["points", "du", "dv"])
    @pytest.mark.parametrize("kind", ["random", "negative", "wrapping", "nodes", "broadcast", "scalar"])
    def test_interpolant_matches_the_one_expression_bitwise(self, kind, part):
        h4 = parse_hamiltonian("x1*x2 + 0.5*y1*y2*z2").polynomial()
        mesh = deform_surface(h4, great_torus(), FlowParams.for_time(0.5), m=64)
        rng = np.random.default_rng(5)
        h = mesh.spacing
        u, v = {
            "random": lambda: rng.uniform(0.0, 2 * math.pi, (2, 37, 5)),
            "negative": lambda: rng.uniform(-20.0, 0.0, (2, 300)),
            "wrapping": lambda: rng.uniform(2 * math.pi - h, 4 * math.pi + h, (2, 300)),
            "nodes": lambda: rng.integers(-64, 128, (2, 300)) * h,
            "broadcast": lambda: (rng.uniform(-7.0, 7.0, (40, 1)), rng.uniform(-7.0, 7.0, (1, 9))),
            "scalar": lambda: (float(rng.uniform(-7.0, 7.0)), 63 * h),
        }[kind]()
        got = mesh.rows(0, u, v, part, np.empty((6,) + np.broadcast_shapes(np.shape(u), np.shape(v))))
        assert got.tobytes() == mesh_rows_by_expression(mesh, u, v, part).tobytes()

    def test_io_roundtrip(self, tmp_path):
        surf = MeshSurface(lattice_points(latitude_torus(0.25, 0.75), 24))
        path = tmp_path / "grid.mesh"
        save_mesh(surf, path)
        text = path.read_text().splitlines()
        assert text[0] == "mesh 24"
        assert len(text) == 1 + 24 * 24
        loaded = load_mesh(path)
        assert loaded.m == 24
        assert np.array_equal(loaded.nodes, surf.nodes)

    def test_io_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("grid 4\n")
        with pytest.raises(ValueError):
            load_mesh(path)


class TestGraphSurface:
    def test_partition_of_unity(self):
        surf = anti_diagonal()
        for theta in np.linspace(0.2, math.pi - 0.25, 30):
            w0 = float(surf.weights(0, theta, 0.0))
            w1 = float(surf.weights(1, math.pi - theta, 0.0))
            assert w0 + w1 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, 1.0, -1.0]),                     # a reflection, det -1
        np.diag([1.0, 1.0, 1.0 + 1e-6]),               # not orthogonal
        np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.eye(2),
        np.full((3, 3), math.nan),
    ], ids=["reflection", "stretched", "sheared", "shape", "nan"])
    def test_rejects_a_matrix_that_is_not_a_rotation(self, matrix):
        with pytest.raises(ValueError):
            GraphSurface(matrix)

    def test_graph_constraint(self):
        surf = GraphSurface(group_sample(3, 0)[0], antipodal=True)
        rng = np.random.default_rng(44)
        for _ in range(20):
            u = rng.uniform(0.01, math.pi - 0.21)
            v = rng.uniform(0, 2 * math.pi)
            pt = surf.points(0, u, v)
            expected = surf.map_matrix @ pt[:3]
            assert np.abs(pt[3:] - expected).max() < 1e-12

    def test_transform_stays_in_family(self):
        surf = moved_surface(anti_diagonal(), *group_sample(12, 5))
        assert isinstance(surf, GraphSurface)
        assert surf.antipodal
        assert volume(surf, 512) == pytest.approx(8 * math.pi, rel=1e-13)


class TestGraphQuadratureRule:
    """Gauss-Legendre panels in colatitude on the support of each graph chart's weight."""

    @pytest.mark.parametrize("m", [2, 3, 16, 1024])
    @pytest.mark.parametrize("surface", [anti_diagonal(), moved_surface(anti_diagonal(), *group_sample(12, 5))],
                             ids=["anti-diagonal", "rotated"])
    def test_every_node_weighs_and_a_level_has_two_m_squared_nodes(self, surface, m):
        measure = np.concatenate([np.array(t["measure"]) for t in surfaces.surface_quadrature(surface, m)])
        assert measure.size == 2 * m * m
        assert (measure > 0.0).all()

    @pytest.mark.parametrize("m", [2, 7, 64])
    def test_panels_cover_the_weight_support(self, m):
        ramp_lo, ramp_hi = math.pi / 2 - surfaces.RAMP_HALF_WIDTH, math.pi / 2 + surfaces.RAMP_HALF_WIDTH
        for chart in (0, 1):
            (us, wu), (vs, wv) = chart_axes(anti_diagonal(), chart, m)
            first = m - m // 2
            assert us.size == wu.size == m and np.all(np.diff(us) > 0.0)
            assert 0.0 < us[0] and us[first - 1] < ramp_lo < us[first] and us[-1] < ramp_hi
            assert wu[:first].sum() == pytest.approx(ramp_lo, rel=1e-14)
            assert wu[first:].sum() == pytest.approx(ramp_hi - ramp_lo, rel=1e-14)
            assert np.array_equal(vs, np.arange(m) * (2 * math.pi / m))
            assert np.all(wv == 2 * math.pi / m)
        # the counter's chart, and so its grids and Newton clamps, is unchanged
        assert anti_diagonal().charts[0].u_max == math.pi - surfaces.CAP_RADIUS

    def test_grid_that_leaves_a_panel_empty_is_refused(self):
        with pytest.raises(ValueError, match="Gauss-Legendre panel without a node"):
            chart_axes(anti_diagonal(), 1, 1)
        with pytest.raises(ValueError, match="must be at least 2"):
            volume(anti_diagonal(), 1)
        for m in (2, 3):
            with pytest.raises(ValueError, match="must be at least 4"):
                surfaces.quadrature_levels(anti_diagonal(), m)
        # one panel per direction: every grid from 1 is accepted
        assert volume(great_torus(), 1) == pytest.approx(FOUR_PI_SQ, rel=1e-14)

    @pytest.mark.parametrize("n", [18, 256, 1024])
    def test_gauss_legendre_matches_a_50_digit_rule(self, n):
        x, w = surfaces._gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        # the upper half (the rule is checked symmetric below); at n = 1024
        # the 8 nodes nearest 1, where the weights are hardest, and every
        # 16th node inward
        upper = np.arange(n // 2, n)
        if n > 256:
            upper = np.union1d(upper[::16], upper[-8:])
        ref_x, ref_w = mp_gauss_legendre(n, x[upper])
        assert np.abs(x[upper] - ref_x).max() <= 2.3e-16
        assert (np.abs(w[upper] - ref_w) / ref_w).max() <= 1e-11
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 23, 32, 511])
    def test_gauss_legendre_is_exact_to_degree_2n_minus_1(self, n):
        x, w = surfaces._gauss_legendre(n)
        for degree in (0, 2 * n - 2, 2 * n - 1):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert math.fsum(w * x ** degree) == pytest.approx(exact, abs=1e-14)

    def test_gauss_legendre_rule_is_cached_read_only(self):
        x, w = surfaces._gauss_legendre(64)
        assert surfaces._gauss_legendre(64)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_levels(self):
        mesh = MeshSurface(lattice_points(latitude_torus(0.35, -0.2), 16))
        assert surfaces.quadrature_levels(anti_diagonal(), 4) == (2, 4)
        assert surfaces.quadrature_levels(anti_diagonal(), 1025) == (512, 1025)
        assert surfaces.quadrature_levels(anti_diagonal()) == (32, 64)
        assert surfaces.quadrature_levels(great_torus(), 16) == (16, 32)
        assert surfaces.quadrature_levels(great_torus()) == (64, 128)
        assert surfaces.quadrature_levels(mesh, 1024) == (16,)


def dense_quadrature(surface, m):
    """The whole-chart quadrature the row tiles replaced, kept as their reference.

    It works on C-ordered (..., 6) copies and takes the metric terms by
    np.einsum, as the quadrature did before its tiles became component-major
    rows.
    """
    for chart in range(len(surface.charts)):
        (us, wu), (vs, wv) = chart_axes(surface, chart, m)
        U, V = np.meshgrid(us, vs, indexing="ij")
        cell = wu[:, None] * wv
        pts = np.ascontiguousarray(surface.points(chart, U, V))
        du, dv = (np.ascontiguousarray(d) for d in surface.partials(chart, U, V))
        E = np.einsum("...k,...k->...", du, du)
        G = np.einsum("...k,...k->...", dv, dv)
        F = np.einsum("...k,...k->...", du, dv)
        dens = np.sqrt(np.maximum(E * G - F * F, 0.0))
        w = surface.weights(chart, U, V)
        yield {
            "points": pts.reshape(-1, 6),
            "du": du.reshape(-1, 6),
            "dv": dv.reshape(-1, 6),
            "area": dens.reshape(-1),
            "measure": (w * dens * cell).reshape(-1),
        }


def stacked_graph_evaluation(surface, chart, u, v):
    """Points and partials of a graph as GraphSurface built them before it wrote
    component-major rows: the base factor stacked by coordinates, the map half
    by a matmul with M, the halves concatenated.  Kept as the reference."""
    st, ct = np.sin(u), np.cos(u)
    cp, sp = np.cos(v), np.sin(v)

    def stack(*parts):
        return np.stack(np.broadcast_arrays(*parts), axis=-1)

    if chart == 0:
        z, dth, dph = stack(st * cp, st * sp, ct), stack(ct * cp, ct * sp, -st), stack(-st * sp, st * cp, 0.0)
    else:
        z, dth, dph = stack(st * cp, -st * sp, -ct), stack(ct * cp, -ct * sp, st), stack(-st * sp, -st * cp, 0.0)
    return tuple(np.concatenate([b, b @ surface.map_matrix.T], axis=-1) for b in (z, dth, dph))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def flowed_mesh():
    h = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 0.3, (1, 0, 0, 0, 0, 0): 0.2})
    return deform_surface(h, great_torus(), FlowParams(0.4, 16), m=64)


QUADRATURE_CASES = [
    pytest.param(anti_diagonal, 130, id="anti-diagonal"),
    pytest.param(lambda: moved_surface(anti_diagonal(), *group_sample(12, 5)), 130, id="rotated-graph"),
    pytest.param(lambda: latitude_torus(0.3, -0.6), 130, id="latitude-torus"),
    pytest.param(flowed_mesh, 64, id="flowed-mesh"),
]


# float.hex of each quadrature total, recorded before the tiles reused one
# workspace per pass and took their axis factors once per chart: volume and
# the perimeter integral on each grid, the Lagrangian defect at the default
# grid, and the general kernel side against the great torus at m = 8.  The
# flowed mesh's were recorded again when its partials became spectral: its
# flow is an isometry, and its volume is now 4 pi^2 to the bit.
# Grid 133 leaves a ragged last tile; 512 spans many tiles per chart.
QUADRATURE_PINS = {
    "anti-diagonal": (anti_diagonal, {
        "volume-64": "0x1.921fb54442d18p+4",
        "perimeter-64": "0x1.3bd3cc9be45ddp+6",
        "volume-133": "0x1.921fb54442d21p+4",
        "perimeter-133": "0x1.3bd3cc9be45e5p+6",
        "volume-512": "0x1.921fb54442d12p+4",
        "perimeter-512": "0x1.3bd3cc9be45d9p+6",
        "defect": "0x0.0p+0",
        "kernel": "0x1.85a2e8afdfb3fp+13",
    }),
    "rotated-graph": (lambda: GraphSurface(group_sample(7, 3)[0], antipodal=False), {
        "volume-130": "0x1.921fb54442d1bp+4",
        "perimeter-130": "0x1.921fb54442d1bp+6",
        "defect": "0x1.0000000000002p+0",
        "kernel": "0x1.85a2e8afdfb3ep+13",
    }),
    "latitude-torus": (lambda: latitude_torus(0.3, -0.6), {
        "volume-130": "0x1.e20c5240cad8ep+4",
        "perimeter-130": "0x1.e20c5240cad8ep+6",
        "defect": "0x0.0p+0",
        "kernel": "0x1.2959fd527101fp+14",
    }),
    "flowed-mesh": (flowed_mesh, {
        "volume-64": "0x1.3bd3cc9be45dep+5",
        "perimeter-64": "0x1.3bd3cc9be45dep+7",
        "defect": "0x0.0p+0",
        "kernel": "0x1.85a2e8c2907f8p+14",
    }),
}


@pytest.mark.parametrize("name", QUADRATURE_PINS)
def test_quadrature_totals_keep_their_bits(name):
    make, pins = QUADRATURE_PINS[name]
    surface = make()
    got = {"defect": lagrangian_defect(surface).hex(),
           "kernel": verify.kernel_rhs_general(surface, great_torus(), m=8).hex()}
    for key in pins:
        quantity, _, m = key.partition("-")
        if quantity == "volume":
            got[key] = surfaces.volume(surface, int(m)).hex()
        elif quantity == "perimeter":
            got[key] = verify._perimeter_integral(surface, int(m)).hex()
    assert got == pins


class TestTiledQuadrature:
    # one row per tile; several rows with a ragged last tile (m = 130 and 64); one tile per chart
    TILES = [1, 3 * 130 + 7, 10 ** 9]

    @pytest.mark.parametrize("make, m", QUADRATURE_CASES)
    def test_tiles_agree_with_the_whole_chart(self, monkeypatch, make, m):
        surface = make()
        reference = list(dense_quadrature(surface, m))
        with monkeypatch.context() as patch:
            patch.setattr(surfaces, "surface_quadrature", dense_quadrature)
            patch.setattr(verify, "surface_quadrature", dense_quadrature)
            vol_ref = surfaces.volume(surface, m)
            perim_ref = verify._perimeter_integral(surface, m)
        for tile in self.TILES:
            monkeypatch.setattr(surfaces, "QUADRATURE_TILE", tile)
            # a tile's arrays are valid until the next tile: keep copies
            keys = ("points", "du", "dv", "area", "measure")
            tiles = [{key: np.array(t[key]) for key in keys} for t in surfaces.surface_quadrature(surface, m)]
            assert sum(t["measure"].size for t in tiles) == len(surface.charts) * m * m
            for key in keys:
                assert same_bits(np.concatenate([t[key] for t in tiles]),
                                 np.concatenate([r[key] for r in reference]))
            assert surfaces.volume(surface, m) == pytest.approx(vol_ref, rel=1e-14, abs=0.0)
            assert verify._perimeter_integral(surface, m) == pytest.approx(perim_ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("make, m", QUADRATURE_CASES)
    def test_a_tile_pays_only_for_the_rows_its_integral_reads(self, monkeypatch, make, m):
        surface = make()
        rows = 3
        monkeypatch.setattr(surfaces, "QUADRATURE_TILE", rows * m + 7)
        tiles = len(surface.charts) * -(-m // rows)
        calls = collections.Counter()

        def counting(name, method):
            def counted(*args):
                calls[name, args[3] if name == "rows" else None] += 1
                return method(*args)
            return counted

        for name in ("rows", "points", "weights"):
            monkeypatch.setattr(surface, name, counting(name, getattr(surface, name)))
        surfaces.volume(surface, m)
        # no points; weights once per chart, the partials once per tile
        assert calls == {("rows", "du"): tiles, ("rows", "dv"): tiles,
                         ("weights", None): len(surface.charts)}
        calls.clear()
        verify._perimeter_integral(surface, m)
        assert calls == {("rows", "points"): tiles, ("rows", "du"): tiles, ("rows", "dv"): tiles,
                         ("weights", None): len(surface.charts)}

    def test_grid_below_one_is_rejected(self):
        for m in (0, -4):
            with pytest.raises(ValueError):
                next(surfaces.surface_quadrature(anti_diagonal(), m))

    def test_memory_is_set_by_the_tile(self):
        verify._perimeter_integral(anti_diagonal(), 8)   # imports and caches outside the window
        tracemalloc.start()
        try:
            verify._perimeter_integral(anti_diagonal(), 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-chart grids peak near 140 MB here
        assert peak < 32 * 2 ** 20


GRAPHS = [
    pytest.param(anti_diagonal(), True, id="anti-diagonal"),
    pytest.param(diagonal(), True, id="diagonal"),
    pytest.param(GraphSurface(group_sample(3, 0)[0], antipodal=True), False, id="rotated-anti-diagonal"),
    pytest.param(GraphSurface(group_sample(7, 3)[0], antipodal=False), False, id="rotated-diagonal"),
]


class TestComponentMajorGraph:
    @pytest.mark.parametrize("chart", [0, 1])
    @pytest.mark.parametrize("surface, exact", GRAPHS)
    def test_rows_equal_the_stacked_form(self, surface, chart, exact):
        # M with entries 0 and +-1 leaves nothing to round; a general rotation
        # sums its products in another order
        (us, _), (vs, _) = chart_axes(surface, chart, 37)
        u, v = us[:, None], vs[None, :]
        got = (surface.points(chart, u, v), *surface.partials(chart, u, v))
        for rows, ref in zip(got, stacked_graph_evaluation(surface, chart, u, v)):
            assert rows.shape == ref.shape
            if exact:
                assert np.array_equal(rows, ref)
            else:
                assert np.abs(rows - ref).max() <= 4 * np.finfo(float).eps

    def test_scalar_and_batch_evaluation_agree(self):
        surface = GraphSurface(group_sample(3, 0)[0], antipodal=True)
        u, v = np.array([0.3, 1.1, 2.9]), np.array([0.2, 4.0, 6.1])
        for chart in (0, 1):
            batch = (surface.points(chart, u, v), *surface.partials(chart, u, v))
            for i in range(3):
                one = (surface.points(chart, u[i], v[i]), *surface.partials(chart, u[i], v[i]))
                for single, rows in zip(one, batch):
                    assert single.shape == (6,) and same_bits(single, rows[i])

    @pytest.mark.parametrize("surface", [anti_diagonal(), latitude_torus(0.3, -0.6), flowed_mesh()],
                             ids=["graph", "torus", "mesh"])
    def test_tiles_hold_component_major_rows(self, surface):
        block = next(surfaces.surface_quadrature(surface, 64))
        for key in ("points", "du", "dv"):
            assert block[key].shape[1] == 6 and block[key].T.flags.c_contiguous
        for key in ("points", "du", "dv", "area", "measure"):
            assert not block[key].flags.writeable
        # the graph evaluator's own storage is component-major, so its tiles take it without a copy
        pts = anti_diagonal().points(0, np.zeros((2, 1)), np.zeros((1, 3)))
        assert pts.shape == (2, 3, 6) and np.moveaxis(pts, -1, 0).flags.c_contiguous


class TestSeparableEvaluation:
    @pytest.mark.parametrize("surface, chart", [
        (anti_diagonal(), 0),
        (anti_diagonal(), 1),
        (GraphSurface(group_sample(3, 0)[0], antipodal=False), 1),
        (moved_surface(latitude_torus(0.3, -0.6), *group_sample(7, 2)), 0),
        (MeshSurface(lattice_points(latitude_torus(0.35, -0.2), 16)), 0),
    ])
    def test_axes_evaluation_equals_the_meshgrid(self, surface, chart):
        (us, _), (vs, _) = chart_axes(surface, chart, 37)
        vs = vs[:29] + 0.01
        U, V = np.meshgrid(us, vs, indexing="ij")
        u, v = us[:, None], vs[None, :]
        assert same_bits(surface.points(chart, u, v), surface.points(chart, U, V))
        for sep, dense in zip(surface.partials(chart, u, v), surface.partials(chart, U, V)):
            assert same_bits(sep, dense)
        assert same_bits(surface.weights(chart, u, v), surface.weights(chart, U, V))
