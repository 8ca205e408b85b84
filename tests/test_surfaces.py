import math
import tracemalloc

import numpy as np
import pytest

from helpers import kahler_angle, tangent_plane
from s2xs2 import surfaces, verify
from s2xs2.geometry import orthonormal_pairs
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from s2xs2.rotations import group_element_at
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
    load_mesh,
    save_mesh,
    volume,
)

FOUR_PI_SQ = 4 * math.pi ** 2


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
        assert v == pytest.approx(8 * math.pi, rel=1e-6)

    def test_isometry_invariance(self):
        g = group_element_at(64, 2)
        t = latitude_torus(0.3, 0.5)
        assert volume(t.transform(g)) == pytest.approx(volume(t), rel=1e-8)
        ad = anti_diagonal()
        assert volume(ad.transform(g), 512) == pytest.approx(volume(ad, 512), rel=1e-8)

    def test_mesh_volume_converges_with_order_two_or_better(self):
        target = volume(latitude_torus(0.35, -0.2))
        errs = []
        for m in (16, 32, 64):
            mesh = MeshSurface.sample_from(latitude_torus(0.35, -0.2), m)
            errs.append(abs(volume(mesh) - target))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 2.0 and order2 >= 2.0


class TestLagrangianDefect:
    def test_product_tori(self):
        assert lagrangian_defect(great_torus()) < 1e-10
        assert lagrangian_defect(latitude_torus(0.5, 0.7)) < 1e-10

    def test_anti_diagonal(self):
        assert lagrangian_defect(anti_diagonal()) < 1e-10

    def test_diagonal_is_symplectic(self):
        d = lagrangian_defect(diagonal())
        assert d == pytest.approx(1.0, abs=1e-6)


class TestMeshSurface:
    def test_rejects_off_sphere_nodes(self):
        nodes = np.ones((4, 4, 6))
        with pytest.raises(ValueError):
            MeshSurface(nodes)

    def test_rejects_non_finite_node(self):
        nodes = MeshSurface.sample_from(great_torus(), 8).nodes.copy()
        nodes[2, 5, 4] = math.nan
        with pytest.raises(ValueError, match="finite"):
            MeshSurface(nodes)

    def test_interpolation_matches_nodes(self):
        surf = MeshSurface.sample_from(great_torus(), 32)
        h = 2 * math.pi / 32
        for i, j in [(0, 0), (3, 7), (31, 31)]:
            a = surf.points(0, i * h, j * h)
            b = great_torus().points(0, i * h, j * h)
            assert np.abs(a - b).max() < 1e-12

    def test_io_roundtrip(self, tmp_path):
        surf = MeshSurface.sample_from(latitude_torus(0.25, 0.75), 24)
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

    def test_graph_constraint(self):
        surf = GraphSurface(group_element_at(3, 0).first, antipodal=True)
        rng = np.random.default_rng(44)
        for _ in range(20):
            u = rng.uniform(0.01, math.pi - 0.21)
            v = rng.uniform(0, 2 * math.pi)
            pt = surf.points(0, u, v)
            expected = surf.map_matrix @ pt[:3]
            assert np.abs(pt[3:] - expected).max() < 1e-12

    def test_transform_stays_in_family(self):
        g = group_element_at(12, 5)
        surf = anti_diagonal().transform(g)
        assert isinstance(surf, GraphSurface)
        assert surf.antipodal
        assert volume(surf, 512) == pytest.approx(8 * math.pi, rel=1e-5)


def dense_quadrature(surface, m):
    """The whole-chart quadrature the row tiles replaced, kept as their reference."""
    for chart in range(len(surface.charts)):
        us, vs, cell = chart_axes(surface, chart, m)
        U, V = np.meshgrid(us, vs, indexing="ij")
        pts = surface.points(chart, U, V)
        du, dv = surface.partials(chart, U, V)
        E = np.einsum("...k,...k->...", du, du)
        G = np.einsum("...k,...k->...", dv, dv)
        F = np.einsum("...k,...k->...", du, dv)
        dens = np.sqrt(np.maximum(E * G - F * F, 0.0))
        w = surface.weights(chart, U, V)
        yield {
            "points": pts.reshape(-1, 6),
            "du": du.reshape(-1, 6),
            "dv": dv.reshape(-1, 6),
            "measure": (w * dens * cell).reshape(-1),
        }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def flowed_mesh():
    h = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 0.3, (1, 0, 0, 0, 0, 0): 0.2})
    return deform_surface(h, great_torus(), FlowParams(0.4, 16), m=64)


QUADRATURE_CASES = [
    pytest.param(anti_diagonal, 130, id="anti-diagonal"),
    pytest.param(lambda: anti_diagonal().transform(group_element_at(12, 5)), 130, id="rotated-graph"),
    pytest.param(lambda: latitude_torus(0.3, -0.6), 130, id="latitude-torus"),
    pytest.param(flowed_mesh, 64, id="flowed-mesh"),
]


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
            tiles = list(surfaces.surface_quadrature(surface, m))
            assert sum(t["measure"].size for t in tiles) == len(surface.charts) * m * m
            for key in ("points", "du", "dv", "measure"):
                assert same_bits(np.concatenate([t[key] for t in tiles]),
                                 np.concatenate([r[key] for r in reference]))
            assert surfaces.volume(surface, m) == pytest.approx(vol_ref, rel=1e-14, abs=0.0)
            assert verify._perimeter_integral(surface, m) == pytest.approx(perim_ref, rel=1e-14, abs=0.0)

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


class TestSeparableEvaluation:
    @pytest.mark.parametrize("surface, chart", [
        (anti_diagonal(), 0),
        (anti_diagonal(), 1),
        (GraphSurface(group_element_at(3, 0).first, antipodal=False), 1),
        (latitude_torus(0.3, -0.6).transform(group_element_at(7, 2)), 0),
        (MeshSurface.sample_from(latitude_torus(0.35, -0.2), 16), 0),
    ])
    def test_axes_evaluation_equals_the_meshgrid(self, surface, chart):
        us, vs, _ = chart_axes(surface, chart, 37)
        vs = vs[:29] + 0.01
        U, V = np.meshgrid(us, vs, indexing="ij")
        u, v = us[:, None], vs[None, :]
        assert same_bits(surface.points(chart, u, v), surface.points(chart, U, V))
        for sep, dense in zip(surface.partials(chart, u, v), surface.partials(chart, U, V)):
            assert same_bits(sep, dense)
        assert same_bits(surface.weights(chart, u, v), surface.weights(chart, U, V))
