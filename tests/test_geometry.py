import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    projector,
    random_lagrangian_plane,
    random_product_point,
    random_tangent_vector,
)
from s2xs2.errors import NonOrthonormalInput, NotTangent
from s2xs2.geometry import (
    Bivector,
    ProductPoint,
    SpherePoint,
    TangentPlane,
    TangentVector,
    apply_structure,
    kahler_angle,
    normal_plane,
    orthonormalize,
    plane_from_invariants,
    rotate_tangent_about_factors,
    structure_pairing_batch,
    subspace_angle,
    symplectic_form,
    tangent_frame,
)

E4 = np.eye(4)


def e6(i):
    v = np.zeros(6)
    v[i] = 1.0
    return v


ORIGIN = ProductPoint(SpherePoint([0, 0, 1]), SpherePoint([0, 0, 1]))


class TestSubspaceAngle:
    def test_orthogonal_complements(self):
        assert subspace_angle([e6(0), e6(1)], [e6(2), e6(3)]) == pytest.approx(1.0, abs=1e-14)

    def test_shared_vector_kills_wedge(self):
        assert subspace_angle([e6(0), e6(1)], [e6(0), e6(2)]) == pytest.approx(0.0, abs=1e-14)

    def test_tilted_pair_against_determinant_oracle(self):
        w1 = (e6(1) + e6(2)) / math.sqrt(2)
        rows = np.stack([e6(0), e6(1), w1, e6(3)])[:, :4]
        oracle = abs(np.linalg.det(rows))
        assert oracle == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        got = subspace_angle([e6(0)[:4], e6(1)[:4]], [w1[:4], e6(3)[:4]])
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NonOrthonormalInput):
            subspace_angle([e6(0), 0.5 * e6(1)], [e6(2)])

    def test_rejects_overfull_system(self):
        with pytest.raises(ValueError):
            subspace_angle([e6(0)[:4], e6(1)[:4]], [e6(2)[:4], e6(3)[:4], (e6(1) + e6(2))[:4] / math.sqrt(2)])

    def test_symmetry_and_rebasing_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = random_product_point(rng)
            p = random_lagrangian_plane(rng, x)
            q = random_lagrangian_plane(rng, x)
            v = [b.ambient for b in p.basis]
            w = [b.ambient for b in q.basis]
            base = subspace_angle(v, w)
            assert subspace_angle(w, v) == pytest.approx(base, abs=1e-10)
            ang = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(ang), np.sin(ang)
            v2 = [c * v[0] + s * v[1], -s * v[0] + c * v[1]]
            assert subspace_angle(v2, w) == pytest.approx(base, abs=1e-10)


class TestKahlerAngle:
    def test_complex_line_for_j(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, math.pi / 2)  # spans e1, e2
        assert kahler_angle(plane, "J") == pytest.approx(0.0, abs=1e-12)

    def test_split_plane_is_lagrangian(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, 0.0)  # spans e1, e4
        assert kahler_angle(plane, "J") == pytest.approx(math.pi / 2, abs=1e-12)

    def test_half_tilted_plane(self):
        # span{e1, (e2 + e3)/sqrt(2)}: <J e1, u2> = 1/sqrt(2), angle pi/4
        e1, e2, e3, _ = tangent_frame(ORIGIN)
        u2 = (e2.ambient + e3.ambient) / math.sqrt(2)
        plane = TangentPlane.from_ambient(ORIGIN, e1.ambient, u2)
        assert kahler_angle(plane, "J") == pytest.approx(math.pi / 4, abs=1e-12)

    def test_rejects_bad_basis(self):
        e1, e2, _, _ = tangent_frame(ORIGIN)
        with pytest.raises(NonOrthonormalInput):
            TangentPlane.from_ambient(ORIGIN, e1.ambient, 0.3 * e2.ambient)

    def test_cell_angles_match_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = random_product_point(rng)
            t1, t2 = rng.uniform(0, math.pi, 2)
            plane = plane_from_invariants(x, t1, t2)
            assert kahler_angle(plane, "J") == pytest.approx(
                math.acos(min(1.0, abs(math.cos(t1 - t2)))), abs=1e-10)
            assert kahler_angle(plane, "J'") == pytest.approx(
                math.acos(min(1.0, abs(math.cos(t1 + t2)))), abs=1e-10)

    def test_isotropy_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = random_product_point(rng)
            plane = plane_from_invariants(x, rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            base_j = kahler_angle(plane, "J")
            base_jp = kahler_angle(plane, "J'")
            phi, psi = rng.uniform(0, 2 * np.pi, 2)
            moved = TangentPlane(x, tuple(
                rotate_tangent_about_factors(x, b, phi, psi) for b in plane.basis))
            assert kahler_angle(moved, "J") == pytest.approx(base_j, abs=1e-10)
            assert kahler_angle(moved, "J'") == pytest.approx(base_jp, abs=1e-10)

    def test_doubly_lagrangian_iff_split_plane(self):
        # both angles are pi/2 exactly when the plane spans one direction in
        # each factor, i.e. its projector has no cross-factor block
        grid = np.linspace(0, math.pi, 21)
        hits = 0
        for t1 in grid:
            for t2 in grid:
                plane = plane_from_invariants(ORIGIN, t1, t2)
                both = (abs(kahler_angle(plane, "J") - math.pi / 2) < 1e-9
                        and abs(kahler_angle(plane, "J'") - math.pi / 2) < 1e-9)
                proj = projector(plane)
                is_split = (np.abs(proj[:3, 3:]).max() < 1e-9
                            and abs(np.trace(proj[:3, :3]) - 1.0) < 1e-9)
                assert both == is_split, (t1, t2)
                hits += both
        assert hits == 4  # (t1, t2) in {0, pi/2, pi}^2 with |t1 -+ t2| = pi/2


def np_cross_pairing(structure, points, a, b):
    """<J a, b> through np.cross: the form the batch kernel replaced, kept as its reference."""
    sign = 1.0 if structure == "J" else -1.0
    ja1 = np.cross(points[..., :3], a[..., :3])
    ja2 = sign * np.cross(points[..., 3:], a[..., 3:])
    return np.sum(ja1 * b[..., :3], axis=-1) + np.sum(ja2 * b[..., 3:], axis=-1)


class TestStructurePairingBatch:
    @given(rows=st.integers(1, 40).flatmap(
        lambda n: arrays(float, (3, n, 6), elements=st.floats(-4.0, 4.0, width=64))))
    @example(rows=np.zeros((3, 2, 6)))
    @example(rows=np.full((3, 2, 6), -0.0))
    def test_components_equal_np_cross_bitwise(self, rows):
        points, a, b = rows
        for structure in ("J", "J'"):
            got = structure_pairing_batch(structure, points, a, b)
            want = np_cross_pairing(structure, points, a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSymplecticForm:
    def test_antisymmetry_on_equal_args(self):
        rng = np.random.default_rng(3)
        x = random_product_point(rng)
        u = random_tangent_vector(rng, x)
        assert symplectic_form(x, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_oriented_frame_value(self):
        e1, e2, _, _ = tangent_frame(ORIGIN)
        # e2 = p x e1, so omega(e1, e2) = <p, e1 x (p x e1)> = 1
        assert symplectic_form(ORIGIN, e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_on_product_torus_tangents(self):
        e1, _, e3, _ = tangent_frame(ORIGIN)
        assert symplectic_form(ORIGIN, e1, e3) == pytest.approx(0.0, abs=1e-14)

    def test_not_tangent_raises(self):
        with pytest.raises(NotTangent):
            symplectic_form(ORIGIN, TangentVector([0, 0, 1], [1, 0, 0]), TangentVector([1, 0, 0], [0, 1, 0]))

    def test_vanishes_on_lagrangian_planes(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            val = symplectic_form(x, plane.basis[0], plane.basis[1])
            assert abs(val) < 1e-10


class TestNormalPlane:
    def test_complement_of_first_factor_plane(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, math.pi / 2)  # e1, e2
        comp = normal_plane(ORIGIN, plane)
        _, _, e3, e4 = tangent_frame(ORIGIN)
        expected = TangentPlane(ORIGIN, (e3, e4))
        assert np.abs(projector(comp) - projector(expected)).max() < 1e-12

    def test_involution_spans_same_subspace(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            again = normal_plane(x, normal_plane(x, plane))
            assert np.abs(projector(again) - projector(plane)).max() < 1e-10

    def test_lagrangian_normal_is_structure_image(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            jb = [apply_structure("J", x, b).ambient for b in plane.basis]
            # J maps a Lagrangian plane onto its orthogonal complement
            assert subspace_angle([b.ambient for b in plane.basis], jb) == pytest.approx(1.0, abs=1e-9)
            comp = normal_plane(x, plane)
            jplane = TangentPlane.from_ambient(x, *orthonormalize(np.stack(jb)))
            assert np.abs(projector(comp) - projector(jplane)).max() < 1e-9


class TestBivector:
    def test_unit_wedge(self):
        w = Bivector.wedge(E4[0], E4[1])
        assert w.norm() == pytest.approx(1.0, abs=1e-15)
        assert w.inner(Bivector.wedge(E4[2], E4[3])) == pytest.approx(0.0, abs=1e-15)

    def test_wedge_antisymmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 4))
        w1 = Bivector.wedge(a, b).components
        w2 = Bivector.wedge(b, a).components
        assert np.abs(w1 + w2).max() < 1e-14


class TestOrthonormalize:
    def test_skewed_basis(self):
        rows = np.array([[1.0, 0, 0, 0], [1.0, 1e-7, 0, 0], [0, 0, 1.0, 1.0]])
        q = orthonormalize(rows)
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([[1.0, 0, 0], [1.0, 0, 0]]))


class TestTypes:
    def test_sphere_point_renormalizes(self):
        p = SpherePoint([0, 0, 2.0])
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)

    def test_tangent_plane_requires_tangency(self):
        with pytest.raises(NotTangent):
            TangentPlane.from_ambient(ORIGIN, np.array([0, 0, 1.0, 0, 0, 0]), e6(1))

    def test_product_point_ambient_roundtrip(self):
        x = ProductPoint.from_ambient([1, 0, 0, 0, 1, 0])
        assert np.array_equal(x.ambient, np.array([1.0, 0, 0, 0, 1.0, 0]))
