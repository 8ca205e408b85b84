import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    kahler_angle,
    normal_plane,
    omega_by_triple_product,
    orthonormal_pairs,
    orthonormalize,
    plane_from_invariants,
    projector,
    random_lagrangian_plane,
    random_product_point,
    random_tangent_vector,
    rotate_tangent_about_factors,
    tangent_frame,
    wedge,
    wedge_norm,
)
from s2xs2.geometry import plane_area, structure_pairing_batch

E4 = np.eye(4)


def e6(i):
    v = np.zeros(6)
    v[i] = 1.0
    return v


ORIGIN = np.array([0.0, 0, 1, 0, 0, 1])


def span_angle(V, W):
    """Wedge-norm angle of the spans of two orthonormal row lists."""
    return float(wedge_norm(np.concatenate([V, W], axis=0)))


def apply_j(x, rows):
    """J (u, v) = (p x u, q x v) at x on each row."""
    return np.concatenate([np.cross(x[:3], rows[..., :3]), np.cross(x[3:], rows[..., 3:])], axis=-1)


class TestSubspaceAngle:
    def test_orthogonal_complements(self):
        assert span_angle([e6(0), e6(1)], [e6(2), e6(3)]) == pytest.approx(1.0, abs=1e-14)

    def test_shared_vector_kills_wedge(self):
        assert span_angle([e6(0), e6(1)], [e6(0), e6(2)]) == pytest.approx(0.0, abs=1e-14)

    def test_tilted_pair_against_determinant_oracle(self):
        w1 = (e6(1) + e6(2)) / math.sqrt(2)
        rows = np.stack([e6(0), e6(1), w1, e6(3)])[:, :4]
        oracle = abs(np.linalg.det(rows))
        assert oracle == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        got = span_angle([e6(0)[:4], e6(1)[:4]], [w1[:4], e6(3)[:4]])
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_and_rebasing_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = random_product_point(rng)
            p = random_lagrangian_plane(rng, x)
            q = random_lagrangian_plane(rng, x)
            v, w = p, q
            base = span_angle(v, w)
            assert span_angle(w, v) == pytest.approx(base, abs=1e-10)
            ang = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(ang), np.sin(ang)
            v2 = [c * v[0] + s * v[1], -s * v[0] + c * v[1]]
            assert span_angle(v2, w) == pytest.approx(base, abs=1e-10)


class TestKahlerAngle:
    def test_complex_line_for_j(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, math.pi / 2)  # spans e1, e2
        assert kahler_angle(ORIGIN, plane, "J") == pytest.approx(0.0, abs=1e-12)

    def test_split_plane_is_lagrangian(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, 0.0)  # spans e1, e4
        assert kahler_angle(ORIGIN, plane, "J") == pytest.approx(math.pi / 2, abs=1e-12)

    def test_half_tilted_plane(self):
        # span{e1, (e2 + e3)/sqrt(2)}: <J e1, u2> = 1/sqrt(2), angle pi/4
        e1, e2, e3, _ = tangent_frame(ORIGIN)
        u2 = (e2 + e3) / math.sqrt(2)
        plane = np.stack([e1, u2])
        assert kahler_angle(ORIGIN, plane, "J") == pytest.approx(math.pi / 4, abs=1e-12)

    def test_cell_angles_match_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = random_product_point(rng)
            t1, t2 = rng.uniform(0, math.pi, 2)
            plane = plane_from_invariants(x, t1, t2)
            assert kahler_angle(x, plane, "J") == pytest.approx(
                math.acos(min(1.0, abs(math.cos(t1 - t2)))), abs=1e-10)
            assert kahler_angle(x, plane, "J'") == pytest.approx(
                math.acos(min(1.0, abs(math.cos(t1 + t2)))), abs=1e-10)

    def test_isotropy_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = random_product_point(rng)
            plane = plane_from_invariants(x, rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            base_j = kahler_angle(x, plane, "J")
            base_jp = kahler_angle(x, plane, "J'")
            phi, psi = rng.uniform(0, 2 * np.pi, 2)
            moved = np.stack([rotate_tangent_about_factors(x, b, phi, psi) for b in plane])
            assert kahler_angle(x, moved, "J") == pytest.approx(base_j, abs=1e-10)
            assert kahler_angle(x, moved, "J'") == pytest.approx(base_jp, abs=1e-10)

    def test_doubly_lagrangian_iff_split_plane(self):
        # both angles are pi/2 exactly when the plane spans one direction in
        # each factor, i.e. its projector has no cross-factor block
        grid = np.linspace(0, math.pi, 21)
        hits = 0
        for t1 in grid:
            for t2 in grid:
                plane = plane_from_invariants(ORIGIN, t1, t2)
                both = (abs(kahler_angle(ORIGIN, plane, "J") - math.pi / 2) < 1e-9
                        and abs(kahler_angle(ORIGIN, plane, "J'") - math.pi / 2) < 1e-9)
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


def tangent_pair(vectors, log_sin, log_scales):
    """A point x and tangent rows (du, dv) at x whose angle has sine 10^log_sin.

    vectors holds six 3-vectors: the two factor points (normalized), then the
    raw factor parts of du and of a second direction, projected to the
    tangent space; dv leaves du at the requested angle towards that direction.
    """
    p, q, u1, u2, w1, w2 = vectors
    assume(np.linalg.norm(p) > 0.1 and np.linalg.norm(q) > 0.1)
    x = np.concatenate([p / np.linalg.norm(p), q / np.linalg.norm(q)])

    def tangent(a, b):
        return np.concatenate([np.cross(x[:3], a), np.cross(x[3:], b)])

    du, w = tangent(u1, u2), tangent(w1, w2)
    assume(np.linalg.norm(du) > 1e-3)
    e1 = du / np.linalg.norm(du)
    w = w - (w @ e1) * e1
    assume(np.linalg.norm(w) > 1e-3)
    sin = 10.0 ** log_sin
    dv = math.sqrt(1.0 - sin * sin) * e1 + sin * (w / np.linalg.norm(w))
    return x, du * 10.0 ** log_scales[0], dv * 10.0 ** log_scales[1], sin


class TestPlaneArea:
    @settings(max_examples=300)
    @given(vectors=arrays(float, (6, 3), elements=st.floats(-1.0, 1.0)),
           log_sin=st.floats(-6.0, 0.0), log_scales=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    def test_raw_partials_cosine_matches_the_orthonormal_frame(self, vectors, log_sin, log_scales):
        # the J' cosine as the quadrature reads it, <J' du, dv> / |du ^ dv|, against
        # the pairing of the orthonormalized frame.  sqrt(EG - F^2) cancels as
        # 1/sin^2 of the angle, so the two agree to a few ulps of eps / sin^2
        x, du, dv, sin = tangent_pair(vectors, log_sin, log_scales)
        area, degenerate = plane_area(du, dv)
        t1, t2, bad = orthonormal_pairs(du, dv)
        assert not degenerate and not bad
        raw = structure_pairing_batch("J'", x, du, dv) / area
        framed = structure_pairing_batch("J'", x, t1, t2)
        assert abs(raw - framed) <= 4.0 * np.finfo(float).eps / (sin * sin)
        assert area == pytest.approx(np.linalg.norm(du) * np.linalg.norm(dv) * sin, rel=1e-9 / sin ** 2)

    def test_degenerate_mask_is_that_of_orthonormal_pairs(self):
        rng = np.random.default_rng(31)
        x = random_product_point(rng)
        du = random_tangent_vector(rng, x)
        w = random_tangent_vector(rng, x)
        w -= (w @ du) / (du @ du) * du
        w /= np.linalg.norm(w)
        e1 = du / np.linalg.norm(du)
        # EG - F^2 cancels below a sine of about 1e-8, so the cases keep to
        # angles the area element resolves: parallel rows (2 du keeps F^2 = EG
        # exact) and a sine of 1e-6
        cases = [
            (np.zeros(6), w), (du, np.zeros(6)), (du, 2.0 * du),     # a null row, parallel rows
            (du, e1 + 1e-6 * w), (du, w),
            (1e-15 * e1, w), (1e-13 * e1, w),                         # |du| below and above 1e-14
        ]
        a = np.array([c[0] for c in cases])
        b = np.array([c[1] for c in cases])
        _, degenerate = plane_area(a, b)
        _, _, bad = orthonormal_pairs(a, b)
        assert degenerate.tolist() == bad.tolist() == [True, True, True, False, False, True, False]

    def test_metric_sums_equal_einsum_on_c_ordered_rows_bitwise(self):
        # the quadrature's measure is w * area * dA; its area must be the one
        # the whole-grid quadrature took from np.einsum on (n, 6) arrays
        rng = np.random.default_rng(32)
        a, b = rng.normal(size=(2, 4096, 6))
        E, F, G = (np.einsum("...k,...k->...", *pair) for pair in ((a, a), (a, b), (b, b)))
        want = np.sqrt(np.maximum(E * G - F * F, 0.0))
        for rows in ((a, b), (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T)):
            area, _ = plane_area(*rows)
            assert area.tobytes() == want.tobytes()


class TestSymplecticForm:
    @settings(max_examples=300)
    @given(vectors=arrays(float, (6, 3), elements=st.floats(-1.0, 1.0)), log_sin=st.floats(-6.0, 0.0))
    def test_j_pairing_is_the_triple_product(self, vectors, log_sin):
        # omega(a, b) = <J a, b> = <p x a1, b1> + <q x a2, b2>, which is the
        # sum of triple products <p, a1 x b1> + <q, a2 x b2> term by term
        x, du, dv, _ = tangent_pair(vectors, log_sin, (0.0, 0.0))
        a = du / np.linalg.norm(du)
        assert abs(structure_pairing_batch("J", x, a, dv) - omega_by_triple_product(x, a, dv)) <= 1e-15

    def test_antisymmetry_on_equal_args(self):
        rng = np.random.default_rng(3)
        x = random_product_point(rng)
        u = random_tangent_vector(rng, x)
        assert structure_pairing_batch("J", x, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_oriented_frame_value(self):
        e1, e2, _, _ = tangent_frame(ORIGIN)
        # e2 = p x e1, so omega(e1, e2) = <p, e1 x (p x e1)> = 1
        assert structure_pairing_batch("J", ORIGIN, e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_on_product_torus_tangents(self):
        e1, _, e3, _ = tangent_frame(ORIGIN)
        assert structure_pairing_batch("J", ORIGIN, e1, e3) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_on_lagrangian_planes(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = random_product_point(rng)
            plane = random_lagrangian_plane(rng, x)
            val = structure_pairing_batch("J", x, plane[0], plane[1])
            assert abs(val) < 1e-10


class TestNormalPlane:
    def test_complement_of_first_factor_plane(self):
        plane = plane_from_invariants(ORIGIN, math.pi / 2, math.pi / 2)  # e1, e2
        comp = normal_plane(ORIGIN, plane)
        _, _, e3, e4 = tangent_frame(ORIGIN)
        expected = np.stack([e3, e4])
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
            jb = apply_j(x, plane)
            # J maps a Lagrangian plane onto its orthogonal complement
            assert span_angle(plane, jb) == pytest.approx(1.0, abs=1e-9)
            comp = normal_plane(x, plane)
            jplane = orthonormalize(jb)
            assert np.abs(projector(comp) - projector(jplane)).max() < 1e-9


class TestBivector:
    def test_unit_wedge(self):
        w = wedge(E4[0], E4[1])
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-15)
        assert np.dot(w, wedge(E4[2], E4[3])) == pytest.approx(0.0, abs=1e-15)

    def test_wedge_antisymmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 4))
        w1 = wedge(a, b)
        w2 = wedge(b, a)
        assert np.abs(w1 + w2).max() < 1e-14


class TestOrthonormalize:
    def test_skewed_basis(self):
        rows = np.array([[1.0, 0, 0, 0], [1.0, 1e-7, 0, 0], [0, 0, 1.0, 1.0]])
        q = orthonormalize(rows)
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([[1.0, 0, 0], [1.0, 0, 0]]))
