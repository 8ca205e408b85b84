import math

import numpy as np
import pytest
from scipy import stats

from helpers import random_product_point
from s2xs2.rotations import (
    MEASURE,
    VOL_G,
    VOL_GK,
    VOL_K,
    VOL_SO3,
    GroupElement,
    Rotation,
    apply,
    apply_tangent,
    group_element_at,
    group_matrices,
    group_quaternions,
    haar_matrices,
    haar_quaternions,
)


class TestMeasureConstants:
    def test_values(self):
        assert VOL_SO3 == pytest.approx(8 * math.pi ** 2, rel=1e-15)
        assert VOL_G == pytest.approx(64 * math.pi ** 4, rel=1e-15)
        assert VOL_K == pytest.approx(4 * math.pi ** 2, rel=1e-15)
        assert VOL_GK == pytest.approx(16 * math.pi ** 2, rel=1e-15)

    def test_exact_identities(self):
        # bit-exact by construction, not approximately
        assert VOL_G == VOL_SO3 * VOL_SO3
        assert VOL_G == VOL_K * VOL_GK
        assert MEASURE.vol_g == MEASURE.vol_so3 ** 2


class TestRotationType:
    def test_matrix_orthogonality_bulk(self):
        mats = haar_matrices(99, 0, 100_000)
        err = np.abs(np.einsum("nij,nik->njk", mats, mats) - np.eye(3)).max()
        assert err < 1e-12
        dets = np.linalg.det(mats)
        assert np.abs(dets - 1.0).max() < 1e-10

    def test_axis_angle_and_inverse(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi)
        v = r.apply_vec([1.0, 0.0, 0.0])
        assert np.allclose(v, [-1.0, 0.0, 0.0], atol=1e-12)
        back = (r.inverse() * r).apply_vec([0.3, 0.4, 0.5])
        assert np.allclose(back, [0.3, 0.4, 0.5], atol=1e-12)

    @pytest.mark.parametrize("axis, angle", [
        ([0, 0, 0], 1.0), ([math.nan, 0, 1], 1.0), ([math.inf, 0, 1], 1.0),
        ([0, 0, 1], math.nan), ([0, 0, 1], math.inf),
    ])
    def test_axis_angle_rejects_zero_or_non_finite(self, axis, angle):
        with pytest.raises(ValueError):
            Rotation.from_axis_angle(axis, angle)

    @pytest.mark.parametrize("quaternion", [[math.nan, 0, 0, 0], [1, math.inf, 0, 0], [0, 0, 0, 0]])
    def test_rejects_zero_or_non_finite_quaternion(self, quaternion):
        with pytest.raises(ValueError):
            Rotation(quaternion)


class TestDeterminism:
    def test_rotation_index_addressing(self):
        batch = haar_quaternions(17, 0, 32)
        assert np.array_equal(batch[5], haar_quaternions(17, 5, 1)[0])
        assert np.array_equal(batch[20:30], haar_quaternions(17, 20, 10))
        assert np.array_equal(Rotation(haar_quaternions(17, 5, 1)[0]).quaternion,
                              batch[5] / np.linalg.norm(batch[5]))

    def test_group_index_addressing(self):
        q1, q2 = group_quaternions(23, 0, 16)
        q1b, q2b = group_quaternions(23, 7, 3)
        assert np.array_equal(q1[7:10], q1b)
        assert np.array_equal(q2[7:10], q2b)

    def test_stream_matches_indices(self):
        q1, q2 = group_quaternions(31, 0, 8)
        for i in range(8):
            g = group_element_at(31, i)
            assert np.array_equal(g.first.quaternion, q1[i] / np.linalg.norm(q1[i]))
            assert np.array_equal(g.second.quaternion, q2[i] / np.linalg.norm(q2[i]))

    def test_seeds_differ(self):
        assert not np.array_equal(haar_quaternions(1, 0, 4), haar_quaternions(2, 0, 4))


class TestHaarMoments:
    def test_first_and_second_moments(self):
        n = 100_000
        mats = haar_matrices(12345, 0, n)
        r11 = mats[:, 0, 0]
        for values, expected in ((r11, 0.0), (r11 ** 2, 1.0 / 3.0),
                                 (np.trace(mats, axis1=1, axis2=2), 0.0)):
            se = values.std(ddof=1) / math.sqrt(n)
            assert abs(values.mean() - expected) < 3 * se

    def test_componentwise_group_moments(self):
        n = 50_000
        m1, m2 = group_matrices(54321, 0, n)
        for mats in (m1, m2):
            sq = mats[:, 0, 0] ** 2
            se = sq.std(ddof=1) / math.sqrt(n)
            assert abs(sq.mean() - 1.0 / 3.0) < 3 * se

    def test_left_invariance_kolmogorov_smirnov(self):
        n = 100_000
        mats = haar_matrices(777, 0, n)
        h = Rotation.from_axis_angle([0.3, -0.5, 0.8], 1.234).matrix
        traces = np.trace(mats, axis1=1, axis2=2)
        traces_shifted = np.trace(h @ mats, axis1=1, axis2=2)
        p = stats.ks_2samp(traces, traces_shifted).pvalue
        assert p > 0.001


class TestAction:
    def test_identity_and_inverse(self):
        rng = np.random.default_rng(8)
        x = random_product_point(rng)
        g = group_element_at(5, 0)
        assert apply(GroupElement.identity(), x) == x
        y = apply(g.inverse(), apply(g, x))
        assert np.abs(y.ambient - x.ambient).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(13)
        g = group_element_at(99, 3)
        for _ in range(20):
            x, y = random_product_point(rng), random_product_point(rng)
            d0 = np.linalg.norm(x.ambient - y.ambient)
            d1 = np.linalg.norm(apply(g, x).ambient - apply(g, y).ambient)
            assert abs(d0 - d1) < 1e-12

    def test_tangent_action_preserves_tangency(self):
        rng = np.random.default_rng(21)
        x = random_product_point(rng)
        g = group_element_at(50, 1)
        from helpers import random_tangent_vector
        v = random_tangent_vector(rng, x)
        y = apply(g, x)
        w = apply_tangent(g, v)
        assert abs(np.dot(w.first, y.first.coords)) < 1e-12
        assert abs(np.dot(w.second, y.second.coords)) < 1e-12

    def test_pushforward_of_uniform_points_is_uniform(self):
        n = 40_000
        rng = np.random.default_rng(2024)
        m1, m2 = group_matrices(31337, 0, n)
        for mats in (m1, m2):
            pts = rng.normal(size=(n, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            moved = np.einsum("nij,nj->ni", mats, pts)
            octant = (moved[:, 0] > 0) * 4 + (moved[:, 1] > 0) * 2 + (moved[:, 2] > 0)
            counts = np.bincount(octant, minlength=8)
            p = stats.chisquare(counts).pvalue
            assert p > 0.001
