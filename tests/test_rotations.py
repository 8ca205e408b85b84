import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from helpers import act, group_quaternions, group_sample, random_product_point, random_tangent_vector
from s2xs2.errors import InvalidInput
from s2xs2.rotations import (
    HAAR_CHUNK,
    VOL_G,
    VOL_GK,
    VOL_K,
    VOL_SO3,
    group_matrices,
    haar_matrices,
    haar_quaternions,
    quaternion_to_matrix,
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
        assert VOL_G == VOL_SO3 ** 2


class TestRotationType:
    def test_matrix_orthogonality_bulk(self):
        mats = haar_matrices(99, 0, 100_000)
        err = np.abs(np.einsum("nij,nik->njk", mats, mats) - np.eye(3)).max()
        assert err < 1e-12
        dets = np.linalg.det(mats)
        assert np.abs(dets - 1.0).max() < 1e-10


class TestDeterminism:
    def test_rotation_index_addressing(self):
        batch = haar_quaternions(17, 0, 32)
        assert np.array_equal(batch[5], haar_quaternions(17, 5, 1)[0])
        assert np.array_equal(batch[20:30], haar_quaternions(17, 20, 10))
        assert np.array_equal(haar_matrices(17, 5, 1)[0], haar_matrices(17, 0, 32)[5])

    def test_group_index_addressing(self):
        q1, q2 = group_quaternions(23, 0, 16)
        q1b, q2b = group_quaternions(23, 7, 3)
        assert np.array_equal(q1[7:10], q1b)
        assert np.array_equal(q2[7:10], q2b)

    def test_stream_matches_indices(self):
        # sample i alone is bitwise row i of the batch, matrices included
        for seed in (3, 7, 12, 31):
            m1, m2 = group_matrices(seed, 0, 2000)
            for i in range(2000):
                r1, r2 = group_matrices(seed, i, 1)
                assert r1.tobytes() == m1[i].tobytes() and r2.tobytes() == m2[i].tobytes()

    def test_index_addressing_across_a_chunk_boundary(self):
        # rotations HAAR_CHUNK - 3 .. HAAR_CHUNK + 3 straddle the first chunk
        # boundary of the batch, and lie inside the single chunk of the short draw
        start, count = HAAR_CHUNK - 3, 7
        batch = haar_matrices(41, 0, 2 * HAAR_CHUNK)
        assert batch[start:start + count].tobytes() == haar_matrices(41, start, count).tobytes()
        m1, m2 = group_matrices(43, 0, 2 * HAAR_CHUNK)
        r1, r2 = group_matrices(43, start, count)
        assert m1[start:start + count].tobytes() == r1.tobytes()
        assert m2[start:start + count].tobytes() == r2.tobytes()

    def test_moved_axes_add_their_products_in_order(self):
        # the matrices are strided views, so r @ a is numpy's loop, not a BLAS kernel
        axis = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
        for r in (*group_matrices(47, 0, 5000), haar_matrices(47, 0, 5000)):
            in_order = (r[:, :, 0] * axis[0] + r[:, :, 1] * axis[1]) + r[:, :, 2] * axis[2]
            assert (r @ axis).tobytes() == in_order.tobytes()

    def test_seeds_differ(self):
        assert not np.array_equal(haar_quaternions(1, 0, 4), haar_quaternions(2, 0, 4))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, math.nan])
    def test_a_seed_that_is_no_philox_key_is_refused(self, seed):
        for draw in (haar_quaternions, haar_matrices, group_matrices):
            with pytest.raises(InvalidInput, match="Philox key"):
                draw(seed, 0, 4)
        assert haar_quaternions(2 ** 128 - 1, 0, 1).shape == (1, 4)


class TestMemory:
    def test_large_draw_peaks_at_its_output_plus_chunk_temporaries(self):
        count = 2 ** 20
        tracemalloc.start()
        try:
            mats = haar_matrices(5, 0, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mats.shape == (count, 3, 3)
        assert peak <= mats.nbytes + 2 * 2 ** 20


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
        axis = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
        h = quaternion_to_matrix(np.concatenate([[math.cos(0.617)], math.sin(0.617) * axis]))
        traces = np.trace(mats, axis1=1, axis2=2)
        traces_shifted = np.trace(h @ mats, axis1=1, axis2=2)
        p = stats.ks_2samp(traces, traces_shifted).pvalue
        assert p > 0.001


class TestAction:
    def test_identity_and_inverse(self):
        rng = np.random.default_rng(8)
        x = random_product_point(rng)
        r1, r2 = group_sample(5, 0)
        assert np.array_equal(act(np.eye(3), np.eye(3), x), x)
        y = act(r1.T, r2.T, act(r1, r2, x))
        assert np.abs(y - x).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(13)
        g = group_sample(99, 3)
        for _ in range(20):
            x, y = random_product_point(rng), random_product_point(rng)
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(act(*g, x) - act(*g, y))
            assert abs(d0 - d1) < 1e-12

    def test_tangent_action_preserves_tangency(self):
        rng = np.random.default_rng(21)
        x = random_product_point(rng)
        g = group_sample(50, 1)
        v = random_tangent_vector(rng, x)
        y = act(*g, x)
        w = act(*g, v)
        assert abs(np.dot(w[:3], y[:3])) < 1e-12
        assert abs(np.dot(w[3:], y[3:])) < 1e-12

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
