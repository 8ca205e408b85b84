"""Haar-uniform sampling on SO(3) and SO(3) x SO(3), acting factor-wise on S2 x S2.

Sampling is counter based: the sample at index i is a deterministic function
of (seed, i) only, so results do not depend on batching or evaluation order.
Index i of a rotation stream consumes the Philox block i (four uniforms,
turned into four Gaussians by Box-Muller, normalized to a unit quaternion);
a group-element stream consumes blocks 2i and 2i+1.  A group element is a
pair of rotation matrices, so sample i alone is group_matrices(seed, i, 1),
bitwise row i of every batch that holds it.
"""

from __future__ import annotations

import numpy as np

_PI2 = np.pi * np.pi

# Riemannian volumes in the normalization where the quotient is S2(1) x S2(1).
# VOL_G = VOL_SO3 ** 2 and VOL_G = VOL_K * VOL_GK hold exactly (same float
# product), which is the submersion consistency the verification chain needs.
VOL_SO3 = 8.0 * _PI2
VOL_G = VOL_SO3 * VOL_SO3
VOL_K = 4.0 * _PI2
VOL_GK = 16.0 * _PI2


def quaternion_to_matrix(q):
    """3 x 3 rotation matrices from unit quaternions (w, x, y, z); broadcasts over leading axes."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _uniform_blocks(seed: int, start: int, count: int):
    """Four uniforms per index (one Philox block) at absolute stream positions."""
    bg = np.random.Philox(key=int(seed))
    bg.advance(int(start))
    return np.random.Generator(bg).random((count, 4))


def _box_muller(u):
    tiny = np.finfo(float).tiny
    r1 = np.sqrt(-2.0 * np.log(np.maximum(u[..., 0], tiny)))
    r2 = np.sqrt(-2.0 * np.log(np.maximum(u[..., 2], tiny)))
    a1 = 2.0 * np.pi * u[..., 1]
    a2 = 2.0 * np.pi * u[..., 3]
    return np.stack([r1 * np.cos(a1), r1 * np.sin(a1), r2 * np.cos(a2), r2 * np.sin(a2)], axis=-1)


def haar_quaternions(seed: int, start: int, count: int):
    """(count, 4) unit quaternions for stream indices start..start+count."""
    z = _box_muller(_uniform_blocks(seed, start, count))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def haar_matrices(seed: int, start: int, count: int):
    """(count, 3, 3) Haar-uniform rotation matrices, one per stream index."""
    return quaternion_to_matrix(haar_quaternions(seed, start, count))


def group_quaternions(seed: int, start: int, count: int):
    """Two (count, 4) quaternion arrays for group-element stream indices."""
    q = haar_quaternions(seed, 2 * start, 2 * count).reshape(count, 2, 4)
    return q[:, 0, :], q[:, 1, :]


def group_matrices(seed: int, start: int, count: int):
    """Two (count, 3, 3) rotation-matrix arrays for group-element stream indices."""
    q1, q2 = group_quaternions(seed, start, count)
    return quaternion_to_matrix(q1), quaternion_to_matrix(q2)
