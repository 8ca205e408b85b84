"""Haar-uniform sampling on SO(3) and SO(3) x SO(3), and the action on S2 x S2.

Sampling is counter based: the sample at index i is a deterministic function
of (seed, i) only, so results do not depend on batching or evaluation order.
Index i of a rotation stream consumes the Philox block i (four uniforms,
turned into four Gaussians by Box-Muller, normalized to a unit quaternion);
a group-element stream consumes blocks 2i and 2i+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PI2 = np.pi * np.pi


@dataclass(frozen=True)
class MeasureConstants:
    """Riemannian volumes in the normalization where the quotient is S2(1) x S2(1).

    vol_g = vol_so3 ** 2 and vol_g = vol_k * vol_gk hold exactly (same float
    product), which is the submersion consistency the verification chain needs.
    """

    vol_so3: float = 8.0 * _PI2
    vol_g: float = (8.0 * _PI2) * (8.0 * _PI2)
    vol_k: float = 4.0 * _PI2
    vol_gk: float = 16.0 * _PI2


MEASURE = MeasureConstants()
VOL_SO3 = MEASURE.vol_so3
VOL_G = MEASURE.vol_g
VOL_K = MEASURE.vol_k
VOL_GK = MEASURE.vol_gk


def quaternion_to_matrix(q):
    """Rotation matrices from unit quaternions (w, x, y, z); broadcasts over leading axes."""
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


class Rotation:
    """An element of SO(3) stored as a unit quaternion; matrix derived on demand."""

    __slots__ = ("quaternion",)

    def __init__(self, quaternion):
        q = np.asarray(quaternion, dtype=float).reshape(4)
        if not np.isfinite(q).all():
            raise ValueError(f"quaternion must be finite, got {q}")
        n = np.linalg.norm(q)
        if n < 1e-14:
            raise ValueError("zero quaternion")
        q = q / n
        q.flags.writeable = False
        self.quaternion = q

    @classmethod
    def identity(cls):
        return cls([1.0, 0.0, 0.0, 0.0])

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = np.asarray(axis, dtype=float).reshape(3)
        n = np.linalg.norm(axis)
        if not (np.isfinite(n) and n >= 1e-14 and np.isfinite(angle)):
            raise ValueError(f"need a finite nonzero axis and a finite angle, got {axis}, {angle}")
        axis = axis / n
        half = 0.5 * angle
        return cls(np.concatenate([[np.cos(half)], np.sin(half) * axis]))

    @property
    def matrix(self):
        return quaternion_to_matrix(self.quaternion)

    def inverse(self):
        w, x, y, z = self.quaternion
        return Rotation([w, -x, -y, -z])

    def __mul__(self, other):
        a, b = self.quaternion, other.quaternion
        return Rotation([
            a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
        ])

    def apply_vec(self, v):
        return self.matrix @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class GroupElement:
    """An element of SO(3) x SO(3) acting factor-wise on S2 x S2."""

    first: Rotation
    second: Rotation

    @classmethod
    def identity(cls):
        return cls(Rotation.identity(), Rotation.identity())

    def inverse(self):
        return GroupElement(self.first.inverse(), self.second.inverse())


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


def group_element_at(seed: int, index: int) -> GroupElement:
    """Element i of a group-element stream: the scalar view of group_quaternions."""
    q1, q2 = group_quaternions(seed, index, 1)
    return GroupElement(Rotation(q1[0]), Rotation(q2[0]))
