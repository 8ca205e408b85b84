"""Haar-uniform sampling on SO(3) and SO(3) x SO(3), acting factor-wise on S2 x S2.

Sampling is counter based: the sample at index i is a deterministic function
of (seed, i) only, so results do not depend on batching or evaluation order.
Index i of a rotation stream consumes the Philox block i (four uniforms,
turned into four Gaussians by Box-Muller, normalized to a unit quaternion);
a group-element stream consumes blocks 2i and 2i+1.  A group element is a
pair of rotation matrices, so sample i alone is group_matrices(seed, i, 1),
bitwise row i of every batch that holds it.

Rotations are built component-major: the nine entries of a batch are the
rows of one (9, count) array, filled HAAR_CHUNK rotations at a time so that
the temporaries of a large draw stay cache-sized (about 1 MB whatever the
count).  The (count, 3, 3) matrices handed out are strided views of that
array, so a product such as r @ axis runs in numpy's own loop, which adds
the three products in order, rather than in a BLAS kernel whose rounding
depends on the machine.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

_PI2 = np.pi * np.pi

# Riemannian volumes in the normalization where the quotient is S2(1) x S2(1).
# VOL_G = VOL_SO3 ** 2 and VOL_G = VOL_K * VOL_GK hold exactly (same float
# product), which is the submersion consistency the verification chain needs.
VOL_SO3 = 8.0 * _PI2
VOL_G = VOL_SO3 * VOL_SO3
VOL_K = 4.0 * _PI2
VOL_GK = 16.0 * _PI2

HAAR_CHUNK = 1 << 13  # rotations per fill step; bounds the temporaries of a large draw


def quaternion_to_matrix(q, out=None):
    """3 x 3 rotation matrices from unit quaternions (w, x, y, z); broadcasts over leading axes.

    The nine row-major entries are written to the rows of out, a (9, ...)
    array (a fresh one when out is None), of which the (..., 3, 3) view is
    returned.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    R = np.empty((9,) + q.shape[:-1]) if out is None else out
    xx, yy, zz = x * x, y * y, z * z
    R[0] = 1 - 2 * (yy + zz)
    R[4] = 1 - 2 * (xx + zz)
    R[8] = 1 - 2 * (xx + yy)
    xy, wz = x * y, w * z
    R[1] = 2 * (xy - wz)
    R[3] = 2 * (xy + wz)
    xz, wy = x * z, w * y
    R[2] = 2 * (xz + wy)
    R[6] = 2 * (xz - wy)
    yz, wx = y * z, w * x
    R[5] = 2 * (yz - wx)
    R[7] = 2 * (yz + wx)
    return np.moveaxis(R.reshape((3, 3) + q.shape[:-1]), (0, 1), (-2, -1))


def _uniform_blocks(seed: int, start: int, count: int):
    """Four uniforms per index (one Philox block) at absolute stream positions."""
    if not 0 <= seed < 2 ** 128:
        raise InvalidInput(f"seed must be a Philox key, in [0, 2**128), got {seed}")
    bg = np.random.Philox(key=int(seed))
    bg.advance(int(start))
    return np.random.Generator(bg).random((count, 4))


def _box_muller(u):
    """Unit quaternions from the uniform blocks u (n, 4), as the rows of a (4, n) array.

    The norm sums its squares in the order np.linalg.norm does, so every
    quaternion keeps its bits.
    """
    u0, u1, u2, u3 = u.T
    tiny = np.finfo(float).tiny
    r1 = np.sqrt(-2.0 * np.log(np.maximum(u0, tiny)))
    r2 = np.sqrt(-2.0 * np.log(np.maximum(u2, tiny)))
    a1 = 2.0 * np.pi * u1
    a2 = 2.0 * np.pi * u3
    z = np.empty((4, len(u)))
    np.multiply(r1, np.cos(a1), out=z[0])
    np.multiply(r1, np.sin(a1), out=z[1])
    np.multiply(r2, np.cos(a2), out=z[2])
    np.multiply(r2, np.sin(a2), out=z[3])
    z /= np.sqrt(((z[0] * z[0] + z[1] * z[1]) + z[2] * z[2]) + z[3] * z[3])
    return z


def haar_quaternions(seed: int, start: int, count: int):
    """(count, 4) unit quaternions for stream indices start..start+count,
    the transposed view of their (4, count) component rows."""
    return _box_muller(_uniform_blocks(seed, start, count)).T


def _haar_entries(seed: int, start: int, count: int):
    """(9, count) row-major matrix entries of the rotations at stream indices
    start..start+count, filled HAAR_CHUNK rotations at a time."""
    entries = np.empty((9, count))
    for lo in range(0, count, HAAR_CHUNK):
        hi = min(lo + HAAR_CHUNK, count)
        quaternion_to_matrix(haar_quaternions(seed, start + lo, hi - lo), entries[:, lo:hi])
    return entries


def _matrices(entries):
    """The (count, 3, 3) view of (9, count) component-major entries."""
    return entries.reshape(3, 3, -1).transpose(2, 0, 1)


def haar_matrices(seed: int, start: int, count: int):
    """(count, 3, 3) Haar-uniform rotation matrices, one per stream index."""
    return _matrices(_haar_entries(seed, start, count))


def group_matrices(seed: int, start: int, count: int):
    """Two (count, 3, 3) rotation-matrix arrays for group-element stream indices:
    the even and odd rotations of the stream from 2 start, as strided views."""
    both = _matrices(_haar_entries(seed, 2 * start, 2 * count))
    return both[0::2], both[1::2]
