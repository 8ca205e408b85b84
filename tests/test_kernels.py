"""A single point is a batch of one row.

Every kernel on ambient (..., 6) arrays, given one row, returns bitwise the
row-0 value of the same call on a batch of rows.  That is what lets callers
with one point, one tangent vector or one plane use the batch kernels
directly, without scalar views on top.
"""

import numpy as np
import pytest

from s2xs2.geometry import omega_batch, orthonormal_pairs, structure_pairing_batch, wedge_norm
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, field_batch, flow_points
from s2xs2.sigma import cell_angles_batch, lagrangian_semiaxes_batch
from s2xs2.surfaces import anti_diagonal, surface_quadrature

# 8 quadrature nodes of the anti-diagonal: the diagonal of chart 0's 8 x 8 grid
_NODES = next(surface_quadrature(anti_diagonal(), 8))
POINTS, DU, DV = (_NODES[key][::9] for key in ("points", "du", "dv"))
T1, T2, _ = orthonormal_pairs(DU, DV)
# each node's tangent plane against that of a product of circles through it,
# about the axes (1, 2, 3) and (-2, 1, 0.5), as the contour counter's
# transversality pairs them: (8, 4, 6) row stacks
_LAT = np.cross([[1.0, 2.0, 3.0], [-2.0, 1.0, 0.5]], POINTS.reshape(8, 2, 3))
_LAT /= np.linalg.norm(_LAT, axis=-1, keepdims=True)
STACKS = np.concatenate([np.stack([T1, T2], axis=1), np.zeros((8, 2, 6))], axis=1)
STACKS[:, 2, :3], STACKS[:, 3, 3:] = _LAT[:, 0], _LAT[:, 1]
# the Hamiltonian and flow window of the deformed-chain benchmark
H = HamiltonianFunction({(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 1): 0.5})
PARAMS = FlowParams.for_time(0.5, 0.0125)

KERNELS = {
    "structure_pairing_batch-J": (lambda x, a, b: structure_pairing_batch("J", x, a, b), (POINTS, T1, T2)),
    "structure_pairing_batch-J'": (lambda x, a, b: structure_pairing_batch("J'", x, a, b), (POINTS, T1, T2)),
    "omega_batch": (omega_batch, (POINTS, T1, T2)),
    "orthonormal_pairs": (orthonormal_pairs, (DU, DV)),
    "lagrangian_semiaxes_batch": (lagrangian_semiaxes_batch, (POINTS, T1, T2)),
    "cell_angles_batch": (cell_angles_batch, (POINTS, T1, T2)),
    "wedge_norm": (wedge_norm, (STACKS,)),
    "field_batch": (lambda x: field_batch(H, x), (POINTS,)),
    "flow_points": (lambda x: flow_points(H, x, PARAMS), (POINTS,)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_one_row_is_row_zero_of_the_batch(name):
    kernel, args = KERNELS[name]
    assert all(len(a) == 8 for a in args)
    one = kernel(*(a[0] for a in args))
    batch = kernel(*args)
    pairs = zip(one, batch) if isinstance(one, tuple) else [(one, batch)]
    for single, rows in pairs:
        single, rows = np.asarray(single), np.asarray(rows)
        assert single.shape == rows.shape[1:] and single.dtype == rows.dtype
        assert single.tobytes() == rows[0].tobytes()
