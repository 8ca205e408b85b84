"""A single point is a batch of one row.

Every kernel on ambient (..., 6) arrays, given row i alone, returns bitwise
the row-i value of the same call on a batch of rows.  That is what lets callers
with one point, one tangent vector or one plane use the batch kernels
directly, without scalar views on top.  The counting kernels take rows of
group samples, and one sample gives bitwise its row of a batch.
"""

import numpy as np
import pytest

from helpers import field_batch, orthonormal_pairs
from s2xs2.geometry import plane_area, structure_pairing_batch
from s2xs2.hamiltonian import FlowParams, HamiltonianFunction, deform_surface, flow_points
from s2xs2.intersections import _CountingProblem, counts_product_batch, transversality_product_batch
from s2xs2.rotations import group_matrices
from s2xs2.sigma import (
    CellInvariants,
    cell_angles_batch,
    ellipse_perimeter_batch,
    lagrangian_semiaxes_batch,
    sigma_general,
    sigma_general_batch,
)
from s2xs2.surfaces import anti_diagonal, great_torus, latitude_torus, surface_quadrature

# 8 quadrature nodes of the anti-diagonal: the diagonal of chart 0's 8 x 8 grid
_NODES = next(surface_quadrature(anti_diagonal(), 8))
POINTS, DU, DV = (_NODES[key][::9] for key in ("points", "du", "dv"))
T1, T2, _ = orthonormal_pairs(DU, DV)
AREA, _ = plane_area(DU, DV)
# semiaxes on which the AGM settles after different numbers of iterations,
# so a single row stops earlier than the batch: Lagrangian ((1 + s)/2,
# (1 - s)/2) from a circle to a segment, a generic pair and a zero pair
_S = np.array([0.0, 1e-8, 0.3, 0.9, 1.0 - 1e-9, 1.0])
SEMIAXES = (np.concatenate([(1 + _S) / 2, [0.7, 0.0]]), np.concatenate([(1 - _S) / 2, [0.2, 0.0]]))
# invariant rows (theta1, theta2, tau1, tau2) that take each branch of the
# angle kernel's rule: a generic row, the A5 near-segment at theta = pi/64,
# a kink inside, kinks 1.9e-5 from either end, |K| >= R everywhere, R
# constant (P = Q) and all coefficients zero
INVARIANTS = np.array([
    [0.7, -0.2, 1.9, 0.4],
    [np.pi / 64, np.pi / 64 - np.pi / 2, np.pi / 2, 0.0],
    [-2.341478275900152, -1.3176381689926122, -1.1259437531783743, 4.950916904879859],
    [1.0, 0.4, 1.0 - 1e-9, 0.0],
    [0.4, 1.0, 1.0 - 1e-9, 0.0],
    [np.pi / 2, np.pi / 2 - 0.1, 0.05, 0.0],
    [np.pi / 4, -np.pi / 4, np.pi / 2, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
# the Hamiltonian and flow window of the deformed-chain benchmark
H = HamiltonianFunction({(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 1): 0.5})
PARAMS = FlowParams.for_time(0.5, 0.0125)

KERNELS = {
    "structure_pairing_batch-J": (lambda x, a, b: structure_pairing_batch("J", x, a, b), (POINTS, T1, T2)),
    "structure_pairing_batch-J'": (lambda x, a, b: structure_pairing_batch("J'", x, a, b), (POINTS, T1, T2)),
    "plane_area": (plane_area, (DU, DV)),
    "lagrangian_semiaxes_batch": (lagrangian_semiaxes_batch, (POINTS, DU, DV, AREA)),
    "cell_angles_batch": (cell_angles_batch, (POINTS, DU, DV, AREA)),
    "ellipse_perimeter_batch": (ellipse_perimeter_batch, SEMIAXES),
    "sigma_general_batch": (sigma_general_batch, (INVARIANTS,)),
    # the scalar wrapper on one row, the batch kernel on the batch
    "sigma_general": (lambda inv: sigma_general(CellInvariants(*inv)) if inv.ndim == 1 else sigma_general_batch(inv),
                      (INVARIANTS,)),
    "field_batch": (lambda x: field_batch(H, x), (POINTS,)),
    "flow_points": (lambda x: flow_points(H, x, PARAMS), (POINTS,)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_one_row_is_row_zero_of_the_batch(name):
    kernel, args = KERNELS[name]
    assert all(len(a) == 8 for a in args)
    batch = kernel(*args)
    # every row, not only row 0: the rows take different branches
    for i in range(8):
        one = kernel(*(a[i] for a in args))
        pairs = zip(one, batch) if isinstance(one, tuple) else [(one, batch)]
        for single, rows in pairs:
            single, rows = np.asarray(single), np.asarray(rows)
            assert single.shape == rows.shape[1:] and single.dtype == rows.dtype
            assert single.tobytes() == rows[i].tobytes()


# the counting kernels take a batch of group samples (r1, r2), each (S, 3, 3),
# and sample i alone is group_matrices(seed, i, 1): given that one row, a
# kernel returns bitwise row i of the batch, for every i of a 64-sample batch
SAMPLES = group_matrices(5, 0, 64)
PAIR = (latitude_torus(0.3, -0.2), latitude_torus(0.1, 0.4))


COUNTERS = {
    "counts_product_batch": lambda: lambda r1, r2: counts_product_batch(PAIR[0], r1, r2, PAIR[1]),
    "transversality_product_batch":
        lambda: lambda r1, r2: transversality_product_batch(PAIR[0], r1, r2, PAIR[1]),
    "run_batch-anti-diagonal": lambda: _CountingProblem(anti_diagonal(), great_torus(), 128).run_batch,
    "run_batch-anti-diagonal-latitude":
        lambda: _CountingProblem(anti_diagonal(), latitude_torus(0.3, -0.5), 128).run_batch,
    "run_batch-deformed-chain":
        lambda: _CountingProblem(deform_surface(H, great_torus(), PARAMS, m=128), great_torus(), 128).run_batch,
}


def sample_rows(result):
    """Per-sample byte strings of a counting kernel's result: arrays or tuples
    of arrays indexed by sample, or run_batch's list of outcomes."""
    if isinstance(result, list):
        return [(status, count, np.float64(trans).tobytes(), np.array(points).tobytes())
                for status, count, trans, points in result]
    parts = result if isinstance(result, tuple) else (result,)
    return [tuple(np.asarray(p)[i].tobytes() for p in parts) for i in range(len(parts[0]))]


@pytest.mark.parametrize("name", COUNTERS)
def test_one_sample_is_its_row_of_the_batch(name):
    kernel = COUNTERS[name]()
    r1, r2 = SAMPLES
    batch = sample_rows(kernel(r1, r2))
    assert len(batch) == 64
    for i in range(64):
        assert sample_rows(kernel(r1[i:i + 1], r2[i:i + 1])) == [batch[i]]
