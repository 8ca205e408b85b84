"""A single point is a batch of one row.

Every kernel on ambient (..., 6) arrays, given row i alone, returns bitwise
the row-i value of the same call on a batch of rows.  That is what lets callers
with one point, one tangent vector or one plane use the batch kernels
directly, without scalar views on top.  The counting kernels take rows of
group samples, and one sample gives bitwise its row of a batch.

The per-node kernels of the perimeter integral (plane_area, the J and J'
pairings, the Lagrangian semiaxes and the ellipse perimeter) work in place
on as few passes as they can; each equals, bit for bit and refusal for
refusal, the plainer form it replaced, kept in helpers as its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    ellipse_perimeter_reference,
    field_batch,
    lagrangian_semiaxes_reference,
    orthonormal_pairs,
    plane_area_reference,
    structure_pairing_reference,
)
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


def same_outcome(kernel, reference, *args):
    """True when both calls raise the same error type, or return the same bits
    in the same shapes."""
    outcomes = []
    for fn in (kernel, reference):
        try:
            with np.errstate(all="ignore"):
                result = fn(*args)
        except Exception as error:   # the types are compared below
            outcomes.append(type(error))
        else:
            parts = result if isinstance(result, tuple) else (result,)
            outcomes.append([(np.shape(p), np.asarray(p).dtype, np.asarray(p).tobytes()) for p in parts])
    return outcomes[0] == outcomes[1]


finite_axis = st.floats(0.0, 1e308)
SEMIAXIS_PAIRS = st.one_of(
    st.tuples(finite_axis, finite_axis),
    finite_axis.map(lambda a: (a, a)),                                        # circles
    st.tuples(finite_axis, st.floats(0.0, 2e-8)).map(lambda t: (t[0], t[0] * t[1])),  # near-segments
    finite_axis.map(lambda a: (a, 0.0)),                                      # segments
    st.floats(0.0, 1.0).map(lambda s: ((1.0 + s) / 2.0, (1.0 - s) / 2.0)),   # Lagrangian normal planes
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (1e308, 1e308), (1e308, 0.0), (4.4e307, 4.3e307),
                     (1.0, 1e-8), (1.0, math.nextafter(1e-8, 0.0))]),
    st.tuples(st.floats(), st.floats()),                                      # nan, inf, negatives
)


@given(st.lists(SEMIAXIS_PAIRS, min_size=1, max_size=12), st.booleans())
@example([(1.0, 0.5), (-1.0, math.nan)], False)
@example([(1.0, 0.5), (-1.0, 2.0)], True)
@example([(1e308, 0.9e308), (1.0, 0.0)], False)
def test_ellipse_perimeter_matches_its_reference(pairs, swap):
    a, b = np.array(pairs).reshape(-1, 2).T
    if swap:
        a, b = b, a
    assert same_outcome(ellipse_perimeter_batch, ellipse_perimeter_reference, a, b)
    assert same_outcome(ellipse_perimeter_batch, ellipse_perimeter_reference, a[0], b[0])
    assert same_outcome(ellipse_perimeter_batch, ellipse_perimeter_reference, a.reshape(-1, 1), b.reshape(-1, 1))


component = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 1e-300]))
row = st.lists(component, min_size=6, max_size=6)
PLANE_PAIRS = st.one_of(
    st.tuples(row, row),
    st.tuples(row, st.floats(-3.0, 3.0)).map(lambda t: (t[0], [t[1] * x for x in t[0]])),   # parallel
    st.tuples(row, row, st.floats(-1e-9, 1e-9)).map(                                        # nearly parallel
        lambda t: (t[0], [x + t[2] * y for x, y in zip(t[0], t[1])])),
    row.map(lambda r: (r, [0.0] * 6)),                                                         # a zero row
    st.sampled_from([([1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]), ([0.0] * 6, [0.0] * 6)]),
)


@given(st.lists(st.tuples(row, PLANE_PAIRS), min_size=1, max_size=12))
@example([([0.0] * 6, ([1.0] * 6, [-1.0] * 6))])   # every term -0.0: the pairing's sum from +0.0
def test_plane_kernels_match_their_references(rows):
    points = np.array([x for x, _ in rows])
    a = np.array([p for _, (p, _) in rows])
    b = np.array([q for _, (_, q) in rows])
    # C-ordered rows, and transposes of component-major rows as the quadrature's tiles are
    for x, u, v in [(points, a, b), tuple(np.ascontiguousarray(y.T).T for y in (points, a, b))]:
        assert same_outcome(plane_area, plane_area_reference, u, v)
        assert same_outcome(plane_area, plane_area_reference, u[0], v[0])
        assert same_outcome(lambda u, v: plane_area(u, v, out=np.empty(len(u))), plane_area_reference, u, v)
        for structure in ("J", "J'"):
            assert same_outcome(structure_pairing_batch, structure_pairing_reference, structure, x, u, v)
            # one base point against every plane: the broadcast path
            assert same_outcome(structure_pairing_batch, structure_pairing_reference, structure, x[0], u, v)
        area, _ = plane_area_reference(u, v)
        for scale in (area, 1.0):
            assert same_outcome(lagrangian_semiaxes_batch, lagrangian_semiaxes_reference, x, u, v, scale)
        assert same_outcome(lagrangian_semiaxes_batch, lagrangian_semiaxes_reference, x[0], u[0], v[0], area[0])
