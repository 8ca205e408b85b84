import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import pushforward, random_product_point, random_tangent_vector
from s2xs2.errors import DegreeTooHigh, StepSizeTooLarge
from s2xs2.geometry import omega_batch
from s2xs2.hamiltonian import (
    MAX_STEPS,
    FlowParams,
    HamiltonianFunction,
    deform_surface,
    field_batch,
    flow_points,
)
from s2xs2.surfaces import TWO_PI, MeshSurface, great_torus, lagrangian_defect, volume

FOUR_PI_SQ = 4 * math.pi ** 2

H_HEIGHT = HamiltonianFunction({(0, 0, 1, 0, 0, 0): 1.0})          # z1
H_COUPLED = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 1.0})         # z1 z2
H_MIXED = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 0.3, (1, 0, 0, 0, 0, 0): 0.2})


def random_points(rng, n):
    x = rng.normal(size=(n, 6))
    x[:, :3] /= np.linalg.norm(x[:, :3], axis=1, keepdims=True)
    x[:, 3:] /= np.linalg.norm(x[:, 3:], axis=1, keepdims=True)
    return x


# ---------------------------------------------------------------------------
# reference evaluation: every monomial as np.prod(X ** exp) over all six
# columns, and the point-major RK4 loop built on it with np.cross and
# np.linalg.norm.  The module evaluates from derivative tables on
# component-major columns; square-free monomials round identically.
# ---------------------------------------------------------------------------

def reference_value(H, X):
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[:-1])
    for exp, c in H.terms.items():
        out += c * np.prod(X ** np.array(exp), axis=-1)
    return out


def reference_gradient(H, X):
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    for exp, c in H.terms.items():
        exp = np.array(exp)
        for j in range(6):
            if exp[j] == 0:
                continue
            dexp = exp.copy()
            dexp[j] -= 1
            out[..., j] += c * exp[j] * np.prod(X ** dexp, axis=-1)
    return out


def _reference_renormalized(X):
    X = np.array(X, dtype=float)
    X[..., :3] /= np.linalg.norm(X[..., :3], axis=-1, keepdims=True)
    X[..., 3:] /= np.linalg.norm(X[..., 3:], axis=-1, keepdims=True)
    return X


def _reference_field(H, X):
    G = reference_gradient(H, X)
    out = np.empty_like(X)
    out[..., :3] = np.cross(G[..., :3], X[..., :3])
    out[..., 3:] = np.cross(G[..., 3:], X[..., 3:])
    return out


def reference_flow(H, X, params):
    X = _reference_renormalized(X)
    dt = params.dt
    for _ in range(params.steps):
        k1 = _reference_field(H, X)
        k2 = _reference_field(H, _reference_renormalized(X + (0.5 * dt) * k1))
        k3 = _reference_field(H, _reference_renormalized(X + (0.5 * dt) * k2))
        k4 = _reference_field(H, _reference_renormalized(X + dt * k3))
        X = _reference_renormalized(X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return X


def _monomial(variables):
    return tuple(variables.count(i) for i in range(6))


coefficients = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0)
cubic_polynomials = st.dictionaries(
    st.lists(st.integers(0, 5), max_size=3).map(_monomial), coefficients, min_size=1, max_size=8,
).map(HamiltonianFunction)
# monomials none of whose partial derivatives has a squared factor: the
# square-free ones of degree <= 3 and the pure squares x_i^2
square_free_derivative_polynomials = st.dictionaries(
    st.one_of(st.sets(st.integers(0, 5), max_size=3).map(lambda vs: _monomial(sorted(vs))),
              st.integers(0, 5).map(lambda i: _monomial([i, i]))),
    coefficients, min_size=1, max_size=8,
).map(HamiltonianFunction)
point_seeds = st.integers(0, 2 ** 32 - 1)


def _absolute(H):
    return HamiltonianFunction({exp: abs(c) for exp, c in H.terms.items()})


class TestHamiltonianFunction:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        H = HamiltonianFunction({
            (1, 1, 1, 0, 0, 0): 0.4,
            (0, 0, 2, 0, 0, 1): -0.7,
            (0, 0, 0, 0, 0, 0): 3.0,
            (1, 0, 0, 2, 0, 0): 0.2,
        })
        X = rng.normal(size=(50, 6))
        G = H.gradient(X)
        eps = 1e-6
        for j in range(6):
            step = np.zeros(6)
            step[j] = eps
            fd = (H.value(X + step) - H.value(X - step)) / (2 * eps)
            assert np.abs(fd - G[:, j]).max() < 1e-6

    def test_degree_cap(self):
        with pytest.raises(DegreeTooHigh):
            HamiltonianFunction({(2, 2, 0, 0, 0, 0): 1.0})

    def test_zero_collapses(self):
        H = HamiltonianFunction({(1, 0, 0, 0, 0, 0): 0.0})
        assert H.terms == {}

    @given(cubic_polynomials, point_seeds)
    def test_value_and_gradient_match_reference(self, H, seed):
        X = 2.0 * np.random.default_rng(seed).normal(size=(64, 6))
        # relative to the sum of |terms|, so cancellation in the sum does not count
        value_scale = reference_value(_absolute(H), np.abs(X))
        gradient_scale = reference_gradient(_absolute(H), np.abs(X))
        assert np.all(np.abs(H.value(X) - reference_value(H, X)) <= 1e-15 * value_scale)
        assert np.all(np.abs(H.gradient(X) - reference_gradient(H, X)) <= 1e-15 * gradient_scale)

    @given(square_free_derivative_polynomials, point_seeds)
    def test_gradient_is_bitwise_reference_without_squared_factors(self, H, seed):
        X = np.random.default_rng(seed).normal(size=(64, 6))
        assert H.gradient(X).tobytes() == reference_gradient(H, X).tobytes()

    @pytest.mark.parametrize("method", ["value", "gradient"])
    @pytest.mark.parametrize("shape", [(5, 7), (5, 5), (6, 1), ()])
    def test_points_must_have_six_coordinates(self, method, shape):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            getattr(H_MIXED, method)(np.zeros(shape))

    def test_shapes_follow_the_points(self):
        X = np.zeros((3, 4, 6))
        assert H_MIXED.value(X).shape == (3, 4)
        assert H_MIXED.gradient(X).shape == (3, 4, 6)
        assert H_MIXED.value(X[0, 0]).shape == ()


class TestVectorField:
    def test_constant_hamiltonian_gives_zero_field(self):
        rng = np.random.default_rng(3)
        x = random_product_point(rng)
        v = field_batch(HamiltonianFunction({(0,) * 6: 5.0}), x)
        assert np.linalg.norm(v) == 0.0

    def test_height_field_is_axial_rotation(self):
        rng = np.random.default_rng(4)
        x = random_product_point(rng)
        v = field_batch(H_HEIGHT, x)
        expected = np.cross([0, 0, 1.0], x[:3])
        assert np.abs(v[:3] - expected).max() < 1e-14
        assert np.abs(v[3:]).max() == 0.0

    def test_defining_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = random_product_point(rng)
            v = random_tangent_vector(rng, x)
            xh = field_batch(H_MIXED, x)
            lhs = omega_batch(x, xh, v)
            rhs = float(H_MIXED.gradient(x[None, :])[0] @ v)
            assert abs(lhs - rhs) < 1e-10


class TestFlow:
    def test_zero_hamiltonian_is_identity(self):
        rng = np.random.default_rng(6)
        x = random_product_point(rng)
        y = flow_points(HamiltonianFunction.zero(), x, FlowParams(1.0, 32))
        assert np.abs(y - x).max() < 1e-15

    def test_height_flow_rotates_first_factor(self):
        x = np.array([[1.0, 0, 0, 0, 1.0, 0]])
        y = flow_points(H_HEIGHT, x, FlowParams.for_time(math.pi / 2))[0]
        # z1 generates counterclockwise rotation about the z-axis at unit speed
        assert np.abs(y[:3] - [0, 1, 0]).max() < 1e-9
        assert np.abs(y[3:] - [0, 1, 0]).max() < 1e-15

    def test_energy_drift_plateaus_below_1e8(self):
        rng = np.random.default_rng(7)
        X = random_points(rng, 16)
        h0 = H_COUPLED.value(X)
        drifts = []
        for steps in (64, 128):
            Y = flow_points(H_COUPLED, X, FlowParams(1.0, steps))
            drifts.append(np.abs(H_COUPLED.value(Y) - h0).max())
        assert drifts[0] < 1e-8
        assert drifts[1] < 1e-8

    def test_points_stay_on_spheres(self):
        rng = np.random.default_rng(8)
        X = random_points(rng, 64)
        Y = flow_points(H_MIXED, X, FlowParams(0.5, 40))
        assert np.abs(np.linalg.norm(Y[:, :3], axis=1) - 1).max() < 1e-12
        assert np.abs(np.linalg.norm(Y[:, 3:], axis=1) - 1).max() < 1e-12

    def test_step_size_guard(self):
        big = HamiltonianFunction({(0, 0, 1, 0, 0, 0): 50.0})
        x = np.array([[1.0, 0, 0, 0, 0, 1.0]])
        with pytest.raises(StepSizeTooLarge):
            flow_points(big, x, FlowParams(0.8, 16))

    def test_flow_params_validation(self):
        with pytest.raises(ValueError):
            FlowParams(1.0, 8)       # too few steps
        with pytest.raises(ValueError):
            FlowParams(2.0, 16)      # dt too large
        with pytest.raises(ValueError):
            FlowParams(-2.0, 16)     # backward, |dt| too large
        with pytest.raises(ValueError, match=f"<= {MAX_STEPS}"):
            FlowParams(1.0, MAX_STEPS + 1)
        with pytest.raises(ValueError, match=f"<= {MAX_STEPS}"):
            FlowParams.for_time(1e6, 0.0125)  # 8e7 steps
        assert FlowParams(1000.0, MAX_STEPS).steps == MAX_STEPS
        assert FlowParams.for_time(0.5).dt <= 0.01


class TestDeformSurface:
    def test_zero_hamiltonian_preserves_volume(self):
        mesh = deform_surface(HamiltonianFunction.zero(), great_torus(), FlowParams(0.5, 40), m=128)
        assert volume(mesh) == pytest.approx(FOUR_PI_SQ, rel=1e-6)

    def test_isometric_flow_preserves_volume(self):
        rigid = deform_surface(H_HEIGHT, great_torus(), FlowParams(0.5, 40), m=128)
        frozen = deform_surface(HamiltonianFunction.zero(), great_torus(), FlowParams(0.5, 40), m=128)
        assert volume(rigid) == pytest.approx(FOUR_PI_SQ, rel=1e-6)
        # identical stencil bias: rotated and frozen meshes agree far tighter
        assert volume(rigid) == pytest.approx(volume(frozen), rel=1e-9)

    def test_coupled_flow_keeps_lagrangian_and_volume_bound(self):
        H = HamiltonianFunction({(0, 0, 1, 0, 0, 1): 0.3})
        mesh = deform_surface(H, great_torus(), FlowParams(0.5, 40), m=128)
        assert lagrangian_defect(mesh) < 1e-6
        assert volume(mesh) >= FOUR_PI_SQ - 1e-3

    def test_matches_reference_rk4_bitwise(self):
        H = HamiltonianFunction({(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 1): 0.5})  # A4's
        params = FlowParams.for_time(0.5, 0.0125)
        m = 64
        mesh = deform_surface(H, great_torus(), params, m=m)
        t = np.arange(m) * (TWO_PI / m)
        U, V = np.meshgrid(t, t, indexing="ij")
        nodes = great_torus().points(0, U, V).reshape(-1, 6)
        expected = MeshSurface(reference_flow(H, nodes, params).reshape(m, m, 6))
        assert mesh.nodes.tobytes() == expected.nodes.tobytes()

    def test_mesh_resolution_floor(self):
        with pytest.raises(ValueError):
            deform_surface(H_HEIGHT, great_torus(), FlowParams(0.5, 40), m=32)

    def test_lagrangian_persistence_battery(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            terms = {}
            for _ in range(3):
                exp = tuple(rng.multinomial(rng.integers(1, 4), np.ones(6) / 6))
                terms[exp] = rng.uniform(-0.3, 0.3)
            H = HamiltonianFunction(terms)
            mesh = deform_surface(H, great_torus(), FlowParams(0.5, 32), m=128)
            assert lagrangian_defect(mesh) < 1e-6


class TestSymplecticity:
    def test_pullback_error_scales_with_dt4(self):
        rng = np.random.default_rng(10)
        x = random_product_point(rng)
        u = random_tangent_vector(rng, x)
        v = random_tangent_vector(rng, x)
        base = omega_batch(x, u, v)
        errs = []
        for steps in (40, 80):
            params = FlowParams(0.5, steps)
            y = flow_points(H_MIXED, x, params)
            du = pushforward(H_MIXED, x, u, params)
            dv = pushforward(H_MIXED, x, v, params)
            # finite-difference pushforwards are tangent only to O(eps^2)
            moved = omega_batch(y, du, dv)
            errs.append(abs(moved - base))
        assert errs[0] < 0.5 ** 4 / 40 ** 4 * 100 + 1e-7
        assert errs[1] < 1e-7
