"""Hamiltonian vector fields and flows on S2 x S2 with the split area form.

Hamiltonians are polynomials of total degree at most 3 in the six ambient
coordinates (x1, y1, z1, x2, y2, z2).  The sign convention is fixed so that
contracting the field into the symplectic form gives the differential of H,
which on the product of unit spheres reads componentwise

    X_H(p, q) = (grad_p H x p, grad_q H x q).

Flows use classical 4th-order Runge-Kutta with renormalization to the spheres
after every stage, keeping constraint drift at machine scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooHigh, StepSizeTooLarge
from .geometry import ProductPoint, TangentVector
from .surfaces import TWO_PI, MeshSurface, ProductTorusSurface

VARIABLES = ("x1", "y1", "z1", "x2", "y2", "z2")
MAX_DEGREE = 3
MIN_MESH = 64   # smallest lattice deform_surface flows
MIN_STEPS = 16  # smallest RK4 step count of a flow window


class HamiltonianFunction:
    """Polynomial Hamiltonian with exact term-wise gradient."""

    def __init__(self, terms: dict[tuple[int, ...], float]):
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != 6 or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            if sum(exp) > MAX_DEGREE:
                raise DegreeTooHigh(f"monomial {exp} has total degree {sum(exp)} > {MAX_DEGREE}")
            if coeff != 0.0:
                clean[exp] = clean.get(exp, 0.0) + float(coeff)
        self.terms = {e: c for e, c in sorted(clean.items()) if c != 0.0}
        self._exps = np.array(list(self.terms.keys()), dtype=int).reshape(-1, 6)
        self._coeffs = np.array(list(self.terms.values()), dtype=float)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def coordinate(cls, name: str, coeff: float = 1.0):
        exp = [0] * 6
        exp[VARIABLES.index(name)] = 1
        return cls({tuple(exp): coeff})

    def value(self, X):
        """Evaluate at ambient points; X is (..., 6)."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1])
        for exp, c in zip(self._exps, self._coeffs):
            out += c * np.prod(X ** exp, axis=-1)
        return out

    def gradient(self, X):
        """Ambient gradient at points; returns an array shaped like X."""
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        for exp, c in zip(self._exps, self._coeffs):
            for j in range(6):
                if exp[j] == 0:
                    continue
                dexp = exp.copy()
                dexp[j] -= 1
                out[..., j] += c * exp[j] * np.prod(X ** dexp, axis=-1)
        return out

    def __call__(self, X):
        return self.value(X)

    def __repr__(self):
        return f"HamiltonianFunction({self.terms!r})"


@dataclass(frozen=True)
class FlowParams:
    """Integration window: total time and step count (dt = time / steps)."""

    time: float
    steps: int

    def __post_init__(self):
        if self.steps < MIN_STEPS:
            raise ValueError(f"steps must be >= {MIN_STEPS}, got {self.steps}")
        if self.dt > 0.05:
            raise ValueError(f"dt = {self.dt:.4f} exceeds 0.05; increase steps")

    @property
    def dt(self) -> float:
        return self.time / self.steps

    @classmethod
    def for_time(cls, time: float, dt_target: float = 0.01):
        steps = max(MIN_STEPS, int(math.ceil(abs(time) / dt_target))) if time else MIN_STEPS
        return cls(time, steps)


def _renormalized(X):
    X = np.array(X, dtype=float)
    X[..., :3] /= np.linalg.norm(X[..., :3], axis=-1, keepdims=True)
    X[..., 3:] /= np.linalg.norm(X[..., 3:], axis=-1, keepdims=True)
    return X


def field_batch(H: HamiltonianFunction, X):
    """X_H at ambient points X of shape (..., 6)."""
    G = H.gradient(X)
    out = np.empty_like(np.asarray(X, dtype=float))
    out[..., :3] = np.cross(G[..., :3], np.asarray(X)[..., :3])
    out[..., 3:] = np.cross(G[..., 3:], np.asarray(X)[..., 3:])
    return out


def hamiltonian_vector_field(H: HamiltonianFunction, x: ProductPoint) -> TangentVector:
    """The Hamiltonian field at a point; tangent by construction."""
    v = field_batch(H, x.ambient[None, :])[0]
    return TangentVector(v[:3], v[3:])


def flow_points(H: HamiltonianFunction, X, params: FlowParams):
    """Flow a batch of ambient points for the full window; returns (..., 6)."""
    X = _renormalized(X)
    dt = params.dt
    for _ in range(params.steps):
        k1 = field_batch(H, X)
        k2 = field_batch(H, _renormalized(X + (0.5 * dt) * k1))
        k3 = field_batch(H, _renormalized(X + (0.5 * dt) * k2))
        k4 = field_batch(H, _renormalized(X + dt * k3))
        X_next = _renormalized(X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        moved = float(np.linalg.norm(X_next - X, axis=-1).max()) if X.size else 0.0
        if moved > 0.5:
            raise StepSizeTooLarge(f"step displacement {moved:.3f} > 0.5; reduce dt")
        X = X_next
    return X


def flow_point(H: HamiltonianFunction, x: ProductPoint, params: FlowParams) -> ProductPoint:
    """Endpoint of the integral curve of X_H starting at x."""
    return ProductPoint.from_ambient(flow_points(H, x.ambient[None, :], params)[0])


def deform_surface(H: HamiltonianFunction, surface: ProductTorusSurface,
                   params: FlowParams, m: int = 128) -> MeshSurface:
    """Flow every lattice node of a product torus; returns the deformed mesh."""
    if m < MIN_MESH:
        raise ValueError(f"mesh resolution m must be >= {MIN_MESH}, got {m}")
    t = np.arange(m) * (TWO_PI / m)
    U, V = np.meshgrid(t, t, indexing="ij")
    nodes = surface.points(0, U, V).reshape(-1, 6)
    flowed = flow_points(H, nodes, params)
    return MeshSurface(flowed.reshape(m, m, 6))


def pushforward(H: HamiltonianFunction, x: ProductPoint, v: TangentVector,
                params: FlowParams, eps: float = 1e-5) -> TangentVector:
    """Central-difference pushforward of a tangent vector under the time-t flow."""
    X = np.stack([
        _renormalized(x.ambient + eps * v.ambient),
        _renormalized(x.ambient - eps * v.ambient),
    ])
    Y = flow_points(H, X, params)
    d = (Y[0] - Y[1]) / (2.0 * eps)
    return TangentVector(d[:3], d[3:])
