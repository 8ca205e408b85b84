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
from .surfaces import MeshSurface, ProductTorusSurface, lattice_points

VARIABLES = ("x1", "y1", "z1", "x2", "y2", "z2")
MAX_DEGREE = 3
MIN_MESH = 64   # smallest lattice deform_surface flows
MIN_STEPS = 16  # smallest RK4 step count of a flow window
MAX_STEPS = 100_000  # largest RK4 step count of a flow window


def _factors(exp) -> tuple[tuple[int, int], ...]:
    """The (variable, power) pairs of a monomial, in ascending variable order."""
    return tuple((i, e) for i, e in enumerate(exp) if e)


def _points(X) -> np.ndarray:
    """X as a float array of ambient points (..., 6)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0 or X.shape[-1] != 6:
        raise ValueError(f"points must have shape (..., 6), got {X.shape}")
    return X


def _evaluate(table, X) -> np.ndarray | float:
    """Sum over (c, factors) of c * prod x_i ** p, term by term in table order.

    Each column of X is read where a factor needs it, and a power is taken by
    repeated multiplication (x * x, then x * x * x), so a square-free monomial
    rounds exactly as the product of its variables in ascending order.
    """
    acc = 0.0
    for coeff, factors in table:
        prod = None
        for i, p in factors:
            x = X[..., i]
            power = x if p == 1 else x * x if p == 2 else x * x * x
            prod = power if prod is None else prod * power
        acc = acc + (coeff if prod is None else coeff * prod)
    return acc


class HamiltonianFunction:
    """Polynomial Hamiltonian with exact term-wise gradient.

    The value and each gradient component are read from tables of
    (coefficient, factors) pairs built once, so an evaluation costs a few
    column products per monomial whatever the array layout of the points.
    """

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
        self._value_table = [(c, _factors(exp)) for exp, c in self.terms.items()]
        # d/dx_j of c * x^exp is (c * exp_j) * x^(exp - e_j)
        self._gradient_tables = [
            [(c * exp[j], _factors(exp[:j] + (exp[j] - 1,) + exp[j + 1:]))
             for exp, c in self.terms.items() if exp[j]]
            for j in range(6)
        ]

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def coordinate(cls, name: str, coeff: float = 1.0):
        exp = [0] * 6
        exp[VARIABLES.index(name)] = 1
        return cls({tuple(exp): coeff})

    def value(self, X):
        """Evaluate at ambient points; X is (..., 6), the result X.shape[:-1]."""
        X = _points(X)
        out = np.empty(X.shape[:-1])
        out[...] = _evaluate(self._value_table, X)
        return out

    def gradient(self, X):
        """Ambient gradient at points; returns an array shaped (and laid out) like X."""
        X = _points(X)
        out = np.empty_like(X)
        for j, table in enumerate(self._gradient_tables):
            out[..., j] = _evaluate(table, X)
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
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps}; shorten the time")
        if abs(self.dt) > 0.05:
            raise ValueError(f"|dt| = {abs(self.dt):.4f} exceeds 0.05; increase steps")

    @property
    def dt(self) -> float:
        return self.time / self.steps

    @classmethod
    def for_time(cls, time: float, max_dt: float = 0.01):
        steps = max(MIN_STEPS, int(math.ceil(abs(time) / max_dt))) if time else MIN_STEPS
        return cls(time, steps)


# The flow works on component-major (6, n) C-contiguous points S: row i holds
# coordinate i of every point, so each coordinate is one contiguous vector and
# S.T is the (n, 6) view HamiltonianFunction.gradient reads column by column.
# Every formula keeps the operation order of its point-major (n, 6) form
# (np.cross, np.linalg.norm), so flowed points do not depend on the layout.

def _component_major(X) -> np.ndarray:
    """A (6, n) C-contiguous copy of the checked ambient points X (..., 6)."""
    return np.ascontiguousarray(X.reshape(-1, 6).T)


def _renormalize(S):
    """Scale both factors of the component-major points S back to unit length, in place."""
    for f in (S[:3], S[3:]):
        f /= np.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2])
    return S


def _field(H: HamiltonianFunction, S):
    """X_H = (grad_p H x p, grad_q H x q) at component-major points S; shaped like S."""
    G = H.gradient(S.T).T
    out = np.empty_like(S)
    for k in (0, 3):
        (g0, g1, g2), (x0, x1, x2) = G[k:k + 3], S[k:k + 3]
        out[k] = g1 * x2 - g2 * x1
        out[k + 1] = g2 * x0 - g0 * x2
        out[k + 2] = g0 * x1 - g1 * x0
    return out


def field_batch(H: HamiltonianFunction, X):
    """X_H at ambient points X of shape (..., 6)."""
    X = _points(X)
    return np.ascontiguousarray(_field(H, _component_major(X)).T).reshape(X.shape)


def flow_points(H: HamiltonianFunction, X, params: FlowParams):
    """Flow a batch of ambient points for the full window; returns (..., 6).

    Classical RK4 with every stage renormalized to the spheres, on one
    component-major state; one gradient evaluation per stage.
    """
    X = _points(X)
    S = _renormalize(_component_major(X))
    dt = params.dt
    for _ in range(params.steps):
        k1 = _field(H, S)
        k2 = _field(H, _renormalize(S + (0.5 * dt) * k1))
        k3 = _field(H, _renormalize(S + (0.5 * dt) * k2))
        k4 = _field(H, _renormalize(S + dt * k3))
        S_next = _renormalize(S + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        d = S_next - S
        moved = math.sqrt(float((d * d).sum(axis=0).max())) if S.size else 0.0
        if moved > 0.5:
            raise StepSizeTooLarge(f"step displacement {moved:.3f} > 0.5; reduce dt")
        S = S_next
    return np.ascontiguousarray(S.T).reshape(X.shape)


def deform_surface(H: HamiltonianFunction, surface: ProductTorusSurface,
                   params: FlowParams, m: int = 128) -> MeshSurface:
    """Flow every lattice node of a product torus; returns the deformed mesh."""
    if m < MIN_MESH:
        raise ValueError(f"mesh resolution m must be >= {MIN_MESH}, got {m}")
    return MeshSurface(flow_points(H, lattice_points(surface, m), params))
