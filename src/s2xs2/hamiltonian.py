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

from .errors import DegreeTooHigh, InvalidInput, StepSizeTooLarge
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
        raise InvalidInput(f"points must have shape (..., 6), got {X.shape}")
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
                raise InvalidInput(f"bad exponent tuple {exp}")
            if sum(exp) > MAX_DEGREE:
                raise DegreeTooHigh(f"monomial {exp} has total degree {sum(exp)} > {MAX_DEGREE}")
            if coeff != 0.0:
                clean[exp] = clean.get(exp, 0.0) + float(coeff)
        self.terms = {e: c for e, c in sorted(clean.items()) if c != 0.0}
        if not all(map(math.isfinite, self.terms.values())):
            raise InvalidInput(f"coefficients must be finite, got {self.terms!r}")
        self._value_table = [(c, _factors(exp)) for exp, c in self.terms.items()]
        # d/dx_j of c * x^exp is (c * exp_j) * x^(exp - e_j)
        self._gradient_tables = [
            [(c * exp[j], _factors(exp[:j] + (exp[j] - 1,) + exp[j + 1:]))
             for exp, c in self.terms.items() if exp[j]]
            for j in range(6)
        ]

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

    def __repr__(self):
        return f"HamiltonianFunction({self.terms!r})"


@dataclass(frozen=True)
class FlowParams:
    """Integration window: total time and step count (dt = time / steps)."""

    time: float
    steps: int

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise InvalidInput(f"flow time must be finite, got {self.time}")
        if self.steps < MIN_STEPS:
            raise InvalidInput(f"steps must be >= {MIN_STEPS}, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise InvalidInput(f"steps must be <= {MAX_STEPS}, got {self.steps}; shorten the time")
        if abs(self.dt) > 0.05:
            raise InvalidInput(f"|dt| = {abs(self.dt):.4f} exceeds 0.05; increase steps")

    @property
    def dt(self) -> float:
        return self.time / self.steps

    @classmethod
    def for_time(cls, time: float, max_dt: float = 0.0125):
        """The fewest steps, at least MIN_STEPS, of at most max_dt each; the
        default is the step of `s2xs2 flow` and of the deformation chain."""
        if not (math.isfinite(time) and max_dt > 0.0):
            raise InvalidInput(f"flow time must be finite and max_dt positive, got {time}, {max_dt}")
        steps = abs(time) / max_dt
        if steps > MAX_STEPS:
            raise InvalidInput(f"steps must be <= {MAX_STEPS}, got {steps:.6g}; shorten the time")
        return cls(time, max(MIN_STEPS, math.ceil(steps)))


# The flow works on component-major (6, n) C-contiguous points S: row i holds
# coordinate i of every point, so each coordinate is one contiguous vector and
# S.T is the (n, 6) view HamiltonianFunction.gradient reads column by column.
# Every formula keeps the operation order of its point-major (n, 6) form
# (np.cross, np.linalg.norm), so flowed points do not depend on the layout.

def _component_major(X) -> np.ndarray:
    """A (6, n) C-contiguous copy of the checked ambient points X (..., 6),
    a copy even where the transpose is contiguous already (one point)."""
    return X.reshape(-1, 6).T.copy()


def _renormalize(S):
    """Scale both factors of the component-major points S back to unit length, in place."""
    for f in (S[:3], S[3:]):
        f /= np.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2])
    return S


def _field(H: HamiltonianFunction, S, out, scratch):
    """X_H = (grad_p H x p, grad_q H x q) at component-major points S, written
    to out (shaped like S); scratch is one (n,) row for the second product."""
    G = H.gradient(S.T).T
    for k in (0, 3):
        (g0, g1, g2), (x0, x1, x2) = G[k:k + 3], S[k:k + 3]
        for row, (a, b, c, d) in enumerate(((g1, x2, g2, x1), (g2, x0, g0, x2), (g0, x1, g1, x0)), k):
            np.multiply(a, b, out=out[row])
            np.multiply(c, d, out=scratch)
            out[row] -= scratch
    return out


def flow_points(H: HamiltonianFunction, X, params: FlowParams):
    """Flow a batch of ambient points for the full window; returns (..., 6).

    Classical RK4 with every stage renormalized to the spheres, on one
    component-major state; one gradient evaluation per stage.  The stages,
    the stage points and the next state live in buffers allocated once per
    flow, and each sum is formed in the order of its one-line form
    S + (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4); floating-point sums and
    products commute, so the in-place forms (2 k2 + k1, and so on) round
    alike.
    """
    X = _points(X)
    S = _renormalize(_component_major(X))
    dt = params.dt
    # six arrays, not one block: freeing a block six times as large would
    # raise glibc's dynamic mmap threshold past the counter's later
    # temporaries, which then stay in the heap and raise the peak RSS
    k1, k2, k3, k4, stage, nxt = (np.empty_like(S) for _ in range(6))
    scratch = np.empty(S.shape[1:])

    def at(k, step):
        """The renormalized stage point S + step * k."""
        np.multiply(k, step, out=stage)
        return _renormalize(np.add(stage, S, out=stage))

    for _ in range(params.steps):
        _field(H, S, k1, scratch)
        _field(H, at(k1, 0.5 * dt), k2, scratch)
        _field(H, at(k2, 0.5 * dt), k3, scratch)
        _field(H, at(k3, dt), k4, scratch)
        np.multiply(k2, 2, out=nxt)
        nxt += k1
        k3 *= 2
        nxt += k3
        nxt += k4
        nxt *= dt / 6.0
        nxt += S
        _renormalize(nxt)
        d = np.subtract(nxt, S, out=k1)
        d *= d
        moved = math.sqrt(float(d.sum(axis=0).max())) if S.size else 0.0
        if moved > 0.5:
            raise StepSizeTooLarge(f"step displacement {moved:.3f} > 0.5; reduce dt")
        S, nxt = nxt, S
    # freed before the result is copied out, so that the copy can take their
    # place in the heap rather than pin them under it
    del k1, k2, k3, k4, stage, nxt
    return np.ascontiguousarray(S.T).reshape(X.shape)


def deform_surface(H: HamiltonianFunction, surface: ProductTorusSurface,
                   params: FlowParams, m: int = 128) -> MeshSurface:
    """Flow every lattice node of a product torus; returns the deformed mesh."""
    if m < MIN_MESH:
        raise InvalidInput(f"mesh resolution m must be >= {MIN_MESH}, got {m}")
    return MeshSurface(flow_points(H, lattice_points(surface, m), params))
