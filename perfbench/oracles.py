"""Reference values the benchmark checks the program against.

Every oracle here is computed apart from the s2xs2 package: none of these
functions imports it.  Where the program has a formula for the same
quantity, the oracle uses a different route:

* circle counts on S^2 come from the spherical triangle inequality on the
  circle centres and angular radii, not from the plane-intersection
  discriminant the program uses;
* the ellipse perimeter comes from adaptive Simpson quadrature of the arc
  length, not from the AGM;
* Hamiltonian values come from the benchmark's own term table, evaluated
  monomial by monomial.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi
SPHERE_AREA = 4.0 * PI                  # unit S^2
VOL_SO3 = 2.0 * PI * SPHERE_AREA        # circle fibre of length 2 pi over S^2(1)
VOL_G = VOL_SO3 * VOL_SO3               # SO(3) x SO(3) = 64 pi^4
GREAT_TORUS_VOLUME = (2.0 * PI) ** 2    # product of two great circles
ANTI_DIAGONAL_VOLUME = 2.0 * SPHERE_AREA  # z -> (z, -z) scales the metric of S^2 by 2
UPPER_EQUALITY = 4.0 * VOL_G            # count 4 on every sample: 256 pi^4
LOWER_EQUALITY = 2.0 * VOL_G            # count 2 on every sample: 128 pi^4

# Haar moments of a rotation R in SO(3): R11 is the first coordinate of a
# uniform unit vector, hence uniform on [-1, 1]; the trace is the character
# of the 3-dimensional representation, with mean 0 and mean square 1.
HAAR_MOMENTS = {
    # name: (mean, variance of one sample)
    "mean_sq": (1.0 / 3.0, 1.0 / 5.0 - 1.0 / 9.0),
    "mean_r11": (0.0, 1.0 / 3.0),
    "mean_trace": (0.0, 1.0),
}


def circle_pair_counts(axis1, offset1, axis2, offset2):
    """Intersection counts (0 or 2) of circles {<x, a> = c} on the unit sphere.

    axis1, axis2 are (S, 3) unit vectors, offsets scalars or (S,) arrays.
    The circle {<x, a> = c} is the spherical circle of centre a and angular
    radius arccos(c); two such circles cross in two points exactly when the
    centre distance d and the radii r1, r2 satisfy |r1 - r2| < d < r1 + r2
    and d + r1 + r2 < 2 pi.  Tangent pairs have measure zero and count 0.
    """
    r1 = np.arccos(np.clip(offset1, -1.0, 1.0))
    r2 = np.arccos(np.clip(offset2, -1.0, 1.0))
    cos_d = np.clip(np.einsum("ij,ij->i", axis1, axis2), -1.0, 1.0)
    d = np.arccos(cos_d)
    crossing = (np.abs(r1 - r2) < d) & (d < r1 + r2) & (d + r1 + r2 < 2.0 * PI)
    return np.where(crossing, 2, 0)


def anti_diagonal_counts(r1, r2, l_offsets, l_axes=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))):
    """#(N ∩ gL) for N = {(z, -z)} and L = C1 x C2, per rotation pair (r1, r2).

    (z, -z) lies on g1 C1 x g2 C2 iff z lies on g1 C1 and on -g2 C2, the
    circle {<x, g2 n2> = -c2}; so the count is a circle-circle count on S^2.
    """
    a1 = r1 @ np.asarray(l_axes[0], dtype=float)
    a2 = r2 @ np.asarray(l_axes[1], dtype=float)
    c1, c2 = l_offsets
    return circle_pair_counts(a1, c1, a2, -c2)


def latitude_torus_count_moments(c1: float, c2: float):
    """Mean and variance of #(N ∩ gL) for N = latitude torus (c1, c2), L = great torus.

    Each factor is a circle of radius r_i = sqrt(1 - c_i^2) against a Haar
    great circle: it meets it in 2 points with probability r_i, else in none.
    The factors are independent, so the count is 4 with probability r1 r2.
    """
    p = math.sqrt(1.0 - c1 * c1) * math.sqrt(1.0 - c2 * c2)
    return 4.0 * p, 16.0 * p * (1.0 - p)


def _adaptive_simpson(f, a, b, tol, depth=50):
    def simpson(fa, fm, fb, h):
        return h * (fa + 4.0 * fm + fb) / 6.0

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + recurse(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, depth)


def ellipse_perimeter_arclength(a: float, b: float, tol: float = 1e-13) -> float:
    """Perimeter of the ellipse with semiaxes (a, b): 4 times the quarter arc length."""
    def speed(t):
        return math.hypot(a * math.sin(t), b * math.cos(t))

    return 4.0 * _adaptive_simpson(speed, 0.0, 0.5 * PI, tol)


def kernel_sweep_reference(thetas):
    """4 x perimeter of the ellipse (sin^2 theta, cos^2 theta) for each theta."""
    return [4.0 * ellipse_perimeter_arclength(math.sin(t) ** 2, math.cos(t) ** 2) for t in thetas]


VARIABLES = ("x1", "y1", "z1", "x2", "y2", "z2")


def hamiltonian_value(terms, X):
    """H at ambient points X (..., 6) from a table {exponent tuple: coefficient}."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[:-1])
    for exps, coeff in terms.items():
        mono = np.full(X.shape[:-1], float(coeff))
        for j, e in enumerate(exps):
            for _ in range(e):
                mono = mono * X[..., j]
        out += mono
    return out


def hamiltonian_text(terms) -> str:
    """The term table as an expression in x1 .. z2 that the program's parser reads."""
    parts = []
    for exps, coeff in terms.items():
        factors = [repr(float(coeff))]
        for name, e in zip(VARIABLES, exps):
            factors.extend([name] * e)
        parts.append("*".join(factors))
    return " + ".join(parts)


def great_torus_lattice(m: int):
    """(m, m, 6) nodes (cos u, sin u, 0, cos v, sin v, 0) at u, v = 2 pi k / m."""
    t = np.arange(m) * (2.0 * PI / m)
    U, V = np.meshgrid(t, t, indexing="ij")
    zero = np.zeros_like(U)
    return np.stack([np.cos(U), np.sin(U), zero, np.cos(V), np.sin(V), zero], axis=-1)


def flow_conservation(terms, start, end):
    """Largest drift of H and of the sphere norms between matching nodes.

    Returns (max |H(end) - H(start)|, max | |p| - 1 | over both factors of end).
    """
    dh = float(np.max(np.abs(hamiltonian_value(terms, end) - hamiltonian_value(terms, start))))
    norms = np.concatenate([np.linalg.norm(end[..., :3], axis=-1).ravel(),
                            np.linalg.norm(end[..., 3:], axis=-1).ravel()])
    return dh, float(np.max(np.abs(norms - 1.0)))
