"""Fast checks of the benchmark's oracles against brute force and limiting cases.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math

import numpy as np
import pytest

import oracles


def _random_unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _fibonacci_sphere(n):
    """n nearly uniform points on S^2 (equal-area latitude bands)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _brute_circle_count(a, c, b, d, n=20000):
    """Sign changes of <x, b> - d along the circle {<x, a> = c}; None near tangency."""
    e1 = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    t = np.arange(n) * (2.0 * math.pi / n)
    x = c * a + math.sqrt(1.0 - c * c) * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2)
    f = x @ b - d
    if min(abs(f.min()), abs(f.max())) < 1e-3:
        return None
    return int(np.count_nonzero(np.sign(f) != np.sign(np.roll(f, 1))))


def test_circle_counts_match_dense_sampling():
    rng = np.random.default_rng(1)
    a, b = _random_unit(rng, 300), _random_unit(rng, 300)
    c, d = rng.uniform(-0.95, 0.95, 300), rng.uniform(-0.95, 0.95, 300)
    got = oracles.circle_pair_counts(a, c, b, d)
    checked = 0
    for k in range(300):
        brute = _brute_circle_count(a[k], c[k], b[k], d[k])
        if brute is not None:
            assert got[k] == brute, (k, got[k], brute)
            checked += 1
    assert checked > 250
    assert {0, 2} <= set(got.tolist())


def test_great_circles_always_meet_twice():
    rng = np.random.default_rng(2)
    a, b = _random_unit(rng, 1000), _random_unit(rng, 1000)
    assert np.all(oracles.circle_pair_counts(a, 0.0, b, 0.0) == 2)


def test_anti_diagonal_counts_match_dense_sampling():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(2, 40, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    r1, r2 = (_quaternion_matrices(qq) for qq in q)
    offsets = (0.3, -0.5)
    got = oracles.anti_diagonal_counts(r1, r2, offsets)
    for k in range(40):
        # (z, -z) on g1 C1 x g2 C2: walk g1 C1 and test <-z, g2 e_z> = c2
        brute = _brute_circle_count(r1[k] @ [0, 0, 1.0], offsets[0], -(r2[k] @ [0, 0, 1.0]), offsets[1])
        if brute is not None:
            assert got[k] == brute


def _quaternion_matrices(q):
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


@pytest.mark.parametrize("c1,c2", [(0.0, 0.0), (0.5, 0.5), (0.3, -0.6), (0.8, 0.1)])
def test_latitude_moments_match_dense_sphere_sampling(c1, c2):
    normals = _fibonacci_sphere(200_001)
    up = np.array([[0.0, 0.0, 1.0]])
    f1 = oracles.circle_pair_counts(normals, 0.0, np.repeat(up, len(normals), 0), c1)
    f2 = oracles.circle_pair_counts(normals, 0.0, np.repeat(up, len(normals), 0), c2)
    mean, var = oracles.latitude_torus_count_moments(c1, c2)
    assert f1.mean() * f2.mean() == pytest.approx(mean, abs=1e-4)
    second = np.mean(f1 ** 2) * np.mean(f2 ** 2)
    assert second - (f1.mean() * f2.mean()) ** 2 == pytest.approx(var, abs=1e-3)


def test_perimeter_limits_and_polyline():
    assert oracles.ellipse_perimeter_arclength(0.7, 0.7) == pytest.approx(2 * math.pi * 0.7, rel=1e-13)
    assert oracles.ellipse_perimeter_arclength(0.6, 0.0) == pytest.approx(2.4, rel=1e-13)
    assert oracles.ellipse_perimeter_arclength(0.0, 1.0) == pytest.approx(4.0, rel=1e-13)
    t = np.linspace(0.0, 2.0 * math.pi, 2_000_001)
    x, y = 0.7 * np.cos(t), 0.2 * np.sin(t)
    polyline = float(np.hypot(np.diff(x), np.diff(y)).sum())
    assert oracles.ellipse_perimeter_arclength(0.7, 0.2) == pytest.approx(polyline, rel=1e-10)


def test_kernel_sweep_ends():
    ref = oracles.kernel_sweep_reference([0.0, math.pi / 4, math.pi / 2])
    assert ref == pytest.approx([16.0, 4.0 * math.pi, 16.0], abs=1e-12)


def _midpoint_area(surface_points, n=800):
    """Area of a map of the sphere's (colatitude, longitude) square, by midpoint rule."""
    h_t, h_p = math.pi / n, 2.0 * math.pi / n
    t = (np.arange(n) + 0.5) * h_t
    p = (np.arange(n) + 0.5) * h_p
    T, P = np.meshgrid(t, p, indexing="ij")
    eps = 1e-6
    du = (surface_points(T + eps, P) - surface_points(T - eps, P)) / (2 * eps)
    dv = (surface_points(T, P + eps) - surface_points(T, P - eps)) / (2 * eps)
    E, G, F = (np.sum(a * b, axis=-1) for a, b in ((du, du), (dv, dv), (du, dv)))
    return float(np.sqrt(np.maximum(E * G - F * F, 0.0)).sum() * h_t * h_p)


def _sphere(T, P):
    return np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)


def test_closed_values():
    assert _midpoint_area(_sphere) == pytest.approx(oracles.SPHERE_AREA, rel=1e-5)
    anti = _midpoint_area(lambda T, P: np.concatenate([_sphere(T, P), -_sphere(T, P)], axis=-1))
    assert anti == pytest.approx(8.0 * math.pi, rel=1e-5)
    assert oracles.ANTI_DIAGONAL_VOLUME == pytest.approx(8.0 * math.pi, rel=1e-15)
    assert oracles.VOL_G == pytest.approx(64.0 * math.pi ** 4, rel=1e-15)
    assert oracles.LOWER_EQUALITY == pytest.approx(128.0 * math.pi ** 4, rel=1e-15)
    assert oracles.UPPER_EQUALITY == pytest.approx(256.0 * math.pi ** 4, rel=1e-15)
    assert oracles.GREAT_TORUS_VOLUME == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)


def test_haar_moments_by_dense_sampling():
    x = _fibonacci_sphere(400_001)[:, 0]          # R11: a coordinate of a uniform unit vector
    for name, sample in (("mean_sq", x * x), ("mean_r11", x)):
        mean, var = oracles.HAAR_MOMENTS[name]
        assert sample.mean() == pytest.approx(mean, abs=1e-6)
        assert sample.var() == pytest.approx(var, abs=1e-6)
    # rotation angle density (1 - cos a) / pi on [0, pi]; trace = 1 + 2 cos a
    n = 200_000
    a = (np.arange(n) + 0.5) * (math.pi / n)
    w = (1.0 - np.cos(a)) / math.pi * (math.pi / n)
    tr = 1.0 + 2.0 * np.cos(a)
    mean, var = oracles.HAAR_MOMENTS["mean_trace"]
    assert float(np.sum(w * tr)) == pytest.approx(mean, abs=1e-9)
    assert float(np.sum(w * tr * tr)) == pytest.approx(var, abs=1e-9)


TERMS = {(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 1): 0.5, (0, 0, 2, 0, 0, 0): -0.25}


def test_hamiltonian_value_and_text():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 6))
    x1, y1, z1, x2, y2, z2 = X.T
    expected = x1 * x2 + 0.5 * y1 * y2 * z2 - 0.25 * z1 * z1
    assert np.allclose(oracles.hamiltonian_value(TERMS, X), expected, rtol=1e-14, atol=1e-14)
    from s2xs2.expressions import parse_hamiltonian

    parsed = parse_hamiltonian(oracles.hamiltonian_text(TERMS)).polynomial()
    assert np.allclose(parsed.value(X), expected, rtol=1e-13, atol=1e-13)


def test_flow_conservation_on_an_exact_rotation():
    start = oracles.great_torus_lattice(16)
    assert start.shape == (16, 16, 6)
    assert np.all(start[..., 2] == 0.0) and np.all(start[..., 5] == 0.0)
    # H = x1^2 + z2 is invariant under rotating the second factor about z
    terms = {(2, 0, 0, 0, 0, 0): 1.0, (0, 0, 0, 0, 0, 1): 1.0}
    c, s = math.cos(0.7), math.sin(0.7)
    end = start.copy()
    end[..., 3], end[..., 4] = c * start[..., 3] - s * start[..., 4], s * start[..., 3] + c * start[..., 4]
    drift, off = oracles.flow_conservation(terms, start, end)
    assert drift < 1e-15 and off < 1e-15
    moved = end.copy()
    moved[..., 0] *= 1.0 + 1e-6                  # off the sphere and off the level set
    drift, off = oracles.flow_conservation(terms, start, moved)
    assert drift > 1e-7 and off > 1e-8
