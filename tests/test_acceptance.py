"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line; a FAIL also fails the assertion.  The
statistical gates are at z = 3 with explicit standard errors; deterministic
identities carry the 1e-6 relative quadrature budget stated in the design.
"""

import math
import re
import subprocess
import sys
import time

import numpy as np

from helpers import (
    ellipse_perimeter_quadrature,
    pushforward,
    random_product_point,
    random_tangent_vector,
)
import s2xs2 as s
from s2xs2.expressions import parse_hamiltonian
from s2xs2.geometry import omega_batch
from s2xs2.hamiltonian import FlowParams, flow_points
from s2xs2.intersections import _CountingProblem, counts_product_batch
from s2xs2.rotations import VOL_G, group_matrices, haar_matrices
from s2xs2.sigma import (
    CellInvariants,
    ellipse_perimeter,
    ellipse_perimeter_batch,
    sigma_general,
)

PI4_256 = 256 * math.pi ** 4
PI4_128 = 128 * math.pi ** 4
FOUR_PI_SQ = 4 * math.pi ** 2


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_a1_upper_equality_and_constants():
    t0 = time.perf_counter()
    est = s.mc_expected_count(s.great_torus(), s.great_torus(), 10_000, seed=101)
    rhs = s.rhs_theorem6(s.great_torus(), s.great_torus())
    elapsed = time.perf_counter() - t0
    ok = (
        est.mean == 4.0
        and est.stderr == 0.0
        and est.discard_count < 0.001 * est.sample_count
        and abs(est.integral - PI4_256) < 1e-9 * PI4_256
        and abs(rhs - PI4_256) < 1e-6 * PI4_256
        and elapsed < 60.0
    )
    report("A1", ok,
           f"mean={est.mean}, stderr={est.stderr}, discards={est.discard_count}, "
           f"integral={est.integral:.6f}, rhs={rhs:.6f}, target={PI4_256:.6f}, {elapsed:.1f}s")


def test_a2_second_equality_latitude_tori():
    t0 = time.perf_counter()
    est = s.mc_expected_count(s.latitude_torus(0.5, 0.5), s.great_torus(), 100_000, seed=202)
    elapsed = time.perf_counter() - t0
    ok = abs(est.mean - 3.0) <= 3.0 * est.stderr and est.stderr < 0.01 and elapsed < 120.0
    report("A2", ok, f"mean={est.mean:.5f}, stderr={est.stderr:.5f}, {elapsed:.1f}s")


def test_a3_lower_equality_anti_diagonal():
    surf = s.anti_diagonal()
    vol = s.volume(surf, 1024)
    vol_ok = abs(vol - 8 * math.pi) < 1e-6 * 8 * math.pi
    est = s.mc_expected_count(surf, s.great_torus(), 100_000, seed=303)
    mean_ok = abs(est.mean - 2.0) <= 3.0 * est.stderr + 1e-12
    rhs = s.rhs_theorem6(surf, s.great_torus(), m=1024)
    rhs_ok = abs(rhs - PI4_128) < 1e-6 * PI4_128
    # the sides agree within the statistical band plus the kernel side's own
    # 1e-6 relative quadrature budget (the count side here has zero variance)
    agree_ok = abs(est.integral - rhs) <= 3.0 * est.stderr * VOL_G + 1e-6 * rhs
    ok = vol_ok and mean_ok and rhs_ok and agree_ok
    report("A3", ok,
           f"vol={vol:.8f} (8pi={8 * math.pi:.8f}), mean={est.mean}, stderr={est.stderr}, "
           f"discards={est.discard_count}, rhs={rhs:.4f}, target={PI4_128:.4f}, "
           f"|mc-rhs|={abs(est.integral - rhs):.3e}")


def test_a4_identity_on_deformed_surface():
    t0 = time.perf_counter()
    h = parse_hamiltonian("x1*x2 + 0.5*y1*y2*z2").polynomial()
    mesh = s.deform_surface(h, s.great_torus(), FlowParams.for_time(0.5, 0.0125), m=128)
    # the flow must leave the products of circles: more area, a spread of counts
    vol_gap = s.volume(mesh) - FOUR_PI_SQ
    est = s.mc_expected_count(mesh, s.great_torus(), 20_000, seed=404)
    rhs = s.rhs_theorem6(mesh, s.great_torus())
    tol = 3.0 * est.stderr * VOL_G + 1e-3 * rhs
    elapsed = time.perf_counter() - t0
    ok = (vol_gap > 0.01 * FOUR_PI_SQ and est.stderr > 0.0
          and abs(est.integral - rhs) <= tol and elapsed < 600.0)
    report("A4", ok,
           f"vol-4pi^2={vol_gap:.4f}, mc={est.integral:.4f}, rhs={rhs:.4f}, "
           f"|diff|={abs(est.integral - rhs):.4f}, tol={tol:.4f}, mean={est.mean}, "
           f"stderr={est.stderr:.5f}, discards={est.discard_count}, {elapsed:.1f}s")


def test_a5_kernel_identity_sweep():
    t0 = time.perf_counter()
    worst_rel = 0.0
    endpoint_err = 0.0
    midpoint_err = 0.0
    thetas = np.linspace(0.0, math.pi / 2.0, 33)
    for theta in thetas:
        inv = CellInvariants(theta, theta - math.pi / 2.0, math.pi / 2.0, 0.0)
        lhs = sigma_general(inv)
        rhs = 4.0 * ellipse_perimeter(math.sin(theta) ** 2, math.cos(theta) ** 2)
        worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
        if theta in (thetas[0], thetas[-1]):
            endpoint_err = max(endpoint_err, abs(lhs - 16.0))
        if abs(theta - math.pi / 4.0) < 1e-15:
            midpoint_err = abs(lhs - 4.0 * math.pi)
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-6 and endpoint_err < 1e-8 and midpoint_err < 1e-8 and elapsed < 60.0
    report("A5", ok,
           f"max rel err={worst_rel:.3e}, endpoint |err|={endpoint_err:.3e}, "
           f"midpoint |err|={midpoint_err:.3e}, {elapsed:.1f}s")


def _battery(seed=2026, count=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(int(rng.integers(2, 6))):
            exp = [0] * 6
            for _ in range(int(rng.integers(1, 4))):
                exp[int(rng.integers(0, 6))] += 1
            terms[tuple(exp)] = float(rng.uniform(-0.3, 0.3))
        out.append(s.HamiltonianFunction(terms))
    return out


def test_a6_volume_chain_battery():
    t0 = time.perf_counter()
    params = FlowParams.for_time(0.5, 0.0125)
    rng = np.random.default_rng(606)
    failures = []
    for k, h in enumerate(_battery()):
        mesh = s.deform_surface(h, s.great_torus(), params, m=128)
        vol = s.volume(mesh)
        defect = s.lagrangian_defect(mesh)
        # symplectic pullback error on random tangent pairs
        sym_err = 0.0
        for _ in range(3):
            x = random_product_point(rng)
            u = random_tangent_vector(rng, x)
            v = random_tangent_vector(rng, x)
            y = flow_points(h, x, params)
            du = pushforward(h, x, u, params)
            dv = pushforward(h, x, v, params)
            sym_err = max(sym_err, abs(omega_batch(y, du, dv) - omega_batch(x, u, v)))
        est = s.mc_expected_count(mesh, s.great_torus(), 1500, seed=7000 + k)
        a = 16.0 * vol * s.volume(s.great_torus())
        b = est.integral
        c = 4.0 * VOL_G
        stat = 3.0 * est.stderr * VOL_G + 1e-6 * c
        checks = {
            "volume": vol >= FOUR_PI_SQ - 1e-3,
            "defect": defect < 1e-6,
            "symplectic": sym_err < 1e-6,
            "a_ge_b": a >= b - stat,
            "b_ge_c": b >= c - stat,
        }
        if not all(checks.values()):
            failures.append((k, checks, vol, defect, sym_err, a, b, c))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1800.0
    report("A6", ok, f"20 Hamiltonians, failures={failures if failures else 'none'}, {elapsed:.1f}s")


def test_a7_infrastructure():
    details = []

    # Haar second moment at one million samples
    mats = haar_matrices(777_000, 0, 1_000_000)
    sq = mats[:, 0, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    moment_ok = abs(sq.mean() - 1.0 / 3.0) <= 3.0 * se
    details.append(f"E[R11^2]={sq.mean():.6f}+-{se:.6f}")

    # measure constants: bit-exact identity
    const_ok = (s.VOL_G == s.VOL_SO3 * s.VOL_SO3) and (s.VOL_G == s.VOL_K * s.VOL_GK)
    details.append(f"constants exact={const_ok}")

    # AGM vs adaptive quadrature at 1e-10 on a random grid
    rng = np.random.default_rng(77)
    pairs = rng.uniform(0.0, 1.0, size=(100, 2))
    agm = ellipse_perimeter_batch(pairs[:, 0], pairs[:, 1])
    agm_err = max(abs(v - ellipse_perimeter_quadrature(a, b))
                  for (a, b), v in zip(pairs, agm))
    agm_ok = agm_err < 1e-10
    details.append(f"agm err={agm_err:.2e}")

    # contour vs analytic on 10^4 random torus pairs: no silent mismatch
    silent = 0
    flagged = 0
    total = 0
    torus_rng = np.random.default_rng(4242)
    for block in range(10):
        c1, c2 = torus_rng.uniform(-0.8, 0.8, size=2)
        n_surface = s.latitude_torus(c1, c2)
        problem = _CountingProblem(n_surface, s.great_torus(), 128)
        r1, r2 = group_matrices(9000 + block, 0, 1000)
        analytic, coaxial = counts_product_batch(n_surface, r1, r2, s.great_torus())
        for start in range(0, 1000, 100):
            sl = slice(start, start + 100)
            outcomes = problem.run_batch(r1[sl], r2[sl])
            for j, (status, count, _, _) in enumerate(outcomes):
                idx = start + j
                total += 1
                if coaxial[idx] or status != "ok":
                    flagged += 1
                elif count != analytic[idx]:
                    silent += 1
    equiv_ok = silent == 0 and flagged <= 0.001 * total
    details.append(f"pairs={total}, flagged={flagged}, silent={silent}")

    # byte-identical reports for a fixed seed (runtime field normalized)
    argv = [sys.executable, "-m", "s2xs2.cli", "verify-poincare",
            "--surface", "latitude-torus 0.5 0.5", "--samples", "2000", "--seed", "55"]
    runs = [subprocess.run(argv, capture_output=True, text=True) for _ in range(2)]
    outs = [re.sub(r'"runtime_ms":[0-9.e+-]+', '"runtime_ms":0', r.stdout) for r in runs]
    identical_ok = (runs[0].returncode == 0 and outs[0] == outs[1] and len(outs[0]) > 0)
    details.append(f"byte-identity={identical_ok}")

    ok = moment_ok and const_ok and agm_ok and equiv_ok and identical_ok
    report("A7", ok, "; ".join(details))
