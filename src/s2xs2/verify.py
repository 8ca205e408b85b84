"""Verification driver: Monte Carlo averages, quadrature identities, reports.

The quantities under test, for surfaces N and a product torus L:

* the group average of the transversal intersection count,
  integral = vol(G) * E[count] with vol(G) = (8 pi^2)^2;
* the angle-kernel identity  integral = 4 vol(L) * INT_N perim(x) dA(x),
  where perim(x) is the arc length of the ellipse attached to the normal
  plane of N at x (rhs_theorem6);
* the two-sided bounds  4 pi vol(N) vol(L) <= integral <= 16 vol(N) vol(L);
* the deformation chain  16 vol(rho(L)) vol(L) >= integral >= 4 vol(G), whose
  conclusion is vol(rho(L)) >= vol(L) = 4 pi^2 for Hamiltonian deformations.

Statistical acceptance is at z = 3 with explicit standard-error propagation;
purely deterministic identities use relative tolerances.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ExcessiveDiscards, InvalidInput, NotLagrangian, QuadratureNotConverged
from .hamiltonian import FlowParams, HamiltonianFunction, deform_surface
from .intersections import _CountingProblem, counts_product_batch
from .rotations import VOL_G, group_matrices
from .sigma import (
    KERNEL_ROW_NODES,
    cell_angles_batch,
    ellipse_perimeter_batch,
    lagrangian_semiaxes_batch,
    sigma_general_batch,
)
from .surfaces import (
    QUADRATURE_TILE,
    ProductTorusSurface,
    great_torus,
    lagrangian_defect,
    quadrature_levels,
    surface_quadrature,
    volume,
)

LAGRANGIAN_GATE = 1e-6
DISCARD_LIMIT = 0.01
Z_SCORE = 3.0
FOUR_PI_SQ = 4.0 * math.pi * math.pi
CHAIN_RHS = 4.0 * VOL_G  # = 256 pi^4
ANALYTIC_CHUNK = 1 << 13  # samples per closed-form count call; a run holds one chunk at a time
CONTOUR_BATCH = 128       # samples per contour-counter call
MIN_SAMPLES = 1000        # smallest Monte Carlo run accepted
QUAD_REL_TOL = 1e-6       # slack, relative to the bound, for the deterministic volume error


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean of the intersection count over Haar samples."""

    mean: float
    stderr: float
    sample_count: int
    discard_count: int

    @property
    def integral(self) -> float:
        """Unnormalized group integral: mean times vol(G)."""
        return self.mean * VOL_G


@dataclass(frozen=True)
class VerificationReport:
    name: str
    lhs: float
    rhs: object            # float, or (lower, upper) for bound reports
    stderr: float
    tolerance: float
    verdict: str           # "pass" | "fail"
    runtime_ms: float
    seed: int | None
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _mean_stderr(hist):
    """Sample mean and standard error of integer counts, from their histogram
    hist (hist[k] samples counted k).

    Both sums are exact before their one rounding, as math.fsum over the
    counts would make them: the total is an integer, and each squared
    deviation (k - mean) ** 2, rounded as a float, enters the variance sum
    as an exact dyadic fraction weighted by its frequency.
    """
    values = np.flatnonzero(hist)
    values, freq = values.tolist(), hist[values].tolist()
    n = sum(freq)
    mean = sum(k * f for k, f in zip(values, freq)) / n
    if n > 1:
        ratios = [((k - mean) ** 2).as_integer_ratio() for k in values]
        denom = max(q for _, q in ratios)  # the denominators are powers of 2
        var = sum(f * p * (denom // q) for f, (p, q) in zip(freq, ratios)) / denom / (n - 1)
    else:
        var = 0.0
    return mean, math.sqrt(var / n)


def mc_expected_count(n_surface, l_surface: ProductTorusSurface, samples: int, seed: int,
                      grid: int = 128) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[count(N, g L)] over Haar-distributed g.

    Product-torus N uses the closed-form factor counts; everything else goes
    through the contour counter.  Samples flagged as coaxial, non-transversal
    or grid-unstable are discarded and replaced deterministically (the stream
    index keeps advancing), with the discard rate capped at 1%.  The accepted
    counts go into a running histogram chunk by chunk, so the memory of a
    run is that of one chunk, whatever the number of samples.
    """
    if not isinstance(l_surface, ProductTorusSurface):
        raise InvalidInput("L must be a product torus")
    if samples < MIN_SAMPLES:
        raise InvalidInput(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    analytic = isinstance(n_surface, ProductTorusSurface)
    problem = None if analytic else _CountingProblem(n_surface, l_surface, grid)

    hist = np.zeros(0, dtype=np.int64)  # hist[k]: accepted samples counted k
    accepted = 0
    discards = 0
    cursor = 0
    while accepted < samples:
        # never draw past the samples still needed, so the estimate and the
        # discard count depend only on the stream, not on the chunk size
        todo = min(ANALYTIC_CHUNK if analytic else CONTOUR_BATCH, samples - accepted)
        r1, r2 = group_matrices(seed, cursor, todo)
        cursor += todo
        if analytic:
            counts, bad = counts_product_batch(n_surface, r1, r2, l_surface)
        else:
            outcomes = problem.run_batch(r1, r2)
            counts = np.array([c for _, c, _, _ in outcomes])
            bad = np.array([status != "ok" for status, _, _, _ in outcomes])
        grown = np.bincount(counts[~bad], minlength=hist.size)
        grown[:hist.size] += hist
        hist = grown
        accepted = int(hist.sum())
        discards += int(np.count_nonzero(bad))
        if discards > DISCARD_LIMIT * samples + 100:
            raise ExcessiveDiscards(f"{discards} discards against {samples} requested samples")
    if discards > DISCARD_LIMIT * samples:
        raise ExcessiveDiscards(f"{discards}/{samples} samples discarded")
    mean, stderr = _mean_stderr(hist)
    return MonteCarloEstimate(mean, stderr, samples, discards)


def _require_lagrangian(n_surface):
    defect = lagrangian_defect(n_surface)
    if defect >= LAGRANGIAN_GATE:
        raise NotLagrangian(f"Lagrangian defect {defect:.3e} >= {LAGRANGIAN_GATE:.1e}")


def _perimeter_integral(n_surface, m: int) -> float:
    """INT_N perim(semiaxes(x)) dA by composite quadrature on the chart grids.

    Each node's J' cosine is <J' du, dv> / |du ^ dv|, read from the raw
    partials and the tile's area element.
    """
    total = []
    for block in surface_quadrature(n_surface, m):
        per = ellipse_perimeter_batch(
            *lagrangian_semiaxes_batch(block["points"], block["du"], block["dv"], block["area"]))
        total.append(float(np.sum(block["measure"] * per)))
    return math.fsum(total)


def rhs_theorem6(n_surface, l_surface: ProductTorusSurface, m: int | None = None) -> float:
    """Kernel side of the intersection identity: 4 vol(L) INT_N perim(x) dA(x).

    The perimeter integral runs on the grids of surfaces.quadrature_levels,
    the last one is reported, and every earlier one must agree with it to
    1e-6 relative.  A graph reports grid m and checks it against m // 2: its
    Gauss-Legendre panels are exact to rounding from m = 16, so a level
    twice as fine would add nothing.  A torus reports 2m and checks m, as
    it always has: its trapezoid levels at the default 64 are cheap, and so
    its values keep every bit.  A mesh is integrated once, on its own node
    lattice (its resolution is part of the data).
    """
    if not isinstance(l_surface, ProductTorusSurface):
        raise InvalidInput("L must be a product torus")
    _require_lagrangian(n_surface)
    vol_l = volume(l_surface)
    levels = quadrature_levels(n_surface, m)
    *checks, value = (_perimeter_integral(n_surface, k) for k in levels)
    for k, check in zip(levels, checks):
        # phrased so that a non-finite level fails it too
        if not (math.isfinite(value) and abs(value - check) <= 1e-6 * max(abs(value), 1e-300)):
            raise QuadratureNotConverged(
                f"surface quadrature at grids {k} and {levels[-1]} gave {check!r} and {value!r}, "
                f"not within 1e-6 relative"
            )
    return 4.0 * vol_l * value


def _normal_invariant_samples(surface, m: int):
    """Quadrature weights and normal-plane angle pairs (A, B) over a surface.

    The normal-plane angles are obtained from the tangent-plane pairings via
    the complement map (A, B) -> (pi - A, B), which represents the same
    unoriented plane orbit as an explicit orthogonal-complement construction
    (the kernel is invariant under the joint flip (A, B) -> (pi - A, pi - B)).
    """
    angles = []
    weights = []
    for block in surface_quadrature(surface, m):
        a_t, b_t = cell_angles_batch(block["points"], block["du"], block["dv"], block["area"])
        keep = block["measure"] > 0.0
        angles.append(np.stack([np.pi - a_t[keep], b_t[keep]], axis=1))
        weights.append(block["measure"][keep])
    return np.concatenate(angles, axis=0), np.concatenate(weights)


def _distinct_invariants(angles, weights):
    """The distinct invariant pairs among the nodes and the weight on each.

    Nodes are merged on their cosines rounded to 9 decimals, not on their
    angles: arccos near +-1 turns the last-bit noise of a cosine into angle
    steps of about 1.5e-8, which would split one constant invariant over
    several keys.  Each pair is represented by the angles of its first node.
    """
    _, first, inverse = np.unique(np.round(np.cos(angles), 9), axis=0,
                                  return_index=True, return_inverse=True)
    return angles[first], np.bincount(inverse, weights=weights, minlength=len(first))


def kernel_rhs_general(n_surface, l_surface, m: int = 16) -> float:
    """General kernel side: double surface quadrature of the angle kernel.

    Works for any supported surface pair (no Lagrangian or product hypothesis).
    The kernel is evaluated once per distinct pair of invariants, in blocks
    of pairs sized so that the kernel's temporaries stay near
    QUADRATURE_TILE nodes each; surfaces with constant invariants collapse
    to a single row.
    """
    uniq_n, mass_n = _distinct_invariants(*_normal_invariant_samples(n_surface, m))
    uniq_l, mass_l = _distinct_invariants(*_normal_invariant_samples(l_surface, m))
    half_n = 0.5 * np.stack([uniq_n[:, 0] + uniq_n[:, 1], uniq_n[:, 0] - uniq_n[:, 1]], axis=1)
    half_l = 0.5 * np.stack([uniq_l[:, 0] + uniq_l[:, 1], uniq_l[:, 0] - uniq_l[:, 1]], axis=1)
    rows = np.concatenate([np.repeat(half_n, len(uniq_l), axis=0), np.tile(half_l, (len(uniq_n), 1))], axis=1)
    mass = np.outer(mass_n, mass_l).reshape(-1)
    block = max(1, QUADRATURE_TILE // KERNEL_ROW_NODES)
    return math.fsum(np.concatenate([mass[s:s + block] * sigma_general_batch(rows[s:s + block])
                                     for s in range(0, len(rows), block)]))


def verify_poincare(n_surface, l_surface, samples: int, seed: int,
                    count_grid: int = 128, quad_grid: int | None = None,
                    rel_quad_tol: float = 1e-3) -> VerificationReport:
    """Identity report: Monte Carlo integral against the kernel quadrature.

    The kernel side goes first, so N meets the Lagrangian gate of
    rhs_theorem6 before the Monte Carlo run: a refused N costs no samples.
    """
    if not (math.isfinite(rel_quad_tol) and rel_quad_tol >= 0.0):
        raise InvalidInput(f"rel_quad_tol must be finite and >= 0, got {rel_quad_tol}")
    t0 = time.perf_counter()
    rhs = rhs_theorem6(n_surface, l_surface, m=quad_grid)
    est = mc_expected_count(n_surface, l_surface, samples, seed, grid=count_grid)
    tol = Z_SCORE * est.stderr * VOL_G + rel_quad_tol * abs(rhs)
    verdict = "pass" if abs(est.integral - rhs) <= tol else "fail"
    return VerificationReport(
        name="poincare-identity",
        lhs=est.integral,
        rhs=rhs,
        stderr=est.stderr,
        tolerance=tol,
        verdict=verdict,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=seed,
        config={
            "samples": samples,
            "count_grid": count_grid,
            "mean": est.mean,
            "discards": est.discard_count,
        },
    )


def verify_prop4_bounds(n_surface, l_surface, samples: int, seed: int,
                        count_grid: int = 128) -> VerificationReport:
    """Bound report: 4 pi vol(N) vol(L) <= integral <= 16 vol(N) vol(L).

    Besides the z = 3 statistical band, the verdict allows QUAD_REL_TOL of the
    upper bound for the deterministic volume-quadrature error, which decides
    the equality cases where the count variance vanishes.
    """
    t0 = time.perf_counter()
    _require_lagrangian(n_surface)
    est = mc_expected_count(n_surface, l_surface, samples, seed, grid=count_grid)
    vol_n = volume(n_surface)
    vol_l = volume(l_surface)
    lower = 4.0 * math.pi * vol_n * vol_l
    upper = 16.0 * vol_n * vol_l
    stat = Z_SCORE * est.stderr * VOL_G
    slack = QUAD_REL_TOL * upper
    verdict = "pass" if (lower - stat - slack <= est.integral <= upper + stat + slack) else "fail"
    return VerificationReport(
        name="intersection-bounds",
        lhs=est.integral,
        rhs=(lower, upper),
        stderr=est.stderr,
        tolerance=stat,
        verdict=verdict,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=seed,
        config={
            "samples": samples,
            "count_grid": count_grid,
            "vol_n": vol_n,
            "vol_l": vol_l,
            "mean": est.mean,
            "discards": est.discard_count,
            "gap_lower": (est.integral - lower) / upper,
            "gap_upper": (upper - est.integral) / upper,
        },
    )


def verify_main_chain(hamiltonian: HamiltonianFunction, flow_time: float,
                      samples: int, seed: int, m: int = 128,
                      count_grid: int = 128) -> VerificationReport:
    """Deformation chain report for the great torus L and a Hamiltonian flow.

    Computes rho(L), then checks A >= B >= C and vol(rho(L)) >= 4 pi^2 - 1e-3,
    where A = 16 vol(rho(L)) vol(L), B is the Monte Carlo group integral of
    the intersection count of (rho(L), L), and C = 4 vol(G) = 256 pi^4.  The
    flow takes FlowParams.for_time's default RK4 steps.  The inequality checks
    carry the z = 3 statistical band plus QUAD_REL_TOL of C for the deterministic
    volume error, which decides where the count variance vanishes: a flow onto
    L itself leaves a lattice on L, whose spectral partials give a = b = c.
    """
    t0 = time.perf_counter()
    torus = great_torus()
    params = FlowParams.for_time(flow_time)
    deformed = deform_surface(hamiltonian, torus, params, m=m)
    vol_l = volume(torus)
    vol_rho = volume(deformed)
    defect = lagrangian_defect(deformed)
    est = mc_expected_count(deformed, torus, samples, seed, grid=count_grid)
    a = 16.0 * vol_rho * vol_l
    b = est.integral
    c = CHAIN_RHS
    stat = Z_SCORE * est.stderr * VOL_G
    slack = QUAD_REL_TOL * c
    checks = {
        "a_ge_b": a >= b - stat - slack,
        "b_ge_c": b >= c - stat - slack,
        "volume_min": vol_rho >= FOUR_PI_SQ - 1e-3,
        "lagrangian": defect < LAGRANGIAN_GATE,
    }
    verdict = "pass" if all(checks.values()) else "fail"
    return VerificationReport(
        name="volume-chain",
        lhs=vol_rho,
        rhs=FOUR_PI_SQ,
        stderr=est.stderr,
        tolerance=1e-3,
        verdict=verdict,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=seed,
        config={
            "samples": samples,
            "mesh": m,
            "steps": params.steps,
            "flow_time": flow_time,
            "a": a,
            "b": b,
            "c": c,
            "stat_tolerance": stat,
            "defect": defect,
            "mean": est.mean,
            "discards": est.discard_count,
            "checks": checks,
        },
    )
