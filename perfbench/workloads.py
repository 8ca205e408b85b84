"""The three workloads: inputs made from the seed, timed calls into s2xs2, checks.

A workload object is built during set-up.  Its run() makes the round's calls
into the program, each through a module attribute looked up at call time so
the tracer's wrappers are seen; its check() then compares the outputs with
the oracles, after the clock has stopped.  An operation is one checked
result; it fails when its call raised or when any of its checks is false.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time

import numpy as np
from s2xs2 import cli, hamiltonian, rotations, surfaces, verify
from s2xs2.expressions import parse_hamiltonian
from s2xs2.hamiltonian import FlowParams

import oracles

# Band for the program's own statistical gates (identity, chain), as in verify.
Z_PROGRAM = 3.0
# Band for the benchmark's checks of Monte Carlo means against closed forms.
# Runs use arbitrary seeds, so a z = 3 band would fail 0.27% of checks by
# chance; at z = 5 the rate is 6e-7.
Z_CLOSED_FORM = 5.0


def derive_seeds(seed: int, names):
    """One Philox key per Monte Carlo call, all determined by the run seed."""
    keys = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(key) for name, key in zip(names, keys)}


def run_cli(argv):
    """cli.main on argv with stdout captured: (exit code, output text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Round:
    """Outputs, errors and Monte Carlo time of one round's program calls."""

    def __init__(self):
        self.out = {}
        self.errors = {}
        self.mc_calls = []               # [accepted samples, seconds] per Monte Carlo call

    def call(self, key, fn, *args, **kwargs):
        try:
            self.out[key] = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation; the round goes on
            self.errors[key] = f"{type(exc).__name__}: {exc}"

    def mc(self, key, *args, **kwargs):
        t0 = time.perf_counter()
        self.call(key, lambda: verify.mc_expected_count(*args, **kwargs))
        took = time.perf_counter() - t0
        if key in self.out:
            self.mc_calls.append([self.out[key].sample_count, took])

    def op(self, name, needs, checks):
        """One operation: failed if a call it needs raised, else if any check is false."""
        missing = [self.errors.get(k, f"{k} was not computed") for k in needs if k not in self.out]
        if missing:
            return {"name": name, "ok": False, "error": "; ".join(missing)}
        try:
            outcomes = checks()
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed program output
            return {"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        results, observed = {}, {}
        for label, outcome in outcomes.items():
            # a check is a bool, or (bool, the observed number it judged)
            ok, *seen = outcome if isinstance(outcome, tuple) else (outcome,)
            results[label] = bool(ok)
            if seen:
                observed[label] = float(seen[0])
        return {"name": name, "ok": all(results.values()), "checks": results, "observed": observed}

    def estimates(self):
        """Exact counts visible in the outputs: samples and discards per estimate."""
        return {k: {"samples": v.sample_count, "discards": v.discard_count}
                for k, v in self.out.items() if isinstance(v, verify.MonteCarloEstimate)}


def _close(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def _stream_sum_matches(est, oracle_counts):
    """The estimate's count total against the oracle's on the same Haar stream.

    With no discards the program counted stream indices 0..n-1, so the totals
    must be equal.  Each discard shifts one index past n, moving the total by
    at most the largest count (2).
    """
    n = est.sample_count
    total = est.mean * n
    if abs(total - round(total)) > 1e-6:
        return False
    return abs(round(total) - int(oracle_counts[:n].sum())) <= 2 * est.discard_count


class ClosedForms:
    """Great torus against itself, latitude tori, Haar moments, the kernel sweep."""

    GREAT_SAMPLES = 10_000
    LATITUDES = ((0.5, 0.5), (0.3, -0.6), (0.8, 0.1))
    LATITUDE_SAMPLES = 100_000
    HAAR_SAMPLES = 1_000_000
    # every second point of the 33-point grid: the ends, pi/4 and the slow
    # point at pi/8 (it refines to the finest level) stay in, and a round
    # takes ~6 s, so a run holds several and reports their median
    THETA_STEPS = 17

    def __init__(self, seed: int):
        self.seeds = derive_seeds(seed, ["great", "haar"] + [f"latitude{k}" for k in range(3)])
        self.great = surfaces.great_torus()
        self.latitudes = [surfaces.latitude_torus(c1, c2) for c1, c2 in self.LATITUDES]
        self.haar_argv = ["haar-stats", "--samples", str(self.HAAR_SAMPLES),
                          "--seed", str(self.seeds["haar"])]
        self.sweep_argv = ["sigma-table", "--theta-steps", str(self.THETA_STEPS)]

    def run(self, rnd: Round):
        rnd.mc("great", self.great, self.great, self.GREAT_SAMPLES, self.seeds["great"])
        rnd.call("great.rhs", lambda: verify.rhs_theorem6(self.great, self.great))
        for k, torus in enumerate(self.latitudes):
            rnd.mc(f"latitude{k}", torus, self.great, self.LATITUDE_SAMPLES, self.seeds[f"latitude{k}"])
        rnd.call("haar", run_cli, self.haar_argv)
        rnd.call("sweep", run_cli, self.sweep_argv)

    def check(self, rnd: Round):
        ops = []
        est = rnd.out.get("great")
        ops.append(rnd.op("great-torus.count", ["great"], lambda: {
            "count 4 on every sample": est.mean == 4.0 and est.stderr == 0.0,
            "discards under 0.1%": est.discard_count <= 0.001 * est.sample_count,
            "integral 256 pi^4": (_close(est.integral, oracles.UPPER_EQUALITY, 1e-12), est.integral),
        }))
        ops.append(rnd.op("great-torus.rhs", ["great.rhs"], lambda: {
            "rhs 256 pi^4": (_close(rnd.out["great.rhs"], oracles.UPPER_EQUALITY, 1e-6), rnd.out["great.rhs"]),
        }))
        for k, (c1, c2) in enumerate(self.LATITUDES):
            key = f"latitude{k}"
            mean, var = oracles.latitude_torus_count_moments(c1, c2)
            sigma = math.sqrt(var / self.LATITUDE_SAMPLES)
            lat = rnd.out.get(key)
            ops.append(rnd.op(f"latitude-torus({c1},{c2}).count", [key], lambda lat=lat, mean=mean, sigma=sigma: {
                "mean within 5 sigma of 4 sqrt(1-c1^2) sqrt(1-c2^2)":
                    (abs(lat.mean - mean) <= Z_CLOSED_FORM * sigma, (lat.mean - mean) / sigma),
                "stderr within 10% of the closed-form one": (_close(lat.stderr, sigma, 0.1), lat.stderr / sigma),
                "no discards": lat.discard_count == 0,
            }))
        ops.append(rnd.op("haar.moments", ["haar"], lambda: self._check_haar(rnd.out["haar"])))
        ops.extend(self._check_sweep(rnd))
        return ops

    def _check_haar(self, result):
        code, text = result
        report = json.loads(text)
        values = dict(report["config"], mean_sq=report["lhs"])
        checks = {
            # exit 1 is the command's own z = 3 verdict failing, which happens
            # by chance on 0.27% of seeds; the moments are checked below
            "exit code 0 or 1": code in (0, 1),
            "sample count": values["samples"] == self.HAAR_SAMPLES,
        }
        for name, (mean, var) in oracles.HAAR_MOMENTS.items():
            sigma = math.sqrt(var / self.HAAR_SAMPLES)
            z = (values[name] - mean) / sigma
            checks[f"{name} within 5 sigma"] = (abs(z) <= Z_CLOSED_FORM, z)
        return checks

    def _check_sweep(self, rnd: Round):
        thetas = np.linspace(0.0, math.pi / 2.0, self.THETA_STEPS)
        reference = oracles.kernel_sweep_reference(thetas)

        def checks(k):
            code, text = rnd.out["sweep"]
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            # the theta column prints as np.float64(...) under numpy 2
            theta = float(re.sub(r"^np\.float64\((.*)\)$", r"\1", rows[k][0]))
            value = float(rows[k][1])
            out = {
                "exit code 0": code == 0,
                "one row per theta": len(rows) == self.THETA_STEPS and theta == thetas[k],
                "4 x arc-length perimeter to 1e-6":
                    (_close(value, reference[k], 1e-6), abs(value - reference[k]) / reference[k]),
            }
            if k in (0, self.THETA_STEPS - 1):
                out["endpoint 16 to 1e-8"] = abs(value - 16.0) < 1e-8
            if k == self.THETA_STEPS // 2:
                out["midpoint 4 pi to 1e-8"] = abs(value - 4.0 * math.pi) < 1e-8
            return out

        return [rnd.op(f"kernel[{k}]", ["sweep"], lambda k=k: checks(k)) for k in range(self.THETA_STEPS)]


class AntiDiagonal:
    """The graph {(z, -z)} through the contour counter, and its quadrature at A3's grid."""

    SAMPLES = 1000
    PARTNER = (0.3, -0.5)
    GRID = 1024

    def __init__(self, seed: int):
        self.seeds = derive_seeds(seed, ["great", "partner"])
        self.surface = surfaces.anti_diagonal()
        self.great = surfaces.great_torus()
        self.partner = surfaces.latitude_torus(*self.PARTNER)
        self.volume_argv = ["volume", "anti-diagonal", "--grid", str(self.GRID)]

    def run(self, rnd: Round):
        # the two counter calls bracket the quadrature, so count_rate samples
        # the start and the end of the round rather than one 8 s stretch
        rnd.mc("great", self.surface, self.great, self.SAMPLES, self.seeds["great"])
        rnd.call("volume", run_cli, self.volume_argv)
        rnd.call("rhs", lambda: verify.rhs_theorem6(self.surface, self.great, m=self.GRID))
        rnd.mc("partner", self.surface, self.partner, self.SAMPLES, self.seeds["partner"])

    def _oracle_counts(self, est, seed, offsets):
        r1, r2 = rotations.group_matrices(seed, 0, est.sample_count + est.discard_count)
        return oracles.anti_diagonal_counts(r1, r2, offsets)

    def check(self, rnd: Round):
        great, partner = rnd.out.get("great"), rnd.out.get("partner")

        def great_checks():
            counts = self._oracle_counts(great, self.seeds["great"], (0.0, 0.0))
            return {
                "count 2 on every sample": great.mean == 2.0 and great.stderr == 0.0,
                "circle-circle counts on the same samples": _stream_sum_matches(great, counts),
            }

        def partner_checks():
            counts = self._oracle_counts(partner, self.seeds["partner"], self.PARTNER)
            return {
                "oracle count varies": (np.unique(counts).size > 1, counts[:partner.sample_count].mean()),
                "circle-circle counts on the same samples": _stream_sum_matches(partner, counts),
                "discards under 1%": partner.discard_count <= 0.01 * partner.sample_count,
            }

        def volume_checks():
            code, text = rnd.out["volume"]
            return {"exit code 0": code == 0,
                    "vol 8 pi to 1e-6": (_close(float(text), oracles.ANTI_DIAGONAL_VOLUME, 1e-6), float(text))}

        def rhs_checks():
            rhs = rnd.out["rhs"]
            tol = Z_PROGRAM * great.stderr * oracles.VOL_G + 1e-6 * rhs
            return {"rhs 128 pi^4 to 1e-6": (_close(rhs, oracles.LOWER_EQUALITY, 1e-6), rhs),
                    "Monte Carlo integral within the identity tolerance":
                        (abs(great.integral - rhs) <= tol, abs(great.integral - rhs) / tol)}

        return [
            rnd.op("great-torus.count", ["great"], great_checks),
            rnd.op("latitude-partner.count", ["partner"], partner_checks),
            rnd.op("volume", ["volume"], volume_checks),
            rnd.op("rhs", ["rhs", "great"], rhs_checks),
        ]


class DeformedChain:
    """Flow the great torus off the product of great circles; check chain and identity."""

    # x1*x2 + 0.5*y1*y2*z2: the first term tilts each equator by the other
    # factor's x coordinate, so the torus stops being a product of circles.
    TERMS = {(1, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 1): 0.5}
    FLOW_TIME = 0.5
    DT = 0.0125
    MESH = 128
    SAMPLES = 1000

    def __init__(self, seed: int):
        self.seeds = derive_seeds(seed, ["chain"])
        self.hamiltonian = parse_hamiltonian(oracles.hamiltonian_text(self.TERMS)).polynomial()
        self.params = FlowParams.for_time(self.FLOW_TIME, self.DT)
        self.great = surfaces.great_torus()

    def run(self, rnd: Round):
        rnd.call("mesh", lambda: hamiltonian.deform_surface(
            self.hamiltonian, self.great, self.params, m=self.MESH))
        mesh = rnd.out.get("mesh")
        if mesh is None:
            return
        rnd.call("volume", lambda: surfaces.volume(mesh))
        rnd.call("defect", lambda: surfaces.lagrangian_defect(mesh))
        rnd.mc("chain", mesh, self.great, self.SAMPLES, self.seeds["chain"])
        rnd.call("rhs", lambda: verify.rhs_theorem6(mesh, self.great))

    def check(self, rnd: Round):
        out = rnd.out

        def flow_checks():
            drift, off_sphere = oracles.flow_conservation(
                self.TERMS, oracles.great_torus_lattice(self.MESH), out["mesh"].nodes)
            return {"H conserved to 1e-9 at every node": (drift <= 1e-9, drift),
                    "nodes on the spheres to 1e-12": (off_sphere <= 1e-12, off_sphere),
                    "Lagrangian defect under 1e-6": (out["defect"] < 1e-6, out["defect"])}

        def volume_checks():
            excess = out["volume"] - oracles.GREAT_TORUS_VOLUME
            return {"vol >= 4 pi^2 - 1e-3": (excess >= -1e-3, out["volume"]),
                    "vol above 4 pi^2 by over 1%": (excess > 0.01 * oracles.GREAT_TORUS_VOLUME, excess)}

        def chain_checks():
            est = out["chain"]
            a = 16.0 * out["volume"] * oracles.GREAT_TORUS_VOLUME
            b, c = est.integral, oracles.UPPER_EQUALITY
            band = Z_PROGRAM * est.stderr * oracles.VOL_G + 1e-6 * c
            return {"A >= B within the z = 3 band": (a >= b - band, (a - b) / band),
                    "B >= C within the z = 3 band": (b >= c - band, (b - c) / band),
                    "count varies across samples": (est.stderr > 0.0, est.mean),
                    "discards under 1%": est.discard_count <= 0.01 * est.sample_count}

        def rhs_checks():
            est, rhs = out["chain"], out["rhs"]
            tol = Z_PROGRAM * est.stderr * oracles.VOL_G + 1e-3 * rhs
            return {"Monte Carlo integral within the identity tolerance":
                    (abs(est.integral - rhs) <= tol, abs(est.integral - rhs) / tol)}

        return [
            rnd.op("flow", ["mesh", "defect"], flow_checks),
            rnd.op("volume", ["volume"], volume_checks),
            rnd.op("chain", ["chain", "volume"], chain_checks),
            rnd.op("rhs", ["rhs", "chain"], rhs_checks),
        ]


WORKLOADS = {
    "closed-forms": ClosedForms,
    "anti-diagonal": AntiDiagonal,
    "deformed-chain": DeformedChain,
}
