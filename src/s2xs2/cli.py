"""Command-line front end: surface specs, batch verification runs, report emission.

Exit codes: 0 on success/pass, 1 on a failed verification verdict, 2 on a
package error: refused input (InvalidInput, printed as a usage error; an
unwritable --output or --emit-mesh path among them, refused before the run)
or a sample that cannot be counted.  Verification commands print one JSON
report object to stdout (the seed is part of the record) and optionally
write it to --output; sigma-table emits CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import expressions, verify
from .errors import CoaxialCircles, GridUnstable, InvalidInput, NonTransversalSample, S2xS2Error
from .hamiltonian import MIN_MESH, MIN_STEPS, FlowParams, deform_surface
from .intersections import (
    MIN_COUNT_GRID,
    _CountingProblem,
    counts_product_batch,
    transversality_product_batch,
)
from .rotations import HAAR_CHUNK, group_matrices, haar_matrices
from .sigma import CellInvariants, ellipse_perimeter, sigma_general
from .surfaces import (
    MeshSurface,
    ProductTorusSurface,
    anti_diagonal,
    great_torus,
    lagrangian_defect,
    latitude_torus,
    load_mesh,
    save_mesh,
    volume,
)


# ---------------------------------------------------------------------------
# surface specs
# ---------------------------------------------------------------------------

def _parse_axis(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInput(f"axis must be three comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidInput(f"bad axis component in {text!r}") from exc


def parse_surface_spec(text: str):
    """great-torus | latitude-torus C1 C2 [AX1 AX2] | anti-diagonal | mesh PATH"""
    tokens = text.split()
    if not tokens:
        raise InvalidInput("empty surface spec")
    kind = tokens[0]
    if kind == "great-torus":
        if len(tokens) != 1:
            raise InvalidInput("great-torus takes no arguments")
        return great_torus()
    if kind == "latitude-torus":
        if len(tokens) not in (3, 5):
            raise InvalidInput("latitude-torus needs: c1 c2 [axis1 axis2]")
        try:
            c1, c2 = float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise InvalidInput(f"bad offsets in {text!r}") from exc
        if len(tokens) == 5:
            ax1, ax2 = _parse_axis(tokens[3]), _parse_axis(tokens[4])
        else:
            ax1 = ax2 = np.array([0.0, 0.0, 1.0])
        return latitude_torus(c1, c2, ax1, ax2)
    if kind == "anti-diagonal":
        if len(tokens) != 1:
            raise InvalidInput("anti-diagonal takes no arguments")
        return anti_diagonal()
    if kind == "mesh":
        if len(tokens) != 2:
            raise InvalidInput("mesh needs a path")
        try:
            return load_mesh(tokens[1])
        except (OSError, ValueError) as exc:
            raise InvalidInput(f"cannot load mesh {tokens[1]!r}: {exc}") from exc
    raise InvalidInput(f"unknown surface kind {kind!r}")


def _parse_l_spec(text: str) -> ProductTorusSurface:
    """A surface spec that must name a product torus, the L of a count."""
    surface = parse_surface_spec(text)
    if not isinstance(surface, ProductTorusSurface):
        raise InvalidInput(f"L spec must be a product torus, got {text!r}")
    return surface


def _at_least(floor: int):
    """argparse type: an integer no smaller than floor, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a finite float no smaller than 0, else a usage error."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a Philox key, an integer in [0, 2**128), else a usage error."""
    value = _at_least(0)(text)
    if value >= 2 ** 128:
        raise argparse.ArgumentTypeError(f"must be less than 2**128, got {value}")
    return value


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write(path, write):
    """Run write(), which writes the file at path; an OSError is a usage error."""
    try:
        write()
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _check_writable(path):
    """Refuse a path that the run could not write, before the run: its
    directory must exist and be writable, and the path must not be a
    directory.  Nothing is created; _write still reports a later failure."""
    target = Path(path)
    if target.is_dir():
        raise InvalidInput(f"cannot write {path}: it is a directory")
    if not target.parent.is_dir():
        raise InvalidInput(f"cannot write {path}: no directory {target.parent}")
    if not os.access(target.parent, os.W_OK | os.X_OK):
        raise InvalidInput(f"cannot write {path}: directory {target.parent} is not writable")


def _emit(payload: str, output: str | None):
    if output:
        _write(output, lambda: Path(output).write_text(payload + "\n"))
    sys.stdout.write(payload + "\n")


def _emit_report(report: verify.VerificationReport, args) -> int:
    _emit(report.to_json(), args.output)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ellipse(args) -> int:
    _emit(repr(ellipse_perimeter(args.a, args.b)), args.output)
    return 0


def _cmd_volume(args) -> int:
    surface = parse_surface_spec(args.surface)
    _emit(repr(volume(surface, args.grid)), args.output)
    return 0


def _pairwise_sum(values, lo: int, hi: int):
    """np.add.reduce of the array values(lo, hi), bit for bit, from calls on
    ranges of at most HAAR_CHUNK values.

    numpy sums a contiguous float64 array pairwise: a range longer than its
    block of 128 is split at half its length rounded down to a multiple of
    8.  Splitting [lo, hi) at the same points down to HAAR_CHUNK-value leaves,
    which np.add.reduce sums whole, adds the same numbers in the same order.
    """
    n = hi - lo
    if n <= HAAR_CHUNK:
        return np.add.reduce(values(lo, hi))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def _mean_and_stderr(values, n: int):
    """Mean and standard error of the n values that values(lo, hi) returns
    range by range, bitwise np.mean and np.std(ddof=1) / sqrt(n) of the
    whole array, with no temporary longer than HAAR_CHUNK."""
    mean = _pairwise_sum(values, 0, n) / n

    def squared_deviations(lo, hi):
        d = values(lo, hi) - mean
        d *= d
        return d

    return float(mean), math.sqrt(_pairwise_sum(squared_deviations, 0, n) / (n - 1)) / math.sqrt(n)


def _cmd_haar_stats(args) -> int:
    """The moments of r11, r11 ** 2 and the trace, from a stream drawn
    HAAR_CHUNK rotations at a time: only the r11 and trace columns are kept,
    not the matrices, and every moment is summed HAAR_CHUNK values at a time."""
    t0 = time.perf_counter()
    n = args.samples
    try:
        r11, trace = np.empty((2, n))
    except MemoryError:
        raise InvalidInput(f"--samples {n} needs {16 * n} bytes for its r11 and trace columns, "
                           f"which cannot be allocated") from None
    for lo in range(0, n, HAAR_CHUNK):
        mats = haar_matrices(args.seed, lo, min(HAAR_CHUNK, n - lo))
        r11[lo:lo + len(mats)] = mats[:, 0, 0]
        trace[lo:lo + len(mats)] = np.trace(mats, axis1=1, axis2=2)
    mean_sq, se_sq = _mean_and_stderr(lambda lo, hi: r11[lo:hi] * r11[lo:hi], n)
    mean_r11, se_r11 = _mean_and_stderr(lambda lo, hi: r11[lo:hi], n)
    mean_trace, se_trace = _mean_and_stderr(lambda lo, hi: trace[lo:hi], n)
    tol = 3.0 * se_sq
    verdict = "pass" if abs(mean_sq - 1.0 / 3.0) <= tol else "fail"
    report = verify.VerificationReport(
        name="haar-moments",
        lhs=mean_sq,
        rhs=1.0 / 3.0,
        stderr=se_sq,
        tolerance=tol,
        verdict=verdict,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=args.seed,
        config={
            "samples": n,
            "mean_r11": mean_r11,
            "stderr_r11": se_r11,
            "mean_trace": mean_trace,
            "stderr_trace": se_trace,
        },
    )
    return _emit_report(report, args)


def _cmd_sigma_table(args) -> int:
    lines = ["theta,sigma_quadrature,four_ellipse_perimeter,rel_err"]
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2.0, args.theta_steps):
        inv = CellInvariants(theta, theta - math.pi / 2.0, math.pi / 2.0, 0.0)
        lhs = sigma_general(inv)
        rhs = 4.0 * ellipse_perimeter(math.sin(theta) ** 2, math.cos(theta) ** 2)
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        lines.append(f"{float(theta)!r},{lhs!r},{rhs!r},{rel!r}")
    _emit("\n".join(lines), args.output)
    return 0 if worst < 1e-6 else 1


def _count_grid(args, n_surface) -> int:
    """The contour counter's --grid, MIN_COUNT_GRID when omitted.  Given
    explicitly for a product-torus N it is refused: that count is closed-form
    and builds no grid, so the option would be silently ignored."""
    if args.grid is None:
        return MIN_COUNT_GRID
    if isinstance(n_surface, ProductTorusSurface):
        raise InvalidInput("--grid does not apply: N is a product torus, whose count is closed-form "
                           "and builds no grid")
    return args.grid


def _cmd_count(args) -> int:
    n_surface = parse_surface_spec(args.n_spec)
    l_surface = _parse_l_spec(args.l_spec)
    grid = _count_grid(args, n_surface)
    volume(n_surface)   # refuses an N whose partials span no plane, as every verify-* report does
    r1, r2 = group_matrices(args.seed, 0, 1)  # Monte Carlo sample 0
    if isinstance(n_surface, ProductTorusSurface):
        (count,), (coaxial,) = counts_product_batch(n_surface, r1, r2, l_surface)
        if coaxial:
            raise CoaxialCircles("coincident circle planes: the sample has no point count")
        (min_trans,) = transversality_product_batch(n_surface, r1, r2, l_surface)
    else:
        (status, count, min_trans, _), = _CountingProblem(n_surface, l_surface, grid).run_batch(r1, r2)
        if status == "gridunstable":
            raise GridUnstable(f"count changed between grids {grid} and {2 * grid}")
        if status == "nontransversal":
            raise NonTransversalSample("an intersection point failed the transversality gate")
    payload = json.dumps(
        {
            "count": int(count),
            "min_transversality": float(min_trans),
            "seed": args.seed,
            "n": args.n_spec,
            "l": args.l_spec,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    _emit(payload, args.output)
    return 0


def _cmd_verify_poincare(args) -> int:
    n_surface = parse_surface_spec(args.surface)
    l_surface = _parse_l_spec(args.against)
    count_grid = _count_grid(args, n_surface)
    if args.quad_grid is not None and isinstance(n_surface, MeshSurface):
        raise InvalidInput("--quad-grid does not apply: N is a mesh, whose quadrature runs on its own "
                           "node lattice")
    report = verify.verify_poincare(
        n_surface, l_surface, args.samples, args.seed,
        count_grid=count_grid, quad_grid=args.quad_grid, rel_quad_tol=args.tol_rel,
    )
    return _emit_report(report, args)


def _cmd_verify_bounds(args) -> int:
    n_surface = parse_surface_spec(args.surface)
    l_surface = _parse_l_spec(args.against)
    report = verify.verify_prop4_bounds(
        n_surface, l_surface, args.samples, args.seed, count_grid=_count_grid(args, n_surface),
    )
    return _emit_report(report, args)




def _cmd_verify_chain(args) -> int:
    expr = expressions.parse_hamiltonian(args.hamiltonian)
    report = verify.verify_main_chain(
        expr.polynomial(), args.time, args.samples, args.seed,
        m=args.mesh, count_grid=args.grid,
    )
    return _emit_report(report, args)


def _cmd_flow(args) -> int:
    expr = expressions.parse_hamiltonian(args.hamiltonian)
    if args.steps is None:
        params = FlowParams.for_time(args.time)
    else:
        params = FlowParams(args.time, args.steps)
    mesh = deform_surface(expr.polynomial(), great_torus(), params, m=args.mesh)
    _write(args.emit_mesh, lambda: save_mesh(mesh, args.emit_mesh))
    payload = json.dumps(
        {
            "mesh": args.emit_mesh,
            "m": args.mesh,
            "steps": params.steps,
            "volume": volume(mesh),
            "lagrangian_defect": lagrangian_defect(mesh),
            "hamiltonian": expr.to_text(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    _emit(payload, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2xs2",
        description="Verification runs for intersection kinematics on the product of two unit spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, min_samples=verify.MIN_SAMPLES):
        p.add_argument("--seed", type=_seed, default=0)
        if min_samples:
            p.add_argument("--samples", type=_at_least(min_samples), default=10000)
        p.add_argument("--output", type=str, default=None)

    def count_grid(p, default=None):
        p.add_argument("--grid", type=_at_least(MIN_COUNT_GRID), default=default)

    p = sub.add_parser("ellipse", help="perimeter of an ellipse with the given semiaxes")
    p.add_argument("a", type=_finite_float)
    p.add_argument("b", type=_finite_float)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_ellipse)

    p = sub.add_parser("volume", help="area of a surface spec")
    p.add_argument("surface", type=str)
    p.add_argument("--grid", type=_at_least(1), default=None)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("haar-stats", help="moment checks for the rotation sampler")
    common(p, min_samples=2)  # the standard errors need two samples
    p.set_defaults(func=_cmd_haar_stats)

    p = sub.add_parser("sigma-table", help="CSV sweep of the kernel against the ellipse form")
    p.add_argument("--theta-steps", type=_at_least(2), default=33)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_sigma_table)

    p = sub.add_parser("count", help="intersection count for one sampled group element")
    p.add_argument("n_spec", type=str)
    p.add_argument("l_spec", type=str)
    common(p, min_samples=None)
    count_grid(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify-poincare", help="Monte Carlo vs kernel quadrature identity")
    p.add_argument("--surface", type=str, required=True)
    p.add_argument("--against", type=str, default="great-torus")
    common(p)
    count_grid(p)
    p.add_argument("--quad-grid", type=_at_least(1), default=None)
    p.add_argument("--tol-rel", type=_non_negative_float, default=1e-3)
    p.set_defaults(func=_cmd_verify_poincare)

    p = sub.add_parser("verify-bounds", help="two-sided intersection bounds")
    p.add_argument("--surface", type=str, required=True)
    p.add_argument("--against", type=str, default="great-torus")
    common(p)
    count_grid(p)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("verify-chain", help="volume chain for a Hamiltonian deformation")
    p.add_argument("--hamiltonian", type=str, required=True)
    p.add_argument("--time", type=_finite_float, default=0.5)
    common(p)
    count_grid(p, MIN_COUNT_GRID)  # N is the flowed mesh: always counted on a grid
    p.add_argument("--mesh", type=_at_least(MIN_MESH), default=128)
    p.set_defaults(func=_cmd_verify_chain)

    p = sub.add_parser("flow", help="flow the great torus and write the mesh")
    p.add_argument("--hamiltonian", type=str, required=True)
    p.add_argument("--time", type=_finite_float, default=0.5)
    p.add_argument("--emit-mesh", type=str, required=True)
    p.add_argument("--mesh", type=_at_least(MIN_MESH), default=128)
    p.add_argument("--steps", type=_at_least(MIN_STEPS), default=None)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_flow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for path in (args.output, getattr(args, "emit_mesh", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except S2xS2Error as exc:
        kind = "" if isinstance(exc, InvalidInput) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
