"""Command-line front end: surface specs, batch verification runs, report emission.

Exit codes: 0 on success/pass, 1 on a failed verification verdict, 2 on usage
errors.  Verification commands print one JSON report object to stdout (the
seed is part of the record) and optionally write it to --output; sigma-table
emits CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import expressions, verify
from .errors import S2xS2Error
from .hamiltonian import MIN_MESH, MIN_STEPS, FlowParams, deform_surface
from .intersections import MIN_COUNT_GRID, count_product_product, count_surface_product
from .rotations import group_element_at, haar_matrices
from .sigma import CellInvariants, ellipse_perimeter, sigma_general
from .surfaces import (
    GraphSurface,
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


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# surface specs
# ---------------------------------------------------------------------------

def _parse_axis(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"axis must be three comma-separated numbers, got {text!r}")
    try:
        axis = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"bad axis component in {text!r}") from exc
    if not np.isfinite(axis).all():
        raise UsageError(f"axis must be finite, got {text!r}")
    if np.linalg.norm(axis) < 1e-12:
        raise UsageError(f"axis must be nonzero, got {text!r}")
    return axis / np.linalg.norm(axis)


def parse_surface_spec(text: str):
    """great-torus | latitude-torus C1 C2 [AX1 AX2] | anti-diagonal | mesh PATH"""
    tokens = text.split()
    if not tokens:
        raise UsageError("empty surface spec")
    kind = tokens[0]
    if kind == "great-torus":
        if len(tokens) != 1:
            raise UsageError("great-torus takes no arguments")
        return great_torus()
    if kind == "latitude-torus":
        if len(tokens) not in (3, 5):
            raise UsageError("latitude-torus needs: c1 c2 [axis1 axis2]")
        try:
            c1, c2 = float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise UsageError(f"bad offsets in {text!r}") from exc
        if len(tokens) == 5:
            ax1, ax2 = _parse_axis(tokens[3]), _parse_axis(tokens[4])
        else:
            ax1 = ax2 = np.array([0.0, 0.0, 1.0])
        try:
            return latitude_torus(c1, c2, ax1, ax2)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if kind == "anti-diagonal":
        if len(tokens) != 1:
            raise UsageError("anti-diagonal takes no arguments")
        return anti_diagonal()
    if kind == "mesh":
        if len(tokens) != 2:
            raise UsageError("mesh needs a path")
        try:
            return load_mesh(tokens[1])
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load mesh {tokens[1]!r}: {exc}") from exc
    raise UsageError(f"unknown surface kind {kind!r}")


def print_surface_spec(surface, mesh_path: str | None = None) -> str:
    if isinstance(surface, ProductTorusSurface):
        c1, c2 = surface.circle1, surface.circle2
        default_axis = np.array([0.0, 0.0, 1.0])
        if c1.offset == 0.0 and c2.offset == 0.0 \
                and np.array_equal(c1.axis, default_axis) and np.array_equal(c2.axis, default_axis):
            return "great-torus"
        ax = lambda a: ",".join(repr(float(x)) for x in a)
        return f"latitude-torus {c1.offset!r} {c2.offset!r} {ax(c1.axis)} {ax(c2.axis)}"
    if isinstance(surface, GraphSurface) and surface.antipodal \
            and np.array_equal(surface.rotation.matrix, np.eye(3)):
        return "anti-diagonal"
    if isinstance(surface, MeshSurface):
        return f"mesh {mesh_path}" if mesh_path else f"mesh <m={surface.m}>"
    raise UsageError(f"cannot print spec for {surface!r}")


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

def _emit(payload: str, output: str | None):
    sys.stdout.write(payload + "\n")
    if output:
        Path(output).write_text(payload + "\n")


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


def _cmd_haar_stats(args) -> int:
    t0 = time.perf_counter()
    mats = haar_matrices(args.seed, 0, args.samples)
    r11 = mats[:, 0, 0]
    sq = r11 ** 2
    trace = np.trace(mats, axis1=1, axis2=2)
    mean_sq = float(sq.mean())
    se_sq = float(sq.std(ddof=1) / math.sqrt(args.samples))
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
            "samples": args.samples,
            "mean_r11": float(r11.mean()),
            "stderr_r11": float(r11.std(ddof=1) / math.sqrt(args.samples)),
            "mean_trace": float(trace.mean()),
            "stderr_trace": float(trace.std(ddof=1) / math.sqrt(args.samples)),
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


def _cmd_count(args) -> int:
    n_surface = parse_surface_spec(args.n_spec)
    l_surface = parse_surface_spec(args.l_spec)
    if not isinstance(l_surface, ProductTorusSurface):
        raise UsageError("L spec must be a product torus")
    g = group_element_at(args.seed, 0)
    if isinstance(n_surface, ProductTorusSurface):
        result = count_product_product(n_surface, g, l_surface)
    else:
        result = count_surface_product(n_surface, g, l_surface, grid=args.grid)
    payload = json.dumps(
        {
            "count": result.count,
            "min_transversality": result.min_transversality,
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
    l_surface = parse_surface_spec(args.against)
    report = verify.verify_poincare(
        n_surface, l_surface, args.samples, args.seed,
        count_grid=args.grid, quad_grid=args.quad_grid, rel_quad_tol=args.tol_rel,
    )
    return _emit_report(report, args)


def _cmd_verify_bounds(args) -> int:
    n_surface = parse_surface_spec(args.surface)
    l_surface = parse_surface_spec(args.against)
    report = verify.verify_prop4_bounds(
        n_surface, l_surface, args.samples, args.seed, count_grid=args.grid,
    )
    return _emit_report(report, args)


def _flow_window(build, *args) -> FlowParams:
    """build(*args) for the flow window, with a ValueError reported as a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_verify_chain(args) -> int:
    expr = expressions.parse_hamiltonian(args.hamiltonian)
    _flow_window(FlowParams.for_time, args.time, verify.CHAIN_DT)  # fail before any flow starts
    report = verify.verify_main_chain(
        expr.polynomial(), args.time, args.samples, args.seed,
        m=args.mesh, count_grid=args.grid,
    )
    return _emit_report(report, args)


def _cmd_flow(args) -> int:
    expr = expressions.parse_hamiltonian(args.hamiltonian)
    if args.steps is None:
        params = _flow_window(FlowParams.for_time, args.time)
    else:
        params = _flow_window(FlowParams, args.time, args.steps)
    mesh = deform_surface(expr.polynomial(), great_torus(), params, m=args.mesh)
    save_mesh(mesh, args.emit_mesh)
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

    def common(p, seeded=True, min_samples=verify.MIN_SAMPLES):
        if seeded:
            p.add_argument("--seed", type=_seed, default=0)
        if min_samples:
            p.add_argument("--samples", type=_at_least(min_samples), default=10000)
        p.add_argument("--output", type=str, default=None)

    def count_grid(p):
        p.add_argument("--grid", type=_at_least(MIN_COUNT_GRID), default=MIN_COUNT_GRID)

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
    count_grid(p)
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except S2xS2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
