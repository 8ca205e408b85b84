"""The layers the traced run wraps, and the per-layer metrics derived from them.

A layer is named module.function after the s2xs2 module that defines it.
Count hooks read only what a call takes and returns.
"""

from __future__ import annotations

import numpy as np
from s2xs2 import cli, hamiltonian, intersections, rotations, sigma, surfaces, verify


def _analytic(counts, args, result):
    _, coaxial = result
    counts["analytic.samples"] += len(coaxial)
    counts["discard.coaxial"] += int(np.count_nonzero(coaxial))


def _contour(counts, args, outcomes):
    counts["contour.samples"] += len(outcomes)
    for status, *_ in outcomes:
        if status != "ok":
            counts[f"discard.{status}"] += 1


def _quadrature_nodes(counts, args, block):
    counts["quadrature.nodes"] += int(block["measure"].size)


def _perimeter_nodes(counts, args, result):
    counts["perimeter.nodes"] += int(np.size(result))


def _gradient_points(counts, args, result):
    counts["gradient.points"] += int(np.size(result)) // 6


# (layer, owner, attribute, is a generator, count hook)
LAYERS = (
    ("rotations.group_matrices", rotations, "group_matrices", False, None),
    ("rotations.haar_matrices", rotations, "haar_matrices", False, None),
    ("intersections.counts_product_batch", intersections, "counts_product_batch", False, _analytic),
    ("intersections.run_batch", intersections._CountingProblem, "run_batch", False, _contour),
    ("verify.mc_expected_count", verify, "mc_expected_count", False, None),
    ("verify.rhs_theorem6", verify, "rhs_theorem6", False, None),
    ("surfaces.surface_quadrature", surfaces, "surface_quadrature", True, _quadrature_nodes),
    ("surfaces.volume", surfaces, "volume", False, None),
    ("surfaces.lagrangian_defect", surfaces, "lagrangian_defect", False, None),
    ("sigma.sigma_general", sigma, "sigma_general", False, None),
    ("sigma.ellipse_perimeter_batch", sigma, "ellipse_perimeter_batch", False, _perimeter_nodes),
    ("hamiltonian.deform_surface", hamiltonian, "deform_surface", False, None),
    ("hamiltonian.gradient", hamiltonian.HamiltonianFunction, "gradient", False, _gradient_points),
    ("cli.main", cli, "main", False, None),
)


def layer_metrics(tracer):
    """{metric name: (value, unit)} for one traced round."""
    busy, own, calls, counts = tracer.busy, tracer.self_time, tracer.calls, tracer.counts
    contour = counts["contour.samples"]
    samples = counts["analytic.samples"] + contour
    discards = sum(counts[f"discard.{why}"] for why in ("coaxial", "nontransversal", "gridunstable"))
    return {
        "rotations.group_matrices.s": (busy["rotations.group_matrices"], "s"),
        "rotations.group_matrices.calls": (calls["rotations.group_matrices"], "count"),
        "rotations.haar_matrices.s": (busy["rotations.haar_matrices"], "s"),
        "intersections.counts_product_batch.s": (busy["intersections.counts_product_batch"], "s"),
        "intersections.counts_product_batch.calls": (calls["intersections.counts_product_batch"], "count"),
        "intersections.run_batch.s": (busy["intersections.run_batch"], "s"),
        "intersections.run_batch.ms_per_sample":
            (1e3 * busy["intersections.run_batch"] / contour if contour else 0.0, "ms"),
        "intersections.samples": (samples, "count"),
        "intersections.discard.coaxial": (counts["discard.coaxial"], "count"),
        "intersections.discard.nontransversal": (counts["discard.nontransversal"], "count"),
        "intersections.discard.gridunstable": (counts["discard.gridunstable"], "count"),
        "intersections.accept_ratio": ((samples - discards) / samples if samples else 0.0, "ratio"),
        "verify.mc_expected_count.s": (busy["verify.mc_expected_count"], "s"),
        "verify.mc_expected_count.self_s": (own["verify.mc_expected_count"], "s"),
        "verify.rhs_theorem6.s": (busy["verify.rhs_theorem6"], "s"),
        "verify.rhs_theorem6.self_s": (own["verify.rhs_theorem6"], "s"),
        "surfaces.surface_quadrature.s": (busy["surfaces.surface_quadrature"], "s"),
        "surfaces.surface_quadrature.nodes": (counts["quadrature.nodes"], "count"),
        "surfaces.volume.s": (busy["surfaces.volume"], "s"),
        "surfaces.lagrangian_defect.s": (busy["surfaces.lagrangian_defect"], "s"),
        "sigma.sigma_general.s": (busy["sigma.sigma_general"], "s"),
        "sigma.sigma_general.calls": (calls["sigma.sigma_general"], "count"),
        "sigma.ellipse_perimeter_batch.s": (busy["sigma.ellipse_perimeter_batch"], "s"),
        "sigma.ellipse_perimeter_batch.nodes": (counts["perimeter.nodes"], "count"),
        "hamiltonian.deform_surface.s": (busy["hamiltonian.deform_surface"], "s"),
        "hamiltonian.gradient.s": (busy["hamiltonian.gradient"], "s"),
        "hamiltonian.gradient.calls": (calls["hamiltonian.gradient"], "count"),
        "hamiltonian.gradient.points": (counts["gradient.points"], "count"),
        "cli.main.self_s": (own["cli.main"], "s"),
    }
