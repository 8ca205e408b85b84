"""The tracer wraps each layer where callers look it up, and restores it after."""

from s2xs2 import surfaces, verify

from layers import LAYERS, layer_metrics
from tracer import Tracer


def test_traced_rhs_counts_nodes_and_nests_spans():
    before = (verify.rhs_theorem6, verify.volume, surfaces.volume, surfaces.surface_quadrature)
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        verify.rhs_theorem6(surfaces.great_torus(), surfaces.great_torus(), m=16)
    finally:
        tracer.uninstall()
    assert (verify.rhs_theorem6, verify.volume, surfaces.volume, surfaces.surface_quadrature) == before

    m = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    # vol(L) at the default grid 64, then the perimeter integral at 16 and 32
    assert m["surfaces.surface_quadrature.nodes"] == 64 * 64 + 16 * 16 + 32 * 32
    assert m["sigma.ellipse_perimeter_batch.nodes"] == 16 * 16 + 32 * 32
    assert m["verify.rhs_theorem6.s"] >= m["surfaces.volume.s"] > 0.0
    assert 0.0 <= m["verify.rhs_theorem6.self_s"] <= m["verify.rhs_theorem6.s"]
    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    assert tracer.spans[0][0] == "verify.rhs_theorem6" and tracer.spans[0][3] == -1
