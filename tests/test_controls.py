"""Positive controls of the volume chain: flows whose image is the great torus L.

Each flow maps L onto itself as a set, so vol(rho(L)) = 4 pi^2, the count
against gL is 4 on every sample and the chain A >= B >= C holds with
equality.  A report that fails on any of them is a false verdict: at every
accepted mesh the chain must pass with the volume of L.
"""

import json
import math

import pytest

from s2xs2.cli import main

FOUR_PI_SQ = 4 * math.pi ** 2

IMAGE_IS_L = {
    # every term has a factor z1 or z2, so H vanishes on L (z1 = z2 = 0), its
    # field is tangent to the Lagrangian L along L, and the flow keeps L
    "tangent-field": "x1*y1*z1 + x2*y2*z2 + 0.3*x1*y1*z2",
    # isometries: rotations about the z-axes, which carry the equators to themselves
    "rotation": "0.1*z1",
    "rotation-pair": "z1 + z2",
}


@pytest.mark.parametrize("mesh", ["64", "128"])
@pytest.mark.parametrize("name", IMAGE_IS_L)
def test_chain_passes_with_the_volume_of_l(capsys, name, mesh):
    code = main(["verify-chain", "--hamiltonian", IMAGE_IS_L[name], "--time", "0.5",
                 "--mesh", mesh, "--samples", "1000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    assert report["verdict"] == "pass"
    assert report["lhs"] == pytest.approx(FOUR_PI_SQ, rel=1e-12, abs=0.0)
