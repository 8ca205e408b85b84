"""Monte Carlo vs kernel quadrature across the whole supported surface family."""

import zlib

import pytest

import s2xs2 as s
from s2xs2.hamiltonian import FlowParams
from s2xs2.rotations import VOL_G

L_CHOICES = [
    ("great", s.great_torus()),
    ("latitude", s.latitude_torus(0.5, 0.5)),
]

PRODUCT_N = [
    ("lat-0.2-0.3", s.latitude_torus(0.2, 0.3)),
    ("lat-0.5-0.5", s.latitude_torus(0.5, 0.5)),
    ("lat-0.7--0.4", s.latitude_torus(0.7, -0.4)),
    ("lat--0.6-0.1", s.latitude_torus(-0.6, 0.1)),
]

DEFORMING = [
    "0.3*z1*z2 + 0.2*x1*x2",
    "0.1*z1*z1 + 0.2*x1*y2",
    "0.25*y1*z2 - 0.15*x2",
    "0.2*z1*z2*z2 + 0.1*y2",
    "-0.3*x1*y1 + 0.2*z2",
]


def case_seed(*names):
    """A seed fixed by the case names, the same in every process."""
    return zlib.crc32(" ".join(names).encode())


def identity_gap(n_surface, l_surface, samples, seed, rel_budget):
    est = s.mc_expected_count(n_surface, l_surface, samples, seed)
    rhs = s.rhs_theorem6(n_surface, l_surface)
    tol = 3.0 * est.stderr * VOL_G + rel_budget * rhs
    return abs(est.integral - rhs), tol


@pytest.mark.parametrize("lname,l_surface", L_CHOICES)
@pytest.mark.parametrize("nname,n_surface", PRODUCT_N)
def test_product_family(nname, n_surface, lname, l_surface, request):
    seed = case_seed(nname, lname)
    gap, tol = identity_gap(n_surface, l_surface, 4000, seed, rel_budget=1e-6)
    assert gap <= tol, (nname, lname, gap, tol)


@pytest.mark.parametrize("lname,l_surface", L_CHOICES)
def test_anti_diagonal_family(lname, l_surface):
    seed = case_seed("anti", lname)
    gap, tol = identity_gap(s.anti_diagonal(), l_surface, 1500, seed, rel_budget=1e-6)
    assert gap <= tol, (lname, gap, tol)


@pytest.fixture(scope="module", params=DEFORMING)
def deformed(request):
    h = s.parse_hamiltonian(request.param).polynomial()
    return request.param, s.deform_surface(h, s.great_torus(), FlowParams.for_time(0.5, 0.0125), m=128)


@pytest.mark.parametrize("lname,l_surface", L_CHOICES)
def test_deformed_family(deformed, lname, l_surface):
    text, mesh = deformed
    seed = case_seed(text, lname)
    gap, tol = identity_gap(mesh, l_surface, 1500, seed, rel_budget=1e-3)
    assert gap <= tol, (text, lname, gap, tol)
