import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import s2xs2
from s2xs2 import cli
from s2xs2.cli import main, parse_surface_spec
from s2xs2.errors import InvalidInput
from s2xs2.expressions import MAX_NESTING
from s2xs2.hamiltonian import MAX_STEPS
from s2xs2.rotations import HAAR_CHUNK
from s2xs2.surfaces import (
    GraphSurface,
    MeshSurface,
    ProductTorusSurface,
    great_torus,
    latitude_torus,
    lattice_points,
    save_mesh,
    volume,
)

from helpers import haar_stats_by_one_batch


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_under_4_gib(*argv):
    """The command line run in a child process whose address space is
    limited to 4 GiB, so an allocation past it fails whatever the host's
    overcommit policy."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
             "from s2xs2.cli import main\n"
             "raise SystemExit(main(sys.argv[1:]))\n")
    src = Path(s2xs2.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def normalize_runtime(text):
    return re.sub(r'"runtime_ms":[0-9.e+-]+', '"runtime_ms":0', text)


class TestSurfaceSpecs:
    def test_parses_each_torus_and_graph_kind(self):
        great = parse_surface_spec("great-torus")
        assert isinstance(great, ProductTorusSurface)
        assert (great.circle1.offset, great.circle2.offset) == (0.0, 0.0)
        lat = parse_surface_spec("latitude-torus 0.5 -0.25 0,0,1 1,0,0")
        assert (lat.circle1.offset, lat.circle2.offset) == (0.5, -0.25)
        assert np.allclose(lat.circle2.axis, [1, 0, 0])
        anti = parse_surface_spec("anti-diagonal")
        assert isinstance(anti, GraphSurface) and anti.antipodal
        assert np.array_equal(anti.rotation, np.eye(3))

    def test_mesh_spec(self, tmp_path):
        path = tmp_path / "m.mesh"
        save_mesh(MeshSurface(lattice_points(great_torus(), 24)), path)
        surf = parse_surface_spec(f"mesh {path}")
        assert isinstance(surf, MeshSurface)
        assert surf.m == 24

    def test_bad_specs(self):
        for text in ("", "octahedron", "latitude-torus 0.5", "latitude-torus a b",
                     "mesh /nonexistent/path", "great-torus extra"):
            with pytest.raises(InvalidInput):
                parse_surface_spec(text)


class TestCommands:
    def test_ellipse_circle(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "1", "1")
        assert code == 0
        assert out.strip().startswith("6.283185307")

    def test_volume_great_torus(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "great-torus")
        assert code == 0
        assert float(out) == pytest.approx(4 * math.pi ** 2, rel=1e-12)

    def test_haar_stats(self, capsys):
        code, out, _ = run_cli(capsys, "haar-stats", "--samples", "20000", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert abs(payload["lhs"] - 1 / 3) < 3 * payload["stderr"]

    @pytest.mark.parametrize("n", [2, HAAR_CHUNK, 2 * HAAR_CHUNK + 7, 5 * HAAR_CHUNK + 3])
    def test_haar_stats_stream_matches_one_batch(self, capsys, n):
        code, out, _ = run_cli(capsys, "haar-stats", "--samples", str(n), "--seed", "8")
        assert code in (0, 1)
        payload = json.loads(out)
        got = {key: payload[key] for key in ("lhs", "stderr")}
        got.update((key, payload["config"][key])
                   for key in ("mean_r11", "stderr_r11", "mean_trace", "stderr_trace"))
        expected = haar_stats_by_one_batch(8, n)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}

    def test_haar_stats_holds_two_columns_per_sample(self, capsys):
        n = 1_000_000
        run_cli(capsys, "haar-stats", "--samples", "10")  # imports and caches outside the window
        tracemalloc.start()
        try:
            code = main(["haar-stats", "--samples", str(n), "--seed", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        # the two (n,) columns take 16 bytes a sample, and the moments are
        # summed HAAR_CHUNK values at a time; the (9, n) matrix array alone
        # takes 72 bytes a sample
        assert peak < 20 * n

    def test_haar_stats_refuses_columns_it_cannot_allocate(self):
        # the 16 GB of columns exceed the child's address-space limit
        n = 1_000_000_000
        done = run_cli_under_4_gib("haar-stats", "--samples", str(n))
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == (f"error: --samples {n} needs {16 * n} bytes for its r11 and trace columns, "
                               f"which cannot be allocated\n")

    @pytest.mark.parametrize("argv", [
        ["count", "anti-diagonal", "great-torus", "--seed", "3"],
        ["verify-poincare", "--surface", "anti-diagonal", "--samples", "1000", "--seed", "1"],
    ], ids=["count", "verify-poincare"])
    def test_a_counting_grid_it_cannot_allocate_is_a_usage_error(self, argv):
        # the node grid alone takes 1.75 TiB
        m = 100_000
        done = run_cli_under_4_gib(*argv, "--grid", str(m))
        need = 48 * (2 * m + 1) ** 2
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == (f"error: counting grid m = {m} needs over {need} bytes per chart "
                               f"for its (2m + 1)^2 nodes, which cannot be allocated\n")

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300_000), seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 12))
    def test_pairwise_sum_is_numpy_sum_bitwise(self, n, seed, spread):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)
        ranges = []

        def leaf(lo, hi):
            ranges.append((lo, hi))
            return values[lo:hi]

        got = cli._pairwise_sum(leaf, 0, n)
        assert float(got).hex() == float(np.add.reduce(values)).hex()
        # the leaves tile [0, n) in order, none longer than HAAR_CHUNK
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]] and ranges[-1][1] == n
        assert max(hi - lo for lo, hi in ranges) <= HAAR_CHUNK

    def test_sigma_table(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "sigma-table", "--theta-steps", "5",
                               "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "theta,sigma_quadrature,four_ellipse_perimeter,rel_err"
        assert len(lines) == 6
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(16.0, abs=1e-7)

    def test_count_command(self, capsys):
        code, out, _ = run_cli(capsys, "count", "great-torus", "great-torus", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["seed"] == 7

    def test_verify_poincare_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-poincare", "--surface", "great-torus",
            "--against", "great-torus", "--samples", "1000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["lhs"] == pytest.approx(256 * math.pi ** 4, rel=1e-9)

    def test_verify_bounds_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-bounds", "--surface", "latitude-torus 0.5 0.5",
            "--samples", "2000", "--seed", "9")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_flow_then_count_roundtrip(self, capsys, tmp_path):
        mesh_path = tmp_path / "flowed.mesh"
        code, out, _ = run_cli(
            capsys, "flow", "--hamiltonian", "0.2*z1*z2", "--time", "0.5",
            "--mesh", "64", "--emit-mesh", str(mesh_path))
        assert code == 0
        info = json.loads(out)
        assert info["volume"] >= 4 * math.pi ** 2 - 1e-3
        assert info["lagrangian_defect"] < 1e-6
        code, out, _ = run_cli(capsys, "count", f"mesh {mesh_path}", "great-torus", "--seed", "2")
        assert code == 0
        assert json.loads(out)["count"] >= 4

    def test_verify_chain_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-chain", "--hamiltonian", "0.1*z1", "--time", "0.5",
            "--samples", "1000", "--seed", "13")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["lhs"] == pytest.approx(4 * math.pi ** 2, rel=1e-5)


class TestExitCodes:
    def test_usage_error_unknown_spec(self, capsys):
        code, _, err = run_cli(capsys, "volume", "dodecahedron")
        assert code == 2
        assert "unknown surface kind" in err

    def test_usage_error_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "flow", "--hamiltonian", "q9", "--time", "0.5",
                               "--emit-mesh", "/tmp/never.mesh")
        assert code == 2
        assert "UnknownVariable" in err

    @pytest.mark.parametrize("text, position", [
        ("(" * 2047 + "x1" + ")" * 2047, MAX_NESTING),
        ("-" * 4095, 4095),
    ], ids=["nested-2047", "minus-4095"])
    def test_usage_error_deep_expression(self, capsys, tmp_path, text, position):
        mesh = tmp_path / "out.mesh"
        # the = form keeps argparse from reading a leading '-' as an option
        code, out, err = run_cli(capsys, "flow", f"--hamiltonian={text}", "--emit-mesh", str(mesh))
        assert (code, out) == (2, "")
        assert "ExpressionSyntaxError" in err and f"at byte {position}" in err
        assert not mesh.exists()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_usage_error_too_few_verify_samples(self, capsys):
        code, out, err = run_cli(capsys, "verify-poincare", "--surface", "great-torus",
                                 "--samples", "500")
        assert code == 2
        assert out == ""
        assert "--samples: must be at least 1000, got 500" in err

    def test_usage_error_count_grid_below_floor(self, capsys):
        code, out, err = run_cli(capsys, "count", "anti-diagonal", "great-torus", "--grid", "64")
        assert code == 2
        assert out == ""
        assert "--grid: must be at least 128, got 64" in err

    @pytest.mark.parametrize("argv, flag, value", [
        (("volume", "anti-diagonal", "--grid", "0"), "--grid", "0"),
        (("volume", "anti-diagonal", "--grid", "-4"), "--grid", "-4"),
        (("verify-poincare", "--surface", "anti-diagonal", "--samples", "1000",
          "--quad-grid", "0"), "--quad-grid", "0"),
    ])
    def test_usage_error_quadrature_grid_below_one(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"{flag}: must be at least 1, got {value}" in err

    @pytest.mark.parametrize("argv, refused", [
        (("volume", "anti-diagonal", "--grid", "1"), "quadrature grid 1 leaves"),
        (("verify-poincare", "--surface", "anti-diagonal", "--samples", "1000", "--quad-grid", "2"),
         "quadrature grid 2 is checked against grid 1"),
        (("verify-poincare", "--surface", "anti-diagonal", "--samples", "1000", "--quad-grid", "3"),
         "quadrature grid 3 is checked against grid 1"),
    ], ids=["volume", "verify-poincare-2", "verify-poincare-3"])
    def test_usage_error_graph_grid_leaves_a_panel_empty(self, capsys, monkeypatch, argv, refused):
        # refused before any Monte Carlo sample is drawn
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert refused in err and "Gauss-Legendre panel without a node" in err

    @pytest.mark.parametrize("command", ["verify-poincare", "verify-bounds"])
    def test_usage_error_l_spec_not_a_product_torus(self, capsys, monkeypatch, command):
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        code, out, err = run_cli(capsys, command, "--surface", "great-torus",
                                 "--against", "anti-diagonal", "--samples", "1000")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "L spec must be a product torus" in err

    @pytest.mark.parametrize("argv", [
        ("count", "great-torus", "great-torus", "--seed", "7", "--grid", "4096"),
        ("count", "latitude-torus 0.5 0.5", "great-torus", "--grid", "128"),
        ("verify-poincare", "--surface", "latitude-torus 0.5 0.5", "--samples", "1000", "--grid", "4096"),
        ("verify-bounds", "--surface", "latitude-torus 0.5 0.5", "--samples", "1000", "--grid", "4096"),
    ], ids=["count", "count-at-the-default", "verify-poincare", "verify-bounds"])
    def test_usage_error_grid_for_a_product_torus(self, capsys, monkeypatch, argv):
        # a product-torus N is counted in closed form, so a --grid would be ignored
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "--grid does not apply" in err and "closed-form" in err

    def test_usage_error_quad_grid_for_a_mesh(self, capsys, monkeypatch, tmp_path):
        # a mesh is integrated on its own node lattice, so a --quad-grid would be ignored
        path = tmp_path / "torus.mesh"
        save_mesh(MeshSurface(lattice_points(great_torus(), 64)), path)
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        code, out, err = run_cli(capsys, "verify-poincare", "--surface", f"mesh {path}",
                                 "--samples", "1000", "--quad-grid", "8")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "--quad-grid does not apply: N is a mesh" in err

    def test_omitted_grid_counts_a_product_torus_and_records_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "count", "great-torus", "great-torus", "--seed", "7")
        assert code == 0 and json.loads(out)["count"] == 4
        code, out, _ = run_cli(capsys, "verify-bounds", "--surface", "latitude-torus 0.5 0.5",
                               "--samples", "1000", "--seed", "3")
        assert code == 0 and '"count_grid":128' in out

    def test_explicit_grid_is_kept_for_a_contour_count(self, capsys, monkeypatch):
        grids = []
        real = cli._CountingProblem
        monkeypatch.setattr(cli, "_CountingProblem", lambda n, l, grid: grids.append(grid) or real(n, l, grid))
        code, out, _ = run_cli(capsys, "count", "anti-diagonal", "great-torus", "--seed", "7", "--grid", "256")
        assert code == 0 and json.loads(out)["count"] == 2
        assert grids == [256]

    def test_grid_unstable_count_exits_2(self, capsys):
        # Monte Carlo sample 0 of seed 751 is counted differently on grids 128 and 256
        code, out, err = run_cli(capsys, "count", "anti-diagonal", "latitude-torus 0.95 -0.95",
                                 "--seed", "751")
        assert code == 2
        assert out == ""
        assert "GridUnstable" in err and "128" in err and "256" in err

    def test_nontransversal_count_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli._CountingProblem, "run_batch",
                            lambda self, r1, r2: [("nontransversal", 0, 0.0, [])])
        code, out, err = run_cli(capsys, "count", "anti-diagonal", "great-torus", "--seed", "7")
        assert code == 2
        assert out == ""
        assert "NonTransversalSample" in err

    def test_usage_error_negative_haar_samples(self, capsys):
        code, out, err = run_cli(capsys, "haar-stats", "--samples", "-5")
        assert code == 2
        assert out == ""
        assert "--samples: must be at least 2, got -5" in err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_usage_error_haar_stats_needs_two_samples(self, capsys, samples):
        code, out, err = run_cli(capsys, "haar-stats", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "NaN" not in err
        assert f"--samples: must be at least 2, got {samples}" in err

    def test_haar_stats_two_samples_is_strict_json(self, capsys):
        code, out, _ = run_cli(capsys, "haar-stats", "--samples", "2", "--seed", "1")
        assert code in (0, 1)
        json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))

    @pytest.mark.parametrize("argv", [
        ("volume", "latitude-torus 0.2 0.3 nan,0,1 0,0,1"),
        ("count", "latitude-torus 0.2 0.3 inf,0,1 0,0,1", "great-torus"),
        ("verify-bounds", "--surface", "latitude-torus 0.2 0.3 nan,0,1 0,0,1", "--samples", "1000"),
    ], ids=["volume", "count", "verify-bounds"])
    def test_usage_error_non_finite_axis(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "circle axis and offset must be finite" in err

    def test_usage_error_axis_norm_overflows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "volume", "latitude-torus 0 0 1e308,1e308,0 0,0,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: circle axis must be nonzero and of finite norm")

    def test_axis_is_the_circle_the_api_builds(self, capsys):
        # Circle takes an axis down to a norm of 1e-14; the CLI refused one below 1e-12
        code, out, _ = run_cli(capsys, "volume", "latitude-torus 0 0 1e-13,0,0 0.3,-0.4,0.5")
        assert code == 0
        assert float(out) == volume(latitude_torus(0.0, 0.0, (1e-13, 0.0, 0.0), (0.3, -0.4, 0.5)))
        parsed = parse_surface_spec("latitude-torus 0.2 0.1 0.3,-0.4,0.5 1e-13,2e-13,0")
        built = latitude_torus(0.2, 0.1, (0.3, -0.4, 0.5), (1e-13, 2e-13, 0.0))
        for got, want in ((parsed.circle1, built.circle1), (parsed.circle2, built.circle2)):
            assert got.axis.tobytes() == want.axis.tobytes()

    @pytest.mark.parametrize("a, b", [("1e308", "1e308"), ("1e308", "0")])
    def test_usage_error_ellipse_perimeter_overflows(self, capsys, a, b):
        # the perimeter was printed as inf with exit 0, which is not JSON,
        # and 1e308 0 also printed overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ellipse", a, b)
        assert (code, out) == (2, "")
        assert err == "error: the perimeter overflows: semiaxes too large\n"

    def test_usage_error_non_finite_mesh_node(self, capsys, tmp_path):
        path = tmp_path / "nan.mesh"
        save_mesh(MeshSurface(lattice_points(great_torus(), 8)), path)
        lines = path.read_text().splitlines()
        lines[5] = " ".join(["nan"] + lines[5].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "volume", f"mesh {path}")
        assert code == 2
        assert out == ""
        assert "mesh nodes must be finite" in err

    def test_usage_error_empty_mesh_file(self, capsys, tmp_path):
        path = tmp_path / "empty.mesh"
        path.write_text("")
        code, out, err = run_cli(capsys, "volume", f"mesh {path}")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "empty mesh file" in err

    @pytest.mark.parametrize("command", ["volume", "count", "verify-poincare", "verify-bounds"])
    def test_usage_error_surface_with_no_area_measure(self, capsys, monkeypatch, tmp_path, command):
        # every node is one point, so the partials span no plane: unrefused,
        # volume read 0.0, count read 0, verify-poincare passed with lhs = rhs
        # = 0 and verify-bounds divided by the zero upper bound
        path = tmp_path / "point.mesh"
        save_mesh(MeshSurface(np.tile([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (5, 5, 1))), path)
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        monkeypatch.setattr(cli, "group_matrices", lambda *args, **kwargs: pytest.fail("count drew its sample"))
        argv = (("volume", f"mesh {path}") if command == "volume" else
                ("count", f"mesh {path}", "great-torus", "--seed", "1") if command == "count" else
                (command, "--surface", f"mesh {path}", "--samples", "1000", "--seed", "1"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.startswith("error: the partials of MeshSurface(m=5) span no plane")

    @pytest.mark.parametrize("argv, target, refused", [
        (("verify-poincare", "--surface", "anti-diagonal", "--samples", "1000", "--quad-grid", "2"),
         "s2xs2.verify.group_matrices", "quadrature grid 2 is checked against grid 1"),
        (("verify-chain", "--hamiltonian", "0.1*z1", "--time", "1e6"),
         "s2xs2.hamiltonian.flow_points", f"steps must be <= {MAX_STEPS}"),
        (("verify-chain", "--hamiltonian", "1e400*z1"),
         "s2xs2.hamiltonian.flow_points", "coefficients must be finite"),
    ], ids=["verify-poincare-quad-grid", "verify-chain-time", "verify-chain-infinite-coefficient"])
    def test_library_refusal_comes_before_any_sample_or_flow_step(self, capsys, monkeypatch,
                                                                   argv, target, refused):
        monkeypatch.setattr(target, lambda *args, **kwargs: pytest.fail(f"{target} was called"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {refused}")

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("command", ["volume", "count"])
    def test_usage_error_mesh_below_the_floor(self, capsys, tmp_path, command, m):
        # below the floor a lattice resolves no wavenumber 2 on an axis (at
        # m = 4 it is the zeroed Nyquist mode), and a 1 x 1 one has no partials
        path = tmp_path / "small.mesh"
        rows = lattice_points(great_torus(), m).reshape(-1, 6) if m else []
        path.write_text("\n".join([f"mesh {m}"] + [" ".join(map(repr, row.tolist())) for row in rows]) + "\n")
        argv = ("volume", f"mesh {path}") if command == "volume" else ("count", f"mesh {path}", "great-torus")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "m must be at least 5" in err

    @pytest.mark.parametrize("argv", [
        ("ellipse", "1", "1", "--output", "{missing}/x.txt"),
        ("flow", "--hamiltonian", "z1", "--mesh", "64", "--emit-mesh", "{missing}/out.mesh"),
        ("verify-poincare", "--surface", "anti-diagonal", "--samples", "2000", "--output", "{missing}/r.json"),
        ("verify-poincare", "--surface", "anti-diagonal", "--samples", "2000", "--output", "{directory}"),
        ("flow", "--hamiltonian", "z1", "--mesh", "64", "--emit-mesh", "{directory}"),
    ], ids=["ellipse-output", "flow-emit-mesh", "verify-output", "verify-output-directory",
            "flow-emit-mesh-directory"])
    def test_unwritable_path_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # refused before the run: neither a Monte Carlo run nor a flow starts
        monkeypatch.setattr("s2xs2.verify.mc_expected_count",
                            lambda *args, **kwargs: pytest.fail("the Monte Carlo run started"))
        monkeypatch.setattr(cli, "deform_surface", lambda *args, **kwargs: pytest.fail("the flow started"))
        argv = [arg.format(missing=tmp_path / "no-such-dir", directory=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {argv[-1]}: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag, value", [
        (("ellipse", "nan", "1"), "a", "nan"),
        (("ellipse", "inf", "1"), "a", "inf"),
        (("ellipse", "1", "nan"), "b", "nan"),
        (("verify-chain", "--hamiltonian", "0.1*z1", "--time", "nan"), "--time", "nan"),
        (("flow", "--hamiltonian", "0.1*z1", "--time", "inf", "--emit-mesh", "/tmp/never.mesh"),
         "--time", "inf"),
        (("verify-poincare", "--surface", "great-torus", "--tol-rel", "nan"), "--tol-rel", "nan"),
    ])
    def test_usage_error_non_finite_float(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"{flag}: must be finite, got {value!r}" in err

    @pytest.mark.parametrize("argv, flag, floor, value", [
        (("verify-chain", "--hamiltonian", "0.1*z1", "--mesh", "0"), "--mesh", 64, "0"),
        (("flow", "--hamiltonian", "0.1*z1", "--mesh", "0"), "--mesh", 64, "0"),
        (("flow", "--hamiltonian", "0.1*z1", "--steps", "5"), "--steps", 16, "5"),
        (("flow", "--hamiltonian", "0.1*z1", "--steps", "0"), "--steps", 16, "0"),
    ])
    def test_usage_error_flow_size_below_floor(self, capsys, tmp_path, argv, flag, floor, value):
        mesh_path = tmp_path / "never.mesh"
        code, out, err = run_cli(capsys, *argv, "--emit-mesh", str(mesh_path)) \
            if argv[0] == "flow" else run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{flag}: must be at least {floor}, got {value}" in err
        assert not mesh_path.exists()

    def test_usage_error_flow_step_too_long(self, capsys, tmp_path):
        mesh_path = tmp_path / "never.mesh"
        code, out, err = run_cli(capsys, "flow", "--hamiltonian", "0.1*z1", "--time", "1",
                                 "--steps", "16", "--emit-mesh", str(mesh_path))
        assert code == 2
        assert out == ""
        assert "exceeds 0.05" in err
        assert not mesh_path.exists()

    @pytest.mark.parametrize("argv", [
        ("flow", "--hamiltonian", "0.1*z1", "--time", "1e6"),
        ("flow", "--hamiltonian", "0.1*z1", "--time", "1e4", "--steps", "200000"),
        ("verify-chain", "--hamiltonian", "0.1*z1", "--time", "1e6"),
    ], ids=["flow-time", "flow-steps", "verify-chain-time"])
    def test_usage_error_flow_beyond_step_cap(self, capsys, tmp_path, argv):
        mesh_path = tmp_path / "never.mesh"
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--emit-mesh", str(mesh_path)) \
            if argv[0] == "flow" else run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert f"steps must be <= {MAX_STEPS}" in err
        assert not mesh_path.exists()

    def test_flow_honours_explicit_steps(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "flow", "--hamiltonian", "0.1*z1", "--time", "0.5",
                               "--steps", "20", "--mesh", "64", "--emit-mesh", str(tmp_path / "f.mesh"))
        assert code == 0
        assert json.loads(out)["steps"] == 20

    def test_usage_error_sigma_table_single_step(self, capsys):
        code, out, err = run_cli(capsys, "sigma-table", "--theta-steps", "1")
        assert code == 2
        assert out == ""
        assert "--theta-steps: must be at least 2, got 1" in err

    @pytest.mark.parametrize("argv, message", [
        (("haar-stats", "--samples", "10", "--seed", "-1"), "must be at least 0, got -1"),
        (("count", "anti-diagonal", "great-torus", "--seed", "-3"), "must be at least 0, got -3"),
        (("verify-bounds", "--surface", "great-torus", "--samples", "1000", "--seed", "-2"),
         "must be at least 0, got -2"),
        (("haar-stats", "--samples", "10", "--seed", str(2 ** 128)),
         f"must be less than 2**128, got {2 ** 128}"),
    ], ids=["haar-stats-minus-1", "count-minus-3", "verify-bounds-minus-2", "haar-stats-2-to-128"])
    def test_usage_error_seed_out_of_range(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"--seed: {message}" in err

    def test_seed_range_ends(self, capsys):
        code, default, _ = run_cli(capsys, "count", "great-torus", "great-torus")
        assert code == 0
        code, zero, _ = run_cli(capsys, "count", "great-torus", "great-torus", "--seed", "0")
        assert code == 0
        assert zero == default and json.loads(zero)["seed"] == 0
        code, out, _ = run_cli(capsys, "count", "great-torus", "great-torus", "--seed", str(2 ** 128 - 1))
        assert code == 0
        assert json.loads(out)["seed"] == 2 ** 128 - 1

    def test_usage_error_negative_tol_rel(self, capsys):
        code, out, err = run_cli(capsys, "verify-poincare", "--surface", "great-torus",
                                 "--samples", "1000", "--seed", "1", "--tol-rel", "-1")
        assert code == 2
        assert out == ""
        assert "--tol-rel: must be at least 0, got '-1'" in err

    def test_zero_tol_rel_is_accepted(self, capsys):
        # the great torus meets its identity exactly, so a zero tolerance passes
        code, out, _ = run_cli(capsys, "verify-poincare", "--surface", "great-torus",
                               "--samples", "1000", "--seed", "1", "--tol-rel", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["tolerance"] == 0.0 and payload["verdict"] == "pass"

    def test_usage_error_non_integer_samples(self, capsys):
        code, _, err = run_cli(capsys, "haar-stats", "--samples", "many")
        assert code == 2
        assert "invalid int value: 'many'" in err

    def test_byte_identical_reports_for_fixed_seed(self, capsys, tmp_path):
        argv = ["verify-poincare", "--surface", "latitude-torus 0.5 0.5",
                "--samples", "1000", "--seed", "21"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert normalize_runtime(out1) == normalize_runtime(out2)
        payload = json.loads(out1)
        assert payload["seed"] == 21


# the exact stdout of four commands for fixed seeds, runtime_ms set to 0: a
# change that moves any number or byte of these reports fails here
PINNED_REPORTS = [
    (("verify-poincare", "--surface", "latitude-torus 0.5 0.5", "--samples", "2000", "--seed", "55"), 0,
     '{"config":{"count_grid":128,"discards":0,"mean":3.014,"samples":2000},"lhs":18789.82402409493,'
     '"name":"poincare-identity","rhs":18702.545478528467,"runtime_ms":0,"seed":55,'
     '"stderr":0.03855703985864748,"tolerance":739.8173369523178,"verdict":"pass"}'),
    (("verify-bounds", "--surface", "latitude-torus 0.3 -0.6", "--samples", "100000", "--seed", "3"), 0,
     '{"config":{"count_grid":128,"discards":0,"gap_lower":0.212097272985293,'
     '"gap_upper":0.0025045636172587034,"mean":3.04496,"samples":100000,"vol_l":39.47841760435743,'
     '"vol_n":30.12800813016434},"lhs":18982.83429343335,"name":"intersection-bounds",'
     '"rhs":[14946.517694563167,19030.49738480166],"runtime_ms":0,"seed":3,'
     '"stderr":0.00539266880058176,"tolerance":100.85663349352193,"verdict":"pass"}'),
    # an isometric flow on the 64-node mesh: the image is the great torus, whose
    # volume the spectral partials give to the bit, so a = b = c and the chain passes
    (("verify-chain", "--hamiltonian", "0.1*z1", "--mesh", "64", "--samples", "1000", "--seed", "13"), 0,
     '{"config":{"a":24936.727304704622,"b":24936.727304704622,"c":24936.727304704622,'
     '"checks":{"a_ge_b":true,"b_ge_c":true,"lagrangian":true,"volume_min":true},"defect":0.0,'
     '"discards":0,"flow_time":0.5,"mean":4.0,"mesh":64,"samples":1000,"stat_tolerance":0.0,'
     '"steps":40},"lhs":39.47841760435743,"name":"volume-chain","rhs":39.47841760435743,'
     '"runtime_ms":0,"seed":13,"stderr":0.0,"tolerance":0.001,"verdict":"pass"}'),
    (("haar-stats", "--samples", "100000", "--seed", "21"), 0,
     '{"config":{"mean_r11":-0.0028068119689256764,"mean_trace":-0.0018095730369109208,"samples":100000,'
     '"stderr_r11":0.0018288479719275848,"stderr_trace":0.0031673965759981735},"lhs":0.3344730239508886,'
     '"name":"haar-moments","rhs":0.3333333333333333,"runtime_ms":0,"seed":21,"stderr":0.0009445630643691263,'
     '"tolerance":0.002833689193107379,"verdict":"pass"}'),
    (("count", "anti-diagonal", "great-torus", "--seed", "7"), 0,
     '{"count":2,"l":"great-torus","min_transversality":0.33398877893572493,"n":"anti-diagonal",'
     '"seed":7}'),
]


@pytest.mark.parametrize("argv, code, expected", PINNED_REPORTS,
                         ids=[argv[0] for argv, _, _ in PINNED_REPORTS])
def test_report_stdout_is_pinned(capsys, argv, code, expected):
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert normalize_runtime(out) == expected + "\n"


# run in a fresh interpreter in which scipy cannot be imported: the package
# must import, and these commands run, on numpy alone
SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # an import of scipy or of any submodule now raises ImportError
import s2xs2
from s2xs2.cli import main
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
assert not loaded, loaded
raise SystemExit(main(sys.argv[1:]))
"""


def _count_report():
    return next(expected for argv, _, expected in PINNED_REPORTS if argv[0] == "count")


@pytest.mark.parametrize("argv, check", [
    (("volume", "anti-diagonal", "--grid", "64"),
     lambda out: float(out) == pytest.approx(8 * math.pi, rel=1e-14)),
    (("sigma-table", "--theta-steps", "5"),
     lambda out: len(out.splitlines()) == 6
     and max(float(line.split(",")[3]) for line in out.splitlines()[1:]) <= 1e-14),
    (("ellipse", "1", "0.5"), lambda out: float(out) == pytest.approx(4.844224110273838, abs=1e-12)),
    (("count", "anti-diagonal", "great-torus", "--seed", "7"), lambda out: out.strip() == _count_report()),
], ids=["volume", "sigma-table", "ellipse", "count"])
def test_runs_without_scipy(argv, check):
    src = Path(s2xs2.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert check(done.stdout), done.stdout


# ---------------------------------------------------------------------------
# the input contract over argv: every command line ends in a verdict, a report
# or a usage error, never in a traceback or a NaN
# ---------------------------------------------------------------------------

# half of the numbers drawn are hostile: non-finite and overflowing text, a
# finite number whose square or quadruple overflows, a hex literal, and non-ASCII digits (which int() and float() read as digits)
NUMBERS = st.one_of(st.sampled_from(["0", "0.5", "-0.25", "1", "7", "128"]),
                    st.sampled_from(["-3", "nan", "-inf", "inf", "1e400", "-1e400", "1e308", "0x10", "１２８", "٣",
                                     "0.٥"]))
# a circle's offset, to be in (-1, 1): a latitude torus takes two
OFFSETS = st.one_of(st.sampled_from(["0", "0.5", "-0.25"]), NUMBERS)
HAMILTONIAN_TEXTS = ["0.1*z1", "x1*y2 - 0.2*z1*z2", "-0.3*z1", "z1*z1*z1*z1", "q9", "(", "1e400*z1",
                     "٣*z1"]


@pytest.fixture(scope="module")
def hostile_meshes(tmp_path_factory):
    """A good mesh file and hostile ones named by their defect, in a directory of their own."""
    root = tmp_path_factory.mktemp("hostile-meshes")
    save_mesh(MeshSurface(lattice_points(great_torus(), 8)), root / "torus.mesh")
    torus = (root / "torus.mesh").read_text()
    lines = torus.splitlines()
    texts = {
        "one-node": "mesh 5\n" + "1 0 0 1 0 0\n" * 25,
        "nan-node": "\n".join(lines[:5] + ["nan" + lines[5][lines[5].index(" "):]] + lines[6:]) + "\n",
        "negative-size": "mesh -3\n",
        "truncated": torus[:len(torus) // 2],
        "empty": "",
    }
    for name, text in texts.items():
        (root / f"{name}.mesh").write_text(text)
    return root, [f"mesh {root / name}.mesh" for name in ["torus", *texts]]


@st.composite
def cli_argvs(draw, meshes, emit_path):
    def number():
        return draw(NUMBERS)

    def option(flag):
        return [flag, number()] if draw(st.booleans()) else []

    def torus():
        if draw(st.booleans()):
            return "great-torus"
        axes = f" {number()},{number()},{number()} {number()},{number()},{number()}" \
            if draw(st.booleans()) else ""
        return f"latitude-torus {draw(OFFSETS)} {draw(OFFSETS)}{axes}"

    def surface():
        kind = draw(st.sampled_from(["torus", "anti-diagonal", "mesh"]))
        return torus() if kind == "torus" else draw(st.sampled_from(meshes)) if kind == "mesh" else kind

    command = draw(st.sampled_from(["ellipse", "volume", "count", "verify-poincare", "verify-bounds", "flow"]))
    if command == "ellipse":
        return [command, number(), number()]
    if command == "volume":
        return [command, surface(), *option("--grid")]
    if command == "count":
        return [command, surface(), torus(), *option("--seed"), *option("--grid")]
    if command.startswith("verify-"):
        # product tori only, whose count is closed-form and cheap
        argv = [command, "--surface", torus(), "--against", torus(), "--samples", "1000", *option("--seed")]
        return argv + option("--quad-grid") + option("--tol-rel") if command == "verify-poincare" else argv
    text = draw(st.sampled_from(HAMILTONIAN_TEXTS))
    hamiltonian = ["--hamiltonian", text] if draw(st.booleans()) else [f"--hamiltonian={text}"]
    return [command, *hamiltonian, *option("--time"), "--mesh", "64", "--steps", "16", "--emit-mesh", emit_path]


@settings(max_examples=400)
@given(data=st.data())
def test_every_argv_ends_in_a_report_or_a_usage_error(hostile_meshes, data):
    root, meshes = hostile_meshes
    argv = data.draw(cli_argvs(meshes, str(root / "flowed.mesh")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)   # an escaping exception, a traceback at the command line, fails here
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        return
    value = json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    if argv[0] in ("ellipse", "volume"):
        assert isinstance(value, float) and math.isfinite(value)
    else:
        assert isinstance(value, dict)
