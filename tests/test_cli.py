"""Command-line front-end: output contracts (metadata, column orders,
10-significant-digit floats), JSON/CSV variants, exit codes, and
byte-determinism of repeated runs."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import derivative, kernels
from fraclab.cli import _ones, main
from fraclab.geometry import Ball
from fraclab.specfun import (ball_poisson_constant, ball_torsion_constant,
                             frac_normalization, log_constants,
                             riesz_constant)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_body(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# ------------------------------------------------------------ constants


def test_constants_json_values(capsys):
    code, out = run(capsys, ["constants", "--dim", "2", "--order", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["version"]
    assert doc["run_config"]["subcommand"] == "constants"
    assert doc["run_config"]["options"] == {"dim": 2, "order": 0.5}
    res = doc["results"]
    assert res["c_Ns"] == pytest.approx(frac_normalization(2, 0.5),
                                        rel=1e-9)
    assert res["c_N"] == pytest.approx(log_constants(2)[0], rel=1e-9)
    assert res["rho_N"] == pytest.approx(log_constants(2)[1], rel=1e-9)
    assert res["kappa"] == pytest.approx(riesz_constant(2, 0.5), rel=1e-9)
    assert res["tau"] == pytest.approx(ball_poisson_constant(2, 0.5),
                                       rel=1e-9)
    assert res["d"] == pytest.approx(2.0 / math.pi, rel=1e-9)


def test_constants_endpoint_drops_kappa(capsys):
    code, out = run(capsys, ["constants", "--dim", "2", "--order", "1.0"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["kappa"] is None
    assert res["d"] == pytest.approx(0.25, rel=1e-12)


def test_constants_csv_variant(capsys):
    code, out = run(capsys, ["constants", "--dim", "3", "--order", "0.5",
                             "--emit", "csv"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["c_Ns", "c_N", "rho_N", "kappa", "tau", "d"]
    assert len(rows) == 1
    assert float(rows[0][5]) == pytest.approx(
        ball_torsion_constant(3, 0.5)[0], rel=1e-9)


# ----------------------------------------------------------------- eval


def test_eval_homega_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0\n"))
    code, out = run(capsys, ["eval", "--op", "homega", "--domain",
                             "ball:1", "--points", "-"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["x1", "x2", "value", "error_estimate"]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)


def test_eval_homega_circle_as_ellipsoid(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.25,0.3\n0.6,-0.5\n")
    code, out = run(capsys, ["eval", "--op", "homega", "--domain",
                             "ellipsoid:1,0,0,1", "--points", str(pts)])
    assert code == 0
    _, rows = csv_body(out)
    assert len(rows) == 2
    for x1, x2, value, _ in rows:
        r2 = float(x1) ** 2 + float(x2) ** 2
        assert float(value) == pytest.approx(-math.log(1.0 - r2), abs=1e-9)


def test_eval_homega_anisotropic_ellipse_is_closed(capsys, tmp_path):
    # -ln(1 - x.Ax) + 2 ln((1 + 2) / 2) = -ln(3/4) + 2 ln(3/2) = ln 3.
    pts = tmp_path / "pts.csv"
    pts.write_text("0.3,0.2\n")
    code, out = run(capsys, ["eval", "--op", "homega", "--domain",
                             "ellipsoid:1,0,0,4", "--points", str(pts)])
    assert code == 0
    _, rows = csv_body(out)
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(math.log(3.0), rel=1e-9)
    assert float(rows[0][3]) <= 1e-15


def test_eval_ws_solution_values(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n0.5,0\n")
    code, out = run(capsys, ["eval", "--op", "ws", "--domain", "ball:1",
                             "--order", "0.5", "--points", str(pts)])
    assert code == 0
    _, rows = csv_body(out)
    assert float(rows[0][2]) == pytest.approx(2.0 / math.pi, rel=1e-8)
    assert float(rows[1][2]) == pytest.approx(
        (2.0 / math.pi) * math.sqrt(0.75), rel=1e-8)
    assert rows[0][3] == "nan"


def test_eval_empty_points_gives_header_only(capsys, tmp_path):
    pts = tmp_path / "empty.csv"
    pts.write_text("")
    code, out = run(capsys, ["eval", "--op", "homega", "--domain",
                             "ball:1", "--points", str(pts)])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["x1", "x2", "value", "error_estimate"]
    assert rows == []


def test_eval_flags_tolerance_failure(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n")
    code, out = run(capsys, ["eval", "--op", "loglap", "--domain",
                             "ball:1", "--points", str(pts),
                             "--rel-tol", "1e-30", "--abs-tol", "1e-30"])
    assert code == 2
    _, rows = csv_body(out)  # results still emitted
    assert float(rows[0][2]) == pytest.approx(log_constants(2)[1],
                                              rel=1e-9)


# -------------------------------------------------------------- kernels


def test_kernels_green_rows(capsys):
    code, out = run(capsys, ["kernels", "--which", "green", "--domain",
                             "ball:1", "--order", "0.5", "--x", "0.1,0",
                             "--z", "0.5,0.2", "--z", "0.3,-0.4"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["x1", "x2", "z1", "z2", "value"]
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    for row, z in zip(rows, ([0.5, 0.2], [0.3, -0.4])):
        expected = kernels.green_ball(ball, 0.5, np.array([0.1, 0.0]),
                                      np.array(z))
        assert float(row[4]) == pytest.approx(float(expected), rel=1e-9)


def test_kernels_poisson_classical_at_endpoint(capsys):
    z = [math.cos(0.3), math.sin(0.3)]
    code, out = run(capsys, ["kernels", "--which", "poisson", "--domain",
                             "ball:1", "--order", "1.0", "--x", "0.2,0.1",
                             "--z", f"{z[0]},{z[1]}"])
    assert code == 0
    _, rows = csv_body(out)
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    expected = kernels.poisson_ball_classical(ball, np.array([0.2, 0.1]),
                                              np.array(z))
    assert float(rows[0][4]) == pytest.approx(float(expected), rel=1e-9)


def test_kernels_comp_3d_near_the_boundary(capsys):
    # x = 0, s = 0.5, |z| = 0.99 on the 3-ball, where a sphere rule once
    # read 0.045708489 with no flag; scipy quad of the radial integral
    # (closed sphere factor) gives 0.1346634546395835.
    code, out = run(capsys, ["kernels", "--which", "comp", "--domain",
                             "ball:1", "--dim", "3", "--order", "0.5",
                             "--x", "0,0,0", "--z", "0.99,0,0"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols[-1] == "value"
    assert float(rows[0][-1]) == pytest.approx(0.1346634546395835, rel=1e-9)


# -------------------------------------------------------------- torsion


def test_torsion_range_rows_and_formatting(capsys):
    code, out = run(capsys, ["torsion", "--dim", "2", "--orders",
                             "0.5:0.25:1.0"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["s", "u_s", "ds_u_s"]
    assert [r[0] for r in rows] == ["0.5", "0.75", "1"]
    # 10-significant-digit contract, asserted at the byte level
    assert "0.75,0.4185669069,-0.7874245016" in out
    assert float(rows[2][2]) == pytest.approx(-0.5579657578292061,
                                              rel=1e-9)


def test_torsion_off_center(capsys):
    code, out = run(capsys, ["torsion", "--dim", "3", "--orders",
                             "1.0:0.5:1.0", "--at", "0.5,0,0"])
    assert code == 0
    _, rows = csv_body(out)
    assert float(rows[0][1]) == pytest.approx(0.75 / 6.0, rel=1e-12)


# ----------------------------------------------------------- derivative


def test_derivative_compare_closedform(capsys):
    code, out = run(capsys, ["derivative", "--dim", "2", "--order", "0.75",
                             "--grid-n", "6"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["r", "delta", "v_numeric", "v_closed", "rel_err"]
    assert len(rows) == 6
    assert all(float(r[4]) < 1e-3 for r in rows)


def test_derivative_fd_column(capsys):
    code, out = run(capsys, ["derivative", "--dim", "2", "--order", "0.5",
                             "--grid-n", "3", "--fd", "1e-3"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols[-1] == "fd_quotient"
    for r in rows:
        assert float(r[5]) == pytest.approx(float(r[2]), abs=5e-3)


# ----------------------------------------------------------- transition


def test_transition_report_and_side_table(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, ["transition", "--orders", "0.9,0.95",
                           "--grid-n", "4", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    rows = doc["results"]
    assert [r["s"] for r in rows] == [0.9, 0.95]
    assert rows[0]["ratio"] > rows[1]["ratio"] > 1.0
    for r in rows:
        assert r["ratio"] == pytest.approx(r["residual"] / (1.0 - r["s"]),
                                           rel=1e-9)
    table = tmp_path / "report_points.csv"
    assert doc["points_table"] == str(table)
    lines = table.read_text().splitlines()
    assert lines[0] == "s,r,u_s,u_1,v_1,residual"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(0.25, rel=1e-6)  # u_1(0)
    assert float(first[4]) == pytest.approx(-0.5579657578, rel=1e-3)


def test_transition_residual_is_the_expansion_residual(capsys, tmp_path):
    code, _ = run(capsys, ["transition", "--orders", "0.9,0.95",
                           "--grid-n", "4", "--out",
                           str(tmp_path / "report.json")])
    assert code == 0
    rows = json.loads((tmp_path / "report.json").read_text())["results"]
    disc = Ball(center=(0.0, 0.0), radius=1.0)
    grid = np.zeros((4, 2))
    grid[:, 0] = np.linspace(0.0, 0.95, 4)
    for r in rows:
        want = derivative.expansion_residual(_ones(2), disc, r["s"], grid)
        assert format(r["residual"], ".10g") == format(want, ".10g")


def test_transition_rejects_endpoint_orders(capsys):
    code, _ = run(capsys, ["transition", "--orders", "0.9,1.0"])
    assert code == 1


# --------------------------------------------------------------- bounds


def test_bounds_csv_chain(capsys):
    code, out = run(capsys, ["bounds", "--dim", "2", "--orders",
                             "0.5:0.25:1.0", "--domain", "ball:1"])
    assert code == 0
    cols, rows = csv_body(out)
    assert cols == ["s", "norm_numeric", "bound_integral", "bound_new",
                    "bound_old", "m_s", "p_s_numeric", "p_s_lower",
                    "q_Ns", "integral_error", "chain_ok"]
    assert len(rows) == 3
    assert all(r[-1] == "true" for r in rows)
    assert float(rows[2][1]) == pytest.approx(0.25, rel=1e-9)


def test_bounds_chain_fails_on_an_unresolved_integral(capsys):
    # At s = 1 on the unit disc the tau rule's estimate makes
    # bound_integral uncertain by 1.5e-7 relative: within the default
    # rel_tol, not within 1e-9, where the chain holds but is not resolved.
    for tol, ok in (("1e-6", "true"), ("1e-9", "false")):
        code, out = run(capsys, ["bounds", "--dim", "2", "--orders",
                                 "1.0:1.0:1.0", "--domain", "ball:1",
                                 "--rel-tol", tol])
        cols, rows = csv_body(out)
        row = dict(zip(cols, rows[0]))
        assert 1e-9 < float(row["integral_error"]) < 1e-6
        assert (float(row["norm_numeric"]) < float(row["bound_integral"])
                < float(row["bound_new"]) < float(row["bound_old"]))
        assert row["chain_ok"] == ok
        assert code == (0 if ok == "true" else 2)


def test_bounds_json_variant(capsys):
    code, out = run(capsys, ["bounds", "--dim", "2", "--orders",
                             "1.0:1.0:1.0", "--domain", "ball:1",
                             "--emit", "json"])
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row["chain_ok"] is True
    assert row["bound_old"] == pytest.approx(math.exp(-log_constants(2)[1]),
                                             rel=1e-6)


# ------------------------------------------------- contracts and errors


def test_byte_determinism_stdout(capsys):
    _, first = run(capsys, ["torsion", "--dim", "2", "--orders",
                            "0.25:0.25:1.0"])
    _, second = run(capsys, ["torsion", "--dim", "2", "--orders",
                             "0.25:0.25:1.0"])
    assert first == second


def test_byte_determinism_files(tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = ["bounds", "--dim", "2", "--orders", "0.5:0.5:0.5",
            "--domain", "ball:1", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_json_round_trip(capsys, tmp_path):
    code, out = run(capsys, ["kernels", "--which", "comp", "--domain",
                             "ball:1", "--order", "0.75", "--x", "0.1,0",
                             "--z", "0.4,0.2", "--emit", "json"])
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert list(row.keys()) == ["x1", "x2", "z1", "z2", "value"]
    assert row["value"] > 0.0
    # re-serializing the parsed document is stable
    code2, out2 = run(capsys, ["kernels", "--which", "comp", "--domain",
                               "ball:1", "--order", "0.75", "--x", "0.1,0",
                               "--z", "0.4,0.2", "--emit", "json"])
    assert out2 == out


def test_output_embeds_run_config(capsys):
    _, out = run(capsys, ["torsion", "--dim", "2", "--orders",
                          "0.5:0.5:1.0", "--rel-tol", "1e-7"])
    header = [l for l in out.splitlines() if l.startswith("# config ")]
    assert len(header) == 1
    cfg = json.loads(header[0][len("# config "):])
    assert cfg["subcommand"] == "torsion"
    assert cfg["rel_tol"] == 1e-7
    assert cfg["options"]["orders"] == "0.5:0.5:1.0"
    assert "# fraclab " in out and "# schema_version 2" in out


@pytest.mark.parametrize("argv", [
    ["constants", "--dim", "5", "--order", "0.5"],
    ["nosuchcommand"],
    ["torsion", "--dim", "2", "--orders", "0.5:0.25:1.0", "--bad", "1"],
    ["torsion", "--dim", "2", "--orders", "nonsense"],
    ["eval", "--op", "homega", "--domain", "ball:1", "--points",
     "/nonexistent/points.csv"],
    ["kernels", "--which", "green", "--domain", "ball:1", "--order",
     "0.5", "--x", "0.1,oops", "--z", "0.5,0.2"],
    ["bounds", "--dim", "2", "--orders", "0.5:0.5:1.0", "--domain",
     "ellipsoid:1,0,0,4"],
    ["torsion", "--dim", "2", "--orders", "0.5:0.5:1.0", "--seed", "7"],
    ["torsion", "--dim", "2", "--orders", "0.5:0.5:1.0", "--mc-samples",
     "1000"],
])
def test_usage_and_domain_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text", ["0.1,abc\n", "0.1,0.2\n0.3\n"],
                         ids=["non_number", "short_row"])
def test_bad_point_files_exit_one(capsys, tmp_path, text):
    # A non-number and a short row are domain errors, not tracebacks.
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    assert main(["eval", "--op", "homega", "--domain", "ball:1",
                 "--points", str(pts)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------- import cost


_IMPORT_ALL = ("import importlib, pkgutil, sys, fraclab\n"
               "for m in pkgutil.iter_modules(fraclab.__path__):\n"
               "    importlib.import_module('fraclab.' + m.name)\n")



def _modules_after(code):
    """Names in ``sys.modules`` printed by ``code`` run in a fresh
    interpreter on this source tree."""
    src = Path(fraclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return set(subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout.split())


def _scipy(modules):
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_importing_fraclab_leaves_heavy_scipy_modules_unloaded():
    # Every CLI call pays the import, and the package needs numpy alone:
    # no module imports scipy, at import or inside a call.
    out = _modules_after(_IMPORT_ALL + "print(' '.join(sys.modules))\n")
    assert "fraclab.cli" in out and "fraclab.operators" in out
    assert not _scipy(out)
    # Nor does the interchange residual load them: its profiles are
    # Chebyshev series, not splines.
    out = _modules_after(
        "import sys, numpy as np\n"
        "from fraclab.geometry import Ball\n"
        "from fraclab.operators import ScalarField, interchange_residual\n"
        "f = ScalarField(fn=lambda p: np.ones(len(p)), dim=2, radial=True)\n"
        "interchange_residual(Ball(center=(0.0, 0.0), radius=1.0), f, "
        "0.5, np.array([0.3, 0.0]))\n"
        "print(' '.join(sys.modules))\n")
    assert "fraclab.operators" in out
    assert not _scipy(out)


def test_package_runs_without_scipy():
    # numpy is the one runtime dependency: with scipy unimportable, the
    # pointwise Green function at s < 1 and s = 1, the Green operator and
    # the CLI's kernel rows still run.
    out = _modules_after(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        + _IMPORT_ALL
        + "import contextlib, io\n"
        "import numpy as np\n"
        "from fraclab import cli\n"
        "from fraclab.geometry import unit_ball\n"
        "from fraclab.kernels import green_apply, green_ball\n"
        "for N in (2, 3):\n"
        "    for s in (0.5, 1.0):\n"
        "        g = green_ball(unit_ball(N), s, np.full(N, 0.1), "
        "np.full(N, -0.2))\n"
        "        assert g > 0.0, (N, s, g)\n"
        "res = green_apply(unit_ball(2), lambda p: np.ones(len(p)), 0.5, "
        "np.array([0.3, 0.1]))\n"
        "assert res.tolerance_ok and res.value > 0.0, res\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['kernels', '--which', 'green', '--domain', "
        "'ball:1', '--order', '0.5', '--x', '0.1,0', '--z', '0.5,0.2'])\n"
        "print('exit', code)\n")
    assert out == {"exit", "0"}


def test_first_calls_import_nothing():
    # A module a first call imports (np.polynomial, which numpy loads on
    # first use, or locale, which argparse's gettext loads in the first
    # parse) would add its cost to the first timed operation of a run
    # instead of to the import.
    new = _modules_after(
        _IMPORT_ALL
        + "import contextlib, io\n"
        "import numpy as np\n"
        "from fraclab import cli\n"
        "from fraclab.geometry import unit_ball\n"
        "from fraclab.kernels import comp_poisson_apply, green_apply\n"
        "from fraclab.operators import CompactField, log_laplacian_compact\n"
        "before = set(sys.modules)\n"
        "one = lambda p: np.ones(len(p))\n"
        "x = np.array([0.3, 0.1])\n"
        "green_apply(unit_ball(2), one, 0.5, x)\n"
        "comp_poisson_apply(unit_ball(2), one, 0.5, x)\n"
        "log_laplacian_compact(CompactField(one, unit_ball(2), "
        "smooth_scale=1.0), x)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bounds', '--dim', '2', '--orders', "
        "'0.5:0.5:1.0', '--domain', 'ball:1']) == 0\n"
        "print(' '.join(set(sys.modules) - before))\n")
    assert not new
