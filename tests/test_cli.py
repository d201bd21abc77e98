"""End-to-end tests of the command-line interface."""

import json
import math
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from polydist import KMConfig, pdf_to_cdf, within_triangle_pdf, canonicalize_triangle
from polydist import cli
from polydist.cli import main
from polydist.km_engine import DiagnosticError

from shapes import regular_polygon, square

# coarse but valid numeric flags so every invocation stays quick
FAST_FLAGS = ["--dtheta", "1.0", "--grid", "100"]


def write_geometry(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def test_triangle_closed_csv_contract(tmp_path):
    out = tmp_path / "tri.csv"
    code = main(["triangle", "--angles", "60,60,60", "--method", "closed",
                 "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == "d,pdf,cdf"
    assert len(rows) == 502  # header + 501 grid nodes
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and float(first[2]) == 0.0
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert 0.995 <= float(last[2]) <= 1.0
    # every printed field is a round-trippable float64
    for row in rows[1:]:
        for field in row.split(","):
            assert format(float(field), ".17g") == field


def test_triangle_km_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "tri.csv"
    code = main(["triangle", "--angles", "80,70,30", *FAST_FLAGS, "--out", str(out)])
    assert code == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    tri = canonicalize_triangle(angles=np.radians([80, 70, 30]))
    curve = within_triangle_pdf(tri, KMConfig(math.radians(1.0), 0.004, 100))
    cdf = pdf_to_cdf(curve)
    np.testing.assert_array_equal(table[:, 0], curve.grid)
    np.testing.assert_array_equal(table[:, 1], curve.values)
    np.testing.assert_array_equal(table[:, 2], cdf.values)


def test_triangle_scale_flag(tmp_path):
    out = tmp_path / "tri.csv"
    assert main(["triangle", "--angles", "60,60,60", "--scale", "2.5",
                 "--method", "closed", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table[-1, 0] == pytest.approx(2.5)


def test_triangle_json_metadata(tmp_path):
    out = tmp_path / "tri.json"
    code = main(["triangle", "--angles", "60,60,60", "--format", "json",
                 *FAST_FLAGS, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["tool"] == "polydist"
    assert payload["command"] == "triangle"
    assert payload["method"] == "km"
    assert payload["geometry"] == {"angles": [60.0, 60.0, 60.0]}
    assert payload["config"]["d_theta_rad"] == pytest.approx(math.radians(1.0))
    assert payload["config"]["grid_points"] == 100
    assert len(payload["d"]) == len(payload["pdf"]) == len(payload["cdf"]) == 101


def test_triangle_geometry_file(tmp_path):
    geom = write_geometry(tmp_path / "g.json",
                          {"vertices": [[0, 0], [1, 0], [0.3, 0.8]]})
    out = tmp_path / "tri.csv"
    assert main(["triangle", "--geometry", geom, *FAST_FLAGS,
                 "--out", str(out)]) == 0
    assert read_rows(out)[0] == "d,pdf,cdf"


def test_pair_command(tmp_path):
    a = write_geometry(tmp_path / "a.json",
                       {"vertices": [[0, 0], [1, 0], [0.5, 0.9]]})
    b = write_geometry(tmp_path / "b.json",
                       {"vertices": [[0, 0], [0.5, -0.8], [1, 0]]})
    out = tmp_path / "pair.csv"
    assert main(["pair", "--geometry", a, "--geometry-b", b, *FAST_FLAGS,
                 "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (101, 3)
    assert table[-1, 2] >= 0.995


def test_polygon_command(tmp_path):
    pent = regular_polygon(5, side=1.0)
    geom = write_geometry(tmp_path / "p.json",
                          {"vertices": pent.vertices.tolist()})
    out = tmp_path / "poly.csv"
    assert main(["polygon", "--geometry", geom, *FAST_FLAGS,
                 "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table[-1, 0] == pytest.approx(pent.diameter)


def test_mc_command_bytes_reproducible(tmp_path):
    geom = write_geometry(tmp_path / "g.json",
                          {"vertices": [[0, 0], [1, 0], [0.3, 0.8]]})
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["mc", "--geometry", geom, "--samples", "2000", "--seed", "99",
            "--grid", "100"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert main(["mc", "--geometry", geom, "--samples", "2000", "--seed", "100",
                 "--grid", "100", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_mc_command_two_regions(tmp_path):
    a = write_geometry(tmp_path / "a.json",
                       {"vertices": [[0, 0], [1, 0], [0.5, 0.9]]})
    b = write_geometry(tmp_path / "b.json",
                       {"vertices": [[3, 0], [4, 0], [3.5, 0.9]]})
    out = tmp_path / "mc.csv"
    assert main(["mc", "--geometry", a, "--geometry-b", b, "--samples", "2000",
                 "--seed", "5", "--grid", "100", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    # distances concentrate around the 3-unit separation
    assert table[np.searchsorted(table[:, 0], 1.9), 2] == 0.0


def test_ring_command_writes_six_files(tmp_path, capsys):
    outer = write_geometry(tmp_path / "outer.json",
                           {"vertices": square(0.5).vertices.tolist()})
    hole = write_geometry(tmp_path / "hole.json",
                          {"vertices": square(0.3).vertices.tolist()})
    out_dir = tmp_path / "curves"
    code = main(["ring", "--outer", outer, "--hole", hole, *FAST_FLAGS,
                 "--out", str(out_dir)])
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == sorted(f"{n}.csv" for n in cli.RING_NAMES)
    logged = capsys.readouterr().out
    assert logged.count("wrote ") == 6
    f33 = np.loadtxt(out_dir / "F33.csv", delimiter=",", skiprows=1)
    assert f33[-1, 2] >= 0.995


def test_check_pass_and_fail(tmp_path, capsys):
    geom = write_geometry(tmp_path / "g.json",
                          {"angles": [60.0, 60.0, 60.0]})
    ok = main(["check", "--geometry", geom, "--a", "closed", "--b", "mc",
               "--samples", "50000", "--seed", "4", "--ks-max", "0.02"])
    out = capsys.readouterr().out
    assert ok == 0
    assert "ks(closed, mc)" in out and "pass" in out

    bad = main(["check", "--geometry", geom, "--a", "closed", "--b", "mc",
                "--samples", "2000", "--seed", "4", "--ks-max", "1e-9"])
    out = capsys.readouterr().out
    assert bad == 1
    assert "FAIL" in out


def test_check_json_report(tmp_path):
    geom = write_geometry(tmp_path / "g.json", {"angles": [60.0, 60.0, 60.0]})
    out = tmp_path / "report.json"
    code = main(["check", "--geometry", geom, "--a", "closed", "--b", "closed",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["ks"] == 0.0
    assert report["method_a"] == report["method_b"] == "closed"


def test_usage_errors_exit_two(tmp_path, capsys):
    # missing geometry file
    assert main(["polygon", "--geometry", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err

    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["polygon", "--geometry", str(broken)]) == 2

    # JSON of the wrong shape
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2, 3]")
    assert main(["polygon", "--geometry", str(not_object)]) == 2

    # closed form asked for a polygon region
    pent = write_geometry(tmp_path / "p.json",
                          {"vertices": regular_polygon(5).vertices.tolist()})
    assert main(["polygon", "--geometry", pent, "--method", "closed"]) == 2

    # triangle with both --angles and --geometry
    geom = write_geometry(tmp_path / "t.json", {"angles": [60, 60, 60]})
    assert main(["triangle", "--angles", "60,60,60", "--geometry", geom]) == 2
    # ... or neither
    assert main(["triangle"]) == 2

    # angle list of the wrong length is an argparse-level error
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--angles", "60,60"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--angles", "60,60,60", "--no-such-flag"])
    assert exc.value.code == 2

    # degenerate geometry reaches the run stage, still exit 2
    flat = write_geometry(tmp_path / "flat.json",
                          {"vertices": [[0, 0], [1, 0], [2, 0]]})
    assert main(["triangle", "--geometry", flat, *FAST_FLAGS]) == 2


def test_diagnostic_failures_exit_three(tmp_path, monkeypatch, capsys):
    geom = write_geometry(tmp_path / "g.json",
                          {"vertices": [[0, 0], [1, 0], [0.3, 0.8]]})

    def explode(*args, **kwargs):
        raise DiagnosticError("synthetic resolution failure")

    monkeypatch.setattr(cli, "polygon_pdd", explode)
    assert main(["polygon", "--geometry", geom, *FAST_FLAGS]) == 3
    assert "diagnostic" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "polydist" in capsys.readouterr().out


def readme_command_lines():
    """The ``polydist`` lines of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("polydist ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    lines = readme_command_lines()
    assert len(lines) == 7
    for name, data in {
        "tri.json": {"angles": [80, 70, 30]},
        "a.json": {"vertices": [[0, 0], [1, 0], [0.5, 0.9]]},
        "b.json": {"vertices": [[0, 0], [0.5, -0.8], [1, 0]]},
        "pentagon.json": {"vertices": regular_polygon(5).vertices.tolist()},
        "outer.json": {"vertices": square(0.5).vertices.tolist()},
        "hole.json": {"vertices": square(0.3).vertices.tolist()},
    }.items():
        write_geometry(tmp_path / name, data)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
