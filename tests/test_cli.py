import math
import subprocess
import sys
import xml.dom.minidom

import pytest

from arcline.cli import main
from arcline.document import parse, render, read_polyline_file, write_polyline_file
from arcline.pipeline import archimedean_spiral


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "arcline.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def spiral_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "spiral.txt"
    write_polyline_file(str(path), archimedean_spiral(1.0, 3.0, 0.4))
    return str(path)


def test_compress_document_and_determinism(spiral_file, tmp_path):
    code, out1, err = run_cli(["compress", spiral_file, "--tolerance", "0.1"])
    assert code == 0, err
    code, out2, _ = run_cli(["compress", spiral_file, "--tolerance", "0.1"])
    assert code == 0
    assert out1 == out2  # byte identical across runs
    doc = parse(out1)
    keys = dict(doc.pairs)
    assert int(keys["primitives"]) == len(doc.rows)
    assert int(keys["t_count"]) == sum(2 if r[0] == "segment" else 3 for r in doc.rows)
    # document round-trip is byte exact
    assert render(parse(out1)) == out1


def test_two_point_file_single_segment(tmp_path):
    path = tmp_path / "two.txt"
    write_polyline_file(str(path), [(0.0, 0.0), (10.0, 3.0)])
    code, out, _ = run_cli(["compress", str(path), "--tolerance", "0.5"])
    assert code == 0
    doc = parse(out)
    assert len(doc.rows) == 1 and doc.rows[0][0] == "segment"


def test_closed_square(tmp_path):
    path = tmp_path / "square.txt"
    write_polyline_file(str(path), [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    code, out, err = run_cli(["compress", str(path), "--tolerance", "0.1"])
    assert code == 0, err
    rows = parse(out).rows
    assert rows[0][1] == "0" and rows[-1][2] == "4"


def test_compress_svg(spiral_file, tmp_path):
    svg = tmp_path / "out.svg"
    code, _, _ = run_cli(["compress", spiral_file, "--tolerance", "0.1", "--svg", str(svg)])
    assert code == 0
    dom = xml.dom.minidom.parse(str(svg))
    assert dom.documentElement.tagName == "svg"
    text = svg.read_text()
    assert "polyline" in text and "red" in text and "blue" in text


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2\nnot-a-number\n")
    code, _, _ = run_cli(["compress", str(bad), "--tolerance", "0.5"])
    assert code == 2
    good = tmp_path / "good.txt"
    write_polyline_file(str(good), [(0, 0), (1, 1)])
    code, _, _ = run_cli(["compress", str(good), "--tolerance", "-3"])
    assert code == 3
    code, _, _ = run_cli(["compress", str(good), "--tolerance", "1",
                          "--min-arc-points", "8", "--max-arc-points", "5"])
    assert code == 3
    code, _, _ = run_cli(["compress", str(tmp_path / "missing.txt"), "--tolerance", "1"])
    assert code == 2


def test_annulus_command(tmp_path):
    path = tmp_path / "circle.txt"
    pts = [(math.cos(a), math.sin(a)) for a in [k * 0.5 for k in range(12)]]
    write_polyline_file(str(path), pts)
    code, out, _ = run_cli(["annulus", str(path), "--tolerance", "0.01"])
    assert code == 0
    keys = dict(parse(out).pairs)
    assert float(keys["width"]) < 1e-3
    assert keys["arc_feasible"] == "True"


def test_annulus_ring_sample(tmp_path):
    import random
    rng = random.Random(6)
    pts = []
    while len(pts) < 60:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if 0.9 <= math.hypot(x, y) <= 1.0:
            pts.append((x, y))
    path = tmp_path / "ring.txt"
    write_polyline_file(str(path), pts)
    code, out, _ = run_cli(["annulus", str(path)])
    assert code == 0
    keys = dict(parse(out).pairs)
    assert float(keys["width"]) <= 0.1 + 1e-3


def test_gen_hull_deterministic_and_convex(tmp_path):
    out1 = tmp_path / "h1.txt"
    out2 = tmp_path / "h2.txt"
    for out in (out1, out2):
        code, _, _ = run_cli(["gen-hull", "--algo", "walk", "--n", "64",
                              "--seed", "9", "--out", str(out)])
        assert code == 0
    assert out1.read_text() == out2.read_text()
    pts, _ = read_polyline_file(str(out1))
    assert len(pts) >= 3
    code, _, _ = run_cli(["gen-hull", "--algo", "fdt", "--n", "2", "--out", str(out1)])
    assert code == 3


def test_bench_runs_and_threads_do_not_change_results(tmp_path):
    code, out, _ = run_cli(["bench", "--algo", "closest", "--gen", "uniform",
                            "--n", "64", "--n", "128"])
    assert code == 0
    assert "seconds" in out
    code2, out2, _ = run_cli(["bench", "--algo", "convex-ordered", "--gen", "directions",
                              "--n", "64"])
    assert code2 == 0


def test_scale_header_respected(tmp_path):
    path = tmp_path / "scaled.txt"
    with open(path, "w") as f:
        f.write("# scale=100\n0,0\n10,0\n10,10\n")
    code, out, _ = run_cli(["compress", str(path), "--tolerance", "0.5"])
    assert code == 0
    assert dict(parse(out).pairs)["scale"] == "100"


def test_main_callable_directly(spiral_file, capsys):
    assert main(["compress", spiral_file, "--tolerance", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "t_count" in out
