import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.dom.minidom

import pytest
from hypothesis import given, settings, strategies as st

import arcline
from arcline import cli
from arcline.cli import main
from arcline.document import parse, render, read_polyline_file, write_polyline_file
from arcline.pipeline import archimedean_spiral


# the directory holding the imported package, so that the CLI subprocess
# runs the same code however the tests found it
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(arcline.__file__)))


def run_cli(args):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "arcline.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
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


@pytest.mark.parametrize("line", ["foo", "1,2,3", "1,abc"])
def test_malformed_line_exits_2_with_its_location(line, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(f"0,0\n\n{line}\n2,1\n")
    assert main(["compress", str(path), "--tolerance", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 3: expected 'x,y', got '{line}'\n"


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
                          "--min-arc-points", "3"])
    assert code == 3
    code, _, _ = run_cli(["compress", str(tmp_path / "missing.txt"), "--tolerance", "1"])
    assert code == 2


@pytest.mark.parametrize("flag, value, code, message", [
    ("--min-arc-points", "4.5", 2, "invalid int value"),
    ("--penalty-arc", "nan", 2, "invalid int value"),
    ("--penalty-arc", "0", 3, "penalty_arc must be an integer of at least 1"),
    ("--penalty-segment", "-2", 3, "penalty_segment must be an integer of at least 1"),
])
def test_non_integer_or_small_counts_exit_2_or_3(flag, value, code, message, tmp_path):
    good = tmp_path / "good.txt"
    write_polyline_file(str(good), [(0, 0), (1, 1), (2, 0)])
    got, out, err = run_cli(["compress", str(good), "--tolerance", "0.1", f"{flag}={value}"])
    assert (got, out) == (code, "")
    assert message in err


def _readme_synopsis():
    """{subcommand: set of --flags} from the README's CLI synopsis block."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    flags = {}
    for line in block.splitlines():
        if line.startswith("arcline "):
            cmd = flags.setdefault(line.split()[1], set())
        cmd.update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_synopsis_lists_the_flags_of_every_subcommand(capsys):
    synopsis = _readme_synopsis()
    assert set(synopsis) == {"compress", "annulus", "gen-hull", "bench"}
    for cmd, flags in synopsis.items():
        with pytest.raises(SystemExit) as exit_info:
            main([cmd, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == listed - {"--help"}, cmd


@pytest.mark.parametrize("pts, tol, code", [([(0, 0), (1e300, 0), (2e300, 1)], "1", 2),
                                            ([(0, 0), (1, 1), (2, 0), (3, 1)], "1e-300", 2),
                                            ([(0, 0), (1, 1), (2, 0), (3, 1)], "1e-310", 3)])
def test_compress_beyond_the_grid_exits_without_traceback(pts, tol, code, tmp_path, capsys):
    path = tmp_path / "far.txt"
    write_polyline_file(str(path), pts)
    assert main(["compress", str(path), "--tolerance", tol]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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


@pytest.mark.parametrize("alpha", ["1e-320", "nan"])
def test_annulus_tiny_or_nan_alpha_exits_3(alpha, tmp_path, capsys):
    path = tmp_path / "pts.txt"
    write_polyline_file(str(path), [(0, 0), (10, 3), (5, 9), (-3, 4), (2, -6)])
    assert main(["annulus", str(path), "--alpha", alpha]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tol", ["0", "-0.0"])
def test_annulus_zero_tolerance_exits_3(tol, tmp_path, capsys):
    path = tmp_path / "pts.txt"
    write_polyline_file(str(path), [(0, 0), (10, 3), (5, 9), (-3, 4), (2, -6)])
    assert main(["annulus", str(path), "--tolerance", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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
    code2, out2, _ = run_cli(["bench", "--algo", "farthest", "--gen", "directions",
                              "--n", "64"])
    assert code2 == 0


def test_bench_reports_the_size_of_the_fastest_input(monkeypatch, capsys):
    from arcline import delaunay  # the module `cmd_bench` imports on use

    # each repeat draws a hull of a different size; a fake clock makes the
    # second repeat the fastest, and its size is the one printed
    sizes, clock = [], [0.0]

    def build(pts):
        clock[0] += (3.0, 1.0, 2.0)[len(sizes)]
        sizes.append(len(pts))

    monkeypatch.setattr(delaunay, "build_closest", build)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    assert main(["bench", "--gen", "walk", "--n", "40", "--repeat", "3"]) == 0
    assert len(set(sizes)) > 1
    assert capsys.readouterr().out.splitlines()[-1].split() == [str(sizes[1]), "1.0000"]


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_without_repeats_exits_3(repeat, capsys):
    assert main(["bench", "--n", "10", "--repeat", repeat]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_unwritable_output_paths_exit_3(spiral_file, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["gen-hull", "--algo", "walk", "--n", "10", "--out", str(missing / "h.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert main(["compress", spiral_file, "--tolerance", "0.5", "--svg", str(missing / "x.svg")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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


def test_compress_segments_mode_with_a_tiny_grid_tolerance_exits_2(tmp_path, capsys):
    # with the file's scale, 1e-300 is far below one grid unit, and
    # densifying the edges at that step would never end
    path = tmp_path / "scaled.txt"
    path.write_text("# scale=100\n0,0\n1,0\n")
    assert main(["compress", str(path), "--tolerance", "1e-300", "--mode", "segments"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: densifying")


@pytest.mark.parametrize("command", ["compress", "annulus"])
@pytest.mark.parametrize("scale", ["0", "-4", "9" * 400])
def test_scale_header_not_positive_or_beyond_the_float_range_exits_2(command, scale, tmp_path,
                                                                     capsys):
    # a negative scale used to give `annulus` negative radii, and one past
    # the float range a traceback
    path = tmp_path / "bad_scale.txt"
    path.write_text(f"# scale={scale}\n0,0\n1,0\n2,1\n")
    assert main([command, str(path), "--tolerance", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["compress", "annulus"])
@pytest.mark.parametrize("scale", ["abc", "1.5", "0", "-3"])
def test_malformed_scale_header_located(command, scale, tmp_path, capsys):
    # a scale that is no positive integer is reported with its line, not
    # with the message of int()
    path = tmp_path / "bad_scale.txt"
    path.write_text(f"0,0\n# scale={scale}\n1,0\n2,1\n")
    assert main([command, str(path), "--tolerance", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line 2: scale must be a positive integer within the "
                            f"float range, got {scale!r}\n")


_FUZZ_VALUES = ["0", "-0.0", "1", "-2.5", "0.125", "1e-300", "1e300", "-1e300", "1e400", "nan", "inf"]


@st.composite
def _fuzz_documents(draw):
    """Polyline files with good and bad lines, non-finite and huge values
    and scale headers."""
    lines = []
    kinds = ["point"] if draw(st.booleans()) else ["point", "point", "value", "garbage", "scale"]
    for _ in range(draw(st.integers(0 if len(kinds) > 1 else 2, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "point":
            lines.append(f"{draw(st.integers(-20, 20)) / 4},{draw(st.integers(-20, 20)) / 4}")
        elif kind == "value":
            lines.append(f"{draw(st.sampled_from(_FUZZ_VALUES))},{draw(st.sampled_from(_FUZZ_VALUES))}")
        elif kind == "garbage":
            lines.append(draw(st.sampled_from(["", "x", "1,2,3", "1;2", ",", "# note"])))
        else:
            lines.append("# scale=" + draw(st.sampled_from(["0", "-4", "1", "100", "x", "1" + "0" * 300, "9" * 400])))
    return "\n".join(lines) + "\n"


@st.composite
def _fuzz_arguments(draw):
    number = st.one_of(st.sampled_from(["0.5", "0.25", "2"]), st.sampled_from(_FUZZ_VALUES))
    if draw(st.booleans()):
        # flag=value: a value like -1e300 must not read as a flag
        args = ["compress", "--tolerance=" + draw(number),
                "--mode=" + draw(st.sampled_from(["vertices", "segments"]))]
        for flag, values in (("--penalty-segment", ["-1", "0", "2", "9" * 40]),
                             ("--penalty-arc", ["0", "3", "9" * 40]),
                             ("--min-arc-points", ["0", "3", "4", "6"])):
            if draw(st.integers(0, 3)) == 0:
                args.append(flag + "=" + draw(st.sampled_from(values)))
        return args
    args = ["annulus", "--alpha=" + draw(st.sampled_from(_FUZZ_VALUES + ["0.1", "359", "360", "1e-320"]))]
    if draw(st.booleans()):
        args.append("--tolerance=" + draw(number))
    return args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_documents(), _fuzz_arguments())
def test_cli_fuzz_exits_with_a_documented_code(text, args):
    # any document and any parameters end in a result or a documented
    # error, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([args[0], path, *args[1:]])
    assert code in (0, 2, 3)
    assert (out.getvalue() == "") == (code != 0)
    if code:
        assert err.getvalue().startswith("error: ")
