import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppsn
from ppsn import linalg
from ppsn.cli import (
    MAX_DIM_DEGREE,
    MAX_DIM_STEPS,
    SUBCOMMANDS,
    _subcommand,
    build_parser,
    cmd_reduce,
    dim_steps,
    json_text,
    main,
    parse_command_line,
)
from ppsn.mpoly import MAX_MONOMIALS

GRID = "x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n"
GRID4 = "x1*(x1-1)*(x1-2)*(x1-3)\nx2*(x2-1)*(x2-2)*(x2-3)\n"
CUBE = "x1*(x1-1)\nx2*(x2-1)\nx3*(x3-1)\n"
CIRCLE = "x1^2 + x2^2 - 1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["dim", "--n", "2", "--degrees", "2", "--m", "3", "--json"]
    code, out = run(argv, capsys)
    proc = _ppsn_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout, _ = proc.communicate(timeout=60)
    assert proc.returncode == code == 0
    assert stdout == out.encode()


def _ppsn_process(argv, **kwargs):
    """`python -m ppsn <argv>` on the package under test, wherever the
    interpreter would find another."""
    src = os.path.dirname(os.path.dirname(ppsn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "ppsn", *argv], env=dict(os.environ, PYTHONPATH=path), **kwargs
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dim", "--n", "2", "--degrees", "2", "--m", "3", "--json"], 0),
        (["extract", "--system", "{grid}", "--m", "2", "--json"], 0),
        (["verify", "--nodes", "{line}", "--m", "1"], 1),
    ],
)
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(argv, code, files):
    paths = {"grid": files("grid.sys", GRID), "line": files("line.nodes", "0,0\n1,1\n2,2\n")}
    proc = _ppsn_process(
        [a.format(**paths) for a in argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()  # before the process can have written anything
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_dim_human_output(capsys):
    code, out = run(["dim", "--n", "2", "--degrees", "1", "--m", "5"], capsys)
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [1, 2, 3, 4, 5, 6]  # H column is m+1


def test_dim_json_matches_columns(capsys):
    code, out = run(
        ["dim", "--n", "3", "--degrees", "2,2,2", "--m", "4", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert [row["H"] for row in report["table"]] == [1, 4, 7, 8, 8]
    assert [row["bdiff"] for row in report["table"]] == [1, 4, 7, 8, 8]


# keys and strings with quotes, backslashes, control and non-ASCII characters
JSON_CHARS = '"\\/\x00\x1f\x7f a\u00e9\u2028\ud800\U0001f600'
json_strings = st.text(max_size=8) | st.text(st.sampled_from(JSON_CHARS), max_size=4)
json_scalars = st.one_of(
    json_strings,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-1),
    st.booleans(),
    st.none(),
    st.floats(),
)
report_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(report_values)
def test_json_text_writes_the_bytes_of_indented_sorted_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "degrees, flag",
    [
        (["--m", str(MAX_DIM_DEGREE + 1)], "--m"),
        (["--m", "1000000000000"], "--m"),
        (["--m=" + str(10**30)], "--m"),
    ],
)
def test_dim_above_the_degree_bound_exits_2_before_the_table(degrees, flag, monkeypatch, capsys):
    def spy(profile, mmax):
        raise AssertionError("a table was built")  # instead of allocating it

    monkeypatch.setattr("ppsn.dimension.hilbert_table", spy)
    code = main(["dim", "--n", "2", "--degrees", "2", *degrees, "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{flag} " in captured.err and f"largest table degree {MAX_DIM_DEGREE}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "50", "--degrees", "3", "--m", "2000"],
        ["--n", "300", "--degrees", "2", "--m", "400"],
        ["--n", "40", "--degrees", ",".join(["2"] * 40), "--m", "1000"],
        # few factors, but binomials of about 27,000 bits
        ["--n", str(10**30), "--degrees", "2", "--m", "290"],
        ["--n", str(10**100), "--degrees", "2", "--m", "120"],
    ],
)
def test_dim_above_the_step_budget_exits_2_before_the_table(argv, monkeypatch, capsys):
    def spy(profile, mmax):
        raise AssertionError("a table was built")  # instead of allocating it

    monkeypatch.setattr("ppsn.dimension.hilbert_table", spy)
    code = main(["dim", *argv, "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    n = argv[1]
    assert f"--n {n} with " in captured.err and "table steps" in captured.err
    assert f"budget of {MAX_DIM_STEPS:.2g}" in captured.err


@pytest.mark.parametrize("n, m", [(10**1000, 5), (10**4300 - 1, 1)])
def test_dim_with_entries_too_long_to_print_exits_2_before_the_table(n, m, monkeypatch, capsys):
    def spy(profile, mmax):
        raise AssertionError("a table was built")  # instead of allocating it

    monkeypatch.setattr("ppsn.dimension.hilbert_table", spy)
    code = main(["dim", "--n", str(n), "--degrees", "2", "--m", str(m), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "digits, which Python does not print" in captured.err


def test_dim_step_budget_admits_the_largest_degree_in_the_plane_and_n_14():
    assert dim_steps(2, 2, MAX_DIM_DEGREE) <= MAX_DIM_STEPS
    assert dim_steps(14, 14, 16) <= MAX_DIM_STEPS
    assert dim_steps(10**9, 1, 1) <= MAX_DIM_STEPS  # a binomial of one factor
    assert dim_steps(10**30, 1, 100) <= MAX_DIM_STEPS  # 0.03 s; 2e4-bit binomials


def test_dim_builds_one_table_and_checks_every_row(monkeypatch, capsys):
    calls, backward = [], []
    real = ppsn.dimension.hilbert_table
    real_backward = ppsn.dimension.backward_diff_table

    def spy(profile, mmax):
        calls.append(mmax)
        return real(profile, mmax)

    def backward_spy(mmax, n, ks):
        backward.append(mmax)
        return real_backward(mmax, n, ks)

    monkeypatch.setattr("ppsn.dimension.hilbert_table", spy)
    monkeypatch.setattr("ppsn.dimension.backward_diff_table", backward_spy)
    argv = ["dim", "--n", "2", "--degrees", "2", "--m", "40", "--json"]
    code, out = run(argv, capsys)
    assert (code, calls, backward) == (0, [40], [40])
    table = json.loads(out)["table"]
    assert [row["H"] for row in table] == [row["bdiff"] for row in table]
    assert [row["H"] for row in table] == [2 * j + 1 for j in range(41)]

    # a row of the one backward table that disagrees is an internal failure
    def corrupt(mmax, n, ks):
        rows = real_backward(mmax, n, ks)
        rows[17] += 1
        return rows

    monkeypatch.setattr("ppsn.dimension.backward_diff_table", corrupt)
    calls.clear()
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (1, "", [40])
    assert "cross-check failed at m=17" in captured.err


def test_verify_proper_and_improper(files, capsys):
    good = files("good.nodes", "0,0\n1,0\n0,1\n")
    code, out = run(["verify", "--nodes", good, "--m", "1"], capsys)
    assert code == 0
    assert "proper" in out
    bad = files("bad.nodes", "0,0\n1,1\n2,2\n")
    code, out = run(["verify", "--nodes", bad, "--m", "1"], capsys)
    assert code == 1
    assert "improper" in out


def test_verify_line_fixture(files, capsys):
    manifold = files("line.poly", "x2\n")
    nodes = files("line.nodes", "0,0\n1,0\n2,0\n3,0\n")
    code, _ = run(["verify", "--manifold", manifold, "--nodes", nodes, "--m", "3"], capsys)
    assert code == 0


def test_verify_parabola_fixture(files, capsys):
    manifold = files("conic.poly", "x2 - x1^2\n")
    nodes = files("conic.nodes", "0,0\n1,1\n-1,1\n2,4\n-2,4\n")
    code, _ = run(["verify", "--manifold", manifold, "--nodes", nodes, "--m", "2"], capsys)
    assert code == 0


def spy_membership(monkeypatch):
    """The number of points of each manifold membership check, call by call."""
    checked = []
    real = ppsn.Manifold.require_on_manifold

    def spy(self, points):
        checked.append(len(points))
        return real(self, points)

    monkeypatch.setattr(ppsn.Manifold, "require_on_manifold", spy)
    return checked


@pytest.mark.parametrize("command", ["verify", "interpolate", "superpose"])
def test_node_count_is_checked_before_membership(command, files, capsys, monkeypatch):
    # three points, one off the circle, where degree 3 needs seven
    nodes = files("three.nodes", "1,0\n0,1\n2,2\n")
    argv = {
        "verify": ["verify", "--nodes", nodes],
        "interpolate": ["interpolate", "--nodes", nodes, "--values", files("v", "1\n2\n3\n")],
        "superpose": ["superpose", "--sub", nodes, "--super", files("none.nodes", "")],
    }[command]
    checked = spy_membership(monkeypatch)
    code = main(argv + ["--manifold", files("circle.poly", CIRCLE), "--m", "3"])
    err = capsys.readouterr().err
    assert (code, checked) == (2, [])
    assert "needs exactly 7 nodes, got 3" in err


def test_on_count_nodes_off_the_manifold_are_checked_once(files, capsys, monkeypatch):
    nodes = files("seven.nodes", "1,0\n0,1\n-1,0\n0,-1\n3/5,4/5\n4/5,3/5\n2,2\n")
    checked = spy_membership(monkeypatch)
    argv = ["verify", "--manifold", files("circle.poly", CIRCLE), "--nodes", nodes, "--m", "3"]
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, checked) == (2, [7])
    assert "point ('2', '2') has residual 7 on defining polynomial #1" in err


def test_reduce_circle(files, capsys):
    manifold = files("circle.poly", CIRCLE)
    code, out = run(["reduce", "--manifold", manifold, "--poly", "x1^2"], capsys)
    assert code == 0
    assert "1 - x2^2" in out


def test_reduce_reads_the_polynomial_from_a_file_as_from_the_command_line(files, tmp_path, capsys):
    manifold = files("circle.poly", CIRCLE)
    poly = "x1^5*x2 - 3*x1^3 + x2^2 - 7"
    reports = []
    for source in (["--poly", poly], ["--poly-file", files("f.poly", poly + "\n")]):
        code, out = run(["reduce", "--manifold", manifold, *source, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        reports.append((report["remainder"], report["cofactors"]))
    assert reports[0] == reports[1]
    # x1^2 = 1 - x2^2 on the circle
    assert reports[0][0] == "-7 - 3*x1 + x1*x2 + x2^2 + 3*x1*x2^2 - 2*x1*x2^3 + x1*x2^5"
    for unreadable in (str(tmp_path / "missing.poly"), str(tmp_path)):
        argv = ["reduce", "--manifold", manifold, "--poly-file", unreadable, "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"input error: cannot read {unreadable}")


def test_hbase_passes(files, capsys):
    manifold = files("circle.poly", CIRCLE)
    witness = files("circle.wit", "x2 - 2\n")
    code, _ = run(
        ["hbase", "--manifold", manifold, "--witnesses", witness,
         "--mmax", "4", "--trials", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0


def test_hbase_rejects_trials_below_one(files, capsys):
    manifold = files("circle.poly", CIRCLE)
    witness = files("circle.wit", "x2 - 2\n")
    for trials in ("0", "-2"):
        code, out = run(
            ["hbase", "--manifold", manifold, "--witnesses", witness,
             "--mmax", "4", "--trials", trials],
            capsys,
        )
        assert code == 2
        assert out == ""


def test_hbase_rejects_mmax_below_the_smallest_degree(files, capsys):
    manifold = files("circle.poly", CIRCLE)
    witness = files("circle.wit", "x2 - 2\n")
    for mmax in ("1", "-3"):
        code, out = run(
            ["hbase", "--manifold", manifold, "--witnesses", witness, "--mmax", mmax, "--json"],
            capsys,
        )
        assert code == 2
        assert out == ""


def test_extract_grid(files, capsys):
    system = files("grid.sys", GRID)
    code, out = run(["extract", "--system", system, "--m", "2"], capsys)
    assert code == 0
    points = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(points) == 6


def test_a_json_report_builds_no_human_text(files, monkeypatch, capsys):
    def format_nodes(node_set):
        raise AssertionError("the human-readable text was built")

    monkeypatch.setattr("ppsn.nodes.format_nodes", format_nodes)
    system = files("grid.sys", GRID)
    code, out = run(["extract", "--system", system, "--m", "2", "--json"], capsys)
    assert code == 0 and len(json.loads(out)["points"]) == 6


def test_interpolate_fixture(files, capsys):
    nodes = files("tri.nodes", "0,0\n1,0\n0,1\n")
    values = files("tri.vals", "1\n2\n3\n")
    code, out = run(
        ["interpolate", "--nodes", nodes, "--values", values, "--m", "1"], capsys
    )
    assert code == 0
    assert out.strip() == "1 + x1 + 2*x2"


def test_superpose_cube(files, capsys):
    manifold = files("cube.mani", "x1^2 - x1\nx2^2 - x2\nx3^2 - x3\n")
    sub = files(
        "sub.nodes",
        "0,0,0\n0,0,1\n0,1,0\n0,1,1\n1,0,0\n1,0,1\n1,1,0\n1,1,1\n",
    )
    sup = files("sup.nodes", "0,0,2\n0,0,3\n0,1,2\n1,0,2\n")
    code, out = run(
        ["superpose", "--manifold", manifold, "--sub", sub, "--super", sup, "--m", "3"],
        capsys,
    )
    assert code == 0
    points = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(points) == 12


def test_cb_reduce_and_refusal(files, capsys):
    system = files("grid.sys", GRID)
    good = files("triple.nodes", "0,0\n1,1\n2,0\n")
    code, out = run(["cb-reduce", "--system", system, "--remove", good, "--m", "2"], capsys)
    assert code == 0
    bad = files("collinear.nodes", "0,0\n1,0\n2,0\n")
    code, _ = run(["cb-reduce", "--system", system, "--remove", bad, "--m", "2"], capsys)
    assert code == 1


@pytest.mark.parametrize("command", [["cb-reduce"], ["cb-check", "--poly", "x1"]])
def test_more_removed_points_than_intersection_points_exit_2_before_any_is_parsed(
    command, files, monkeypatch, capsys
):
    parsed = []
    real = ppsn.nodes.parse_nodes_text
    monkeypatch.setattr("ppsn.nodes.parse_nodes_text", lambda text: parsed.append(text) or real(text))
    system = files("grid.sys", GRID)  # nine intersection points
    # ten lines, past the bound; nine, at it, are parsed (and refused as duplicates)
    for count, message in ((10, "--remove holds more than 9 points"), (9, "duplicate")):
        removed = files("many.nodes", "# removed\n" + "0,0\n" * count)
        argv = [*command, "--system", system, "--remove", removed, "--m", "2", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert len(parsed) == (0 if count == 10 else 1)


def test_cb_check_branches(files, capsys):
    system = files("cube.sys", CUBE)
    removed = files("corner.nodes", "0,0,0\n")
    code, out = run(
        ["cb-check", "--system", system, "--remove", removed, "--m", "2",
         "--poly", "x1^2 - x1"],
        capsys,
    )
    assert code == 0
    assert "vanishes" in out


def test_cb_check_exception_hypersurface(files, capsys):
    # f vanishes on the ten remaining points of the 4x4 grid but not on the
    # six removed ones, which lie on a conic: the first kernel vector of
    # their evaluation rows at degree M - m - 1 = 2
    system = files("grid4.sys", GRID4)
    removed = files("six.nodes", "0,0\n1,0\n2,0\n3,0\n0,1\n2,2\n")
    code, out = run(
        ["cb-check", "--system", system, "--remove", removed, "--m", "3",
         "--poly", "x2^3 - 6*x2^2 + 11*x2 - 6", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert not report["vanishes_on_removed"]
    assert report["exception_hypersurface"] == "-x2 - 1/2*x1*x2 + x2^2"


def interpolate_circle21(files, capsys, monkeypatch):
    """`ppsn interpolate --json` on 21 rational circle points with values
    1/(k+2), whose interpolant's coefficients are past what one word-size
    residue reconstructs: the node counts of the exact solves it ran, and
    its polynomial, checked against the bytes every path must give."""
    points = []
    for k in range(1, 22):
        t = Fraction(k, 3)
        points.append(f"{(1 - t * t) / (1 + t * t)},{2 * t / (1 + t * t)}")
    manifold = files("circle.mani", CIRCLE)
    nodes = files("circle21.nodes", "\n".join(points) + "\n")
    values = files("circle21.vals", "".join(f"{Fraction(1, k + 2)}\n" for k in range(21)))
    circle = ppsn.Manifold([ppsn.parse_polynomial(CIRCLE, 2)])
    ppsn.canonical_monomials(circle, 2, 10)  # the selections, so only the fallback is counted
    builds = []
    real = linalg.solution_set
    monkeypatch.setattr(
        linalg, "solution_set", lambda matrix, rhs: builds.append(len(matrix)) or real(matrix, rhs)
    )
    code, out = run(
        ["interpolate", "--manifold", manifold, "--nodes", nodes, "--values", values,
         "--m", "10", "--json"],
        capsys,
    )
    assert code == 0
    polynomial = json.loads(out)["polynomial"]
    assert len(polynomial) == 1093
    assert hashlib.sha256(polynomial.encode()).hexdigest() == (
        "b9f96829fbff03c59f26b005af0e092b60401dfc48855b3626b8e0a80471aea0"
    )
    return builds


def test_interpolate_generic_values_through_the_exact_fallback(files, capsys, monkeypatch):
    # a lift that finds nothing leaves the 21 x 21 system to the exact
    # fallback, once, and the bytes are the same
    monkeypatch.setattr(linalg, "lift", lambda *args: None)
    assert interpolate_circle21(files, capsys, monkeypatch) == [21]


def test_interpolate_generic_values_by_lifting(files, capsys, monkeypatch):
    # the lift from the certificate's one elimination solves it, exactly
    assert interpolate_circle21(files, capsys, monkeypatch) == []


def test_chain_counts(files, capsys):
    system = files("cube.sys", CUBE)
    code, out = run(
        ["chain", "--system", system, "--t", "3", "--mmax", "3", "--x0", "0,0,2",
         "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert [len(level["points"]) for level in report["levels"]] == [1, 4, 8, 12]
    assert all(level["certificate"]["verdict"] == "proper" for level in report["levels"])


def test_insufficient_system_exits_one(files, capsys):
    system = files("parallel.sys", "x1*(x1-1)\n(x1-2)*(x1-3)\n")
    removed = files("corner.nodes", "0,0\n")
    for argv in (
        ["extract", "--system", system, "--m", "1"],
        ["cb-reduce", "--system", system, "--remove", removed, "--m", "1"],
        ["cb-check", "--system", system, "--remove", removed, "--m", "1", "--poly", "x1"],
    ):
        assert main(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("failure: selection (1, 1) is singular")
        assert "Traceback" not in captured.err


def test_exit_code_two_on_malformed_input(files, capsys):
    bad = files("bad.poly", "x1 + @\n")
    assert main(["reduce", "--manifold", bad, "--poly", "x1"]) == 2
    missing = ["verify", "--nodes", "/nonexistent/file", "--m", "1"]
    assert main(missing) == 2
    capsys.readouterr()


@pytest.mark.parametrize("poly, position", [("x1^²", 3), ("x1²", 2)])
def test_superscript_digit_exits_two_at_that_character(poly, position, files, capsys):
    manifold = files("circle.poly", CIRCLE)
    assert main(["reduce", "--manifold", manifold, "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: unexpected character '²' (at position {position})\n"
    assert captured.out == ""


LONG = "7" * 5000  # past the 4,300 digits int() converts by default (CPython 3.11+)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < INT_DIGIT_LIMIT < len(LONG), reason="int() converts 5,000 digits here")
@pytest.mark.parametrize(
    "manifold, poly, message",
    [
        (CIRCLE, LONG, "5000-digit number"),
        (CIRCLE, "x1^" + LONG, "5000-digit number"),
        # the dimension is inferred from the manifold's largest variable index
        ("x" + LONG + "^2 - 1\n", "x1", "5000-digit variable index"),
    ],
    ids=["coefficient", "exponent", "manifold-index"],
)
def test_a_number_longer_than_int_converts_exits_two(manifold, poly, message, files, capsys):
    path = files("long.poly", manifold)
    assert main(["reduce", "--manifold", path, "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {message}, more than the {INT_DIGIT_LIMIT} digits")
    assert captured.out == ""


def test_bad_system_token_exits_two_naming_the_line(files, capsys):
    system = files("bad.sys", "x1*(x1-1)\n# c\nx2*(x2 + @)\n")
    assert main(["extract", "--system", system, "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert "line 3: factor 'x2 + @'" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_json_outputs_are_deterministic(files, capsys):
    system = files("grid.sys", GRID)
    argv = ["extract", "--system", system, "--m", "3", "--json"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    json.loads(first)  # valid JSON


def test_dimension_inference_failure(files, capsys):
    manifold = files("const.poly", "5\n")
    code = main(["reduce", "--manifold", manifold, "--poly", "1"])
    capsys.readouterr()
    assert code == 2


def test_bad_degree_list_exits_two(capsys):
    assert main(["dim", "--n", "2", "--degrees", "a,2", "--m", "3"]) == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "Traceback" not in err


def test_bad_interpolation_value_exits_two(files, capsys):
    nodes = files("tri.nodes", "0,0\n1,0\n0,1\n")
    values = files("tri.vals", "1\nabc\n3\n")
    assert main(["interpolate", "--nodes", nodes, "--values", values, "--m", "1"]) == 2
    assert "'abc'" in capsys.readouterr().err


def test_bad_chain_seed_exits_two(files, capsys):
    system = files("cube.sys", CUBE)
    argv = ["chain", "--system", system, "--t", "3", "--mmax", "2", "--x0", "0,zz,2"]
    assert main(argv) == 2
    assert "'zz'" in capsys.readouterr().err


def test_negative_chain_degree_exits_2_before_any_level_is_certified(
    files, monkeypatch, capsys
):
    certified = []
    monkeypatch.setattr("ppsn.construct.verify_ppsn", lambda *args: certified.append(args))
    system = files("grid.sys", GRID)
    argv = ["chain", "--system", system, "--t", "2", "--mmax", "-1", "--x0", "0,7", "--json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "input error: chain degree mmax must be >= 0\n"
    assert certified == []


def test_verify_at_a_negative_degree_asks_for_the_empty_set(files, capsys):
    nodes = files("three.nodes", "0,0\n1,0\n0,1\n")
    assert main(["verify", "--nodes", nodes, "--m", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: degree m = -1 is negative: the node set must be empty, got 3 nodes\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, flag", [(["--m", "-1"], "--m"), (["--m=-1"], "--m")]
)
def test_negative_dim_degree_exits_2_naming_its_flag(extra, flag, capsys):
    assert main(["dim", "--n", "2", "--degrees", "3"] + extra) == 2
    assert capsys.readouterr().err == f"input error: {flag} must be >= 0, got -1\n"


def test_report_names_the_argv_given_to_main(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["ppsn", "something", "else"])
    argv = ["dim", "--n", "2", "--degrees", "1", "--m", "2", "--json"]
    code, out = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["command"] == " ".join(argv)


# -- exit-code contract under malformed input ----------------------------------

# each argv ends in the flag that takes the input file
@pytest.mark.parametrize(
    "argv, text",
    [
        (["reduce", "--poly", "x1^99999999999", "--manifold"], CIRCLE),
        (["reduce", "--poly", "x1", "--manifold"], "x99999999^2 - 1\n"),
        (["reduce", "--poly", "x1", "--n", "99999999", "--manifold"], CIRCLE),
        (["hbase", "--mmax", "999999999999", "--manifold"], CIRCLE),
        # refused before the lower levels, which took minutes at this mmax
        (["chain", "--t", "2", "--mmax", "200", "--x0", "0,7", "--system"], GRID4),
    ],
)
def test_oversized_input_exits_2_before_any_basis_is_built(
    argv, text, files, monkeypatch, capsys
):
    built = []

    def spy(*args):
        built.append(args)
        raise AssertionError("a basis was built")  # instead of allocating it

    monkeypatch.setattr("ppsn.mpoly.monomials_of_degree", spy)
    monkeypatch.setattr("ppsn.macaulay.monomials_of_degree", spy)
    # a selection's items are built over a basis bound at import
    monkeypatch.setattr("ppsn.macaulay.elementary_items", spy)
    code = main(argv + [files("input.txt", text)])
    err = capsys.readouterr().err
    assert (code, built) == (2, [])
    assert "at least" in err and "more than the budget" in err


# a node file one point past any set the dense budget admits
MANY_POINTS = "0,0\n" * (MAX_MONOMIALS + 1)
FILE_OPTIONS = ("--nodes", "--values", "--manifold", "--sub", "--super")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--m", "2", "--nodes", MANY_POINTS], "--nodes"),
        (["interpolate", "--m", "2", "--values", "1\n", "--nodes", MANY_POINTS], "--nodes"),
        (["superpose", "--m", "2", "--manifold", CIRCLE, "--super", "0,0\n", "--sub", MANY_POINTS], "--sub"),
        (["superpose", "--m", "2", "--manifold", CIRCLE, "--sub", "0,0\n", "--super", MANY_POINTS], "--super"),
    ],
)
def test_oversized_node_file_exits_2_before_any_point_is_parsed(
    argv, flag, files, monkeypatch, capsys
):
    parsed = []

    def spy(*args):
        parsed.append(args)
        raise AssertionError("a point was parsed")

    monkeypatch.setattr("ppsn.nodes.as_fraction", spy)
    # every argument after a file option is that file's content
    argv = [files(f"in{k}", a) if k and argv[k - 1] in FILE_OPTIONS else a for k, a in enumerate(argv)]
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, parsed) == (2, [])
    assert f"{flag} holds more than {MAX_MONOMIALS} points" in err


FRAGMENTS = [
    "x1", "x2", "x3", "x0", "x4", "x12", "x99999999", "^", "^2", "^40", "^99999999",
    "*", "+", "-", "/", "(", ")", ",",
    "0", "1", "2", "3", "1/2", "1/0", "a", ".", "e", "@", "#", " ", "\n",
    "x1^2 + x2^2 - 1", "(x1 - 1)", "0,0", "1,0", "-1/3,2",
]


def _small_numbers(text):
    """Cap every run of digits at one digit: an integer option has no upper
    bound of its own (`--trials`), so a malformed one stays small."""
    return re.sub(r"(\d)\d+", r"\1", text)


MALFORMED = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join)
VALID = {
    "poly": [CIRCLE, "x2\n", "x1^2 - x1\nx2^2 - x2\n", "x1^99999999 - x2\n"],
    "system": [GRID, CUBE, "x1*(x1 + x2)\n(2*x1 + 2*x2 - 1)*x2\n"],
    "nodes": ["0,0\n1,0\n0,1\n", "1,0\n0,1\n-1,0\n", "0,0\n1,1\n2,2\n"],
    "values": ["1\n2\n3\n", "0\n"],
    "int": ["0", "1", "2", "3", "-1"],
    "expr": ["x1", "x1^2 + x2^2 - 1", "x1*x2"],
    "coords": ["0,0", "1/2,0,1/3", "2,1/2,0"],
    "degrees": ["1", "2,2", "2,3"],
}
FILES = ("poly", "system", "nodes", "values")
COMMANDS = {
    "dim": [("--n", "int"), ("--degrees", "degrees"), ("--m", "int")],
    "verify": [("--manifold", "poly"), ("--nodes", "nodes"), ("--m", "int")],
    "reduce": [("--manifold", "poly"), ("--poly", "expr"), ("--n", "int")],
    "hbase": [("--manifold", "poly"), ("--witnesses", "poly"), ("--mmax", "int"), ("--trials", "int")],
    "extract": [("--system", "system"), ("--m", "int")],
    "interpolate": [("--manifold", "poly"), ("--nodes", "nodes"), ("--values", "values"), ("--m", "int")],
    "superpose": [("--manifold", "poly"), ("--sub", "nodes"), ("--super", "nodes"), ("--m", "int")],
    "cb-reduce": [("--system", "system"), ("--remove", "nodes"), ("--m", "int")],
    "cb-check": [("--system", "system"), ("--remove", "nodes"), ("--m", "int"), ("--poly", "expr")],
    "chain": [("--system", "system"), ("--t", "int"), ("--mmax", "int"), ("--x0", "coords")],
}


@st.composite
def malformed_invocations(draw):
    """(subcommand, [(flag, kind, content)], --json): each option is left
    out, given a well-formed value or given malformed text. Integer options
    are mostly well-formed, so most calls get past argument parsing."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = []
    for flag, kind in COMMANDS[command]:
        valid, malformed = (6, 1) if kind == "int" else (3, 3)
        choice = draw(st.sampled_from(["omit"] + ["valid"] * valid + ["malformed"] * malformed))
        if choice != "omit":
            garbled = MALFORMED.map(_small_numbers) if kind == "int" else MALFORMED
            content = draw(st.sampled_from(VALID[kind]) if choice == "valid" else garbled)
            options.append((flag, kind, content))
    return command, options, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(malformed_invocations())
def test_malformed_input_keeps_the_exit_code_contract(case):
    command, options, as_json = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + (["--json"] if as_json else [])
        for i, (flag, kind, content) in enumerate(options):
            if kind in FILES:
                path = os.path.join(tmp, f"{i}.{kind}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
                content = path
            argv += [flag, content]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- one subcommand's parser against the full parser --------------------------

# the required options of each subcommand, with values that parse
REQUIRED = {
    "dim": ["--n", "2", "--degrees", "1", "--m", "1"],
    "verify": ["--nodes", "a", "--m", "1"],
    "reduce": ["--manifold", "a", "--poly", "x1"],
    "hbase": ["--manifold", "a", "--mmax", "2"],
    "extract": ["--system", "a", "--m", "1"],
    "interpolate": ["--nodes", "a", "--values", "b", "--m", "1"],
    "superpose": ["--manifold", "a", "--sub", "b", "--super", "c", "--m", "1"],
    "cb-reduce": ["--system", "a", "--remove", "b", "--m", "1"],
    "cb-check": ["--system", "a", "--remove", "b", "--m", "1", "--poly", "x1"],
    "chain": ["--system", "a", "--t", "1", "--mmax", "1", "--x0", "0,0"],
}


def test_required_table_covers_every_subcommand():
    assert list(REQUIRED) == list(SUBCOMMANDS)


def _parse(parse, argv):
    """(exit code, stdout, stderr) of an argparse exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["-h"], ["nope"], ["--json", "dim"]]
    + [
        argv
        for name, required in REQUIRED.items()
        for argv in (
            [name, "--help"],
            [name],  # required options missing
            [name, *required, "--bogus"],  # unrecognized, reported by the top parser
            [name, *required[:-1], "x"] if required[-2] == "--m" else [name, *required, "--n", "x"],
        )
    ],
)
def test_main_speaks_like_the_full_parser(argv):
    assert _parse(main, argv) == _parse(build_parser().parse_args, argv)


def _every_option(name):
    """An argv of the subcommand `name` that sets each of its options, with
    values other than REQUIRED's; of a mutually exclusive pair it sets the
    side that REQUIRED[name] leaves out."""
    parser = _subcommand(argparse.ArgumentParser(), name)
    given = set(REQUIRED[name][::2])
    grouped = {a for g in parser._mutually_exclusive_groups for a in g._group_actions}
    argv = [name]
    for action in parser._actions:
        flag = action.option_strings[-1]
        if flag == "--help" or (action in grouped and flag in given):
            continue
        argv += [flag] if action.nargs == 0 else [flag, "3" if action.type is int else "w"]
    return argv


# abbreviations of declared options, each of which argparse's prefix
# matching would read as the full option
ABBREVIATED = {
    "reduce": [["reduce", "--man", "a", "--poly", "x1"]],
    "chain": [["chain", "--system", "g", "--t", "2", "--m", "3", "--x0", "0,7"]],
}


@pytest.mark.parametrize("name", list(REQUIRED))
def test_single_subcommand_parser_parses_like_the_full_parser(name):
    # the subcommand's own parser answers these; each parse follows one that
    # set every option, so a value kept from the call before would show
    everything = _every_option(name)
    assert vars(parse_command_line(everything)) == vars(build_parser().parse_args(everything))
    required = REQUIRED[name]
    for argv in ([name, *required], [name, *required, "--json"]):
        parse_command_line(everything)
        assert vars(parse_command_line(argv)) == vars(build_parser().parse_args(argv))
    # an abbreviated option is refused, by main as by the full parser
    abbreviated = [name, "--js", *required] + (["--se", "4"] if name == "hbase" else [])
    for argv in [abbreviated] + ABBREVIATED.get(name, []):
        refused = _parse(main, argv)
        assert refused == _parse(build_parser().parse_args, argv)
        assert refused[0] == 2


def test_repeated_calls_of_a_subcommand_build_its_parser_once(monkeypatch):
    built = []

    def spy(parser, name):
        built.append(name)
        return _subcommand(parser, name)

    monkeypatch.setattr("ppsn.cli._subcommand", spy)
    for _ in range(3):
        assert main(["dim", "--n", "2", "--degrees", "1,1", "--m", "1"]) == 0
        assert parse_command_line(["reduce", *REQUIRED["reduce"]]).func is cmd_reduce
    # none, one or both, each once: an earlier test may have built either
    assert len(built) == len(set(built)) and set(built) <= {"dim", "reduce"}


def test_a_named_subcommand_builds_the_full_parser_only_to_report_an_error(monkeypatch, capsys):
    built = []

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr("ppsn.cli.build_parser", spy)
    assert main(["dim", "--n", "2", "--degrees", "1,1", "--m", "1"]) == 0
    assert built == []
    with pytest.raises(SystemExit):
        main(["dim", "--n", "2", "--degrees", "1,1", "--m", "1", "--bogus"])
    assert built == [1]
    assert "ppsn: error: unrecognized arguments: --bogus" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(REQUIRED))
def test_main_reports_a_separator_like_the_full_parser(name):
    for argv in ([name, *REQUIRED[name], "--"], [name, "--", *REQUIRED[name]]):
        assert _parse(main, argv) == _parse(build_parser().parse_args, argv)


# -- the option surface ---------------------------------------------------------

# the options of each subcommand: exactly those its handler reads
OPTIONS = {
    "dim": {"--json", "--n", "--degrees", "--m"},
    "verify": {"--json", "--n", "--manifold", "--nodes", "--m"},
    "reduce": {"--json", "--n", "--manifold", "--poly", "--poly-file"},
    "hbase": {"--json", "--n", "--manifold", "--witnesses", "--mmax", "--trials", "--seed"},
    "extract": {"--json", "--system", "--m"},
    "interpolate": {"--json", "--n", "--manifold", "--nodes", "--values", "--m"},
    "superpose": {"--json", "--n", "--manifold", "--sub", "--super", "--m"},
    "cb-reduce": {"--json", "--system", "--remove", "--m"},
    "cb-check": {"--json", "--system", "--remove", "--m", "--poly", "--require-ppsn"},
    "chain": {"--json", "--system", "--t", "--mmax", "--x0"},
}

# (subcommand, option) pairs that no handler reads: only the sampled H-base
# check takes a seed and witnesses, a system file fixes n by its line count,
# and --m is the top degree of a dim table
REMOVED = (
    [(name, "--seed") for name in SUBCOMMANDS if name != "hbase"]
    + [(name, "--n") for name in ("extract", "cb-reduce", "cb-check", "chain")]
    + [(name, "--witnesses") for name in ("verify", "interpolate", "superpose")]
    + [("dim", "--mmax")]
)


@pytest.mark.parametrize("name, option", REMOVED, ids=[" ".join(pair) for pair in REMOVED])
def test_each_subcommand_accepts_only_the_options_its_handler_reads(name, option):
    declared = {
        command: {
            flag
            for action in _subcommand(argparse.ArgumentParser(), command)._actions
            for flag in action.option_strings
            if action.dest != "help"
        }
        for command in SUBCOMMANDS
    }
    assert declared == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 51
    code, out, err = _parse(main, [name, *REQUIRED[name], option, "2"])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option} 2" in err and "Traceback" not in err


def test_every_readme_command_line_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    names = []
    for line in block.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "ppsn"
        args = parse_command_line(argv)
        assert args.func is SUBCOMMANDS[argv[0]][1]
        names.append(argv[0])
    assert sorted(names) == sorted(SUBCOMMANDS)
