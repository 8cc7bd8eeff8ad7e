import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppsn
from ppsn.cli import MAX_DIM_DEGREE, SUBCOMMANDS, build_parser, main

GRID = "x1*(x1-1)*(x1-2)\nx2*(x2-1)*(x2-2)\n"
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
    # the package under test, wherever the interpreter would find another
    src = os.path.dirname(os.path.dirname(ppsn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ppsn", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


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


@pytest.mark.parametrize(
    "degrees, flag",
    [
        (["--m", str(MAX_DIM_DEGREE + 1)], "--m"),
        (["--m", "3", "--mmax", "1000000000000"], "--mmax"),
        (["--m", "10000000", "--mmax", str(MAX_DIM_DEGREE + 1)], "--mmax"),
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


def test_dim_builds_one_table_and_checks_every_row(monkeypatch, capsys):
    calls = []
    real = ppsn.dimension.hilbert_table

    def spy(profile, mmax):
        calls.append(mmax)
        return real(profile, mmax)

    monkeypatch.setattr("ppsn.dimension.hilbert_table", spy)
    argv = ["dim", "--n", "2", "--degrees", "2", "--m", "40", "--json"]
    code, out = run(argv, capsys)
    assert (code, calls) == (0, [40])
    assert [row["H"] for row in json.loads(out)["table"]] == [2 * j + 1 for j in range(41)]
    # a row whose backward difference disagrees is an internal failure
    real_diff = ppsn.dimension.backward_diff_e
    monkeypatch.setattr(
        "ppsn.dimension.backward_diff_e", lambda m, n, ks: real_diff(m, n, ks) + (m == 17)
    )
    code = main(argv)
    assert (code, capsys.readouterr().out) == (1, "")


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


def test_reduce_circle(files, capsys):
    manifold = files("circle.poly", CIRCLE)
    code, out = run(["reduce", "--manifold", manifold, "--poly", "x1^2"], capsys)
    assert code == 0
    assert "1 - x2^2" in out


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


def test_report_names_the_argv_given_to_main(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["ppsn", "something", "else"])
    argv = ["dim", "--n", "2", "--degrees", "1", "--m", "2", "--json"]
    code, out = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["command"] == " ".join(argv)


# -- exit-code contract under malformed input ----------------------------------

@pytest.mark.parametrize(
    "argv, manifold",
    [
        (["reduce", "--poly", "x1^99999999999"], CIRCLE),
        (["reduce", "--poly", "x1"], "x99999999^2 - 1\n"),
        (["reduce", "--poly", "x1", "--n", "99999999"], CIRCLE),
        (["hbase", "--mmax", "999999999999"], CIRCLE),
    ],
)
def test_oversized_input_exits_2_before_any_basis_is_built(
    argv, manifold, files, monkeypatch, capsys
):
    built = []

    def spy(n, d):
        built.append((n, d))
        raise AssertionError("a basis was built")  # instead of allocating it

    monkeypatch.setattr("ppsn.mpoly.monomials_of_degree", spy)
    monkeypatch.setattr("ppsn.macaulay.monomials_of_degree", spy)
    code = main(argv + ["--manifold", files("manifold.txt", manifold)])
    err = capsys.readouterr().err
    assert (code, built) == (2, [])
    assert "at least" in err and "more than the budget" in err


FRAGMENTS = [
    "x1", "x2", "x3", "x0", "x4", "^", "^2", "*", "+", "-", "/", "(", ")", ",",
    "0", "1", "2", "3", "1/2", "1/0", "a", ".", "e", "@", "#", " ", "\n",
    "x1^2 + x2^2 - 1", "(x1 - 1)", "0,0", "1,0", "-1/3,2",
]


def _small_numbers(text):
    """Cap variable indices and exponents at one digit, so the input stays
    malformed in content but small in size."""
    return re.sub(r"(x|\^)(\d)\d+", r"\1\2", text)


MALFORMED = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join).map(_small_numbers)
VALID = {
    "poly": [CIRCLE, "x2\n", "x1^2 - x1\nx2^2 - x2\n"],
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
    "dim": [("--n", "int"), ("--degrees", "degrees"), ("--m", "int"), ("--mmax", "int")],
    "verify": [("--manifold", "poly"), ("--witnesses", "poly"), ("--nodes", "nodes"), ("--m", "int")],
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
            content = draw(st.sampled_from(VALID[kind]) if choice == "valid" else MALFORMED)
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
    "dim": ["--degrees", "1", "--m", "1"],
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


@pytest.mark.parametrize("name", list(REQUIRED))
def test_single_subcommand_parser_parses_like_the_full_parser(name):
    argv = [name, *REQUIRED[name], "--json"]
    assert vars(build_parser(name).parse_args(argv)) == vars(build_parser().parse_args(argv))
