"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer and
the result line.

    python3 -m pytest bench
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ppsn():
    return run.import_ppsn()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return Path(".bench_work")


def first(workload, label):
    return next(t for t in workload.pool if t.label == label)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(ppsn, workdir, name):
    cls = workloads.WORKLOADS[name]
    a = cls(ppsn, 3, workdir).fingerprint()
    b = cls(ppsn, 3, workdir).fingerprint()
    c = cls(ppsn, 4, workdir).fingerprint()
    assert a == b
    assert a != c


def test_certify_oracle_flags_wrong_verdicts_and_interpolants(ppsn, workdir):
    w = workloads.Certify(ppsn, 1, workdir)
    proper = first(w, "circle-m6")
    cert, poly = w.run(proper)
    assert w.check(proper, (cert, poly)) is None
    flipped = dataclasses.replace(cert, proper=False, kernel_functional=(Fraction(1),))
    assert w.check(proper, (flipped, poly)) is not None

    terms = dict(poly.terms)
    mono = next(iter(terms))
    terms[mono] += 1
    perturbed = ppsn.Polynomial(poly.n, terms)
    assert w.check(proper, (cert, perturbed)) is not None

    improper = first(w, "sphere-m3-improper")
    cert, _ = w.run(improper)
    assert w.check(improper, (cert, None)) is None
    assert w.check(improper, (dataclasses.replace(cert, proper=True), None)) is not None
    bad_kernel = list(cert.kernel_functional)
    bad_kernel[0] += 1
    assert w.check(improper, (dataclasses.replace(cert, kernel_functional=tuple(bad_kernel)), None)) is not None


def test_planted_improper_sets_are_improper_mod_p(ppsn, workdir):
    w = workloads.Certify(ppsn, 2, workdir)
    for task in w.pool:
        e = task.expect
        assert oracle.full_rank_mod_p(task.inputs["points"], e["n"], e["m"]) != e["improper"]


def test_construct_oracle_flags_a_wrong_extraction(ppsn, workdir):
    w = workloads.Construct(ppsn, 1, workdir)
    for label in ("4x3-cb", "4x4-chain4"):
        task = first(w, label)
        report, extracted, last = w.run(task)
        assert w.check(task, (report, extracted, last)) is None
        shrunk = list(extracted)
        shrunk[1] = ppsn.NodeSet(extracted[1].points[:-1])
        assert w.check(task, (report, shrunk, last)) is not None


def test_cli_oracle_flags_wrong_output_and_exit_code(ppsn, workdir):
    w = workloads.CliReduce(ppsn, 1, workdir)
    for label in ("reduce-sphere7", "hbase-quadric4", "dim-n14m12"):
        task = first(w, label)
        code, out, err = w.run(task)
        assert w.check(task, (code, out, err)) is None
        assert w.check(task, (1, out, err)) is not None
        report = json.loads(out)
        command = task.inputs["argv"][0]
        if command == "reduce":
            report["remainder"] += " + 1"
        elif command == "hbase":
            report["passes"][0][1] -= 1
        else:
            report["table"][-1]["bdiff"] += 1
        assert w.check(task, (code, json.dumps(report), err)) is not None


def test_cli_golden_gate(ppsn, workdir, monkeypatch):
    w = workloads.CliReduce(ppsn, 1, workdir)
    assert w.gate() == []
    real = workloads.run_cli

    def one_byte_more(package, argv):
        code, out, err = real(package, argv)
        return code, out + " ", err

    monkeypatch.setattr(workloads, "run_cli", one_byte_more)
    assert len(w.gate()) == len(workloads.golden_corpus(workdir))


def test_tracer_counts_outermost_calls_and_restores(ppsn):
    original = ppsn.dimension.backward_diff_e
    t = tracing.Tracer()
    t.install()
    try:
        assert ppsn.backward_diff_e is not original
        ppsn.dim_along(5, ppsn.DegreeProfile(6, (2, 2, 2, 2)))
        ppsn.parse_polynomial("x1^2 - x2", 2) - ppsn.parse_polynomial("x1", 2)
    finally:
        t.uninstall()
    assert ppsn.dimension.backward_diff_e is original
    assert ppsn.backward_diff_e is original
    assert t.calls["dimension.dim_along"] == 1
    assert t.calls["dimension.backward_diff_e"] == 1
    assert t.calls["mpoly.parse_polynomial"] == 2
    assert t.calls["mpoly.poly_arith"] >= 1
    assert all(v >= 0 for v in t.self_s.values())
    assert t.missing == []


def test_import_refuses_a_package_outside_the_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        run.import_ppsn()


def result_line(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(ppsn, monkeypatch, capsys, trace):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer"] if trace else declared["end_to_end"]
    result = result_line(capsys, ["--workload", "cli_reduce", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}


def test_a_corrupted_answer_counts_as_failed(ppsn, monkeypatch, capsys):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    real = workloads.CliReduce.run

    def corrupt(self, task):
        code, out, err = real(self, task)
        return (code, out.replace('"remainder": "', '"remainder": "7 + '), err)

    monkeypatch.setattr(workloads.CliReduce, "run", corrupt)
    result = result_line(capsys, ["--workload", "cli_reduce", "--seed", "1", "--seconds", "0", "--trace", "0"])
    reduces = sum(1 for spec in workloads.CliReduce.cycle if spec[0] == "reduce")
    assert not result["correct"]
    assert result["failed"] == reduces
