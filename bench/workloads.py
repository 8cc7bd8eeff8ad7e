"""The benchmark's three workloads: seeded inputs, the calls into `ppsn`, and
the checks of each output against answers from `oracle`.

A workload runs a fixed cycle of task classes over and over. The cycle is
the same for every seed, so the share of each class, and therefore where
the median and the 90th percentile fall, does not move between runs; the
seed changes only the numbers inside each task. The pool holds
`pool_cycles` cycles of distinct inputs and repeats after that.

The `ppsn` module is passed in (never imported here), so the harness
decides which checkout is measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import oracle as O



@dataclass
class Task:
    label: str
    inputs: dict
    expect: dict = field(default_factory=dict)


def _rat(rng: random.Random, top: int = 12) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _distinct(gen, count: int, avoid=()) -> List[tuple]:
    seen = set(avoid)
    out = []
    while len(out) < count:
        q = gen()
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


class Workload:
    name = ""
    cycle: Sequence[tuple] = ()
    pool_cycles = 6

    def __init__(self, ppsn, seed: int, workdir: Path):
        self.ppsn = ppsn
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self._checked: Dict[tuple, Optional[str]] = {}
        self.pool: List[Task] = []
        for _ in range(self.pool_cycles):
            for spec in self.cycle:
                self.pool.append(self.make(*spec))

    def make(self, *spec) -> Task:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy state a user would have filled before the timed work."""

    def run(self, task: Task):
        raise NotImplementedError

    def check(self, task: Task, output) -> Optional[str]:
        """None when the output is right, otherwise the reason it is wrong."""
        raise NotImplementedError

    def gate(self) -> List[str]:
        """Checks run once before the timed loop; returns failure reasons."""
        return []

    def fingerprint(self) -> str:
        """Digest of every generated input, for determinism checks."""
        h = hashlib.sha256()
        for task in self.pool:
            h.update(repr((task.label, self.describe(task))).encode())
        return h.hexdigest()

    def describe(self, task: Task):
        return task.inputs

    def full_rank(self, points, n: int, m: int) -> bool:
        key = ("rank", frozenset(points), n, m)
        if key not in self._checked:
            self._checked[key] = O.full_rank_mod_p(list(points), n, m)
        return self._checked[key]


# -- certify ------------------------------------------------------------------------

CIRCLE = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-1)}
SPHERE = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1), (0, 0, 0): Fraction(-1)}


class Certify(Workload):
    """verify_ppsn then interpolate on random rational points.

    (space, m, improper) per slot; an improper slot only verifies.
    """

    name = "certify"
    # sorted by latency the classes stack up as: 8 fast (43-77 ms), 6 circle
    # m=8 (~120 ms, holds the median), 2 ambient m=5, 3 circle m=10 (~270 ms,
    # holds the 90th percentile), 1 sphere m=4
    cycle = (
        [("circle", 6, False)] * 2
        + [("ambient", 4, False)] * 2
        + [("ambient", 4, True), ("sphere", 3, True)]
        + [("sphere", 3, False)] * 2
        + [("circle", 8, False)] * 6
        + [("ambient", 5, False)] * 2
        + [("circle", 10, False)] * 3
        + [("sphere", 4, False)]
    )

    def __init__(self, ppsn, seed, workdir):
        # shared manifolds, built once as a library user would keep them
        self.spaces = {
            "ambient": (2, None, None),
            "circle": (2, ppsn.Manifold([ppsn.parse_polynomial("x1^2 + x2^2 - 1", 2)]), CIRCLE),
            "sphere": (3, ppsn.Manifold([ppsn.parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3)]), SPHERE),
        }
        self._support: Dict[tuple, List[tuple]] = {}
        super().__init__(ppsn, seed, workdir)

    def _point(self, space: str):
        rng = self.rng
        if space == "ambient":
            return (_rat(rng), _rat(rng))
        if space == "circle":
            t = _rat(rng)
            d = 1 + t * t
            return ((1 - t * t) / d, 2 * t / d)
        u, v = _rat(rng), _rat(rng)
        d = 1 + u * u + v * v
        return (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)

    def _improper_part(self, space: str, m: int):
        """Points that make any completion improper at degree m: m+2 on a
        line (plane), or 2m+2 on a great circle (sphere)."""
        rng = self.rng
        if space == "ambient":
            base, direction = (_rat(rng), _rat(rng)), (_rat(rng) or 1, _rat(rng))
            ts = _distinct(lambda: (_rat(rng),), m + 2)
            return [tuple(b + t[0] * d for b, d in zip(base, direction)) for t in ts]
        axis = rng.randrange(3)

        def on_circle():
            t = _rat(rng)
            d = 1 + t * t
            a, b = (1 - t * t) / d, 2 * t / d
            q = [a, b]
            q.insert(axis, Fraction(0))
            return tuple(q)

        return _distinct(on_circle, 2 * m + 2)

    def support(self, space: str, m: int) -> List[tuple]:
        """Canonical (unselected) monomials of degree <= m, from the oracle."""
        key = (space, m)
        if key not in self._support:
            n, _, f = self.spaces[space]
            if f is None:
                self._support[key] = O.monos_upto(n, m)
            else:
                unsel = O.unselected_by_degree([f], n, m)
                self._support[key] = [mu for mu in O.monos_upto(n, m) if mu in unsel[sum(mu)]]
        return self._support[key]

    def make(self, space: str, m: int, improper: bool) -> Task:
        n, manifold, f = self.spaces[space]
        count = math.comb(m + n, n) if f is None else O.dim_along(n, (2,), m)
        while True:
            fixed = self._improper_part(space, m) if improper else []
            points = fixed + _distinct(lambda: self._point(space), count - len(fixed), fixed)
            self.rng.shuffle(points)
            if improper or O.full_rank_mod_p(points, n, m):
                break  # a deficient random set is regenerated, never expected improper
        expect = {"improper": improper, "n": n, "m": m, "count": count}
        inputs = {"space": space, "m": m, "points": points, "nodes": self.ppsn.NodeSet(points, manifold)}
        if not improper:
            while True:
                planted = {mu: Fraction(self.rng.randint(-5, 5)) for mu in self.support(space, m)}
                planted = {mu: c for mu, c in planted.items() if c}
                if planted:
                    break
            values = tuple(O.p_eval(planted, q) for q in points)
            expect["planted"] = planted
            inputs["problem"] = self.ppsn.InterpolationProblem(
                manifold=manifold, m=m, nodes=inputs["nodes"], values=values
            )
        return Task(f"{space}-m{m}" + ("-improper" if improper else ""), inputs, expect)

    def describe(self, task):
        return (task.inputs["points"], sorted(task.expect.get("planted", {}).items()))

    def warm_up(self):
        for space, (n, manifold, _) in self.spaces.items():
            if manifold is not None:
                top = max(m for s, m, _ in self.cycle if s == space)
                self.ppsn.canonical_monomials(manifold, n, top)

    def run(self, task):
        ppsn = self.ppsn
        inputs = task.inputs
        manifold = self.spaces[inputs["space"]][1]
        cert = ppsn.verify_ppsn(inputs["nodes"], manifold, inputs["m"])
        if task.expect["improper"]:
            return cert, None
        return cert, ppsn.interpolate(inputs["problem"], cert)

    def check(self, task, output):
        cert, poly = output
        e = task.expect
        points, n, m = task.inputs["points"], e["n"], e["m"]
        if cert.degree != m or cert.expected_count != e["count"]:
            return "certificate states the wrong degree or count"
        if e["improper"]:
            if cert.proper:
                return "planted-improper set certified proper"
            key = ("kernel", id(task), tuple(cert.kernel_functional))
            if key not in self._checked:
                self._checked[key] = O.annihilates(list(cert.kernel_functional), points, n, m)
            return None if self._checked[key] else "kernel functional is zero or does not annihilate the rows"
        if not cert.proper:
            return "proper set (full rank mod p) certified improper"
        key = ("witness", id(task), tuple(cert.witness_columns))
        if key not in self._checked:
            self._checked[key] = O.columns_full_rank_mod_p(points, n, m, list(cert.witness_columns))
        if not self._checked[key]:
            return "witness columns do not give a nonsingular submatrix"
        if dict(poly.terms) != e["planted"]:
            return "interpolant differs from the planted polynomial"
        return None


# -- construct -----------------------------------------------------------------------


class Construct(Workload):
    """intersect_factorable, extract_nested_ppsn at every m < M, then
    cb_reduce + superpose_nodes ("cb") or build_curve_chain ("chain")."""

    name = "construct"
    # by latency: 6 grids 4x3 (~60 ms), 8 grids 4x4 (170-190 ms, hold the
    # median), 2 boxes 3x3x2, 3 grid 4x4 chains to degree 5 (~250 ms, hold
    # the 90th percentile), 1 box 3x3x3 (~1 s)
    cycle = (
        [((4, 3), "cb", 0)] * 6
        + [((4, 4), "cb", 0)] * 4
        + [((4, 4), "chain", 4)] * 4
        + [((3, 3, 2), "cb", 0)] * 2
        + [((4, 4), "chain", 5)] * 3
        + [((3, 3, 3), "cb", 0)]
    )

    def make(self, shape, action, mmax) -> Task:
        rng = self.rng
        n = len(shape)
        offsets = [sorted(rng.sample(range(-4, 7), k)) for k in shape]
        text = "\n".join(
            "*".join(f"(x{i + 1} - {a})" if a >= 0 else f"(x{i + 1} + {-a})" for a in offs)
            for i, offs in enumerate(offsets)
        )
        grid = [tuple(Fraction(a) for a in q) for q in itertools.product(*offsets)]
        ks = tuple(shape)
        M = sum(ks) - n
        expect = {
            "n": n,
            "offsets": offsets,
            "grid": frozenset(grid),
            "dims": [O.dim_along(n, ks, m) for m in range(M)],
        }
        inputs = {"text": text, "system": self.ppsn.parse_system_text(text), "action": action}
        off_last = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

        def curve_point():
            z = off_last()
            while z in offsets[-1]:
                z = off_last()
            return tuple(Fraction(rng.choice(o)) for o in offsets[:-1]) + (z,)

        if action == "chain":
            inputs.update(mmax=mmax, x0=curve_point())
            expect["chain_dims"] = [O.dim_along(n, ks[:-1], d) for d in range(mmax + 1)]
        else:
            # Cayley-Bacharach: remove a complementary-degree PPSN
            m_cb = M - rng.choice([2, 3])
            comp = M - m_cb - 1
            while True:
                removed = rng.sample(grid, O.dim_along(n, ks, comp))
                remaining = [q for q in grid if q not in set(removed)]
                if O.full_rank_mod_p(removed, n, comp) and O.full_rank_mod_p(remaining, n, m_cb):
                    break
            # superposition: degree-m set on the points plus a degree-(m-k_n) set
            # on the curve f_1..f_{n-1} off f_n
            m_sup = rng.randint(ks[-1], M - 1)
            while True:
                sub = rng.sample(grid, O.dim_along(n, ks, m_sup))
                sup = _distinct(curve_point, O.dim_along(n, ks[:-1], m_sup - ks[-1]))
                if (
                    O.full_rank_mod_p(sub, n, m_sup)
                    and O.full_rank_mod_p(sup, n, m_sup - ks[-1])
                    and O.full_rank_mod_p(sub + sup, n, m_sup)
                ):
                    break
            inputs.update(m_cb=m_cb, removed=removed, m_sup=m_sup, sub=sub, sup=sup)
            expect.update(remaining=frozenset(remaining), union=frozenset(sub + sup))
        label = "x".join(map(str, shape)) + "-" + action + (str(mmax) if action == "chain" else "")
        return Task(label, inputs, expect)

    def describe(self, task):
        return {k: v for k, v in task.inputs.items() if k != "system"}

    def warm_up(self):
        system = self.ppsn.parse_system_text("x1*(x1 - 1)\nx2*(x2 - 1)\n")
        report = self.ppsn.intersect_factorable(system)
        self.ppsn.extract_nested_ppsn(report.nodes, report.nodes.manifold, 0)

    def run(self, task):
        ppsn = self.ppsn
        inputs = task.inputs
        system = inputs["system"]
        report = ppsn.intersect_factorable(system)
        full = report.nodes
        manifold = full.manifold
        M = manifold.profile.M
        extracted = [ppsn.extract_nested_ppsn(full, manifold, m) for m in range(M)]
        if inputs["action"] == "chain":
            chain = ppsn.build_curve_chain(system, system.n, inputs["mmax"], inputs["x0"])
            return report, extracted, chain
        partition = ppsn.CBPartition(full=full, removed=ppsn.NodeSet(inputs["removed"]))
        reduced = ppsn.cb_reduce(partition, manifold, inputs["m_cb"])
        step = ppsn.SuperpositionStep(
            sub_manifold=manifold,
            sub_nodes=ppsn.NodeSet(inputs["sub"], manifold),
            super_nodes=ppsn.NodeSet(inputs["sup"]),
            m=inputs["m_sup"],
        )
        return report, extracted, (reduced, ppsn.superpose_nodes(step))

    def check(self, task, output):
        report, extracted, last = output
        e = task.expect
        n = e["n"]
        if not report.sufficient or frozenset(report.nodes.points) != e["grid"] or len(report.nodes) != len(e["grid"]):
            return "intersection points differ from the grid"
        previous = e["grid"]
        for m in range(len(e["dims"]) - 1, -1, -1):
            pts = extracted[m].points
            here = frozenset(pts)
            if len(pts) != e["dims"][m] or not here <= previous:
                return f"degree-{m} extraction has the wrong size or is not nested"
            if not self.full_rank(pts, n, m):
                return f"degree-{m} extraction is not properly posed"
            previous = here
        if task.inputs["action"] == "chain":
            entries = last.entries
            if [x.degree for x in entries] != list(range(task.inputs["mmax"] + 1)):
                return "chain levels are not 0..mmax"
            for x in entries:
                pts = x.nodes.points
                if len(pts) != e["chain_dims"][x.degree] or not x.certificate.proper:
                    return f"chain level {x.degree} has the wrong size or verdict"
                if any(q[i] not in offs for q in pts for i, offs in enumerate(e["offsets"][:-1])):
                    return f"chain level {x.degree} leaves the curve"
                if not self.full_rank(pts, n, x.degree):
                    return f"chain level {x.degree} is not properly posed"
            return None
        (remaining, cert), (union, ucert) = last
        if frozenset(remaining.points) != e["remaining"] or not cert.proper:
            return "Cayley-Bacharach remainder is wrong"
        if frozenset(union.points) != e["union"] or len(union) != len(e["union"]) or not ucert.proper:
            return "superposed set is wrong"
        return None


# -- cli_reduce ------------------------------------------------------------------------


def run_cli(ppsn, argv: List[str]) -> Tuple[int, str, str]:
    """In-process `ppsn <argv>`. `sys.argv` is set as a shell would set it,
    because the report's "command" field is read from `sys.argv`, not from
    the argv given to main()."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["ppsn"] + list(argv)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ppsn.cli.main(list(argv))
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def _random_poly(rng: random.Random, n: int, degree: int) -> O.Poly:
    terms = {}
    for mu in O.monos_upto(n, degree):
        c = rng.randint(-3, 3) if rng.random() < 0.7 else 0
        if c:
            terms[mu] = Fraction(c)
    top = O.monos_of_degree(n, degree)
    terms.setdefault(rng.choice(top), Fraction(rng.choice([-2, -1, 1, 2])))
    return terms


def _shapes() -> Dict[str, Tuple[int, List[O.Poly], List[O.Poly]]]:
    """Circle, sphere and quadric curve, and the witnesses that complete them
    to sufficient intersections. They are fixed, so that the seed moves each
    reduction on its own and no seed makes every task of a run dearer."""
    shapes = {
        "circle": (2, [{(2, 0): 1, (0, 2): 1, (0, 0): -2}], [{(0, 1): 1, (0, 0): -2}]),
        "sphere": (3, [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 0, 0): 1, (0, 0, 0): -3}],
                   [{(0, 1, 0): 1, (0, 0, 0): -2}, {(0, 0, 1): 1, (0, 0, 0): -3}]),
        "quadric": (3, [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -3},
                        {(1, 1, 0): 1, (0, 0, 2): -1, (1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 0): -1}],
                    [{(0, 0, 1): 1, (0, 0, 0): -5}]),
    }
    exact = lambda polys: [{k: Fraction(v) for k, v in f.items()} for f in polys]
    return {name: (n, exact(ps), exact(ws)) for name, (n, ps, ws) in shapes.items()}


class CliReduce(Workload):
    """ppsn.cli.main([..., "--json"]) in process: reduce, hbase and dim."""

    name = "cli_reduce"
    # by latency: 8 small reduce/hbase calls (10-30 ms), 4 sphere reductions
    # of degree 7 (~45 ms, hold the median), 4 quadric/sphere calls (50-75
    # ms), 4 dimension tables with n = s = 14 (~220 ms, hold the 90th
    # percentile); a dim slot's table size is fixed, only its degrees vary
    cycle = (
        [("reduce", "circle", 6), ("reduce", "circle", 7), ("reduce", "circle", 8)]
        + [("hbase", "circle", 5), ("hbase", "sphere", 4), ("hbase", "sphere", 4)]
        + [("reduce", "sphere", 6), ("hbase", "circle", 6)]
        + [("reduce", "sphere", 7)] * 4
        + [("reduce", "quadric", 6)] * 2
        + [("hbase", "quadric", 4), ("reduce", "sphere", 8)]
        + [("dim", None, 12), ("dim", None, 14), ("dim", None, 14), ("dim", None, 16)]
    )
    pool_cycles = 8

    def __init__(self, ppsn, seed, workdir):
        self.root = workdir / "tasks"
        self.root.mkdir(parents=True, exist_ok=True)
        self.shapes = _shapes()
        self.files: Dict[str, Tuple[str, str]] = {}
        self.unselected: Dict[str, Dict[int, set]] = {}
        self.manifolds: Dict[str, object] = {}
        for name, (n, polys, wits) in self.shapes.items():
            self.files[name] = (self._write(f"{name}.txt", polys), self._write(f"{name}_w.txt", wits))
            self.unselected[name] = O.unselected_by_degree(polys, n, 8)
        super().__init__(ppsn, seed, workdir)

    def _write(self, name: str, polys: List[O.Poly]) -> str:
        path = self.root / name
        path.write_text("".join(O.p_format(f) + "\n" for f in polys))
        return str(path)

    def make(self, command, shape, size) -> Task:
        rng = self.rng
        index = len(self.pool)
        if command == "dim":
            n, m = 14, size
            ks = [rng.choice([1, 2, 2, 3]) for _ in range(n)]
            argv = ["dim", "--n", str(n), "--degrees", ",".join(map(str, ks)), "--m", str(m), "--json"]
            expect = {"table": O.dim_table(n, ks, m)}
            return Task(f"dim-n{n}m{m}", {"argv": argv}, expect)
        n, polys, _ = self.shapes[shape]
        manifold_file, witness_file = self.files[shape]
        if command == "hbase":
            mmax, trials = size, 2
            argv = ["hbase", "--manifold", manifold_file, "--witnesses", witness_file,
                    "--mmax", str(mmax), "--trials", str(trials), "--seed", str(rng.randint(0, 999)), "--json"]
            low = min(max(sum(k) for k in f) for f in polys)
            expect = {"passes": [[m, trials] for m in range(low, mmax + 1)]}
            return Task(f"hbase-{shape}{mmax}", {"argv": argv}, expect)
        f = _random_poly(rng, n, size)
        poly_file = self.root / f"poly{index:04d}.txt"
        poly_file.write_text(O.p_format(f) + "\n")
        argv = ["reduce", "--manifold", manifold_file, "--poly-file", str(poly_file), "--json"]
        return Task(f"reduce-{shape}{size}", {"argv": argv, "shape": shape}, {"f": f})

    def describe(self, task):
        return (task.inputs["argv"], sorted(task.expect.get("f", {}).items()))

    def warm_up(self):
        run_cli(self.ppsn, ["dim", "--n", "2", "--degrees", "1,1", "--m", "1", "--json"])

    def run(self, task):
        return run_cli(self.ppsn, task.inputs["argv"])

    def check(self, task, output):
        code, out, err = output
        key = ("cli", id(task), out, code)
        if key not in self._checked:
            self._checked[key] = self._check(task, code, out, err)
        return self._checked[key]

    def _check(self, task, code, out, err):
        argv = task.inputs["argv"]
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        try:
            report = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if report.get("command") != " ".join(argv):
            return "report names another command"
        e = task.expect
        if argv[0] == "dim":
            rows = [[r["h"], r["H"], r["d"], r["bdiff"]] for r in report["table"]]
            want = [[h, H, d, H] for h, H, d in e["table"]]
            return None if rows == want else "dimension table differs from the series"
        if argv[0] == "hbase":
            if report["passes"] != e["passes"] or report["failures"]:
                return "sampled H-base round trips failed"
            return None
        shape = task.inputs["shape"]
        n, polys, _ = self.shapes[shape]
        rem = O.p_parse(report["remainder"], n)
        cofactors = [O.p_parse(c, n) for c in report["cofactors"]]
        total = rem
        for c, f in zip(cofactors, polys):
            total = O.p_add(total, O.p_mul(c, f))
        if len(cofactors) != len(polys) or total != e["f"]:
            return "remainder and cofactors do not reassemble the input"
        unsel = self.unselected[shape]
        if any(mu not in unsel[sum(mu)] for mu in rem):
            return "remainder touches a selected monomial"
        again = self.ppsn.reduce_modulo(self.ppsn.Polynomial(n, rem), self._manifold(shape))
        if dict(again.remainder.terms) != rem or any(not c.is_zero() for c in again.cofactors):
            return "reducing the remainder changed it"
        return None

    def _manifold(self, shape):
        if shape not in self.manifolds:
            n, polys, _ = self.shapes[shape]
            self.manifolds[shape] = self.ppsn.Manifold(
                [self.ppsn.Polynomial(n, f) for f in polys]
            )
        return self.manifolds[shape]

    def gate(self):
        golden = json.loads((Path(__file__).parent / "golden.json").read_text())
        failures = []
        for name, argv in golden_corpus(self.workdir):
            code, out, _ = run_cli(self.ppsn, argv)
            want = golden.get(name)
            got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
            if want != got:
                failures.append(f"golden {name}: expected {want}, got {got}")
        return failures


# fixed corpus, independent of the seed: the --json bytes must not change
_GOLDEN_FILES = {
    "circle.txt": "x1^2 + x2^2 - 1\n",
    "circle_w.txt": "x2 - 2\n",
    "sphere.txt": "x1^2 + x2^2 + x3^2 - 1\n",
    "sphere_w.txt": "x2 - 2\nx3 - 3\n",
    "quadric.txt": "x1^2 + x2^2 + x3^2 - 1\nx1*x2 - x3^2 + 2*x1 - 1\n",
    "quadric_w.txt": "x3 - 5\n",
    "poly.txt": "3*x1^3*x2^2*x3 - x2^6 + 7/2*x1*x3^4 - x1^2 + 5\n",
    "grid.txt": "x1*(x1 - 1)*(x1 - 2)\nx2*(x2 - 1)*(x2 - 2)\n",
    "cube.txt": "x1*(x1 - 1)\nx2*(x2 - 1)\nx3*(x3 - 1)\n",
    "plane.nodes": "0,0\n1,0\n0,1\n2,1\n1/2,3\n-1,2\n",
    "plane.values": "1\n2\n-3\n0\n5/7\n4\n",
    "collinear.nodes": "0,0\n1,1\n2,2\n",
    "remove.nodes": "0,0\n1,1\n2,0\n",
}


def golden_corpus(workdir: Path) -> List[Tuple[str, List[str]]]:
    """(name, argv) of the fixed CLI calls; writes the files they read."""
    root = workdir / "golden"
    root.mkdir(parents=True, exist_ok=True)
    for name, text in _GOLDEN_FILES.items():
        (root / name).write_text(text)
    f = {name: str(root / name) for name in _GOLDEN_FILES}
    return [
        ("reduce-circle", ["reduce", "--manifold", f["circle.txt"], "--poly", "x1^5*x2 - 3*x1^3 + x2^2 - 7", "--json"]),
        ("reduce-sphere", ["reduce", "--manifold", f["sphere.txt"], "--poly-file", f["poly.txt"], "--json"]),
        ("reduce-quadric", ["reduce", "--manifold", f["quadric.txt"], "--poly-file", f["poly.txt"], "--json"]),
        ("hbase-circle", ["hbase", "--manifold", f["circle.txt"], "--witnesses", f["circle_w.txt"],
                          "--mmax", "5", "--trials", "2", "--seed", "7", "--json"]),
        ("hbase-quadric", ["hbase", "--manifold", f["quadric.txt"], "--witnesses", f["quadric_w.txt"],
                           "--mmax", "4", "--trials", "2", "--seed", "1", "--json"]),
        ("dim", ["dim", "--n", "6", "--degrees", "2,1,3,2,1,2", "--m", "8", "--json"]),
        ("verify-proper", ["verify", "--nodes", f["plane.nodes"], "--m", "2", "--json"]),
        ("verify-improper", ["verify", "--nodes", f["collinear.nodes"], "--m", "1", "--json"]),
        ("interpolate", ["interpolate", "--nodes", f["plane.nodes"], "--values", f["plane.values"],
                         "--m", "2", "--json"]),
        ("extract", ["extract", "--system", f["grid.txt"], "--m", "2", "--json"]),
        ("cb-reduce", ["cb-reduce", "--system", f["grid.txt"], "--remove", f["remove.nodes"], "--m", "2", "--json"]),
        ("chain", ["chain", "--system", f["cube.txt"], "--t", "3", "--mmax", "3", "--x0", "0,0,2", "--json"]),
        ("bad-input", ["reduce", "--manifold", f["circle.txt"], "--poly", "x1^^2", "--json"]),
    ]


WORKLOADS = {w.name: w for w in (Certify, Construct, CliReduce)}
