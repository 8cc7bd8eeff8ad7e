"""Command-line front end.

Exit codes: 0 success / proper verdict; 1 proper-posedness, hypothesis, or
internal cross-check failure; 2 malformed input. JSON output (--json) is
deterministic byte for byte for fixed inputs (and, for `hbase`, the only
sampled check, its --seed): timings go to stderr only, never into the report.

Each subcommand declares exactly the options its handler reads: --json on
all, --n where a manifold file is parsed (and on `dim`, where it is
required), --seed and --witnesses on `hbase` only. Any other option exits 2
as an unrecognized argument.

A named subcommand is parsed by its own parser (`parse_command_line`), the
same one the full parser (`build_parser`) adds as its sub-parser. Each of
the ten is built once per process, on its first call (`_named_parser`), and
reused: argparse's parse reads a parser and never changes it, and each call
parses into a fresh Namespace, so no value carries from one call to the
next. The full parser is built, afresh each time, only for help, an unknown
or missing subcommand, or an argument the subcommand's parser leaves over,
and it reports them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Tuple

from . import construct, dimension, macaulay, nodes
from .errors import (
    HypothesisError,
    ImproperNodeSetError,
    InputError,
    InternalCheckError,
    ParseError,
    PpsnError,
)
from .mpoly import (
    MAX_MONOMIALS,
    Polynomial,
    as_fraction,
    int_digit_limit,
    parse_polynomial,
    require_dense_size,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _infer_dimension(lines: List[str], override: Optional[int]) -> int:
    """--n, or else the largest variable index in the lines, refused
    before a single n-tuple is built when the n + 1 monomials of degree
    <= 1 are over the budget (`require_dense_size`)."""
    if override is not None:
        n = override
    else:
        indices = re.findall(r"x(\d+)", "\n".join(lines))
        digits = int_digit_limit()
        longest = max(map(len, indices), default=0)
        if digits and longest > digits:
            raise ParseError(
                f"{longest}-digit variable index, more than the {digits} digits Python converts"
            )
        n = max(map(int, indices), default=0)
        if n == 0:
            raise InputError("cannot infer the ambient dimension; pass --n")
    require_dense_size(n, 1)
    return n


def _parse_poly_lines(text: str, n_override: Optional[int]) -> List[Polynomial]:
    lines = [line for _, line in nodes.content_lines(text)]
    if not lines:
        raise InputError("no polynomials in file")
    n = _infer_dimension(lines, n_override)
    return [parse_polynomial(line, n) for line in lines]


def _load_manifold(args, witnesses: Optional[str] = None) -> macaulay.Manifold:
    """The --manifold, completed by the hypersurfaces of the file `witnesses`."""
    polys = _parse_poly_lines(_read_file(args.manifold), args.n)
    if witnesses:
        return macaulay.Manifold(polys, _parse_poly_lines(_read_file(witnesses), polys[0].n))
    return macaulay.Manifold(polys)


def _load_system(args) -> Tuple[str, nodes.FactorableSystem, nodes.NodeSet]:
    """The --system file's text, its system and its intersection points;
    HypothesisError when the system is not a sufficient intersection."""
    text = _read_file(args.system)
    system = nodes.parse_system_text(text)
    res = nodes.intersect_factorable(system)
    if not res.sufficient:
        raise HypothesisError("; ".join(res.failures))
    return text, system, res.nodes


# why a node file may hold no more than MAX_MONOMIALS points
_BUDGET = f"more than any degree within the budget of {MAX_MONOMIALS} monomials admits"


def _read_node_set(path: str, flag: str, most: int = MAX_MONOMIALS, why: str = _BUDGET) -> str:
    """The text of the node set `flag` names, refused before any point is
    parsed when it has more than `most` points. By default that is
    MAX_MONOMIALS: a set is accepted at degree m only with as many points as
    a dimension of polynomials of degree <= m, and no dense space within the
    budget has more."""
    text = _read_file(path)
    if len(list(itertools.islice(nodes.content_lines(text), most + 1))) > most:
        raise InputError(f"{flag} holds more than {most} points, {why}")
    return text


def _load_partition(args) -> Tuple[str, construct.CBPartition]:
    """The --system file's text and its intersection split by the --remove
    points, refused before any is parsed when there are more of them than
    intersection points: the removed points are distinct intersection
    points."""
    text, _, full = _load_system(args)
    removed = _read_node_set(args.remove, "--remove", len(full), "more than the intersection has")
    return text, construct.CBPartition(full=full, removed=nodes.parse_nodes_text(removed))


def _parse_number(token: str, kind=as_fraction):
    """A number from the command line or a values file; ParseError if bad."""
    try:
        return kind(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a number: {token.strip()!r}") from exc


def _load_problem(
    args,
) -> Tuple[Dict, Optional[macaulay.Manifold], nodes.NodeSet, List[Fraction]]:
    """The report base, the --manifold (None without one), the --nodes and
    the --values (empty without them). Each file is read once, so the
    report digests the very text that was parsed. The nodes are untagged:
    `verify_ppsn` checks their count before their membership."""
    manifold = _load_manifold(args) if args.manifold is not None else None
    texts = {"nodes": _read_node_set(args.nodes, "--nodes")}
    if hasattr(args, "values"):
        texts["values"] = _read_file(args.values)
    node_set = nodes.parse_nodes_text(texts["nodes"])
    values = [_parse_number(line) for _, line in nodes.content_lines(texts.get("values", ""))]
    return _report_base(args, **texts), manifold, node_set, values


def _cert_dict(cert: nodes.PPSNCertificate) -> Dict:
    out = {
        "degree": cert.degree,
        "expected_count": cert.expected_count,
        "verdict": cert.verdict,
    }
    if cert.proper:
        out["witness_columns"] = list(cert.witness_columns)
    else:
        out["kernel_functional"] = [str(c) for c in cert.kernel_functional]
    return out


# how json.dumps writes each scalar type a report holds
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, written directly for the
    values reports hold: str-keyed dicts, lists or tuples, str, int, bool and
    None (any other scalar goes to `json.dumps`). With an indent, json.dumps
    runs its pure-Python encoder; this writes the same bytes in one pass.
    `newline` is the line break plus the indent of the value's own line."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [
            inner + encode_basestring_ascii(k) + ": " + json_text(v, inner)
            for k, v in sorted(value.items())
        ]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + json_text(v, inner) for v in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    return json.dumps(value)


def _emit(args, report: Dict, human: Callable[[], str]) -> None:
    """Print the report as JSON under --json, else the text `human()`
    builds, which is then the only time it is built."""
    try:
        print(json_text(report) if args.json else human(), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`ppsn ... | head`): the output is
        # cut short, the verdict is not, so the command keeps its exit code;
        # stdout now writes to the null device, so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_base(args, **inputs) -> Dict:
    return {
        "command": " ".join(args.argv),
        "inputs": {k: _digest(v) for k, v in inputs.items()},
    }


def _emit_nodes(args, report: Dict, node_set: nodes.NodeSet, cert) -> int:
    """Report a constructed node set and its certificate at degree --m."""
    report.update(
        {
            "points": [[str(c) for c in p] for p in node_set.points],
            "certificate": _cert_dict(cert),
        }
    )
    _emit(
        args,
        report,
        lambda: nodes.format_nodes(node_set) + f"\n# {cert.verdict} at degree {args.m}",
    )
    return EXIT_OK if cert.proper else EXIT_FAIL


# -- subcommands ----------------------------------------------------------------


# `dim` builds each route's table once, in one pass: the series convolves
# its numerator with the mmax + 1 binomials C(i+n-1, n-1), (mmax + 1)^2 / 2
# products, and the backward differences take the mmax + 1 binomials
# C(j+n, n) and s passes of mmax subtractions. At this degree, for n = 2,
# degrees 2,2, the table takes about 0.06 s in process, 0.15 s cold (2-vCPU
# Xeon VM, CPython 3.11).
MAX_DIM_DEGREE = 2000
# Table entries are integers below (n + mmax)^k, k = min(n, mmax), so of at
# most b = k * bit_length(n + mmax) bits. The estimate charges each of the
# (mmax + 1)^2 cells k + s + 1 steps, each at most 1 + b/1024 times a
# small-int step: the cost of a binomial and s differences per cell, which a
# one-pass table no longer pays, so it bounds the work with room to spare
# (a factor of about 2 * (k + s + 1)), and through b it bounds n as well.
# Tables near the budget take 0.02-0.07 s in process on the same machine:
# n = 2, degrees 2,2, m = 2000; n = s = 14, m = 900; n = 1e30, m = 110.
MAX_DIM_STEPS = 25_000_000


def dim_steps(n: int, s: int, mmax: int) -> int:
    """The estimated cost of a `dim` table, in the steps of MAX_DIM_STEPS,
    for mmax >= 0."""
    k = min(n, mmax)
    bits = k * (n + mmax).bit_length()
    return (mmax + 1) ** 2 * (k + s + 1) * (1 + bits // 1024)


def cmd_dim(args) -> int:
    ks = tuple(_parse_number(k, int) for k in args.degrees.split(","))
    profile = dimension.DegreeProfile(args.n, ks)
    mmax = args.m
    if mmax < 0:
        raise InputError(f"--m must be >= 0, got {mmax}")
    if mmax > MAX_DIM_DEGREE:
        raise InputError(f"--m {mmax} is above the largest table degree {MAX_DIM_DEGREE}")
    steps = dim_steps(profile.n, profile.s, mmax)
    if steps > MAX_DIM_STEPS:
        raise InputError(
            f"--n {profile.n} with --m {mmax} needs about {steps:.2g} table steps, "
            f"above the budget of {MAX_DIM_STEPS:.2g}"
        )
    # every entry of the table is at most the ambient dimension C(n + mmax, n),
    # and CPython refuses to print an int of more than this many digits; an
    # int of at most 3 * digits bits is below 8**digits, so it needs no power
    digits = int_digit_limit()
    top = dimension.binom_e(mmax, profile.n)
    if digits and top.bit_length() > 3 * digits and top >= 10**digits:
        raise InputError(
            f"--n {profile.n} with --m {mmax} gives table entries of more than "
            f"{digits} digits, which Python does not print"
        )
    table = dimension.hilbert_table(profile, mmax)
    bdiff = dimension.backward_diff_table(mmax, profile.n, profile.ks)
    rows = []
    for j, (h, H, d, bd) in enumerate(zip(table.h, table.H, table.d, bdiff, strict=True)):
        if bd != H:
            raise InternalCheckError(f"dimension cross-check failed at m={j}: {H} != {bd}")
        rows.append({"m": j, "h": h, "H": H, "d": d, "bdiff": bd})
    report = _report_base(args)
    report.update({"n": profile.n, "degrees": list(profile.ks), "table": rows})
    _emit(
        args,
        report,
        lambda: "\n".join(
            [f"{'m':>4} {'h':>8} {'H':>8} {'d':>8} {'bdiff':>8}"]
            + [f"{r['m']:>4} {r['h']:>8} {r['H']:>8} {r['d']:>8} {r['bdiff']:>8}" for r in rows]
        ),
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    report, manifold, node_set, _ = _load_problem(args)
    cert = nodes.verify_ppsn(node_set, manifold, args.m)
    report["certificate"] = _cert_dict(cert)
    _emit(args, report, lambda: f"{cert.verdict} at degree {args.m} ({len(node_set)} nodes)")
    return EXIT_OK if cert.proper else EXIT_FAIL


def cmd_reduce(args) -> int:
    manifold = _load_manifold(args)
    if args.poly_file:
        text = _read_file(args.poly_file)
    else:
        text = args.poly
    f = parse_polynomial(text, manifold.n)
    form = macaulay.reduce_modulo(f, manifold)
    remainder = str(form.remainder)
    cofactors = [str(c) for c in form.cofactors]
    report = _report_base(args)
    report.update({"remainder": remainder, "cofactors": cofactors})
    _emit(
        args,
        report,
        lambda: "remainder: {}\n{}".format(
            remainder,
            "\n".join(f"cofactor {i + 1}: {c}" for i, c in enumerate(cofactors)),
        ),
    )
    return EXIT_OK


def cmd_hbase(args) -> int:
    manifold = _load_manifold(args, args.witnesses)
    rep = macaulay.verify_hbase(
        manifold, args.mmax, trials=args.trials, seed=args.seed
    )
    report = _report_base(args)
    report.update(
        {
            "seed": rep.seed,
            "trials_per_degree": rep.trials_per_degree,
            "passes": [list(p) for p in rep.passes],
            "failures": list(rep.failures),
        }
    )
    _emit(
        args,
        report,
        lambda: "\n".join(
            [f"degree {m}: {ok}/{rep.trials_per_degree} passed" for m, ok in rep.passes]
            + list(rep.failures)
        ),
    )
    return EXIT_OK if rep.all_passed else EXIT_FAIL


def cmd_extract(args) -> int:
    text, _, full = _load_system(args)
    manifold = full.manifold
    out = nodes.extract_nested_ppsn(full, manifold, args.m)
    cert = nodes.verify_ppsn(out, manifold, args.m)
    return _emit_nodes(args, _report_base(args, system=text), out, cert)


def cmd_interpolate(args) -> int:
    report, manifold, node_set, values = _load_problem(args)
    problem = construct.InterpolationProblem(
        manifold=manifold, m=args.m, nodes=node_set, values=tuple(values)
    )
    poly = construct.interpolate(problem)
    report["polynomial"] = str(poly)
    _emit(args, report, lambda: str(poly))
    return EXIT_OK


def cmd_superpose(args) -> int:
    manifold = _load_manifold(args)
    texts = [_read_node_set(args.sub, "--sub"), _read_node_set(args.super_nodes, "--super")]
    sub, sup = map(nodes.parse_nodes_text, texts)
    step = construct.SuperpositionStep(
        sub_manifold=manifold, sub_nodes=sub, super_nodes=sup, m=args.m
    )
    union, cert = construct.superpose_nodes(step)
    return _emit_nodes(args, _report_base(args), union, cert)


def cmd_cb_reduce(args) -> int:
    text, partition = _load_partition(args)
    remaining, cert = construct.cb_reduce(partition, partition.full.manifold, args.m)
    return _emit_nodes(args, _report_base(args, system=text), remaining, cert)


def cmd_cb_check(args) -> int:
    text, partition = _load_partition(args)
    manifold = partition.full.manifold
    f = parse_polynomial(args.poly, manifold.n)
    verdict = construct.cb_check(
        f, partition, manifold, args.m, require_ppsn_removed=args.require_ppsn
    )
    report = _report_base(args, system=text)
    report.update(
        {
            "vanishes_on_removed": verdict.vanishes_on_removed,
            "exception_hypersurface": (
                str(verdict.exception_hypersurface)
                if verdict.exception_hypersurface is not None
                else None
            ),
            "consistent": verdict.consistent,
        }
    )

    def human() -> str:
        if verdict.vanishes_on_removed:
            return "vanishes on the removed points"
        if verdict.exception_hypersurface is not None:
            return f"exception branch: removed points lie on {verdict.exception_hypersurface}"
        return "INCONSISTENT: trichotomy violated"

    _emit(args, report, human)
    return EXIT_OK if verdict.consistent else EXIT_FAIL


def cmd_chain(args) -> int:
    # a malformed --x0 exits 2 even on an insufficient system
    x0 = tuple(_parse_number(c) for c in args.x0.split(","))
    text, system, _ = _load_system(args)
    chain = construct.build_curve_chain(system, args.t, args.mmax, x0)
    report = _report_base(args, system=text)
    report["levels"] = [
        {
            "degree": e.degree,
            "points": [[str(c) for c in p] for p in e.nodes.points],
            "certificate": _cert_dict(e.certificate),
        }
        for e in chain.entries
    ]
    _emit(
        args,
        report,
        lambda: "\n".join(
            f"degree {e.degree}: {len(e.nodes)} points ({e.certificate.verdict})"
            for e in chain.entries
        ),
    )
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _manifold_args(p, required=False, help="file: one defining polynomial per line"):
    p.add_argument("--manifold", required=required, help=help)
    p.add_argument("--n", type=int, default=None, help="ambient dimension override")


def _dim_args(p):
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--degrees", required=True, help="comma-separated degrees k_1..k_s")
    p.add_argument("--m", type=int, required=True, help="the table's top degree")


def _verify_args(p):
    _manifold_args(p)
    p.add_argument("--nodes", required=True, help="file: one point per line")
    p.add_argument("--m", type=int, required=True)


def _reduce_args(p):
    _manifold_args(p, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="polynomial expression")
    source.add_argument("--poly-file", dest="poly_file", help="file with one expression")


def _hbase_args(p):
    _manifold_args(p, required=True)
    p.add_argument("--witnesses", help="file: completing hypersurfaces")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")


def _extract_args(p):
    p.add_argument("--system", required=True, help="file: one factored hypersurface per line")
    p.add_argument("--m", type=int, required=True)


def _interpolate_args(p):
    _verify_args(p)
    p.add_argument("--values", required=True, help="file: one rational per line")


def _superpose_args(p):
    _manifold_args(p, required=True, help="sub-manifold; last line is the splitting polynomial")
    p.add_argument("--sub", required=True, help="file: nodes on the sub-manifold")
    p.add_argument("--super", dest="super_nodes", required=True, help="file: nodes on the larger manifold")
    p.add_argument("--m", type=int, required=True)


def _cb_reduce_args(p):
    _extract_args(p)
    p.add_argument("--remove", required=True, help="file: points to remove")


def _cb_check_args(p):
    _cb_reduce_args(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--require-ppsn", dest="require_ppsn", action="store_true")


def _chain_args(p):
    p.add_argument("--system", required=True)
    p.add_argument("--t", type=int, required=True, help="1-based index of the omitted hypersurface")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--x0", required=True, help="comma-separated coordinates of the seed point")


# name -> (help, handler, arguments), in the order the help lists them
SUBCOMMANDS = {
    "dim": ("dimension table for a degree profile", cmd_dim, _dim_args),
    "verify": ("certify a node set at a degree", cmd_verify, _verify_args),
    "reduce": ("canonical form modulo a manifold", cmd_reduce, _reduce_args),
    "hbase": ("sampled H-base round-trip verification", cmd_hbase, _hbase_args),
    "extract": ("nested extraction from a factorable system", cmd_extract, _extract_args),
    "interpolate": ("exact interpolation at certified nodes", cmd_interpolate, _interpolate_args),
    "superpose": ("superposition of two node sets", cmd_superpose, _superpose_args),
    "cb-reduce": ("Cayley-Bacharach reduction of an intersection", cmd_cb_reduce, _cb_reduce_args),
    "cb-check": ("vanish-or-degenerate trichotomy check", cmd_cb_check, _cb_check_args),
    "chain": ("PPSN chain along a curve of a factorable system", cmd_chain, _chain_args),
}


def _subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser with the options of the subcommand `name` and its handler."""
    _, func, add_arguments = SUBCOMMANDS[name]
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    add_arguments(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="ppsn",
        description="Exact multivariate interpolation on algebraic manifolds: "
        "dimension tables, node-set certificates, and constructions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _subcommand(sub.add_parser(name, help=help_text), name)
    return parser


@functools.lru_cache(maxsize=len(SUBCOMMANDS))
def _named_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the subcommand `name` alone, built on its first call."""
    return _subcommand(argparse.ArgumentParser(prog=f"ppsn {name}"), name)


def parse_command_line(argv: List[str]) -> argparse.Namespace:
    """The parsed arguments, as the full parser gives them. A named
    subcommand is parsed by its own parser, which the full parser adds as
    its sub-parser `ppsn <name>`, so help, usage and errors read the same.
    That parser is built once per process, and each call parses into a
    fresh Namespace. Only when it leaves an argument over, and for help, an
    unknown name or an empty argv, is the full parser built: it reports
    what is left."""
    if argv and argv[0] in SUBCOMMANDS:
        name = argv[0]
        namespace = argparse.Namespace(subcommand=name)
        args, rest = _named_parser(name).parse_known_args(argv[1:], namespace)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_command_line(argv)
    args.argv = list(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ImproperNodeSetError, HypothesisError, InternalCheckError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except PpsnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if not args.json:
        elapsed = time.monotonic() - start
        print(f"[{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
