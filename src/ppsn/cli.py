"""Command-line front end.

Exit codes: 0 success / proper verdict; 1 proper-posedness, hypothesis, or
internal cross-check failure; 2 malformed input. JSON output (--json) is
deterministic byte for byte for fixed inputs and seed: timings go to stderr
only, never into the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import construct, dimension, macaulay, nodes
from .errors import (
    HypothesisError,
    ImproperNodeSetError,
    InputError,
    InternalCheckError,
    ParseError,
    PpsnError,
)
from .mpoly import Polynomial, as_fraction, parse_polynomial, require_dense_size

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


def _load_manifold(args) -> macaulay.Manifold:
    polys = _parse_poly_lines(_read_file(args.manifold), args.n)
    witnesses = ()
    wpath = getattr(args, "witnesses", None)
    if wpath:
        witnesses = tuple(_parse_poly_lines(_read_file(wpath), polys[0].n))
    return macaulay.Manifold(polys, witnesses=witnesses)


def _load_system(args) -> Tuple[str, nodes.NodeSet]:
    """The --system file's text and its intersection points; HypothesisError
    when the system is not a sufficient intersection."""
    text = _read_file(args.system)
    res = nodes.intersect_factorable(nodes.parse_system_text(text))
    if not res.sufficient:
        raise HypothesisError("; ".join(res.failures))
    return text, res.nodes


def _load_nodes(path: str) -> nodes.NodeSet:
    return nodes.parse_nodes_text(_read_file(path))


def _parse_number(token: str, kind=as_fraction):
    """A number from the command line or a values file; ParseError if bad."""
    try:
        return kind(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a number: {token.strip()!r}") from exc


def _load_problem(
    args,
) -> Tuple[Dict, Optional[macaulay.Manifold], nodes.NodeSet, List[Fraction]]:
    """The report base, the --manifold (None without one), the --nodes on
    it and the --values (empty without them). Each file is read once, so
    the report digests the very text that was parsed."""
    manifold = _load_manifold(args) if args.manifold is not None else None
    texts = {"nodes": _read_file(args.nodes)}
    if hasattr(args, "values"):
        texts["values"] = _read_file(args.values)
    node_set = nodes.parse_nodes_text(texts["nodes"])
    if manifold is not None:
        node_set = nodes.NodeSet(node_set.points, manifold)
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


def _emit(args, report: Dict, human: str) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(human)


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
    _emit(args, report, nodes.format_nodes(node_set) + f"\n# {cert.verdict} at degree {args.m}")
    return EXIT_OK if cert.proper else EXIT_FAIL


# -- subcommands ----------------------------------------------------------------


# `dim` is O(s * mmax^2): about 1 s at this degree for n = 2, degrees 2
# (2-vCPU Xeon VM, CPython 3.11).
MAX_DIM_DEGREE = 2000


def cmd_dim(args) -> int:
    if args.n is None:
        raise InputError("--n is required")
    ks = tuple(_parse_number(k, int) for k in args.degrees.split(","))
    profile = dimension.DegreeProfile(args.n, ks)
    flag, mmax = ("--mmax", args.mmax) if args.mmax is not None else ("--m", args.m)
    if mmax > MAX_DIM_DEGREE:
        raise InputError(f"{flag} {mmax} is above the largest table degree {MAX_DIM_DEGREE}")
    table = dimension.hilbert_table(profile, mmax)
    rows = []
    for j in range(mmax + 1):
        bd = dimension.backward_diff_e(j, profile.n, profile.ks)
        if bd != table.H[j]:
            raise InternalCheckError(f"dimension cross-check failed at m={j}: {table.H[j]} != {bd}")
        rows.append(
            {"m": j, "h": table.h[j], "H": table.H[j], "d": table.d[j], "bdiff": bd}
        )
    report = _report_base(args)
    report.update({"n": profile.n, "degrees": list(profile.ks), "table": rows})
    lines = [f"{'m':>4} {'h':>8} {'H':>8} {'d':>8} {'bdiff':>8}"]
    for r in rows:
        lines.append(
            f"{r['m']:>4} {r['h']:>8} {r['H']:>8} {r['d']:>8} {r['bdiff']:>8}"
        )
    _emit(args, report, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    report, manifold, node_set, _ = _load_problem(args)
    cert = nodes.verify_ppsn(node_set, manifold, args.m)
    report["certificate"] = _cert_dict(cert)
    _emit(args, report, f"{cert.verdict} at degree {args.m} ({len(node_set)} nodes)")
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
    human = "remainder: {}\n{}".format(
        remainder,
        "\n".join(f"cofactor {i + 1}: {c}" for i, c in enumerate(cofactors)),
    )
    _emit(args, report, human)
    return EXIT_OK


def cmd_hbase(args) -> int:
    manifold = _load_manifold(args)
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
    human = "\n".join(
        [f"degree {m}: {ok}/{rep.trials_per_degree} passed" for m, ok in rep.passes]
        + list(rep.failures)
    )
    _emit(args, report, human)
    return EXIT_OK if rep.all_passed else EXIT_FAIL


def cmd_extract(args) -> int:
    text, full = _load_system(args)
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
    _emit(args, report, str(poly))
    return EXIT_OK


def cmd_superpose(args) -> int:
    manifold = _load_manifold(args)
    sub = nodes.NodeSet(_load_nodes(args.sub).points, manifold)
    sup = _load_nodes(args.super_nodes)
    step = construct.SuperpositionStep(
        sub_manifold=manifold, sub_nodes=sub, super_nodes=sup, m=args.m
    )
    union, cert = construct.superpose_nodes(step)
    return _emit_nodes(args, _report_base(args), union, cert)


def cmd_cb_reduce(args) -> int:
    text, full = _load_system(args)
    removed = _load_nodes(args.remove)
    partition = construct.CBPartition(full=full, removed=removed)
    remaining, cert = construct.cb_reduce(partition, full.manifold, args.m)
    return _emit_nodes(args, _report_base(args, system=text), remaining, cert)


def cmd_cb_check(args) -> int:
    text, full = _load_system(args)
    manifold = full.manifold
    removed = _load_nodes(args.remove)
    f = parse_polynomial(args.poly, manifold.n)
    partition = construct.CBPartition(full=full, removed=removed)
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
    if verdict.vanishes_on_removed:
        human = "vanishes on the removed points"
    elif verdict.exception_hypersurface is not None:
        human = f"exception branch: removed points lie on {verdict.exception_hypersurface}"
    else:
        human = "INCONSISTENT: trichotomy violated"
    _emit(args, report, human)
    return EXIT_OK if verdict.consistent else EXIT_FAIL


def cmd_chain(args) -> int:
    text = _read_file(args.system)
    system = nodes.parse_system_text(text)
    x0 = tuple(_parse_number(c) for c in args.x0.split(","))
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
    human_lines = []
    for e in chain.entries:
        human_lines.append(f"degree {e.degree}: {len(e.nodes)} points ({e.certificate.verdict})")
    _emit(args, report, "\n".join(human_lines))
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _common(p):
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--n", type=int, default=None, help="ambient dimension override")


def _dim_args(p):
    p.add_argument("--degrees", required=True, help="comma-separated degrees k_1..k_s")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mmax", type=int, default=None)


def _verify_args(p):
    p.add_argument("--manifold", help="file: one defining polynomial per line")
    p.add_argument("--witnesses", help="file: completing hypersurfaces")
    p.add_argument("--nodes", required=True, help="file: one point per line")
    p.add_argument("--m", type=int, required=True)


def _reduce_args(p):
    p.add_argument("--manifold", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="polynomial expression")
    source.add_argument("--poly-file", dest="poly_file", help="file with one expression")


def _hbase_args(p):
    p.add_argument("--manifold", required=True)
    p.add_argument("--witnesses")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)


def _extract_args(p):
    p.add_argument("--system", required=True, help="file: one factored hypersurface per line")
    p.add_argument("--m", type=int, required=True)


def _interpolate_args(p):
    p.add_argument("--manifold")
    p.add_argument("--witnesses")
    p.add_argument("--nodes", required=True)
    p.add_argument("--values", required=True, help="file: one rational per line")
    p.add_argument("--m", type=int, required=True)


def _superpose_args(p):
    p.add_argument("--manifold", required=True, help="sub-manifold; last line is the splitting polynomial")
    p.add_argument("--witnesses")
    p.add_argument("--sub", required=True, help="file: nodes on the sub-manifold")
    p.add_argument("--super", dest="super_nodes", required=True, help="file: nodes on the larger manifold")
    p.add_argument("--m", type=int, required=True)


def _cb_reduce_args(p):
    p.add_argument("--system", required=True)
    p.add_argument("--remove", required=True, help="file: points to remove")
    p.add_argument("--m", type=int, required=True)


def _cb_check_args(p):
    p.add_argument("--system", required=True)
    p.add_argument("--remove", required=True)
    p.add_argument("--m", type=int, required=True)
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


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or for the one named `only`, whose
    help, usage and error text are then the same as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="ppsn",
        description="Exact multivariate interpolation on algebraic manifolds: "
        "dimension tables, node-set certificates, and constructions.",
    )
    # the full parser's usage lists every subcommand: keep that text when
    # only one is built (the full parser keeps argparse's default, which its
    # missing-subcommand error also uses)
    listing = {} if only is None else {"metavar": "{" + ",".join(SUBCOMMANDS) + "}"}
    sub = parser.add_subparsers(dest="subcommand", required=True, **listing)
    for name, (help_text, func, add_arguments) in SUBCOMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            _common(p)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a named subcommand needs only its own parser; help, an unknown name
    # and an empty argv get the full one
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
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
