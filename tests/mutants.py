"""Mutation catalogue: each entry breaks the package on purpose, and the
tests it names must then fail.

Run from the repository root:

    python tests/mutants.py

For each entry the script copies `src/`, `tests/` and `pyproject.toml` to
a temporary directory, replaces the entry's snippet (which must occur in
its file exactly once) and runs the entry's tests there with a timeout. A
mutant is caught when pytest reports failing tests (or times out). First
the named tests run once on the unmutated copy, and must pass, so that a
catch is the mutant's doing. A snippet that no longer matches, a test id
that collects nothing, or a mutant that survives makes the script exit 1.
It uses the standard library only; pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


CATALOGUE: List[Mutant] = [
    Mutant(
        "a construction accepts an improper set",
        "src/ppsn/construct.py",
        "    if not cert.proper:\n        raise ImproperNodeSetError(cert, message)\n    return cert\n",
        "    return cert\n",
        (
            "tests/test_construct.py::test_cb_reduce_refuses_collinear_triple",
            "tests/test_construct.py::test_superpose_refuses_an_improper_sub_set",
            "tests/test_construct.py::test_cb_extend_curve_refuses_an_improper_curve_set",
            "tests/test_construct.py::test_cb_extend_curve_refusals[improper-B]",
        ),
    ),
    Mutant(
        "a curve extension accepts a curve set that meets the intersection",
        "src/ppsn/construct.py",
        "    if not a_t.is_disjoint(full):\n"
        '        raise HypothesisError("curve node set must be disjoint from the intersection")\n',
        "",
        ("tests/test_construct.py::test_cb_extend_rejects_point_on_omitted_hypersurface",),
    ),
    Mutant(
        "a curve extension accepts m above L - 1",
        "src/ppsn/construct.py",
        "    if m > profile.L - 1:\n"
        '        raise InputError(f"degree m={m} exceeds L-1={profile.L - 1}")\n',
        "",
        ("tests/test_construct.py::test_cb_extend_curve_refusals[m-above-L-1]",),
    ),
    Mutant(
        "a curve extension at negative m ignores its B",
        "src/ppsn/construct.py",
        "    elif len(b):\n"
        '        raise InputError("negative m requires an empty B")\n',
        "",
        ("tests/test_construct.py::test_cb_extend_curve_refusals[B-at-negative-m]",),
    ),
    Mutant(
        "a curve extension leaves a curve set of negative degree to the count check",
        "src/ppsn/construct.py",
        "    if a_degree < 0 and len(a_t):\n",
        "    if False:\n",
        ("tests/test_construct.py::test_cb_extend_curve_refusals[curve-set-at-negative-degree]",),
    ),
    Mutant(
        "a superposition accepts a super point on the splitting polynomial",
        "src/ppsn/construct.py",
        "        if f_s.evaluate(q) == 0:\n",
        "        if False:\n",
        ("tests/test_construct.py::test_superposition_rejects_nodes_on_splitting_poly",),
    ),
    Mutant(
        "a superposition does not certify its sub set",
        "src/ppsn/construct.py",
        "    if sub_cert is None:\n"
        '        sub_cert = _certified(step.sub_nodes, step.sub_manifold, m, "sub-manifold node set is improper")\n',
        "",
        (
            "tests/test_construct.py::test_superpose_refuses_an_improper_sub_set",
            "tests/test_construct.py::test_superpose_interpolate_certifies_each_set_once",
        ),
    ),
    Mutant(
        "the full-intersection preamble skips the complete-intersection check",
        "src/ppsn/nodes.py",
        "    _selection(manifold.leading_forms, profile, profile.M + 1)\n",
        "",
        ("tests/test_construct.py::test_full_intersection_preamble_refuses_points_of_a_curve",),
    ),
    Mutant(
        "nested_level keeps a point without the rank test",
        "src/ppsn/nodes.py",
        "        if tracker.add(evaluation_matrix([q], columns)[0]):\n",
        "        if tracker.add(evaluation_matrix([q], columns)[0]) or True:\n",
        (
            "tests/test_nodes.py::test_extract_nested_grid",
            "tests/test_nodes.py::test_nested_level_reads_a_stream_no_further_than_its_last_kept_point",
        ),
    ),
    Mutant(
        "levels_upto reads each level one row of A^T early",
        "src/ppsn/nodes.py",
        "        for row in transpose[added:t_d]:\n",
        "        for row in transpose[added:t_d - 1]:\n",
        (
            "tests/test_construct.py::test_sheared_levels_from_one_elimination_match_nested_level",
            "tests/test_construct.py::test_curve_chain_levels_restrict_to_extractions",
        ),
    ),
    Mutant(
        "levels_upto evaluates the columns of each degree in a batch of their own",
        "src/ppsn/nodes.py",
        "    rows = [row for _, row in evaluation_rows(points, columns)]\n",
        # a point's scale is B^e in the degree-e batch, not B^top throughout
        "    batches = [\n"
        "        [row for _, row in evaluation_rows(points, [a for a in columns if sum(a) == e])]\n"
        "        for e in range(top + 1)\n"
        "    ]\n"
        "    rows = [sum(parts, []) for parts in zip(*batches)]\n",
        (
            "tests/test_construct.py::test_sheared_levels_from_one_elimination_match_nested_level",
            "tests/test_construct.py::test_sheared_chain_levels_lie_on_the_curve_and_are_proper",
        ),
    ),
    Mutant(
        "the fresh curve stream offers intersection points",
        "src/ppsn/construct.py",
        "        seen = set(avoid.points)\n",
        "        seen = set()\n",
        ("tests/test_construct.py::test_curve_chain_levels_restrict_to_extractions",),
    ),
    Mutant(
        "a chain builds its lower levels before refusing an over-budget mmax",
        "src/ppsn/construct.py",
        "    require_dense_size(system.n, mmax)\n",
        "",
        ("tests/test_cli.py::test_oversized_input_exits_2_before_any_basis_is_built",),
    ),
    Mutant(
        "membership skips any tagged set, whatever its polynomials",
        "src/ppsn/nodes.py",
        "        if tag is None or not set(manifold.polynomials) <= set(tag.polynomials):\n",
        "        if tag is None:\n",
        ("tests/test_nodes.py::test_verify_checks_nodes_not_checked_on_the_same_manifold",),
    ),
    Mutant(
        "a batch of values drops the row scale",
        "src/ppsn/mpoly.py",
        "D * scale)",
        "D)",
        ("tests/test_mpoly.py::test_evaluate_matches_fraction_reference",),
    ),
    Mutant(
        "membership reports the last point off the manifold",
        "src/ppsn/macaulay.py",
        "        for q, row in zip(points, zip(*residuals)):\n",
        "        for q, row in reversed(list(zip(points, zip(*residuals)))):\n",
        ("tests/test_macaulay.py::test_membership_raises_at_the_first_offending_point",),
    ),
    Mutant(
        "H-base weights are accepted without the integer check",
        "src/ppsn/macaulay.py",
        "        if any(residual.values()):\n",
        "        if False:\n",
        (
            "tests/test_macaulay.py::test_hbase_decompose_rejects_non_members",
            "tests/test_macaulay.py::test_hbase_decompose_matches_polynomial_reference",
        ),
    ),
    Mutant(
        "H-base weights are read off the first rank monomials, not the pivots",
        "src/ppsn/macaulay.py",
        "[basis[c] for c in echelon.columns]",
        "list(basis[: echelon.rank])",
        (
            "tests/test_macaulay.py::test_hbase_decompose_respects_degree_bounds",
            "tests/test_acceptance.py::test_criterion_08_hbase_round_trip",
        ),
    ),
    Mutant(
        "a selection, the infinity check's among them, accepts a rank one short",
        "src/ppsn/macaulay.py",
        "    if echelon.rank != expected:\n",
        "    if echelon.rank < expected - 1:\n",
        (
            "tests/test_macaulay.py::test_infinity_check_false",
            "tests/test_macaulay.py::test_infinity_check_matches_a_fraction_rank",
        ),
    ),
    Mutant(
        "solution_set returns its solution without the exact check",
        "src/ppsn/linalg.py",
        "    return (x if satisfies(rows, x, scales, rhs) else None), kernel\n",
        "    return x, kernel\n",
        ("tests/test_linalg.py::test_solve_consistent_and_inconsistent",),
    ),
    Mutant(
        "an echelon keeps the dependency of its first rejected row only",
        "src/ppsn/linalg.py",
        "            self.dependency = combination\n",
        "            self.dependency = self.dependency or combination\n",
        (
            "tests/test_linalg.py::test_nullspace_vectors_annihilate",
            "tests/test_construct.py::test_curve_lines_reject_parallel_forms",
        ),
    ),
    Mutant(
        "kernel vectors are not scaled to 1 on their free column",
        "src/ppsn/linalg.py",
        "kernel.append([Fraction(y.get(i, 0), y[j]) for i in range(ncols)])",
        "kernel.append([Fraction(y.get(i, 0)) for i in range(ncols)])",
        (
            "tests/test_linalg.py::test_solve_nullspace_and_first_dependency_match_the_fraction_rref",
            "tests/test_cli.py::test_cb_check_exception_hypersurface",
            "tests/test_construct.py::test_curve_lines_match_nullspace_and_solve",
        ),
    ),
    Mutant(
        "solution drops the weights' denominator",
        "src/ppsn/linalg.py",
        "        D *= denominator\n",
        "",
        (
            "tests/test_linalg.py::test_solve_solution_satisfies_system",
            "tests/test_nodes.py::test_intersect_rational_points_and_singular_selection",
        ),
    ),
    Mutant(
        "weights skip the rescale when a pivot does not divide",
        "src/ppsn/linalg.py",
        "            if a % p:\n",
        "            if False:\n",
        (
            "tests/test_linalg.py::test_integer_echelon_weights_are_the_solve_of_the_transposed_selected_block",
            "tests/test_macaulay.py::test_reduce_modulo_matches_a_fresh_solve_per_degree",
        ),
    ),
    Mutant(
        "an add step drops the kept row's combination",
        "src/ppsn/linalg.py",
        "            for k, y in u_combination.items():\n"
        "                combination[k] = combination.get(k, 0) - a * y\n",
        "",
        (
            "tests/test_linalg.py::test_integer_echelon_keeps_the_greedy_rows_as_their_combinations",
            "tests/test_linalg.py::test_solve_nullspace_and_first_dependency_match_the_fraction_rref",
        ),
    ),
    Mutant(
        "a curve line's direction is not scaled to 1 on its free coordinate",
        "src/ppsn/construct.py",
        "        lines.append((tuple(base), tuple(kernel[0])))\n",
        "        lines.append((tuple(base), tuple(2 * v for v in kernel[0])))\n",
        ("tests/test_construct.py::test_curve_lines_match_nullspace_and_solve",),
    ),
    Mutant(
        "evaluation builds the plan of a degree above the budget",
        "src/ppsn/mpoly.py",
        "        if self._degree > MAX_MONOMIALS:\n",
        "        if False:\n",
        ("tests/test_mpoly.py::test_evaluation_refuses_a_degree_above_the_budget_before_its_plan",),
    ),
    Mutant(
        "a selection, the infinity check's among them, builds its items past the budget",
        "src/ppsn/macaulay.py",
        "    require_dense_size(n, m)\n    monos, rows, labels = elementary_items(leading_forms, n, m)\n",
        "    monos, rows, labels = elementary_items(leading_forms, n, m)\n",
        ("tests/test_macaulay.py::test_infinity_check_refuses_a_witness_degree_past_the_budget",),
    ),
    Mutant(
        "the CLI checks membership as it loads the nodes, before their count",
        "src/ppsn/cli.py",
        "    node_set = nodes.parse_nodes_text(texts[\"nodes\"])\n",
        "    node_set = nodes.parse_nodes_text(texts[\"nodes\"])\n"
        "    if manifold is not None:\n"
        "        node_set = nodes.NodeSet(node_set.points, manifold)\n",
        ("tests/test_cli.py::test_node_count_is_checked_before_membership",),
    ),
    Mutant(
        "the exact kernel fallback is scaled by 2 on the dependent row",
        "src/ppsn/nodes.py",
        "return [Fraction(y.get(i, 0), y[f]) for i in range(N)]",
        "return [Fraction(y.get(i, 0), 2 * y[f]) for i in range(N)]",
        ("tests/test_modular.py::test_prime_making_an_earlier_row_dependent_is_not_trusted",),
    ),
    Mutant(
        "the kernel lifts a prime whose first dependent row a failed lift showed independent",
        "src/ppsn/nodes.py",
        "            if f < lower:\n                continue\n",
        "",
        ("tests/test_modular.py::test_prime_with_a_smaller_first_dependent_row_is_skipped",),
    ),
    Mutant(
        "a lifted guess is accepted without the exact check",
        "src/ppsn/linalg.py",
        "            if guess is not None and satisfies(rows, guess, [1] * len(rows), b):\n",
        "            if guess is not None:\n",
        (
            "tests/test_modular.py::test_lifted_solve_with_generic_values_is_the_reference_one",
            "tests/test_modular.py::test_corrupted_coefficient_is_rejected_by_the_node_check",
            "tests/test_modular.py::test_lifted_kernel_of_a_planted_corank_is_the_reference_one",
        ),
    ),
    Mutant(
        "the lift's residual is not divided by p",
        "src/ppsn/linalg.py",
        "        r = [(v - sum(map(mul, row, y))) // p for v, row in zip(r, rows)]\n",
        "        r = [v - sum(map(mul, row, y)) for v, row in zip(r, rows)]\n",
        (
            "tests/test_budgets.py::test_eliminations[generic-sphere-25]",
            "tests/test_modular.py::test_solve_lifts_any_size_from_one_elimination",
        ),
    ),
    Mutant(
        "a prime just above the 64-bit slot bound",
        "src/ppsn/linalg.py",
        "PRIMES = (2**26 - 8195, 2**26 - 8205, 2**26 - 8211)\n",
        "PRIMES = (2**26 - 8183, 2**26 - 8205, 2**26 - 8211)\n",
        ("tests/test_modular.py::test_primes_are_word_size_primes_apart_from_the_oracle",),
    ),
    Mutant(
        "the intersection accepts a selection of rank n - 1",
        "src/ppsn/nodes.py",
        "        if kernel:\n            failures.append(",
        "        if len(kernel) > 1:\n            failures.append(",
        (
            "tests/test_nodes.py::test_intersect_rational_points_and_singular_selection",
            "tests/test_cli.py::test_insufficient_system_exits_one",
        ),
    ),
    Mutant(
        "a nested level stops one point short of t_d",
        "src/ppsn/nodes.py",
        "    target = dim_along(d, manifold.profile)\n",
        "    target = dim_along(d, manifold.profile) - 1\n",
        (
            "tests/test_construct.py::test_sheared_extraction_levels_nest_with_their_dimensions",
            "tests/test_construct.py::test_sheared_cb_reduce_leaves_a_proper_remainder",
            "tests/test_construct.py::test_sheared_chain_levels_lie_on_the_curve_and_are_proper",
            "tests/test_construct.py::test_sheared_cb_check_is_consistent_and_its_exception_holds",
            "tests/test_construct.py::test_sheared_superposed_union_is_proper",
        ),
    ),
    Mutant(
        "the polynomial scanner parses terms before the lexical pass of the whole text",
        "src/ppsn/mpoly.py",
        "    pos = _LEXICAL.match(text).end()\n",
        "    pos = len(text)\n",
        (
            "tests/test_mpoly.py::test_parse_error_names_its_branch_and_position",
            "tests/test_mpoly.py::test_scanner_matches_the_token_reference",
        ),
    ),
    Mutant(
        "a named subcommand builds the full parser as well as its own",
        "src/ppsn/cli.py",
        "        if not rest:\n            return args\n",
        "",
        ("tests/test_cli.py::test_a_named_subcommand_builds_the_full_parser_only_to_report_an_error",),
    ),
    Mutant(
        "the named parser is rebuilt on every call",
        "src/ppsn/cli.py",
        "@functools.lru_cache(maxsize=len(SUBCOMMANDS))\n",
        "",
        ("tests/test_cli.py::test_repeated_calls_of_a_subcommand_build_its_parser_once",),
    ),
    Mutant(
        "one parser serves every subcommand",
        "src/ppsn/cli.py",
        "@functools.lru_cache(maxsize=len(SUBCOMMANDS))\n"
        "def _named_parser(name: str) -> argparse.ArgumentParser:\n",
        # a cache that ignores the name: the first parser built answers every call
        "_first_parser = []\n\n\n"
        "def _named_parser(name: str) -> argparse.ArgumentParser:\n"
        "    if not _first_parser:\n"
        "        parser = argparse.ArgumentParser(prog=f\"ppsn {name}\", allow_abbrev=False)\n"
        "        _first_parser.append(_subcommand(parser, name))\n"
        "    return _first_parser[0]\n",
        ("tests/test_cli.py::test_single_subcommand_parser_parses_like_the_full_parser",),
    ),
    Mutant(
        "a subcommand's own parser reads abbreviated options",
        "src/ppsn/cli.py",
        'argparse.ArgumentParser(prog=f"ppsn {name}", allow_abbrev=False)',
        'argparse.ArgumentParser(prog=f"ppsn {name}")',
        ("tests/test_cli.py::test_single_subcommand_parser_parses_like_the_full_parser",),
    ),
    Mutant(
        "every subcommand takes a --seed again",
        "src/ppsn/cli.py",
        '    parser.add_argument("--json", action="store_true", help="emit a JSON report")\n',
        '    parser.add_argument("--json", action="store_true", help="emit a JSON report")\n'
        '    if name != "hbase":\n'
        '        parser.add_argument("--seed", type=int, default=0)\n',
        ("tests/test_cli.py::test_each_subcommand_accepts_only_the_options_its_handler_reads",),
    ),
    Mutant(
        "a --remove file is parsed whatever its number of points",
        "src/ppsn/cli.py",
        '    removed = _read_node_set(args.remove, "--remove", len(full), "more than the intersection has")\n',
        "    removed = _read_file(args.remove)\n",
        ("tests/test_cli.py::test_more_removed_points_than_intersection_points_exit_2_before_any_is_parsed",),
    ),
    Mutant(
        "the JSON writer keeps each dict's insertion order",
        "src/ppsn/cli.py",
        "            for k, v in sorted(value.items())\n",
        "            for k, v in value.items()\n",
        ("tests/test_cli.py::test_json_text_writes_the_bytes_of_indented_sorted_json_dumps",),
    ),
    Mutant(
        "the JSON writer indents a dict's nested values one level short",
        "src/ppsn/cli.py",
        'inner + encode_basestring_ascii(k) + ": " + json_text(v, inner)',
        'inner + encode_basestring_ascii(k) + ": " + json_text(v, newline)',
        ("tests/test_cli.py::test_json_text_writes_the_bytes_of_indented_sorted_json_dumps",),
    ),
    Mutant(
        "the series convolution is shifted by one",
        "src/ppsn/dimension.py",
        "sum(map(mul, num, b[j::-1]))",
        "sum(map(mul, num[1:], b[j::-1]))",
        (
            "tests/test_dimension.py::test_hilbert_table_is_the_per_term_convolution",
            "tests/test_dimension.py::test_series_equals_backward_difference",
            "tests/test_cli.py::test_dim_json_matches_columns",
        ),
    ),
    Mutant(
        "a polynomial keeps a common factor of its numerators and denominator",
        "src/ppsn/mpoly.py",
        "            g = math.gcd(D, *nums.values())\n",
        "            g = 1\n",
        (
            "tests/test_mpoly.py::test_every_route_to_a_polynomial_gives_its_form_and_hash",
            "tests/test_mpoly.py::test_arithmetic_matches_the_validating_constructor",
        ),
    ),
    Mutant(
        "a term is printed over the denominator without reducing it",
        "src/ppsn/mpoly.py",
        "                g = math.gcd(v, D)\n",
        "                g = 1\n",
        ("tests/test_mpoly.py::test_str_is_the_fraction_per_term_printer",),
    ),
    Mutant(
        "reduce_modulo leaves the collected remainder and cofactors unscaled when D grows",
        "src/ppsn/macaulay.py",
        "itertools.chain(work.values(), remainder, cofactors)",
        "work.values()",
        (
            "tests/test_macaulay.py::test_reduce_modulo_matches_polynomial_reference",
            "tests/test_macaulay.py::test_reduce_modulo_matches_a_fresh_solve_per_degree",
        ),
    ),
    Mutant(
        "dim reads each row's backward difference from the row before",
        "src/ppsn/cli.py",
        "    bdiff = dimension.backward_diff_table(mmax, profile.n, profile.ks)\n",
        "    bdiff = [0] + dimension.backward_diff_table(mmax, profile.n, profile.ks)[:-1]\n",
        (
            "tests/test_cli.py::test_dim_builds_one_table_and_checks_every_row",
            "tests/test_cli.py::test_dim_json_matches_columns",
        ),
    ),
]


def run_tests(where: Path, tests: Tuple[str, ...]) -> Tuple[str, str]:
    """(outcome, last output line): outcome is "passed", "failed",
    "timeout" or "error: ..." for anything pytest could not run."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=where,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"no result in {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, f"error: pytest exit {proc.returncode}")
    return outcome, lines[-1]


def fresh_copy(into: Path) -> Path:
    copy = into / "tree"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


def main() -> int:
    problems = []
    for mutant in CATALOGUE:
        count = (ROOT / mutant.file).read_text().count(mutant.snippet)
        if count != 1:
            problems.append(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    if problems:
        print("\n".join(["catalogue out of date:"] + problems))
        return 1

    with tempfile.TemporaryDirectory(prefix="ppsn-mutants-") as tmp:
        tests = tuple(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
        outcome, last = run_tests(fresh_copy(Path(tmp) / "base"), tests)
        if outcome != "passed":
            print(f"the named tests do not pass unmutated ({outcome}): {last}")
            return 1
        missed = 0
        for k, mutant in enumerate(CATALOGUE):
            tree = fresh_copy(Path(tmp) / f"m{k}")
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
            start = time.perf_counter()
            outcome, last = run_tests(tree, mutant.tests)
            elapsed = time.perf_counter() - start
            if outcome in ("failed", "timeout"):
                verdict = "caught" if outcome == "failed" else "caught (timeout)"
            else:
                verdict = "SURVIVED" if outcome == "passed" else f"ERROR ({outcome})"
                missed += 1
            print(f"{verdict:<16} {elapsed:5.1f} s  {mutant.name}: {last}")
    print(f"{len(CATALOGUE) - missed}/{len(CATALOGUE)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
