"""Per-layer tracing by wrapping the package's public functions from outside.

`Tracer.install` replaces each traced function at every `ppsn` module
namespace that binds it (and each traced method on its class), so calls
made between modules and from the package root pass through a wrapper.
Nothing under `src/` is edited; `uninstall` puts the originals back.

Each wrapper opens a span: it counts the call and adds the span's self
time (its duration minus the time of spans opened beneath it) to its
name. A call made while a span of the same name is open (recursion, or
`Polynomial.__sub__` calling `__add__`) is part of the outer span and is
not counted again. Bookkeeping done after a call (scanning a result for
its largest entry) is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# span name -> [(module, attribute)]; "Class.method" attributes are methods
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "linalg.row_reduce": [("ppsn.linalg", "row_reduce")],
    "linalg.solve": [("ppsn.linalg", "solve")],
    "linalg.nullspace": [("ppsn.linalg", "nullspace")],
    "linalg.incremental_add": [("ppsn.linalg", "IncrementalRank.add")],
    "nodes.verify_ppsn": [("ppsn.nodes", "verify_ppsn")],
    "nodes.evaluation_matrix": [("ppsn.nodes", "evaluation_matrix")],
    "nodes.intersect_factorable": [("ppsn.nodes", "intersect_factorable")],
    "nodes.extract_nested_ppsn": [("ppsn.nodes", "extract_nested_ppsn")],
    "nodes.parse_text": [
        ("ppsn.nodes", "parse_nodes_text"),
        ("ppsn.nodes", "parse_system_text"),
    ],
    "construct.interpolate": [("ppsn.construct", "interpolate")],
    "construct.superpose_nodes": [("ppsn.construct", "superpose_nodes")],
    "construct.cb_reduce": [("ppsn.construct", "cb_reduce")],
    "construct.build_curve_chain": [("ppsn.construct", "build_curve_chain")],
    "macaulay.select_monomials": [("ppsn.macaulay", "select_monomials")],
    "macaulay.reduce_modulo": [("ppsn.macaulay", "reduce_modulo")],
    "macaulay.hbase_decompose": [("ppsn.macaulay", "hbase_decompose")],
    "macaulay.infinity_check": [("ppsn.macaulay", "infinity_check")],
    "mpoly.parse_polynomial": [("ppsn.mpoly", "parse_polynomial")],
    "mpoly.poly_arith": [
        ("ppsn.mpoly", "Polynomial.__add__"),
        ("ppsn.mpoly", "Polynomial.__sub__"),
        ("ppsn.mpoly", "Polynomial.__mul__"),
    ],
    "mpoly.evaluate": [("ppsn.mpoly", "Polynomial.evaluate")],
    "dimension.dim_along": [("ppsn.dimension", "dim_along")],
    "dimension.backward_diff_e": [("ppsn.dimension", "backward_diff_e")],
    "dimension.hilbert_table": [("ppsn.dimension", "hilbert_table")],
    "cli.main": [("ppsn.cli", "main")],
}

# counters beyond .calls and .self_s, each reported per task
COUNTERS = (
    "linalg.row_reduce.cells",
    "nodes.verify_ppsn.improper",
    "nodes.evaluation_matrix.cells",
    "macaulay.select_monomials.misses",
    "cli.stdout_bytes",
)


def _max_entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for v in row:
            b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.accepted = 0
        self.max_entry_bits = 0
        self.missing: List[str] = []
        self._open: Dict[str, int] = {name: 0 for name in SPANS}
        self._stack: List[List[float]] = []  # child time of each open span
        self._restore: List[Tuple[object, str, object]] = []

    # -- hooks run after a call returns ------------------------------------

    def _after_row_reduce(self, args, result):
        matrix = args[0]
        self.counters["linalg.row_reduce.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        bits = _max_entry_bits(result.rows)
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def _after_incremental_add(self, args, result):
        self.accepted += bool(result)

    def _after_verify(self, args, result):
        self.counters["nodes.verify_ppsn.improper"] += not result.proper

    def _after_evaluation_matrix(self, args, result):
        self.counters["nodes.evaluation_matrix.cells"] += len(result) * (len(result[0]) if result else 0)

    def _after_select(self, args, result, before):
        # a miss is a call that ran an elimination beneath it
        self.counters["macaulay.select_monomials.misses"] += self.calls["linalg.row_reduce"] != before

    def _after_cli_main(self, args, result):
        out = sys.stdout
        if hasattr(out, "getvalue"):
            self.counters["cli.stdout_bytes"] += len(out.getvalue().encode("utf-8"))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, method: bool) -> Callable:
        after = {
            "linalg.row_reduce": self._after_row_reduce,
            "linalg.incremental_add": self._after_incremental_add,
            "nodes.verify_ppsn": self._after_verify,
            "nodes.evaluation_matrix": self._after_evaluation_matrix,
            "cli.main": self._after_cli_main,
        }.get(name)
        selecting = name == "macaulay.select_monomials"
        stack, opened = self._stack, self._open
        # while a span is open its function's own module sees the original,
        # so recursion (backward_diff_e) runs at full speed inside one span
        home = None if method else fn.__globals__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opened[name]:
                return fn(*args, **kwargs)
            before = self.calls["linalg.row_reduce"] if selecting else None
            opened[name] += 1
            frame = [0.0]
            stack.append(frame)
            if home is not None:
                home[fn.__name__] = fn
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if home is not None:
                    home[fn.__name__] = wrapper
                stack.pop()
                opened[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None or selecting:
                mark = perf_counter()
                if selecting:
                    self._after_select(args, result, before)
                else:
                    after(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - mark
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "ppsn" or key.startswith("ppsn."))
        ]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(name, original, method=bool(owner_name))
                if owner_name:
                    self._restore.append((owner, method, original))
                    setattr(owner, method, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def rescale(self, before: Dict[str, float], speed: float) -> None:
        """Divide the self time added since `before` by the machine speed
        measured around it, as the harness does with task times."""
        for name, start in before.items():
            self.self_s[name] = start + (self.self_s[name] - start) / speed

    # -- report ----------------------------------------------------------------

    def metrics(self, tasks: int) -> Dict[str, Tuple[float, str]]:
        """Per-task averages over `tasks` traced tasks; max_entry_bits is a max."""
        out: Dict[str, Tuple[float, str]] = {}
        per = 1.0 / max(tasks, 1)
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name] * per, "1/task")
            out[f"{name}.self_s"] = (self.self_s[name] * per, "s/task")
        for name in COUNTERS:
            unit = "B/task" if name == "cli.stdout_bytes" else "1/task"
            out[name] = (self.counters[name] * per, unit)
        adds = self.calls["linalg.incremental_add"]
        out["linalg.incremental_add.accept_ratio"] = (self.accepted / adds if adds else 0.0, "ratio")
        out["linalg.max_entry_bits"] = (self.max_entry_bits, "bits")
        return out
