import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import ppsn

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        assert ppsn.__version__ == tomllib.load(fh)["project"]["version"]


def test_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "ppsn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
    assert re.search(r"^dependencies = \[\]$", (ROOT / "pyproject.toml").read_text(), re.M)



def test_reference_imports_nothing_from_the_kernels_it_checks():
    # a reference that shared the elimination or evaluation code would share
    # its faults; each imported name counts as the module that defines it
    path = ROOT / "tests" / "reference.py"
    sources = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                sources.add(obj.__name__ if inspect.ismodule(obj) else obj.__module__)
    assert {"ppsn.macaulay", "ppsn.mpoly"} <= sources
    assert not {"ppsn.linalg", "ppsn.nodes"} & sources
