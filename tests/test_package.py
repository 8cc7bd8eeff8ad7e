from pathlib import Path

import pytest

import ppsn

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert ppsn.__version__ == tomllib.load(fh)["project"]["version"]
