import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    """Every declared console script names a callable that imports."""
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
