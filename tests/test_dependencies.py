"""The package has zero runtime dependencies: `src/anomaly` imports only the
standard library and its own modules (sympy and hypothesis are for tests).
Its export list names each public name once, and each resolves."""

import ast
import sys
from pathlib import Path

import pytest

import anomaly

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "anomaly").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The modules `source` imports that are neither standard library nor relative."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_scan_sees_every_import_form():
    source = "import sympy.core\nfrom hypothesis import given\nfrom . import algebra\nimport json\n"
    source += "def f():\n    import numpy as np\n"
    assert foreign_imports(source) == ["sympy.core", "hypothesis", "numpy"]


def test_every_module_is_scanned():
    assert {path.name for path in SOURCES} >= {"__init__.py", "algebra.py", "cli.py", "verifier.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves_once():
    assert len(anomaly.__all__) == len(set(anomaly.__all__))
    assert [name for name in anomaly.__all__ if not hasattr(anomaly, name)] == []
