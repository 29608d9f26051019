"""The package has zero runtime dependencies: `src/anomaly` imports only the
standard library and its own modules (sympy and hypothesis are for tests).
Its export list names each public name once, and each resolves, and
importing the CLI loads none of the slow-to-import standard modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomaly

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "anomaly").glob("*.py"))
# Each costs milliseconds of start-up in every CLI process; dataclasses alone
# pulls in inspect, ast, dis and tokenize.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


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


def test_the_cli_imports_no_slow_module():
    """A fresh interpreter without site (whose .pth files may preload typing)
    imports `anomaly.cli` without loading any of SLOW_IMPORTS."""
    probe = f"import sys, anomaly.cli; print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
