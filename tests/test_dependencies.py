"""The package has zero runtime dependencies: `src/anomaly` imports only the
standard library and its own modules (sympy and hypothesis are for tests).
Its export list names each public name once, and each resolves, every
other module reads each name it imports, and importing the CLI loads none
of the slow-to-import standard modules.  The
verifier and the CLI tell case families apart only through the family table."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomaly
from anomaly import verifier

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


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads; `from __future__` imports aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_unused_import_scan_sees_every_import_form():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom math import gcd, lcm\n"
    source += "from . import algebra\ndef f():\n    import sys\n    return os.path.sep, gcd(2, 4)\n"
    assert unused_imports(source) == ["j", "lcm", "algebra", "sys"]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name)
def test_every_import_is_read(path):
    """Removing code must not leave its imports behind.  `__init__.py` is
    skipped: its imports are its exports."""
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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


FAMILY_NAMES = frozenset(verifier._FAMILIES)
COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def family_name_comparisons(source: str) -> list[int]:
    """The lines of `source` that compare (==, !=, in, not in) against a family-name
    literal, alone or inside a tuple, list, set or dict display."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare) or not any(isinstance(op, COMPARISONS) for op in node.ops):
            continue
        literals = []
        for operand in (node.left, *node.comparators):
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                literals += operand.elts
            elif isinstance(operand, ast.Dict):
                literals += [key for key in operand.keys if key is not None]
            else:
                literals.append(operand)
        if any(isinstance(lit, ast.Constant) and lit.value in FAMILY_NAMES for lit in literals):
            lines.append(node.lineno)
    return lines


def test_the_family_scan_sees_every_comparison_form():
    source = (
        'a = case == "spin"\nb = "spinc_l" != case\nc = case in ("spin_v_line", "x")\n'
        'd = case not in {"spin_v"}\ne = case in {"spin": 1}\nf = case == "all"\ng = row.factor == "spinor"\n'
    )
    assert family_name_comparisons(source) == [1, 2, 3, 4, 5]
    assert FAMILY_NAMES == {"spin", "spin_v", "spinc_l", "spin_v_line"}


@pytest.mark.parametrize("name", ["verifier.py", "cli.py"])
def test_no_branch_on_a_family_name(name):
    """What sets a family apart is a row of `verifier._FAMILIES`: a new family
    is a new row, not a new branch."""
    assert family_name_comparisons((SRC / "anomaly" / name).read_text(encoding="utf-8")) == []
