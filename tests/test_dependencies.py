"""The package has zero runtime dependencies: `src/anomaly` imports only the
standard library and its own modules (sympy and hypothesis are for tests).
The package root imports nothing, so `import anomaly` loads no other
module, every module reads each name it imports, and importing the CLI
loads none of the slow-to-import standard modules.  The two routes stay
apart: the theta route imports nothing of the bundle route's modules and no log or
inverse kernel (the package has none), and the bundle route imports nothing of the theta route, so
a fault in a kernel of one route shows as a route mismatch.  Every
`functools.lru_cache` is typed, so a float or bool argument never reads the
entry of an equal int and skips the constructor's own checks.  The installed console script and
`python -m anomaly.cli` start the same process entry, one that freezes the
heap before exit.  No module tells case families apart but through the
family table, and the route modules name no family at all.  One module
decides the coordinates: only `algebra` names the power-sum generators,
and only `verifier` asks for a power-sum table.  Every module parses as the
oldest Python that `pyproject.toml` admits.  Every public function has a
caller in the package, but for the process entry: a function that only the
tests read is an oracle, and README's `python` blocks run against the
package.  No module reads the process environment, so a run's output is a
function of its arguments and input alone.  The point oracle of the tests
imports only the standard library, nothing of `anomaly`."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anomaly
from anomaly import verifier

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "anomaly").glob("*.py"))
# Each costs milliseconds of start-up in every CLI process; dataclasses alone
# pulls in inspect, ast, dis and tokenize, and argparse pulls in gettext.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "argparse", "gettext")


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


POINT_ORACLE = Path(__file__).resolve().parent / "point_oracle.py"


def package_imports(source: str) -> list[str]:
    """What `source` imports of the package `anomaly`, in source order: an
    import statement at any depth, or an `__import__` or `import_module`
    call whose first argument names it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            function = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if function in ("__import__", "import_module"):
                names = [node.args[0].value]
        found += [(node.lineno, name) for name in names if str(name).split(".")[0] == "anomaly"]
    return [name for _, name in sorted(found)]


def test_the_package_import_scan_sees_every_import_form():
    source = (
        "import anomaly\nimport json, anomaly.algebra as a\nfrom anomaly import theta\n"
        "from anomaly.qseries import QHalfSeries\nfrom . import anomaly_like\nimport anomalyx\n"
        "def f():\n    from anomaly.cli import run\n    return __import__(\"anomaly.verifier\")\n"
        "import importlib\nm = importlib.import_module(\"anomaly\")\nn = importlib.import_module(\"json\")\n"
    )
    expected = ["anomaly", "anomaly.algebra", "anomaly", "anomaly.qseries", "anomaly.cli", "anomaly.verifier", "anomaly"]
    assert package_imports(source) == expected


def test_the_point_oracle_shares_no_code_with_the_package():
    """`tests/point_oracle.py` is a check outside both routes: it imports
    nothing of `anomaly`, and nothing outside the standard library, such as
    the test oracles, through which it could."""
    source = POINT_ORACLE.read_text(encoding="utf-8")
    assert package_imports(source) == []
    assert foreign_imports(source) == []


# The oldest Python that pyproject.toml's requires-python admits, as (major, minor).
OLDEST_PYTHON = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (SRC.parent / "pyproject.toml").read_text(encoding="utf-8"), re.M
    ).groups()
)


def test_the_grammar_check_rejects_a_later_form():
    assert OLDEST_PYTHON == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=OLDEST_PYTHON)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    """Removing code must not leave its imports behind."""
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_package_modules(statement: str) -> list[str]:
    """The modules of the package that a fresh interpreter has loaded after
    `statement`, run with the PYTHON* settings scrubbed from its environment
    as the benchmark's child processes are, and the source tree on its path."""
    probe = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'anomaly'))"
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_the_module_probe_sees_what_an_import_loads():
    assert loaded_package_modules("import anomaly.qseries") == ["anomaly", "anomaly.algebra", "anomaly.qseries"]


def test_the_package_root_loads_no_other_module():
    """Each public name has one import path, its defining module: the root
    re-exports nothing, so importing it loads nothing of the engine."""
    assert loaded_package_modules("import anomaly") == ["anomaly"]


def python_blocks(text: str) -> list:
    """The fenced `python` blocks of a Markdown text, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)


def test_the_block_scan_sees_every_python_block():
    text = "```sh\nls\n```\n```python\nx = 1\n```\ntext\n```python\ny = 2\nz = 3\n```\n```\nplain\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y = 2\nz = 3\n"]


def test_the_readme_python_blocks_run():
    """README's library session imports and calls only what `src/anomaly`
    holds, so a doc that names a deleted function fails here."""
    assert Path(anomaly.__file__).resolve().parent == SRC.resolve() / "anomaly"
    blocks = python_blocks((SRC.parent / "README.md").read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_the_cli_imports_no_slow_module():
    """A fresh interpreter without site (whose .pth files may preload typing)
    imports `anomaly.cli` without loading any of SLOW_IMPORTS."""
    probe = f"import sys, anomaly.cli; print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def main_block_entry(source: str) -> str | None:
    """The function that the `if __name__ == "__main__":` block of `source` passes to `sys.exit`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "sys.exit" and call.args:
                    inner = call.args[0]
                    if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name):
                        return inner.func.id
    return None


def test_the_main_block_scan_finds_the_entry():
    assert main_block_entry("import sys\nif __name__ == '__main__':\n    sys.exit(run())\n") == "run"
    assert main_block_entry("import sys\nsys.exit(main())\n") is None


def test_the_console_script_and_the_main_block_start_the_same_entry():
    """The `anomaly` command and `python -m anomaly.cli` both start the entry
    that freezes the heap before exit, not the in-process `main`."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^anomaly\s*=\s*"anomaly\.cli:(\w+)"\s*$', pyproject, re.MULTILINE)
    assert script is not None, "pyproject.toml names no anomaly console script in anomaly.cli"
    source = (SRC / "anomaly" / "cli.py").read_text(encoding="utf-8")
    assert main_block_entry(source) == script.group(1)
    entry = next(
        node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == script.group(1)
    )
    assert "gc.freeze" in {ast.unparse(node.func) for node in ast.walk(entry) if isinstance(node, ast.Call)}


def untyped_caches(source: str) -> list[int]:
    """The lines of `source` that use `lru_cache` (bare or called, by name or as
    `functools.lru_cache`) without the keyword `typed=True`, or `functools.cache`,
    which cannot be typed."""

    def name(node):
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and name(node.value) == "functools":
            lines.append(node.lineno)
        elif name(node) == "lru_cache" and not isinstance(node.ctx, ast.Store):
            call = calls.get(id(node))
            if call is None or not any(
                kw.arg == "typed" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in call.keywords
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_cache_scan_sees_every_form():
    source = (
        "import functools\nfrom functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None, typed=True)\ndef a(x): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@lru_cache(maxsize=None)\ndef c(x): pass\n"
        "@functools.lru_cache(typed=False)\ndef d(x): pass\n"
        "@functools.lru_cache(typed=True)\ndef e(x): pass\n"
        "f = lru_cache(len)\n"
        "@functools.cache\ndef g(x): pass\n"
    )
    assert untyped_caches(source) == [2, 5, 7, 9, 13, 14]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_cache_is_typed(path):
    """An untyped cache hands `f(4, 1)`'s entry to `f(4, True)` and `f(4.0, 1)`,
    which then skip the constructor's own checks."""
    assert untyped_caches(path.read_text(encoding="utf-8")) == []


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_branch_on_a_family_name(path):
    """What sets a family apart is a row of `verifier._FAMILIES`: a new family
    is a new row, not a new branch, in any module of the package."""
    assert family_name_comparisons(path.read_text(encoding="utf-8")) == []


# module -> (sibling modules it must not import, names it must not import from anywhere)
ROUTES_APART = {
    "theta.py": ({"bundles", "genera"}, {"_log_form", "_inverse_form", "log_truncated"}),
    "bundles.py": ({"theta"}, set()),
    "genera.py": ({"theta"}, set()),
}


def route_crossings(source: str, modules: set, names: set) -> list[str]:
    """What `source` imports of `modules` (in any import form, relative or
    absolute) and of `names` (from any module), in the order it appears."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] in modules]
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] in modules:
                found.append(node.module)
            found += [alias.name for alias in node.names if alias.name in modules or alias.name in names]
    return found


def test_the_route_scan_sees_every_import_form():
    source = (
        "from .genera import ahat_form\nfrom . import bundles, qseries\nimport anomaly.genera as g\n"
        "from anomaly.algebra import GradedPoly, _log_form\nfrom .algebra import _exp_form, log_truncated\n"
        "def f():\n    from .bundles import theta_series\n"
    )
    modules, names = ROUTES_APART["theta.py"]
    expected = ["genera", "bundles", "anomaly.genera", "_log_form", "log_truncated", "bundles"]
    assert route_crossings(source, modules, names) == expected


@pytest.mark.parametrize("name", sorted(ROUTES_APART))
def test_the_routes_import_nothing_of_each_other(name):
    """Each route computes its own logs: the theta route's are closed forms,
    the bundle route's a one-variable recurrence on the factorial series in
    `genera`.  The package has no log kernel; the banned names would catch
    one that came back into the theta route."""
    assert route_crossings((SRC / "anomaly" / name).read_text(encoding="utf-8"), *ROUTES_APART[name]) == []


# What `qseries` builds the Eisenstein basis from.  The theta route sums its own
# divisor powers in A's closed-form logarithm, so the two stay separate
# computations, and a wrong sigma in either one shows where they are compared.
EISENSTEIN_NAMES = {"_sigma", "eisenstein", "modular_basis"}


def eisenstein_reads(source: str) -> list[str]:
    """What `source` imports of EISENSTEIN_NAMES, in any import form, then
    what it reads of them as a module attribute, such as `qseries._sigma`."""
    attributes = [
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in EISENSTEIN_NAMES
    ]
    return route_crossings(source, set(), EISENSTEIN_NAMES) + attributes


def test_the_eisenstein_scan_sees_every_form():
    source = (
        "from .qseries import QHalfSeries, _sigma\nfrom anomaly.qseries import eisenstein as e\n"
        "from . import qseries\nx = qseries.modular_basis(4, 3)\ny = qseries.qseries_exp\n"
    )
    assert eisenstein_reads(source) == ["_sigma", "eisenstein", "modular_basis"]


def test_the_theta_route_sums_its_own_divisor_powers():
    """`theta` reads none of `qseries`' Eisenstein series or its divisor sum."""
    assert eisenstein_reads((SRC / "anomaly" / "theta.py").read_text(encoding="utf-8")) == []


def family_name_literals(source: str) -> list[int]:
    """The lines of `source` that hold a family-name string literal anywhere."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in FAMILY_NAMES
    )


def test_the_literal_scan_sees_a_family_name_anywhere():
    source = 'x = "spin"\nf(case="spinc_l")\nrecipe = {"spin_v": ()}\ny = "spins"\n'
    assert family_name_literals(source) == [1, 2, 3]


@pytest.mark.parametrize("name", sorted(ROUTES_APART))
def test_the_routes_name_no_family(name):
    """The routes read their recipes from the family rows; they never name a family."""
    assert family_name_literals((SRC / "anomaly" / name).read_text(encoding="utf-8")) == []



# A power-sum generator name: "s", a family letter and an index, such as sX2 or
# sV1, or "s" before a formatted value in an f-string, as in f"s{name[1:]}".
POWER_SUM_NAME = re.compile(r"(?<![A-Za-z0-9_])s(?:[A-Z](?:\d|\{\})|\{\})")


def power_sum_names(source: str) -> list[int]:
    """The lines of `source` whose string literals or f-strings write a power-sum
    generator name, with each f-string's formatted values read as {}."""
    lines = []
    nested = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            nested.update(id(value) for value in node.values)
            text = "".join(value.value if isinstance(value, ast.Constant) else "{}" for value in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in nested:
            text = node.value
        else:
            continue
        if POWER_SUM_NAME.search(text):
            lines.append(node.lineno)
    return sorted(set(lines))


def power_sum_table_calls(source: str) -> list[int]:
    """The lines of `source` that call a function or method named `power_sum_table`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == "power_sum_table"
    )


def test_the_coordinate_scans_see_every_form():
    source = (
        'a = "sX2"\nb = f"s{name[1:]}"\nc = "pX1^2*sV1"\nd = "pX2"\ne = f"{n}s and {m}"\n'
        'f = "sums"\ng = f"s{family[1:]}{m}"\nh = power_sum_table(8)\ni = row.power_sum_table(8)\n'
        "j = power_sum_table\nk = pontryagin_table(8)\n"
    )
    assert power_sum_names(source) == [1, 2, 3, 7]
    assert power_sum_table_calls(source) == [8, 9]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_one_module_decides_the_coordinates(path):
    """`algebra` alone names the power-sum generators, and `verifier` alone asks
    for a power-sum table: every other module computes in the coordinates of
    the table it is given."""
    source = path.read_text(encoding="utf-8")
    if path.name != "algebra.py":
        assert power_sum_names(source) == []
    if path.name != "verifier.py":
        assert power_sum_table_calls(source) == []


ENVIRONMENT_NAMES = {"environ", "getenv"}


def environment_reads(source: str) -> list[int]:
    """The lines of `source` that read the process environment: `os.environ`
    or `os.getenv`, as an attribute of any name, bare, or imported from `os`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
            or isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ENVIRONMENT_NAMES for alias in node.names)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_environment_scan_sees_every_form():
    source = (
        "import os\nfrom os import environ, getenv\nimport os as system\n"
        "a = os.environ.get('X')\nb = os.getenv('X')\nc = environ['X']\nd = getenv('X')\ne = system.environ\n"
        "f = os.path.join('a', 'b')\nenvironment = 1\n"
    )
    assert environment_reads(source) == [2, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    """A command reads its arguments and its input: no environment variable
    is a second way to set an option."""
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """The public top-level functions of `sources` ({module name: source}),
    as "module.name", that no module reads: by name or as an attribute,
    anywhere but in their own definition and in an `if __name__ ==
    "__main__":` block, which starts a process and calls nothing in the
    package."""

    def reads(node) -> set:
        return {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
        }

    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
                continue
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((module, node.name))
                read |= reads(node) - {node.name}
            else:
                read |= reads(node)
    return [f"{module}.{name}" for module, name in defined if name not in read]


# The public functions that nothing in the package calls, each with its reason.
UNCALLED = {
    "cli.run": "the process entry: the console script and the main block start it",
}


def test_the_caller_scan_sees_every_form():
    sources = {
        "a": "def used():\n    pass\ndef by_attribute():\n    pass\ndef recursive(n):\n    return recursive(n - 1)\n"
             "def entry():\n    pass\ndef _private():\n    pass\nclass C:\n    def method(self):\n        pass\n"
             "if __name__ == '__main__':\n    entry()\n",
        "b": "from a import used\nimport a\nx = used()\ny = a.by_attribute\ndef lonely():\n    return a.C\n",
    }
    assert uncalled_functions(sources) == ["a.recursive", "a.entry", "b.lonely"]


def test_every_public_function_has_a_caller():
    """`src/anomaly` holds what the CLI runs: a public function that only tests
    read belongs in `tests/oracles.py`."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sorted(uncalled_functions(sources)) == sorted(UNCALLED)
