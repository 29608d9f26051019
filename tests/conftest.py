"""Suite-wide settings for the engine tests: a leaked file handle is an error.

A `ResourceWarning` for an unclosed file, and the unraisable-exception
warning that reports one raised during garbage collection, fail the test
that leaked the handle.  The marks go on the items of this directory only.

The `fresh_memos` fixture isolates a test that rebuilds the engine's
generator tables or patches an engine function: it clears every memo of the
engine modules before and after the test, and gives the test an empty table
registry (`algebra._TABLES`), which is restored afterwards.
"""

from pathlib import Path

import pytest

from anomaly import algebra, bundles, genera, qseries, theta, verifier

HERE = Path(__file__).resolve().parent
STRICT = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            for mark in STRICT:
                item.add_marker(mark)


def clear_memos():
    """Empty every `lru_cache` memo that an engine module binds."""
    for module in (algebra, bundles, genera, theta, qseries, verifier):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_memos(monkeypatch):
    """No memo of the engine and no interned table outlives the test, or
    reaches into it: the tables it builds are equal to the interned ones, but
    not the same instances, so a memo kept across would mix the two."""
    clear_memos()
    monkeypatch.setattr(algebra, "_TABLES", {})
    yield
    clear_memos()
