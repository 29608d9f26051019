"""Suite-wide settings for the engine tests: a leaked file handle is an error.

A `ResourceWarning` for an unclosed file, and the unraisable-exception
warning that reports one raised during garbage collection, fail the test
that leaked the handle.  The marks go on the items of this directory only.
"""

from pathlib import Path

import pytest

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
