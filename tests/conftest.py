"""A test that leaves a file open, or a numpy computation that overflows or
yields an invalid value unnoticed, fails: every test here runs with
ResourceWarning, the unraisable-exception warning an unclosed file becomes
when it is collected, and RuntimeWarning turned into errors. Forked pool
workers inherit the filter."""
from pathlib import Path

import pytest

LEAKS_FAIL = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning",
    "error::RuntimeWarning",
)


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(LEAKS_FAIL)
