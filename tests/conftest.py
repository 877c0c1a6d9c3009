"""A test that leaves a file open fails: every test here runs with
ResourceWarning, and the unraisable-exception warning it becomes when an
unclosed file is collected, turned into errors."""
from pathlib import Path

import pytest

LEAKS_FAIL = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(LEAKS_FAIL)
