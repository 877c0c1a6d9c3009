"""A test that leaves a file open, a numpy computation that overflows or
yields an invalid value unnoticed, or a call of a deprecated API fails:
every test here runs with ResourceWarning, the unraisable-exception warning
an unclosed file becomes when it is collected, RuntimeWarning and the
deprecation warnings (DeprecationWarning, PendingDeprecationWarning,
FutureWarning) turned into errors, so a numpy API change shows before a
numpy upgrade moves the pinned outputs. Forked pool workers inherit the
filter."""
from pathlib import Path

import pytest

LEAKS_FAIL = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning",
    "error::RuntimeWarning", "error::DeprecationWarning", "error::PendingDeprecationWarning",
    "error::FutureWarning",
)


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(LEAKS_FAIL)
