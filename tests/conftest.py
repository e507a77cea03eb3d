"""Tier-1 settings: any warning that leaks out of a test here fails it.

The filter is set per test, not in pyproject.toml, so that it covers this
directory alone: perfbench/selftest.py, which also runs from the repository
root, leaves files open for the garbage collector to close.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
