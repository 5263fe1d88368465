"""Shared fixtures.

Systems are expensive to build, so one memoized factory is shared across
the whole session. The structure-constant cache is pointed at a fresh
temporary directory so test runs never touch (or depend on) the user's
real cache; the directory is removed when the interpreter exits.
"""

import atexit
import os
import shutil
import tempfile

import pytest

_CACHE_DIR = tempfile.mkdtemp(prefix="descent-test-cache-")
atexit.register(shutil.rmtree, _CACHE_DIR, ignore_errors=True)
os.environ["DESCENT_CACHE_DIR"] = _CACHE_DIR

from descent import build_system  # noqa: E402

_MEMO = {}


def get_system(label, allow_rank7=False):
    key = (label, allow_rank7)
    if key not in _MEMO:
        _MEMO[key] = build_system(type=label, allow_rank7=allow_rank7)
    return _MEMO[key]


@pytest.fixture(scope="session")
def system_factory():
    return get_system
