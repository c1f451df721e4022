"""Shared test setup."""

import pytest

from fraclab import quadrature


@pytest.fixture(autouse=True)
def empty_memo_stores():
    """Start every test with empty memo stores: data tokens such as
    ``("ones", 2)`` recur across tests, and a value built by an earlier
    test would hide the work a test counts."""
    for store in quadrature._MEMO_STORES:
        store.clear()
    yield
