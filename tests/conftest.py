"""Shared test setup."""

import numpy as np
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


class NodeLog:
    """Delegates to a field, keeping its metadata and a copy of every batch
    of points it is called on."""

    def __init__(self, field):
        self.field = field
        self.batches = []

    def __call__(self, pts):
        self.batches.append(np.array(pts, copy=True))
        return self.field(pts)

    def __getattr__(self, name):
        return getattr(self.field, name)

    def assert_each_node_once(self, count):
        """No point was read twice, compared bit for bit, and ``count``
        points were read in all."""
        pts = np.ascontiguousarray(np.concatenate(self.batches))
        rows = pts.view(np.dtype((np.void, pts.dtype.itemsize
                                  * pts.shape[1])))
        assert len(np.unique(rows)) == len(pts) == count


@pytest.fixture
def node_log():
    """:class:`NodeLog`, which wraps a field to check the points it reads."""
    return NodeLog
