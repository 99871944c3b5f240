import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from lglab import Direction, SlotBinding, SpacetimeEvent, triallog

# property tests draw the same examples on every run, and their timing on a
# loaded machine does not fail them
settings.register_profile("lglab", derandomize=True, deadline=None)
settings.load_profile("lglab")


@pytest.fixture
def magic_binding():
    """The maximal-violation configuration: angles pi/6 apart."""
    return SlotBinding(
        t1=1.0,
        t2=2.0,
        t3=3.0,
        a=Direction(0.0),
        b=Direction(math.pi / 6),
        c=Direction(math.pi / 3),
    )


@pytest.fixture
def spacelike_geometry():
    return (SpacetimeEvent(0.0, 0.0, 0.0, 0.0), SpacetimeEvent(0.0, 1.0, 0.0, 0.0))


@pytest.fixture
def timelike_geometry():
    return (SpacetimeEvent(0.0, 0.0, 0.0, 0.0), SpacetimeEvent(1.0, 0.0, 0.0, 0.0))


class ArraySource:
    """Unit-uniform source fed from a precomputed array (fast test driver)."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)
        self.position = 0

    def next_uniform(self) -> float:
        u = self._values[self.position]
        self.position += 1
        return float(u)


class CountingSource:
    """Wraps another source and counts how many uniforms were consumed."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    def next_uniform(self) -> float:
        self.draws += 1
        return self.inner.next_uniform()


class BlockScanned(AssertionError):
    """A block of a trial log went to the line scanner."""


@contextlib.contextmanager
def layout_scan_only():
    """Within it, the trial-log reader may call its line scanner only for the
    one-row scan at trial 0 that fixes the row codec's layout; any other call
    raises BlockScanned."""
    scan = triallog._scan_lines

    def layout_scan(text, first=0, layout=None):
        if (first, layout) != (0, None) or text.count("\n") != 1:
            raise BlockScanned("a block fell back to the line scanner")
        return scan(text, first, layout)

    with mock.patch.object(triallog, "_scan_lines", layout_scan):
        yield


@pytest.fixture
def no_block_scanned():
    """Fail the test if the trial-log reader scans a block line by line."""
    with layout_scan_only():
        yield
