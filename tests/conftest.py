import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from lglab import Direction, SlotBinding, SpacetimeEvent, TrialLog, triallog

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


def log_with(column, value, dtype, first_index=0):
    """Ten trials of valid pairs and outcomes, but trial 5 has the given value
    in the given column, which has the given dtype."""
    columns = {
        "pair_codes": np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0], dtype=np.uint8),
        "s_first": np.ones(10, dtype=np.int8),
        "s_second": -np.ones(10, dtype=np.int8),
    }
    columns[column] = columns[column].astype(dtype)
    columns[column][5] = value
    return TrialLog(*columns.values(), None, "test", first_index)


# (column, value, dtype, the refusal) of a log_with chunk that the estimators'
# fold and both trial-log writers refuse, in the same words
BAD_CODES = [
    ("pair_codes", 3, np.uint8, "pair code 3 at trial 5 is not 0, 1 or 2"),
    ("pair_codes", 255, np.uint8, "pair code 255 at trial 5 is not 0, 1 or 2"),
    ("pair_codes", -1, np.int8, "pair code -1 at trial 5 is not 0, 1 or 2"),
    ("pair_codes", 7, np.int64, "pair code 7 at trial 5 is not 0, 1 or 2"),
    # every code is valid, but a float or bool column is not a column of codes
    ("pair_codes", 1, np.float64, "pair codes must be integers 0, 1 or 2, got dtype float64"),
    ("pair_codes", True, np.bool_, "pair codes must be integers 0, 1 or 2, got dtype bool"),
    ("s_first", 0, np.int8, "outcome 0 at trial 5 is not 1 or -1"),
    ("s_second", 7, np.int8, "outcome 7 at trial 5 is not 1 or -1"),
    ("s_first", 255, np.uint8, "outcome 255 at trial 5 is not 1 or -1"),
    # outcomes, too, are an integer column, whatever its values
    ("s_second", 1.5, np.float64, "outcomes must be 1 or -1, got dtype float64"),
    ("s_first", -1.0, np.float64, "outcomes must be 1 or -1, got dtype float64"),
    ("s_first", False, np.bool_, "outcomes must be 1 or -1, got dtype bool"),
    ("s_second", True, np.bool_, "outcomes must be 1 or -1, got dtype bool"),
    ("s_second", 1, np.complex128, "outcomes must be 1 or -1, got dtype complex128"),
]
