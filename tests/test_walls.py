"""Every known wall in ``walls.WALLS`` still misses its tolerance.

Each row is a strict xfail: the test asserts that the residual meets the
tolerance, so it fails while the wall stands and XPASSes, failing the
suite, once a change mends it.  Only the assertion counts as the wall: an
error raised by the call fails the test.
"""

import pytest

from walls import WALLS


@pytest.mark.parametrize("wall", [
    pytest.param(wall, id=wall.name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"known wall ({wall.item}): {wall.measured:.3g} at its point"))
    for wall in WALLS])
def test_wall_meets_its_tolerance(wall):
    assert wall.call(*wall.point) <= wall.tolerance
