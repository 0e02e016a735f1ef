import tracemalloc

import pytest


def _traced_peak(call, warm=False):
    """``call()``'s result and the peak of the memory traced while it ran, in bytes.  With ``warm`` it runs once
    untraced first, so that what it caches on first use (a grid's points, floatfmt's tables) stays out of the peak."""
    if warm:
        call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The one traced-peak helper of the memory tests: ``traced_peak(call, warm=False) -> (result, bytes)``."""
    return _traced_peak
