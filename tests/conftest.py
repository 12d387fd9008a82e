from __future__ import annotations

import gc
import tracemalloc

import pytest


@pytest.fixture
def retained_bytes():
    """``measure(fn, *args)`` -> (bytes that ``fn(*args)`` allocated and its
    result still holds, the result), as traced by ``tracemalloc``.
    Temporaries freed before ``fn`` returns do not count."""

    def measure(fn, *args):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return after - before, result

    return measure
