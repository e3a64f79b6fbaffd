"""Every test starts and ends with a cold ``decompose`` cache.

``decompose`` keeps its last cuts per process.  Tests that count the frames
a command builds, or that patch the frame, need it to build anew.
"""
import pytest

from jcgraph.code_construction import decompose


@pytest.fixture(autouse=True)
def cold_cut_cache():
    decompose.cache_clear()
    yield
    decompose.cache_clear()
