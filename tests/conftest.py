"""Every test starts and ends with cold per-process caches.

``decompose`` keeps its last cuts, ``tail_safe_xmax`` its last searches and
``cli._ladder_moments`` each ladder's moment diagonals and spot check.  Tests
that count the frames, tail bounds, rules or diagonals a command builds, or
that patch what they read, need them built anew.
"""
import pytest

from jcgraph import cli
from jcgraph.code_construction import decompose
from jcgraph.gk_states import tail_safe_xmax

CACHES = (decompose, tail_safe_xmax, cli._ladder_moments)


@pytest.fixture(autouse=True)
def cold_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
