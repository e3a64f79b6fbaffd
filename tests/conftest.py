"""Every test starts and ends with cold per-process caches.

``decompose`` keeps its last cuts, ``tail_safe_xmax`` its last searches,
``cli._ladder_moments`` each family's spot check and ``gk_states._TABLES``
each family's log c_k and d_k tables.  Tests that count the frames, tail
bounds, rules or tables a command builds, or that patch what they read, need
them built anew.
"""
import pytest

from jcgraph import cli, gk_states
from jcgraph.code_construction import decompose
from jcgraph.gk_states import tail_safe_xmax

CACHES = (decompose, tail_safe_xmax, cli._ladder_moments)


def _clear():
    for cache in CACHES:
        cache.cache_clear()
    gk_states._TABLES.clear()


@pytest.fixture(autouse=True)
def cold_caches():
    _clear()
    yield
    _clear()
