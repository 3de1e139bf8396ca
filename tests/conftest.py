import functools
import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Keep test cache traffic out of the user's real cache directory."""
    old = os.environ.get("SDLAB_CACHE_DIR")
    os.environ["SDLAB_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if old is None:
        os.environ.pop("SDLAB_CACHE_DIR", None)
    else:
        os.environ["SDLAB_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def integrals_at():
    """`integrate_invariants(backend, resolution)`, each pair computed once
    a session (backends hash by their parameters).  Pass both positionally,
    and never under a patch of the integration path."""
    from sdlab.geometry import integrate_invariants
    return functools.lru_cache(maxsize=None)(integrate_invariants)


@pytest.fixture(scope="session")
def tn1_integrals(integrals_at):
    from sdlab.catalog import get_entry
    return integrals_at(get_entry("taub-nut-1").backend, 4)


@pytest.fixture(scope="session")
def s4_integrals(integrals_at):
    from sdlab.catalog import get_entry
    return integrals_at(get_entry("round-s4").backend, 3)


@pytest.fixture(scope="session")
def schw_integrals(integrals_at):
    from sdlab.catalog import get_entry
    return integrals_at(get_entry("schwarzschild").backend, 4)
