"""Fixtures shared by the test modules."""

import pytest

from quasistar import search, spectra


def clear_threshold_caches():
    spectra._threshold_spectrum.cache_clear()
    spectra._order_table.cache_clear()


@pytest.fixture
def cold_spectrum_cache():
    """Empty the spectrum cache and the order tables, so the kernel really runs.

    They are emptied again afterwards: a table solved under a patched
    ``eigh`` must not serve a later test.
    """
    clear_threshold_caches()
    yield
    clear_threshold_caches()


@pytest.fixture(autouse=True)
def cold_walk_counts():
    """Every test starts without the walk's per-order subset-sum tables, as a fresh process does."""
    search._subset_counts.cache_clear()
