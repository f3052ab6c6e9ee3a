import os

import pytest

from longcycles import verify
from longcycles.oracle import _pair_array, _pair_counts_cache, _pairs_alpha_tables, _pairs_sep_prefix, _pairs_type_rows


def _clear_pair_caches():
    _pair_counts_cache.clear()
    for derived in (_pair_array, _pairs_alpha_tables, _pairs_sep_prefix, _pairs_type_rows):
        derived.cache_clear()


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """cli.main sets the BLAS thread variables where they are unset; a test
    that calls it in-process leaves them as they were, so that no later
    subprocess inherits them."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture
def clear_pair_caches():
    """A function that drops the pair counts of every n and every table
    derived from them, so the next sweep computes them anew."""
    return _clear_pair_caches


@pytest.fixture
def forbid_suites(monkeypatch):
    """Make every verify suite function fail if it is called."""

    def never(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in (
        "classic_reports",
        "section3_reports",
        "baserecur_reports",
        "formula_vs_oracle_reports",
        "plane_structure_reports",
        "parity_audit",
    ):
        monkeypatch.setattr(verify, name, never)
