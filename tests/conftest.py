import pytest

from longcycles import verify
from longcycles.oracle import (
    _pair_counts_cache,
    _pair_signatures,
    _pairs_alpha_tables,
    _pairs_by_type,
    _pairs_sep_prefix,
)


def _clear_pair_caches():
    _pair_counts_cache.clear()
    for derived in (_pair_signatures, _pairs_by_type, _pairs_alpha_tables, _pairs_sep_prefix):
        derived.cache_clear()


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
