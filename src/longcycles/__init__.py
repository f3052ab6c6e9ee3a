"""Exact enumeration for products of long cycles in symmetric groups:
closed-form counts, an exhaustive brute-force oracle, and identity
verification suites, all in exact integer/rational arithmetic.

The closed forms and the partition and permutation algebra load with the
package.  The oracle and plane names load numpy, so their modules are
imported on first use of one of their names."""

import importlib

from ._version import __version__
from .errors import (
    DimensionMismatchError,
    DomainError,
    ExactnessError,
    NoSuchPartError,
    NotSeparatedError,
    ResourceLimitError,
)
from .formulas import (
    CountQuery,
    boccara,
    separated_pairs_by_count,
    evaluate,
    even_factorization_count,
    hultman_expected,
    pairs_by_type,
    separating_by_d,
    separating_total,
    separation_probability,
    zagier_stanley,
)
from .partitions import (
    Composition,
    IntegerPartition,
    PartitionSequence,
    binomial,
    compositions,
    falling_factorial,
    kappa,
    lambda_coeff,
    odd_refinements,
    partition_sequences,
    partitions,
    refinement_targets,
    refinement_targets_seq,
    separated_stirling,
    stirling_first,
    z_of,
    z_of_seq,
)
from .permutations import (
    Permutation,
    alpha_type,
    canonical_of_type,
    compose,
    cycle_type,
    d_vector,
    finest_blocks,
    is_alpha_separated,
    long_cycle_iter,
)

# name -> the submodule that defines it, imported by __getattr__ on first use
_LAZY = {
    "CountTable": "oracle",
    "OracleResult": "oracle",
    "count_factorizations": "oracle",
    "expected_k_cycles": "oracle",
    "pairs_separating_prefix": "oracle",
    "sweep_fixed_diagonal": "oracle",
    "sweep_pairs": "oracle",
    "ExceedanceStats": "plane",
    "PlanePermutation": "plane",
}

__all__ = [
    "__version__",
    "Composition",
    "CountQuery",
    "CountTable",
    "DimensionMismatchError",
    "DomainError",
    "ExactnessError",
    "ExceedanceStats",
    "IntegerPartition",
    "NoSuchPartError",
    "NotSeparatedError",
    "OracleResult",
    "PartitionSequence",
    "Permutation",
    "PlanePermutation",
    "ResourceLimitError",
    "alpha_type",
    "binomial",
    "boccara",
    "canonical_of_type",
    "separated_pairs_by_count",
    "compose",
    "compositions",
    "count_factorizations",
    "cycle_type",
    "d_vector",
    "evaluate",
    "even_factorization_count",
    "expected_k_cycles",
    "falling_factorial",
    "finest_blocks",
    "hultman_expected",
    "is_alpha_separated",
    "kappa",
    "lambda_coeff",
    "long_cycle_iter",
    "odd_refinements",
    "pairs_by_type",
    "pairs_separating_prefix",
    "partition_sequences",
    "partitions",
    "refinement_targets",
    "refinement_targets_seq",
    "separated_stirling",
    "separating_by_d",
    "separating_total",
    "separation_probability",
    "stirling_first",
    "sweep_fixed_diagonal",
    "sweep_pairs",
    "z_of",
    "z_of_seq",
    "zagier_stanley",
]


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
