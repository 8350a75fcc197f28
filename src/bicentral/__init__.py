"""Eigenvector-based ratings for directed graphs and two-sided relations.

The library rates the vertices of a weighted digraph by the unit-norm
positive dominant eigenvector of its adjacency matrix, and generalizes this
to relations between two item sets: forward weights rate one side, reverse
weights (a chosen transform of the forward ones) rate the other, and the two
rating vectors are coupled fixed points of each other.
"""

from bicentral import errors
from bicentral.centrality import (
    BaselineAverages,
    RatingTable,
    ReverseConstruction,
    alternating_iterate,  # benchmark harness only, not in __all__
    baseline_averages,
    compute_nebs,
    compute_necs,
    construct_reverse_for_target,
    detect_degeneracy,
    power_iterate,  # benchmark harness only, not in __all__
    rank,
)
from bicentral.core import (
    Diagnostic,
    NebsResult,
    NecsResult,
    ReverseTransform,
    ValidationReport,
    WeightRelation,
    reverse_matrix,
    validate,
)
from bicentral.io import (
    read_edge_list,
    read_matrix_csv,
    read_transform_table,
    write_matrix_csv,
    write_report,
    write_transform_table,
)
from bicentral.spectral import (
    ConvergenceReport,
    PowerSettings,
    is_irreducible,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineAverages",
    "ConvergenceReport",
    "Diagnostic",
    "NebsResult",
    "NecsResult",
    "PowerSettings",
    "RatingTable",
    "ReverseConstruction",
    "ReverseTransform",
    "ValidationReport",
    "WeightRelation",
    "baseline_averages",
    "compute_nebs",
    "compute_necs",
    "construct_reverse_for_target",
    "detect_degeneracy",
    "errors",
    "is_irreducible",
    "rank",
    "read_edge_list",
    "read_matrix_csv",
    "read_transform_table",
    "reverse_matrix",
    "validate",
    "write_matrix_csv",
    "write_report",
    "write_transform_table",
]
