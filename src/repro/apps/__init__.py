"""Applications of annotated aggregation: the workloads the paper motivates."""

from repro.apps.deletion import DeletionTracker, propagate_deletions
from repro.apps.explanations import (
    cheapest_derivation,
    explain_tuple,
    minimal_witnesses,
    responsibility,
)
from repro.apps.probabilistic import (
    aggregate_expectation,
    probability,
    tuple_probabilities,
)
from repro.apps.security_views import credential_hom, credential_hom_bag, view_for
from repro.apps.view_maintenance import delta_evaluate

__all__ = [
    "propagate_deletions",
    "DeletionTracker",
    "credential_hom",
    "credential_hom_bag",
    "view_for",
    "probability",
    "tuple_probabilities",
    "aggregate_expectation",
    "delta_evaluate",
    "minimal_witnesses",
    "cheapest_derivation",
    "responsibility",
    "explain_tuple",
]
