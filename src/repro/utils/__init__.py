"""Shared utilities: seeded RNG helpers, validation, backoff, top-k merge."""

from repro.utils.backoff import BackoffPolicy, BackoffSequence
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_2d,
    check_count,
    check_dtype,
    check_finite,
    check_operands,
    check_positive,
    check_rows,
    check_same_dim,
)
from repro.utils.topk_merge import merge_topk_pools, topk_canonical

__all__ = [
    "merge_topk_pools",
    "topk_canonical",
    "BackoffPolicy",
    "BackoffSequence",
    "ensure_rng",
    "spawn_rngs",
    "check_2d",
    "check_count",
    "check_dtype",
    "check_finite",
    "check_operands",
    "check_positive",
    "check_rows",
    "check_same_dim",
]
