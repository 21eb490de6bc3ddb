"""Shared testing support: canonical configurations and golden runs.

This subpackage is the single source of truth for the *canonical
configurations* — small, fully deterministic engine setups whose
behaviour is frozen by the regression harness in ``tests/`` (recall
against the exact brute-force oracle, per-kernel and end-to-end cycle
counts). ``tools/update_goldens.py`` regenerates the stored goldens
from the same definitions, so the tests and the updater can never
drift apart.
"""

from repro.testing.goldens import (
    CANONICAL_CONFIGS,
    GOLDEN_ADAPTIVE_MODES,
    ROUND_SIZES,
    brute_force_topk,
    build_canonical_engine,
    canonical_dataset,
    canonical_record,
    oracle_recall,
    run_canonical,
    run_all_adaptive,
    run_all_canonical,
)

__all__ = [
    "CANONICAL_CONFIGS",
    "GOLDEN_ADAPTIVE_MODES",
    "ROUND_SIZES",
    "brute_force_topk",
    "build_canonical_engine",
    "canonical_dataset",
    "canonical_record",
    "oracle_recall",
    "run_canonical",
    "run_all_adaptive",
    "run_all_canonical",
]
