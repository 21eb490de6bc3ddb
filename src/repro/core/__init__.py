"""DRIM-ANN core: the paper's contribution.

* :mod:`repro.core.square_lut` — multiplier-less conversion (§III-A);
* :mod:`repro.core.perf_model` — the five-phase analytic performance
  model, Eqs. 1–12 (§III-B);
* :mod:`repro.core.params` — index/search parameter bundles;
* :mod:`repro.core.accuracy` — the measured accuracy table a(K,P,C,M,CB);
* :mod:`repro.core.dse` — Bayesian-optimization design-space
  exploration under an accuracy constraint (§III-C);
* :mod:`repro.core.quantized` — integer index data as resident on DPUs;
* :mod:`repro.core.layout` — cluster splitting / duplication / greedy
  heat-balanced allocation (§IV-C);
* :mod:`repro.core.scheduler` — runtime predictor + inter-batch filter
  (§IV-D);
* :mod:`repro.core.engine` — the end-to-end DRIM-ANN engine (§IV-A);
* :mod:`repro.core.breakdown` — timing breakdowns (Fig. 8);
* :mod:`repro.core.persist` — the versioned on-disk index format
  (v2 ``DRIMIDX2`` binary + legacy v1 ``.npz``) behind
  ``DrimAnnEngine.save``/``load``.
"""

from repro.core.square_lut import SquareLut
from repro.core.config import EngineConfig
from repro.core.params import IndexParams, SearchParams, DatasetShape
from repro.core.results import SearchOutcome, ServingOutcome
from repro.core.perf_model import AnalyticPerfModel, HardwareProfile, PhaseEstimate
from repro.core.quantized import QuantizedIndexData, build_quantized_index
from repro.core.layout import LayoutPlan, LayoutConfig, generate_layout, ClusterShard
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig
from repro.core.engine import DrimAnnEngine, EngineReport
from repro.core.breakdown import TimingBreakdown
from repro.core.accuracy import AccuracyTable, measure_accuracy_table
from repro.core.dse import DesignSpaceExplorer, DseResult
from repro.core.persist import (
    IndexBundle,
    IndexFormatError,
    index_info,
    load_index,
    load_index_bundle,
    save_index,
    verify_index,
)
from repro.core.serving import (
    BatchingPolicy,
    PoissonArrivals,
    ServingReport,
    simulate_serving,
)
from repro.core.opq_preprocess import OpqPreprocessor
from repro.core.autotune import BatchTuneResult, tune_batch_size
from repro.core.frontier import FrontierPoint, knee_point, pareto_frontier

__all__ = [
    "SquareLut",
    "EngineConfig",
    "SearchOutcome",
    "ServingOutcome",
    "IndexParams",
    "SearchParams",
    "DatasetShape",
    "AnalyticPerfModel",
    "HardwareProfile",
    "PhaseEstimate",
    "QuantizedIndexData",
    "build_quantized_index",
    "LayoutPlan",
    "LayoutConfig",
    "generate_layout",
    "ClusterShard",
    "RuntimeScheduler",
    "SchedulerConfig",
    "DrimAnnEngine",
    "EngineReport",
    "TimingBreakdown",
    "AccuracyTable",
    "measure_accuracy_table",
    "DesignSpaceExplorer",
    "DseResult",
    "IndexBundle",
    "IndexFormatError",
    "index_info",
    "load_index",
    "load_index_bundle",
    "save_index",
    "verify_index",
    "BatchingPolicy",
    "PoissonArrivals",
    "ServingReport",
    "simulate_serving",
    "OpqPreprocessor",
    "BatchTuneResult",
    "tune_batch_size",
    "FrontierPoint",
    "knee_point",
    "pareto_frontier",
]
