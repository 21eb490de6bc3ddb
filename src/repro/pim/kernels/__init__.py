"""DPU kernels: functional + cycle-counted implementations of the five
cluster-search phases.

Each kernel returns ``(numeric_result, KernelCost)``. Results are exact
integer math over the DPU-resident data (vectorized NumPy stands in for
the tasklet loops); costs are the instruction mixes and MRAM traffic
those loops would incur on real DPUs, derived operation-by-operation
from the algorithms in the paper's Fig. 1.

Each kernel module also declares a ``CONTRACT`` — its
:class:`~repro.analysis.contracts.ResourceContract`, the closed-form
claim of the same costs plus WRAM residency and DMA granularity —
collected here in :data:`KERNEL_CONTRACTS` for the static analyzer
(``repro lint``).
"""

from repro.pim.kernels import (
    cluster_locate as _cluster_locate,
    distance_scan as _distance_scan,
    lut_build as _lut_build,
    residual as _residual,
    topk_sort as _topk_sort,
)
from repro.pim.kernels.cluster_locate import run_cluster_locate
from repro.pim.kernels.residual import residual_cost, run_residual
from repro.pim.kernels.lut_build import lut_build_cost, run_lut_build
from repro.pim.kernels.distance_scan import (
    distance_scan_cost,
    run_distance_scan,
    scan_distances,
    scan_distances_stacked,
)
from repro.pim.kernels.topk_sort import (
    expected_heap_updates,
    run_topk_sort,
    select_topk,
    topk_rows,
    topk_sort_cost,
)

#: kernel name -> declared resource contract, in pipeline order.
KERNEL_CONTRACTS = {
    mod.CONTRACT.kernel: mod.CONTRACT
    for mod in (_cluster_locate, _residual, _lut_build, _distance_scan, _topk_sort)
}

__all__ = [
    "KERNEL_CONTRACTS",
    "run_cluster_locate",
    "run_residual",
    "run_lut_build",
    "run_distance_scan",
    "run_topk_sort",
    "expected_heap_updates",
    "residual_cost",
    "lut_build_cost",
    "distance_scan_cost",
    "topk_sort_cost",
    "scan_distances",
    "scan_distances_stacked",
    "select_topk",
    "topk_rows",
]
