"""Offline data-layout generation (§IV-C).

Three mechanisms, one per load-imbalance observation:

* **Data partition** (Observation 1: unbalanced cluster sizes) — the
  splitter divides clusters larger than ``min_split_size`` into
  near-equal parts placed on different DPUs, shrinking the per-task DC
  and TS time of giant clusters. Each part needs its own LUT build, so
  splitting trades LC overhead for balance — the U-shaped curve of
  Fig. 12(a).
* **Data duplication** (Observation 2: multiple queries hitting one
  cluster per batch) — the duplicator replicates the hottest clusters
  (heat estimated from a sample query set) up to a per-DPU memory
  budget; replicas let the runtime scheduler spread concurrent
  accesses, the saturating gain of Fig. 12(b).
* **Data allocation** (Observation 3: skewed access frequency) — a
  greedy least-heat-first assignment of shards to DPUs, so hot shards
  never pile onto one DPU (Fig. 11(b)); MRAM capacity is respected and
  sibling shards (parts of one replica, or copies of one cluster)
  repel each other across DPUs.

The output :class:`LayoutPlan` maps every original cluster to its
replica groups; each replica group is a list of shard keys (parts).
A (query, cluster) task executes as one (query, part) task per part of
one chosen replica group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.quantized import QuantizedIndexData
from repro.utils import ensure_rng


@dataclass
class ClusterShard:
    """A placeable unit: one part of one replica of one cluster."""

    shard_key: str
    cluster_id: int
    replica_id: int
    part_id: int
    point_rows: np.ndarray  # row indices into the cluster's arrays
    heat: float  # estimated load contribution

    @property
    def num_points(self) -> int:
        return len(self.point_rows)


@dataclass(frozen=True)
class LayoutConfig:
    """Layout-generation knobs."""

    # Clusters above this size are split into ceil(size/min_split_size)
    # parts. None disables splitting (Fig. 11 baseline arm).
    min_split_size: Optional[int] = None
    # Max extra copies per cluster (0 disables duplication).
    max_copies: int = 2
    # Per-DPU MRAM budget devoted to duplicated shards, bytes.
    dup_budget_per_dpu: int = 6 * 1024 * 1024
    # Allocation policy: "heat_greedy" (the paper's) or "id_order"
    # (the Fig. 11 baseline that assigns clusters to DPUs in ID order).
    allocation: str = "heat_greedy"

    def __post_init__(self) -> None:
        if self.min_split_size is not None and self.min_split_size < 1:
            raise ValueError("min_split_size must be >= 1 or None")
        if self.max_copies < 0:
            raise ValueError("max_copies must be >= 0")
        if self.allocation not in ("heat_greedy", "id_order"):
            raise ValueError(
                f"allocation must be 'heat_greedy' or 'id_order', got {self.allocation!r}"
            )


@dataclass
class LayoutPlan:
    """The generated layout."""

    shards: Dict[str, ClusterShard]
    placement: Dict[str, int]  # shard_key -> dpu_id
    replica_groups: Dict[int, List[List[str]]]  # cluster -> [replica -> [parts]]
    num_dpus: int

    def shards_on(self, dpu_id: int) -> List[str]:
        return [k for k, d in self.placement.items() if d == dpu_id]

    def replica_count(self, cluster_id: int) -> int:
        return len(self.replica_groups[cluster_id])

    def heat_per_dpu(self) -> np.ndarray:
        heat = np.zeros(self.num_dpus)
        for key, dpu in self.placement.items():
            heat[dpu] += self.shards[key].heat
        return heat


def task_cost_weights(d: int, m: int, cb: int) -> Tuple[float, float]:
    """Eq. 15's task costs in DPU instruction slots, from the kernel cost
    model, for dimension ``d``, ``m`` subspaces and ``cb`` codewords:
    ``(lut_weight, point_weight)``; a task over ``x`` points costs
    ``lut_weight + x * point_weight``."""
    lut_weight = 2.0 * d * cb + d * cb + 2.0 * m * cb  # l_LUT: LC per task
    point_weight = (3.0 * m - 1.0) + 2.0  # l_calu (DC) + l_sortu (TS)
    return lut_weight, point_weight


def estimate_cluster_heat(
    index: QuantizedIndexData,
    sample_queries: Optional[np.ndarray],
    nprobe: int,
    *,
    lut_weight: float,
    point_weight: float,
    smoothing: float = 0.5,
) -> np.ndarray:
    """Heat = access frequency x per-access latency estimate (Eq. 15).

    ``lut_weight`` is the fixed LC cost per (query, cluster) access and
    ``point_weight`` the per-point DC+TS cost; both in arbitrary
    consistent units (the scheduler uses cycles, see
    :func:`task_cost_weights`). Without ``sample_queries`` every
    cluster counts one access: heat is the Eq. 15 latency of its live
    rows (size correlates with access frequency, §IV-C).

    ``smoothing`` is an additive pseudo-count on the sampled access
    frequency. Without it, clusters the sample never probed carry zero
    heat and the greedy allocator piles them all onto whichever DPU is
    currently coolest — a single DPU ends up hosting every "cold"
    cluster, which is catastrophic when the live workload drifts away
    from the sample (hot sets move in real retrieval streams). The
    pseudo-count keeps unsampled clusters' heat proportional to their
    size, so they spread like everything else.
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    # Live sizes: tombstoned rows no longer reach TS, so they stop
    # counting toward heat (identical to cluster_sizes() when nothing
    # was deleted — golden ledgers are unaffected).
    sizes = index.cluster_live_sizes().astype(np.float64)
    if sample_queries is None:
        return sizes * point_weight + lut_weight
    probes = index.locate(sample_queries, nprobe)
    freq = np.bincount(probes.ravel(), minlength=index.nlist).astype(np.float64)
    freq += smoothing
    return freq * (lut_weight + point_weight * sizes)


def generate_layout(
    index: QuantizedIndexData,
    num_dpus: int,
    cluster_heat: np.ndarray,
    config: LayoutConfig = LayoutConfig(),
    *,
    seed=None,
) -> LayoutPlan:
    """Split, duplicate, and allocate clusters onto DPUs."""
    if num_dpus <= 0:
        raise ValueError("num_dpus must be > 0")
    cluster_heat = np.asarray(cluster_heat, dtype=np.float64)
    if cluster_heat.shape != (index.nlist,):
        raise ValueError(
            f"cluster_heat must have shape ({index.nlist},), got {cluster_heat.shape}"
        )
    rng = ensure_rng(seed)
    sizes = index.cluster_sizes()

    # ----- duplication decision (whole clusters) -------------------------
    copies = np.zeros(index.nlist, dtype=np.int64)
    if config.max_copies > 0:
        bytes_per_point = (
            index.cluster_codes[0].dtype.itemsize * index.num_subspaces + 8
        )
        budget_total = config.dup_budget_per_dpu * num_dpus
        order = np.argsort(-cluster_heat, kind="stable")
        spent = 0
        for cid in order:
            if cluster_heat[cid] <= 0:
                break
            for _ in range(config.max_copies):
                cost = int(sizes[cid]) * bytes_per_point + index.dim
                if spent + cost > budget_total:
                    break
                if copies[cid] >= config.max_copies:
                    break
                copies[cid] += 1
                spent += cost

    # ----- splitting + shard construction --------------------------------
    shards: Dict[str, ClusterShard] = {}
    replica_groups: Dict[int, List[List[str]]] = {}
    for cid in range(index.nlist):
        n = int(sizes[cid])
        if config.min_split_size is not None and n > config.min_split_size:
            num_parts = -(-n // config.min_split_size)  # ceil
        else:
            num_parts = 1
        part_rows = np.array_split(np.arange(n), num_parts)
        total_reps = 1 + int(copies[cid])
        groups: List[List[str]] = []
        for rep in range(total_reps):
            group: List[str] = []
            for part, rows in enumerate(part_rows):
                key = f"c{cid}_r{rep}_p{part}"
                # Heat divides across parts (each part does 1/parts of
                # the DC work) and across replicas (traffic splits).
                shard_heat = cluster_heat[cid] / (num_parts * total_reps)
                shards[key] = ClusterShard(
                    shard_key=key,
                    cluster_id=cid,
                    replica_id=rep,
                    part_id=part,
                    point_rows=rows,
                    heat=shard_heat,
                )
                group.append(key)
            groups.append(group)
        replica_groups[cid] = groups

    # ----- allocation ------------------------------------------------------
    placement: Dict[str, int] = {}
    if config.allocation == "id_order":
        # Baseline (paper Fig. 11): "clusters are allocated to DPUs in
        # ID order" — contiguous blocks of cluster ids per DPU,
        # ignoring heat.
        ordered = sorted(
            shards.values(), key=lambda s: (s.cluster_id, s.replica_id, s.part_id)
        )
        n = len(ordered)
        for i, shard in enumerate(ordered):
            placement[shard.shard_key] = min(i * num_dpus // n, num_dpus - 1)
    else:
        # Greedy least-heat-first with sibling repulsion: place hot
        # shards first, each onto the least-loaded DPU that holds no
        # sibling (same cluster) shard if such a DPU exists.
        dpu_heat = np.zeros(num_dpus)
        dpu_clusters: List[set] = [set() for _ in range(num_dpus)]
        ordered = sorted(shards.values(), key=lambda s: -s.heat)
        for shard in ordered:
            cand = np.argsort(dpu_heat, kind="stable")
            chosen = None
            for dpu in cand:
                if shard.cluster_id not in dpu_clusters[dpu]:
                    chosen = int(dpu)
                    break
            if chosen is None:  # more shards of a cluster than DPUs
                chosen = int(cand[0])
            placement[shard.shard_key] = chosen
            dpu_heat[chosen] += shard.heat
            dpu_clusters[chosen].add(shard.cluster_id)

    return LayoutPlan(
        shards=shards,
        placement=placement,
        replica_groups=replica_groups,
        num_dpus=num_dpus,
    )
