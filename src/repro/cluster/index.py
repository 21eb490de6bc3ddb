"""Rack-scale sharding: one IVF-PQ index across N engine replicas.

The single-platform engine tops out at one PIM system's DPU count; the
ROADMAP's "living index at cluster scale" tier puts several platforms
behind one frontend. This module is the *data* half of that tier:

* :func:`partition_clusters` — the paper's heat-greedy allocator
  (§IV-C, Observation 3) reapplied at rack granularity: IVF clusters
  are bins-packed onto shards least-loaded-first so no shard
  concentrates the hot set;
* :class:`ClusterIndex` — the global routing index (integer centroids,
  used by the frontend for one global CL per batch) plus, per shard, a
  sub-:class:`~repro.core.quantized.QuantizedIndexData` over the
  clusters it owns and ``replication`` independently built engine
  replicas of it.

Replicas of one shard are built from the same sub-index with the same
seed, so they return **bit-identical** answers — the frontend's hedged
requests and crash failover can substitute one replica's response for
another's without perturbing results. Because shards own *disjoint*
cluster subsets and the engine's merge is the canonical
``(distance, id)`` tie-break, the union of per-shard top-k pools
contains every global top-k candidate, and the frontend's merge is
bit-identical to the single-engine oracle
(:meth:`~repro.core.quantized.QuantizedIndexData.reference_search`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.ann.ivfpq import IVFPQIndex
from repro.core.adaptive import cluster_radii_sq
from repro.core.config import EngineConfig
from repro.core.engine import DrimAnnEngine
from repro.core.layout import estimate_cluster_heat, task_cost_weights
from repro.core.persist import (
    IndexFormatError,
    _atomic_write,
    load_index_bundle,
    save_index,
)
from repro.core.quantized import QuantizedIndexData, build_quantized_index
from repro.utils import check_2d

#: Manifest identity for on-disk cluster directories.
_CLUSTER_MAGIC = "drimann-cluster-index"
CLUSTER_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClusterConfig:
    """Rack topology: how many shards, how many replicas of each.

    ``replication`` is the number of independent engine replicas
    serving every shard (1 = no redundancy). A shard stays available —
    and the cluster stays bit-exact — as long as one of its replicas
    survives.
    """

    num_shards: int = 4
    replication: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def num_nodes(self) -> int:
        return self.num_shards * self.replication


def partition_clusters(cluster_heat: np.ndarray, num_shards: int) -> np.ndarray:
    """Greedy least-loaded-first cluster→shard assignment.

    The same policy the intra-platform allocator uses for shards→DPUs
    (:func:`repro.core.layout.generate_layout`), one level up: visit
    clusters hottest-first (stable order) and place each on the shard
    with the least accumulated heat, lowest id on ties. Returns the
    owner shard id per cluster, shape ``(nlist,)``.
    """
    heat = np.asarray(cluster_heat, dtype=np.float64)
    if heat.ndim != 1:
        raise ValueError(f"cluster_heat must be 1-D, got shape {heat.shape}")
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    owner = np.zeros(len(heat), dtype=np.int64)
    shard_heat = np.zeros(num_shards)
    for cid in np.argsort(-heat, kind="stable"):
        s = int(np.argmin(shard_heat))  # lowest id wins ties
        owner[cid] = s
        shard_heat[s] += heat[cid]
    return owner


def _sub_index(
    quantized: QuantizedIndexData, owned: np.ndarray
) -> QuantizedIndexData:
    """The shard-local index over ``owned`` global cluster ids.

    Local cluster ``i`` is global cluster ``owned[i]``; point ids stay
    global, so per-shard results merge directly.
    """
    masks = quantized.tombstone_masks()
    return QuantizedIndexData(
        centroids=quantized.centroids[owned].copy(),
        codebooks=quantized.codebooks,
        cluster_ids=[quantized.cluster_ids[int(c)] for c in owned],
        cluster_codes=[quantized.cluster_codes[int(c)] for c in owned],
        tombstones=(
            None if masks is None else [masks[int(c)].copy() for c in owned]
        ),
    )


@dataclass
class ShardHandle:
    """One shard: its owned clusters, id maps, and engine replicas."""

    shard_id: int
    global_cids: np.ndarray  # (n_owned,) sorted global cluster ids
    global_to_local: np.ndarray  # (nlist,) int64, -1 where not owned
    sub_index: QuantizedIndexData
    engines: List[DrimAnnEngine] = field(default_factory=list)

    @property
    def num_replicas(self) -> int:
        return len(self.engines)

    def local_probes(self, global_probes: np.ndarray) -> np.ndarray:
        """Map a global ``(nq, nprobe)`` probe matrix to local ids.

        Probes this shard does not own become ``-1`` (the engine's
        probe-skip sentinel), and so do ``-1`` padding slots (budget
        truncation) — they must not wrap to the last cluster.
        """
        global_probes = np.asarray(global_probes)
        local = self.global_to_local[np.maximum(global_probes, 0)]
        return np.where(global_probes >= 0, local, -1)


class ClusterIndex:
    """A sharded IVF-PQ index: global router + per-shard engines.

    Nodes are numbered ``shard_id * replication + replica_id``; the
    frontend's :class:`~repro.faults.plan.NodeFaultPlan` indexes this
    space. Close (or use as a context manager) to release every shard
    engine's data plane.
    """

    def __init__(
        self,
        router: QuantizedIndexData,
        params,
        config: ClusterConfig,
        owner: np.ndarray,
        shards: List[ShardHandle],
    ) -> None:
        self.router = router
        self.params = params
        self.config = config
        self.owner = owner
        self.shards = shards

    # ----- topology -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    @property
    def replication(self) -> int:
        return self.config.replication

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def shard_of_node(self, node_id: int) -> int:
        return node_id // self.replication

    def node_id(self, shard_id: int, replica_id: int) -> int:
        return shard_id * self.replication + replica_id

    def node_engine(self, node_id: int) -> DrimAnnEngine:
        shard = self.shards[self.shard_of_node(node_id)]
        return shard.engines[node_id % self.replication]

    # ----- search helpers ---------------------------------------------------
    def locate(self, queries: np.ndarray) -> np.ndarray:
        """Global CL: ``(nq, nprobe)`` global cluster ids, nearest first."""
        return self.router.locate(queries, self.params.nprobe)

    def locate_with_distances(self, queries: np.ndarray):
        """Global CL keeping the int64 centroid distances.

        ``(ids, dists)`` — the statistics the frontend's adaptive
        budgets are computed from (see :mod:`repro.core.adaptive`).
        """
        return self.router.locate_with_distances(queries, self.params.nprobe)

    def oracle_search(self, queries: np.ndarray):
        """The single-engine gold standard the cluster must match."""
        return self.router.reference_search(
            queries, self.params.k, self.params.nprobe
        )

    # ----- persistence ------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist the rack to ``directory`` (router + one file per shard).

        Layout: ``router.drim`` (the global routing index),
        ``shard_NNNN.drim`` (each shard's sub-index with its engines'
        intra-platform cluster heat, so a reload reproduces the exact
        DPU layout, and its cluster radii, so a reload's bound-mode
        search need not recompute them), and ``manifest.json``. The
        manifest is written *last* and atomically — a crash mid-save
        leaves either the old manifest (old rack still loadable) or no
        manifest (directory recognizably incomplete), never a manifest
        pointing at missing shard files.
        """
        os.makedirs(directory, exist_ok=True)
        save_index(self.router, os.path.join(directory, "router.drim"))
        shard_entries = []
        for shard in self.shards:
            fname = f"shard_{shard.shard_id:04d}.drim"
            heat = shard.engines[0].cluster_heat if shard.engines else None
            save_index(
                shard.sub_index,
                os.path.join(directory, fname),
                cluster_heat=heat,
                cluster_radii=cluster_radii_sq(shard.sub_index),
            )
            shard_entries.append(
                {
                    "shard_id": shard.shard_id,
                    "file": fname,
                    "global_cids": [int(c) for c in shard.global_cids],
                }
            )
        manifest = {
            "magic": _CLUSTER_MAGIC,
            "format_version": CLUSTER_FORMAT_VERSION,
            "num_shards": self.config.num_shards,
            "replication": self.config.replication,
            "nlist": int(self.router.nlist),
            "num_subspaces": int(self.router.num_subspaces),
            "codebook_size": int(self.router.codebook_size),
            "owner": [int(s) for s in self.owner],
            "shards": shard_entries,
        }
        payload = json.dumps(manifest, indent=2, sort_keys=True)

        def _write(f) -> None:
            f.write(payload.encode("utf-8"))

        _atomic_write(os.path.join(directory, "manifest.json"), _write)

    # ----- lifecycle --------------------------------------------------------
    def close(self) -> None:
        for shard in self.shards:
            for engine in shard.engines:
                engine.close()

    def __enter__(self) -> "ClusterIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_cluster_index(
    base: np.ndarray,
    config: EngineConfig,
    cluster: ClusterConfig,
    *,
    heat_queries: Optional[np.ndarray] = None,
    prebuilt_quantized: Optional[QuantizedIndexData] = None,
    seed=None,
) -> ClusterIndex:
    """Train (or adopt) one global index and shard it across engines.

    ``config`` describes each *node*: every replica gets its own PIM
    system of ``config.system.num_dpus`` DPUs over its shard's
    sub-index. ``config.index.nlist`` is the global cluster count; each
    shard engine is built with ``nlist`` equal to its owned-cluster
    count (and ``nprobe`` clamped to it) — the frontend always routes
    explicit probes, so shard-local CL parameters are never exercised.

    Replicas of one shard share the sub-index and the build seed, so
    their answers are bit-identical (failover invariant). DPU-level
    fault plans and OPQ are out of scope at rack granularity and
    rejected explicitly.
    """
    if config.use_opq:
        raise ValueError(
            "cluster sharding does not support use_opq: the rotation is a "
            "corpus-level preprocess; apply it before building the cluster"
        )
    if config.faults is not None:
        raise ValueError(
            "config.faults is DPU-granularity; node faults belong to the "
            "frontend's NodeFaultPlan — pass faults=None here"
        )
    base = check_2d(base, "base")
    params = config.index
    params.validate_for(base.shape[1])

    if prebuilt_quantized is not None:
        quantized = prebuilt_quantized
    else:
        index = IVFPQIndex.build(
            base,
            nlist=params.nlist,
            num_subspaces=params.num_subspaces,
            codebook_size=params.codebook_size,
            seed=seed,
        )
        quantized = build_quantized_index(index)
    if quantized.nlist != params.nlist:
        raise ValueError(
            f"index nlist {quantized.nlist} != params.nlist {params.nlist}"
        )
    if cluster.num_shards > quantized.nlist:
        raise ValueError(
            f"{cluster.num_shards} shards need at least that many clusters, "
            f"index has {quantized.nlist}"
        )

    # Rack-granularity heat: same Eq. 15 weights the engine uses for its
    # intra-platform layout, so the two levels agree on what "hot" means.
    lut_weight, point_weight = task_cost_weights(
        quantized.dim, params.num_subspaces, params.codebook_size
    )
    heat = estimate_cluster_heat(
        quantized,
        heat_queries,
        params.nprobe,
        lut_weight=lut_weight,
        point_weight=point_weight,
    )

    owner = partition_clusters(heat, cluster.num_shards)

    shards: List[ShardHandle] = []
    for sid in range(cluster.num_shards):
        owned = np.flatnonzero(owner == sid).astype(np.int64)
        if len(owned) == 0:
            raise ValueError(
                f"shard {sid} owns no clusters (degenerate heat vector); "
                f"reduce num_shards below {cluster.num_shards}"
            )
        g2l = np.full(quantized.nlist, -1, dtype=np.int64)
        g2l[owned] = np.arange(len(owned))
        sub = _sub_index(quantized, owned)
        shard_config = config.replace(
            index=replace(
                params,
                nlist=len(owned),
                nprobe=min(params.nprobe, len(owned)),
            ),
        )
        engines = [
            DrimAnnEngine.from_config(
                base,
                shard_config,
                heat_queries=heat_queries,
                prebuilt_quantized=sub,
                seed=seed,
            )
            for _ in range(cluster.replication)
        ]
        shards.append(
            ShardHandle(
                shard_id=sid,
                global_cids=owned,
                global_to_local=g2l,
                sub_index=sub,
                engines=engines,
            )
        )

    return ClusterIndex(
        router=quantized,
        params=params,
        config=cluster,
        owner=owner,
        shards=shards,
    )


def load_cluster_index(
    directory: str,
    config: EngineConfig,
    *,
    seed=None,
    mmap: bool = True,
) -> ClusterIndex:
    """Reopen a rack saved by :meth:`ClusterIndex.save`.

    ``config`` plays the same role as in :func:`build_cluster_index`
    (per-node system/search parameters); its index geometry must match
    the manifest. Shard engines are reassembled from the stored
    sub-indexes with their *stored* intra-platform cluster heat, so a
    reloaded rack answers bit-identically to the one that was saved —
    results and cycle ledgers both — and their stored cluster radii
    (a shard file without them has its radii computed on first use).
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"no cluster manifest at {manifest_path!r}; was the directory "
            "saved with ClusterIndex.save()?"
        )
    with open(manifest_path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise IndexFormatError(
                f"{manifest_path!r}: manifest is not valid JSON: {exc}"
            ) from None
    if manifest.get("magic") != _CLUSTER_MAGIC:
        raise IndexFormatError(
            f"{manifest_path!r}: not a cluster-index manifest "
            f"(magic={manifest.get('magic')!r})"
        )
    version = manifest.get("format_version")
    if version != CLUSTER_FORMAT_VERSION:
        raise IndexFormatError(
            f"{manifest_path!r} has cluster format version {version}; "
            f"this build reads {CLUSTER_FORMAT_VERSION}"
        )
    if config.use_opq:
        raise ValueError(
            "cluster sharding does not support use_opq: the rotation is a "
            "corpus-level preprocess; apply it before building the cluster"
        )
    if config.faults is not None:
        raise ValueError(
            "config.faults is DPU-granularity; node faults belong to the "
            "frontend's NodeFaultPlan — pass faults=None here"
        )
    params = config.index
    for name in ("nlist", "num_subspaces", "codebook_size"):
        want = int(manifest[name])
        got = int(getattr(params, name))
        if got != want:
            raise ValueError(
                f"config.index.{name}={got} does not match the saved "
                f"cluster at {directory!r} ({name}={want})"
            )

    cluster = ClusterConfig(
        num_shards=int(manifest["num_shards"]),
        replication=int(manifest["replication"]),
    )
    router = load_index_bundle(
        os.path.join(directory, "router.drim"), mmap=mmap
    ).index
    owner = np.asarray(manifest["owner"], dtype=np.int64)
    if owner.shape != (router.nlist,):
        raise IndexFormatError(
            f"{manifest_path!r}: owner list has {owner.shape[0]} entries, "
            f"router has {router.nlist} clusters"
        )

    shards: List[ShardHandle] = []
    for entry in manifest["shards"]:
        sid = int(entry["shard_id"])
        owned = np.asarray(entry["global_cids"], dtype=np.int64)
        shard_path = os.path.join(directory, entry["file"])
        if not os.path.isfile(shard_path):
            raise IndexFormatError(
                f"{manifest_path!r} references missing shard file "
                f"{entry['file']!r}"
            )
        bundle = load_index_bundle(shard_path, mmap=mmap)
        sub = bundle.index
        if sub.nlist != len(owned):
            raise IndexFormatError(
                f"{shard_path!r} has {sub.nlist} clusters, manifest says "
                f"shard {sid} owns {len(owned)}"
            )
        g2l = np.full(router.nlist, -1, dtype=np.int64)
        g2l[owned] = np.arange(len(owned))
        shard_config = config.replace(
            index=replace(
                params,
                nlist=len(owned),
                nprobe=min(params.nprobe, len(owned)),
            ),
        )
        engines = [
            DrimAnnEngine.from_quantized(
                sub,
                shard_config,
                cluster_heat=bundle.cluster_heat,
                seed=seed,
                index_path=shard_path,
                cluster_radii=bundle.cluster_radii,
            )
            for _ in range(cluster.replication)
        ]
        shards.append(
            ShardHandle(
                shard_id=sid,
                global_cids=owned,
                global_to_local=g2l,
                sub_index=sub,
                engines=engines,
            )
        )

    return ClusterIndex(
        router=router,
        params=params,
        config=cluster,
        owner=owner,
        shards=shards,
    )
