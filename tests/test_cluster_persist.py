"""Rack persistence: ``ClusterIndex.save`` / ``load_cluster_index``.

A reloaded rack must be the *same* rack: identical topology, identical
routing, and bit-identical frontend answers — because every shard file
stores the intra-platform cluster heat its engines' layouts were
generated from, and the cluster radii its bound-mode searches read.
"""

import json
import os

import numpy as np
import pytest

import repro.core.adaptive as adaptive
from repro.cluster import (
    ClusterConfig,
    ClusterFrontend,
    build_cluster_index,
    load_cluster_index,
)
from repro.core import EngineConfig, LayoutConfig
from repro.core.persist import IndexFormatError, index_info
from repro.pim.config import PimSystemConfig


@pytest.fixture(scope="module")
def engine_config(small_params):
    return EngineConfig(
        index=small_params,
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
    )


@pytest.fixture(scope="module")
def saved_rack(small_ds, small_quantized, engine_config, tmp_path_factory):
    """Build a 3x2 rack, capture its answers, save it, tear it down."""
    directory = str(tmp_path_factory.mktemp("rack"))
    queries = small_ds.queries[:24]
    with build_cluster_index(
        small_ds.base,
        engine_config,
        ClusterConfig(num_shards=3, replication=2),
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    ) as cluster:
        res, _ = ClusterFrontend(cluster, seed=0).search(queries)
        bound, _ = ClusterFrontend(cluster, seed=0).search(queries, adaptive="bound")
        cluster.save(directory)
        owner = cluster.owner.copy()
    return {
        "directory": directory,
        "queries": queries,
        "ids": res.ids.copy(),
        "distances": res.distances.copy(),
        "bound": (bound.ids.copy(), bound.distances.copy()),
        "owner": owner,
    }


class TestRackRoundTrip:
    def test_layout_on_disk(self, saved_rack):
        files = sorted(os.listdir(saved_rack["directory"]))
        assert files == [
            "manifest.json",
            "router.drim",
            "shard_0000.drim",
            "shard_0001.drim",
            "shard_0002.drim",
        ]

    def test_reloaded_rack_is_bit_identical(self, saved_rack, engine_config):
        with load_cluster_index(
            saved_rack["directory"], engine_config, seed=0
        ) as cluster:
            assert cluster.num_shards == 3
            assert cluster.replication == 2
            np.testing.assert_array_equal(cluster.owner, saved_rack["owner"])
            res, rep = ClusterFrontend(cluster, seed=0).search(
                saved_rack["queries"]
            )
        np.testing.assert_array_equal(res.ids, saved_rack["ids"])
        np.testing.assert_array_equal(res.distances, saved_rack["distances"])
        assert rep.mean_coverage == 1.0

    def test_shard_files_carry_cluster_radii(self, saved_rack):
        with open(os.path.join(saved_rack["directory"], "manifest.json")) as f:
            shards = json.load(f)["shards"]
        for entry in shards:
            info = index_info(os.path.join(saved_rack["directory"], entry["file"]))
            assert info["has_cluster_radii"], entry["file"]

    def test_reloaded_bound_search_reads_stored_radii(
        self, saved_rack, engine_config, monkeypatch
    ):
        """A reloaded rack's bound-mode search answers as the saved rack
        did, from the stored radii: it never recomputes them."""

        def recompute(quantized):
            raise AssertionError("cluster radii recomputed")

        with load_cluster_index(
            saved_rack["directory"], engine_config, seed=0
        ) as cluster:
            monkeypatch.setattr(adaptive, "cluster_radii_sq", recompute)
            res, _ = ClusterFrontend(cluster, seed=0).search(
                saved_rack["queries"], adaptive="bound"
            )
        np.testing.assert_array_equal(res.ids, saved_rack["bound"][0])
        np.testing.assert_array_equal(res.distances, saved_rack["bound"][1])

    def test_reloaded_rack_matches_oracle(self, saved_rack, engine_config):
        with load_cluster_index(
            saved_rack["directory"], engine_config, seed=0
        ) as cluster:
            gold = cluster.oracle_search(saved_rack["queries"])
            res, _ = ClusterFrontend(cluster, seed=0).search(
                saved_rack["queries"]
            )
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)


class TestRackValidation:
    def test_missing_manifest(self, tmp_path, engine_config):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_cluster_index(str(tmp_path), engine_config)

    def test_mismatched_config_rejected(self, saved_rack, engine_config):
        from dataclasses import replace

        bad = engine_config.replace(
            index=replace(engine_config.index, nlist=32)
        )
        with pytest.raises(ValueError, match="nlist"):
            load_cluster_index(saved_rack["directory"], bad)

    def test_corrupt_manifest_rejected(self, saved_rack, engine_config,
                                       tmp_path):
        import shutil

        directory = str(tmp_path / "rack")
        shutil.copytree(saved_rack["directory"], directory)
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            f.write("{not json")
        with pytest.raises(IndexFormatError, match="JSON"):
            load_cluster_index(directory, engine_config)

    def test_missing_shard_file_rejected(self, saved_rack, engine_config,
                                         tmp_path):
        import shutil

        directory = str(tmp_path / "rack")
        shutil.copytree(saved_rack["directory"], directory)
        os.unlink(os.path.join(directory, "shard_0001.drim"))
        with pytest.raises(IndexFormatError, match="shard_0001"):
            load_cluster_index(directory, engine_config)

    def test_manifest_written_last_is_atomic(self, saved_rack):
        with open(
            os.path.join(saved_rack["directory"], "manifest.json")
        ) as f:
            manifest = json.load(f)
        assert manifest["magic"] == "drimann-cluster-index"
        assert manifest["num_shards"] == 3
        assert len(manifest["shards"]) == 3
