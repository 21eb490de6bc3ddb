"""The v2 ``DRIMIDX2`` on-disk format: round trips, zero-copy loads,
validation, tooling (`index_info`/`verify_index`), read compatibility
with legacy v1 files, and the crash-safety windows exposed through
:mod:`repro.faults.disk`.
"""

import os
import zlib

import numpy as np
import pytest

from repro.core import DrimAnnEngine, EngineConfig, IndexParams
from repro.core.persist import (
    FORMAT_VERSION_V2,
    IndexBundle,
    IndexFormatError,
    index_info,
    load_index,
    load_index_bundle,
    save_index,
    verify_index,
)
from repro.core.quantized import QuantizedIndexData
from repro.faults.disk import CrashPoint, SimulatedCrash
from repro.pim.config import PimSystemConfig


def _tiny_index(with_tombstones=False):
    rng = np.random.default_rng(7)
    nlist, m, cb, dsub = 3, 4, 8, 2
    cluster_sizes = (5, 0, 3)
    next_id = 0
    ids, codes = [], []
    for n in cluster_sizes:
        ids.append(np.arange(next_id, next_id + n, dtype=np.int64))
        next_id += n
        codes.append(
            rng.integers(0, cb, size=(n, m), dtype=np.int64).astype(np.uint8)
        )
    tombs = None
    if with_tombstones:
        tombs = [np.zeros(n, dtype=bool) for n in cluster_sizes]
        tombs[0][1] = True
        tombs[2][2] = True
    return QuantizedIndexData(
        centroids=rng.integers(0, 256, size=(nlist, m * dsub), dtype=np.int64)
        .astype(np.uint8),
        codebooks=rng.integers(-300, 300, size=(m, cb, dsub), dtype=np.int64)
        .astype(np.int16),
        cluster_ids=ids,
        cluster_codes=codes,
        tombstones=tombs,
    )


def _assert_same_index(a, b):
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.codebooks, b.codebooks)
    assert a.nlist == b.nlist
    for x, y in zip(a.cluster_ids, b.cluster_ids):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.cluster_codes, b.cluster_codes):
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype
    am, bm = a.tombstone_masks(), b.tombstone_masks()
    assert a.num_tombstones == b.num_tombstones
    if am is not None and bm is not None:
        for x, y in zip(am, bm):
            np.testing.assert_array_equal(x, y)


class TestV2RoundTrip:
    def test_roundtrip_identity(self, small_quantized, tmp_path):
        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        _assert_same_index(load_index(path), small_quantized)

    def test_roundtrip_searches_identically(
        self, small_quantized, small_ds, tmp_path
    ):
        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        back = load_index(path)
        q = small_ds.queries[:20]
        a = small_quantized.reference_search(q, 10, 4)
        b = back.reference_search(q, 10, 4)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_roundtrip_with_tombstones(self, tmp_path):
        quant = _tiny_index(with_tombstones=True)
        path = str(tmp_path / "t.drim")
        save_index(quant, path)
        back = load_index(path)
        _assert_same_index(back, quant)
        assert back.num_tombstones == 2
        # Restored masks must be writable: delete() keeps working.
        assert back.delete(np.array([back.cluster_ids[0][0]])) == 1
        assert back.num_tombstones == 3

    def test_roundtrip_empty_cluster(self, tmp_path):
        quant = _tiny_index()
        path = str(tmp_path / "e.drim")
        save_index(quant, path)
        back = load_index(path)
        assert len(back.cluster_ids[1]) == 0
        assert back.cluster_codes[1].shape == (0, quant.num_subspaces)

    def test_cluster_heat_round_trips(self, tmp_path):
        quant = _tiny_index()
        heat = np.array([3.5, 0.25, 11.0])
        path = str(tmp_path / "h.drim")
        save_index(quant, path, cluster_heat=heat)
        bundle = load_index_bundle(path)
        assert isinstance(bundle, IndexBundle)
        assert bundle.version == FORMAT_VERSION_V2
        np.testing.assert_array_equal(
            np.asarray(bundle.cluster_heat), heat
        )

    def test_opq_round_trips(self, small_ds, tmp_path):
        from repro.core.opq_preprocess import OpqPreprocessor

        pre = OpqPreprocessor.train(
            small_ds.base[:512], 16, sample_size=512, num_rounds=1, seed=0
        )
        quant = _tiny_index()
        path = str(tmp_path / "o.drim")
        save_index(quant, path, preprocessor=pre)
        back = load_index_bundle(path).preprocessor
        assert back is not None
        q = small_ds.queries[:8]
        np.testing.assert_array_equal(back.transform(q), pre.transform(q))

    def test_mmap_load_returns_views_of_the_file(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "m.drim")
        save_index(small_quantized, path)
        back = load_index(path, mmap=True)
        # Cluster payloads are views over one read-only file mapping,
        # not decompressed copies: no cluster array owns its data.
        assert not back.centroids.flags.owndata
        assert all(not c.flags.owndata for c in back.cluster_codes)
        assert all(not i.flags.owndata for i in back.cluster_ids)

    def test_materialized_load_owns_its_data(self, small_quantized, tmp_path):
        path = str(tmp_path / "m.drim")
        save_index(small_quantized, path)
        back = load_index(path, mmap=False)
        a = small_quantized.reference_search(
            np.zeros((1, small_quantized.dim), dtype=np.uint8), 5, 2
        )
        b = back.reference_search(
            np.zeros((1, back.dim), dtype=np.uint8), 5, 2
        )
        np.testing.assert_array_equal(a.ids, b.ids)


class TestBackCompat:
    """Legacy v1 ``.npz`` files stay readable, through every reader.

    No writer emits v1 any more, so the committed
    ``tests/fixtures/index_v1.npz`` (the ``v1_index`` fixture) is the
    v1 input. Recipe (the v1 container is a compressed ``.npz`` of the
    flat arrays plus a magic string and a version)::

        ds = load_dataset("sift-like-20k", seed=0)
        quant = build_quantized_index(IVFPQIndex.build(
            ds.base[:600], nlist=8, num_subspaces=8, codebook_size=16,
            seed=0))
        np.savez_compressed(
            "index_v1.npz",
            magic=np.array("drimann-quantized-index"),
            version=np.array(1),
            centroids=quant.centroids,
            codebooks=quant.codebooks,
            offsets=np.concatenate([[0], np.cumsum(quant.cluster_sizes())]),
            ids_flat=np.concatenate(quant.cluster_ids),
            codes_flat=np.concatenate(quant.cluster_codes),
        )
    """

    def test_load_index_reads_v1_archives(self, v1_index, tmp_path):
        bundle = load_index_bundle(v1_index)
        assert bundle.version == 1
        assert bundle.cluster_heat is None and bundle.preprocessor is None
        quant = bundle.index
        assert (quant.nlist, quant.num_points, quant.dim) == (8, 600, 128)
        assert (quant.num_subspaces, quant.codebook_size) == (8, 16)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(quant.cluster_ids)), np.arange(600)
        )
        _assert_same_index(load_index(v1_index), quant)
        v2 = str(tmp_path / "resaved.drim")
        save_index(quant, v2)
        _assert_same_index(load_index(v2), quant)

    def test_verify_index_accepts_v1(self, v1_index):
        report = verify_index(v1_index)
        assert report["ok"] and report["errors"] == []
        assert report["container"] == "npz"
        assert report["checked_segments"] == 5

    def test_engine_on_v1_matches_v2_resave(self, v1_index, small_ds, tmp_path):
        v2 = str(tmp_path / "resaved.drim")
        save_index(load_index(v1_index), v2)
        config = EngineConfig(
            index=IndexParams(
                nlist=8, nprobe=4, k=10, num_subspaces=8, codebook_size=16
            ),
            system=PimSystemConfig(num_dpus=4),
        )
        queries = small_ds.queries[:40]
        results = []
        for path in (v1_index, v2):
            engine = DrimAnnEngine.load(path, config=config, seed=0)
            res, _ = engine.search(queries)
            engine.close()
            results.append(res)
        old, new = results
        assert old.ids.tobytes() == new.ids.tobytes()
        assert old.distances.tobytes() == new.distances.tobytes()
        assert (old.ids >= 0).all()


class TestOffsetValidation:
    """The satellite bugfix: corrupt offset tables must name the file
    and the broken member instead of surfacing a bare IndexError."""

    @staticmethod
    def _rewrite_offsets(path, edit):
        data = dict(np.load(path))
        offsets = data["offsets"]
        edit(offsets)
        data["offsets"] = offsets
        np.savez_compressed(path, **data)

    def test_v1_bad_offsets_raise_format_error(self, v1_index):
        def past_the_end(offsets):
            offsets[-1] = offsets[-1] + 64  # points past ids_flat

        self._rewrite_offsets(v1_index, past_the_end)
        with pytest.raises(IndexFormatError, match="offsets") as ei:
            load_index(v1_index)
        assert "index_v1.npz" in str(ei.value)

    def test_v1_decreasing_offsets_raise_format_error(self, v1_index):
        def swap(offsets):
            assert len(offsets) > 2
            offsets[1], offsets[2] = offsets[2].copy(), offsets[1].copy()

        self._rewrite_offsets(v1_index, swap)
        with pytest.raises(IndexFormatError, match="offsets"):
            load_index(v1_index)


class TestV2Validation:
    def _corrupt(self, path, needle):
        """Flip one byte inside the segment holding ``needle``."""
        info = index_info(path)
        seg = info["segments"][needle]
        with open(path, "r+b") as f:
            f.seek(seg["offset"])
            b = f.read(1)
            f.seek(seg["offset"])
            f.write(bytes([b[0] ^ 0xFF]))

    def test_verify_clean_file(self, small_quantized, tmp_path):
        path = str(tmp_path / "v.drim")
        save_index(small_quantized, path)
        report = verify_index(path)
        assert report["ok"]
        assert report["errors"] == []
        assert report["checked_segments"] >= 6

    def test_verify_catches_payload_corruption(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "v.drim")
        save_index(small_quantized, path)
        self._corrupt(path, "codes_flat")
        report = verify_index(path)
        assert not report["ok"]
        assert any("codes_flat" in e for e in report["errors"])

    def test_future_version_rejected(self, small_quantized, tmp_path):
        path = str(tmp_path / "f.drim")
        save_index(small_quantized, path)
        raw = open(path, "rb").read()
        patched = raw.replace(b'"version": 2', b'"version": 9', 1)
        assert patched != raw
        open(path, "wb").write(patched)
        with pytest.raises(IndexFormatError, match="format version 9"):
            load_index(path)

    def test_garbage_magic_rejected(self, tmp_path):
        path = str(tmp_path / "g.drim")
        open(path, "wb").write(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_truncated_v2_rejected(self, small_quantized, tmp_path):
        path = str(tmp_path / "t.drim")
        save_index(small_quantized, path)
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            head = f.read(size // 2)
        open(path, "wb").write(head)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "nope.drim"))

    def test_crc_catalog_matches_recomputation(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "c.drim")
        save_index(small_quantized, path)
        info = index_info(path)
        raw = open(path, "rb").read()
        for name, seg in info["segments"].items():
            body = raw[seg["offset"] : seg["offset"] + seg["nbytes"]]
            assert (zlib.crc32(body) & 0xFFFFFFFF) == seg["crc32"], name


class TestIndexInfo:
    def test_info_fields_v2(self, small_quantized, tmp_path):
        path = str(tmp_path / "i.drim")
        save_index(small_quantized, path, cluster_heat=np.ones(64))
        info = index_info(path)
        assert info["container"] == "drimidx2"
        assert info["format_version"] == 2
        assert info["nlist"] == 64
        assert info["num_points"] == small_quantized.num_points
        assert info["num_tombstones"] == 0
        assert info["has_cluster_heat"]
        assert not info["has_opq"]
        assert info["file_bytes"] == os.path.getsize(path)

    def test_info_counts_tombstones(self, tmp_path):
        quant = _tiny_index(with_tombstones=True)
        path = str(tmp_path / "i.drim")
        save_index(quant, path)
        info = index_info(path)
        assert info["num_tombstones"] == 2
        assert info["tombstone_ratio"] == pytest.approx(2 / 8)

    def test_info_reads_v1(self, v1_index):
        info = index_info(v1_index)
        assert info["container"] == "npz"
        assert info["format_version"] == 1
        assert info["num_points"] == 600
        assert (info["nlist"], info["num_subspaces"]) == (8, 8)
        assert info["file_bytes"] == os.path.getsize(v1_index)


class TestCrashWindows:
    def test_crash_staged_preserves_old_index(self, tmp_path):
        quant = _tiny_index()
        path = str(tmp_path / "x.drim")
        save_index(quant, path)
        before = open(path, "rb").read()
        grown = quant.compact()
        grown.delete(grown.cluster_ids[0][:1])
        with CrashPoint("staged") as cp:
            with pytest.raises(SimulatedCrash):
                save_index(grown, path)
        assert cp.fired
        # Old bytes intact, no temp debris, still loadable.
        assert open(path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == ["x.drim"]
        _assert_same_index(load_index(path), quant)

    def test_crash_replaced_leaves_new_index(self, tmp_path):
        quant = _tiny_index()
        path = str(tmp_path / "x.drim")
        save_index(quant, path)
        grown = quant.compact()
        grown.delete(grown.cluster_ids[0][:1])
        with CrashPoint("replaced") as cp:
            with pytest.raises(SimulatedCrash):
                save_index(grown, path)
        assert cp.fired
        back = load_index(path)
        assert back.num_tombstones == 1
        assert sorted(os.listdir(tmp_path)) == ["x.drim"]

    def test_crash_first_save_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "x.drim")
        with CrashPoint("staged"):
            with pytest.raises(SimulatedCrash):
                save_index(_tiny_index(), path)
        assert os.listdir(tmp_path) == []

    def test_hook_restored_after_exit(self, tmp_path):
        from repro.core import persist

        assert persist._crash_hook is None
        with CrashPoint("staged"):
            assert persist._crash_hook is not None
        assert persist._crash_hook is None
        save_index(_tiny_index(), str(tmp_path / "ok.drim"))

    def test_invalid_stage_rejected(self):
        with pytest.raises(ValueError, match="staged"):
            CrashPoint("mid-air")
