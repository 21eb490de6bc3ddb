import os

import numpy as np
import pytest

from repro.core.persist import IndexFormatError, load_index, save_index


class TestRoundTrip:
    def test_roundtrip_identity(self, small_quantized, tmp_path):
        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        back = load_index(path)
        np.testing.assert_array_equal(back.centroids, small_quantized.centroids)
        np.testing.assert_array_equal(back.codebooks, small_quantized.codebooks)
        assert back.nlist == small_quantized.nlist
        for a, b in zip(back.cluster_ids, small_quantized.cluster_ids):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.cluster_codes, small_quantized.cluster_codes):
            np.testing.assert_array_equal(a, b)

    def test_loaded_index_searches_identically(
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

    def test_engine_from_loaded_index(self, small_quantized, small_ds, small_params, tmp_path):
        from repro.core import DrimAnnEngine, EngineConfig
        from repro.pim.config import PimSystemConfig

        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(index=small_params, system=PimSystemConfig(num_dpus=4)),
            prebuilt_quantized=load_index(path, mmap=False),
            seed=0,
        )
        res, _ = eng.search(small_ds.queries[:10])
        assert res.ids.shape == (10, 10)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "nope.npz"))

    def test_not_an_index(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="not a DRIM-ANN index"):
            load_index(path)

    def test_future_version_rejected(self, v1_index):
        data = dict(np.load(v1_index))
        data["version"] = np.array(99)
        np.savez_compressed(v1_index, **data)
        with pytest.raises(ValueError, match="format version"):
            load_index(v1_index)

    def test_empty_cluster_roundtrip(self, tmp_path):
        from repro.core.quantized import QuantizedIndexData

        quant = QuantizedIndexData(
            centroids=np.zeros((2, 4), dtype=np.uint8),
            codebooks=np.zeros((2, 4, 2), dtype=np.int16),
            cluster_ids=[np.array([5, 7], dtype=np.int64), np.empty(0, dtype=np.int64)],
            cluster_codes=[
                np.zeros((2, 2), dtype=np.uint8),
                np.empty((0, 2), dtype=np.uint8),
            ],
        )
        path = str(tmp_path / "index.drim")
        save_index(quant, path)
        back = load_index(path)
        assert len(back.cluster_ids[1]) == 0
        np.testing.assert_array_equal(back.cluster_ids[0], [5, 7])

    def test_format_error_is_a_value_error(self):
        assert issubclass(IndexFormatError, ValueError)

    def test_garbage_file_raises_format_error(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as f:
            f.write(b"this is not a zip archive")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_truncated_file_raises_format_error(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            head = f.read(size // 2)
        with open(path, "wb") as f:
            f.write(head)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_empty_file_raises_format_error(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        open(path, "wb").close()
        with pytest.raises(IndexFormatError):
            load_index(path)


class TestCrashSafety:
    def test_successful_save_leaves_no_temp_files(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        assert sorted(os.listdir(tmp_path)) == ["index.drim"]

    def test_failed_save_preserves_previous_index(
        self, small_quantized, tmp_path, monkeypatch
    ):
        import repro.core.persist as persist

        path = str(tmp_path / "index.drim")
        save_index(small_quantized, path)
        before = open(path, "rb").read()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(persist.os, "fsync", boom)
        with pytest.raises(OSError, match="disk full"):
            save_index(small_quantized, path)
        # The old file is untouched and no temp debris remains.
        assert open(path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == ["index.drim"]
        load_index(path)

    def test_failed_first_save_leaves_nothing(
        self, small_quantized, tmp_path, monkeypatch
    ):
        import repro.core.persist as persist

        path = str(tmp_path / "index.drim")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(persist.os, "fsync", boom)
        with pytest.raises(OSError):
            save_index(small_quantized, path)
        assert os.listdir(tmp_path) == []
