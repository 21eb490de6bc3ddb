"""CLI tests for the ``repro index`` lifecycle group."""

import json

import pytest

from repro.cli import main

BUILD_ARGS = ["--nlist", "64", "--m", "16", "--cb", "32"]


def _payload(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


@pytest.fixture(scope="module")
def v2_index(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("idx") / "idx.drim")
    assert main(["index", "build", "--out", path] + BUILD_ARGS) == 0
    return path


class TestIndexBuild:
    def test_build_json_envelope(self, tmp_path, capsys):
        out = str(tmp_path / "idx.drim")
        rc = main(["index", "build", "--json", "--out", out] + BUILD_ARGS)
        assert rc == 0
        payload, _ = _payload(capsys)
        assert payload["command"] == "index build"
        assert payload["config"]["format"] == "v2"
        assert payload["results"]["format"] == "v2"
        assert payload["results"]["num_points"] == 20000
        assert payload["results"]["nlist"] == 64


class TestIndexInfo:
    def test_info_text(self, v2_index, capsys):
        assert main(["index", "info", v2_index]) == 0
        out = capsys.readouterr().out
        assert "20000 points" in out
        assert "tombstones: 0" in out

    def test_info_json(self, v2_index, capsys):
        assert main(["index", "info", "--json", v2_index]) == 0
        payload, _ = _payload(capsys)
        assert payload["command"] == "index info"
        info = payload["results"]
        assert info["container"] == "drimidx2"
        assert info["num_points"] == 20000
        assert info["num_tombstones"] == 0
        assert "segments" in info

    def test_info_json_reports_optional_segments(self, v2_index, capsys):
        assert main(["index", "info", "--json", v2_index]) == 0
        payload, _ = _payload(capsys)
        info = payload["results"]
        assert set(info["optional_segments"]) == {
            "cluster_heat", "opq_rotation", "cluster_radii",
        }
        # CLI builds persist the adaptive radii segment.
        assert info["has_cluster_radii"] is True
        assert info["optional_segments"]["cluster_radii"] is True
        for name, present in info["optional_segments"].items():
            assert present == (name in info["segments"])

    def test_info_json_radii_less_file(self, v2_index, tmp_path, capsys):
        from repro.core.persist import load_index, save_index

        quant = load_index(v2_index, mmap=False)
        bare = str(tmp_path / "bare.drim")
        save_index(quant, bare)  # no optional payloads
        assert main(["index", "info", "--json", bare]) == 0
        payload, _ = _payload(capsys)
        info = payload["results"]
        assert info["has_cluster_radii"] is False
        assert info["optional_segments"]["cluster_radii"] is False

    def test_info_text_mentions_radii(self, v2_index, capsys):
        assert main(["index", "info", v2_index]) == 0
        assert "radii: yes" in capsys.readouterr().out

    def test_info_reads_v1(self, v1_index, capsys):
        assert main(["index", "info", v1_index]) == 0
        assert "npz (format v1)" in capsys.readouterr().out
        assert main(["index", "info", "--json", v1_index]) == 0
        payload, _ = _payload(capsys)
        assert payload["results"]["container"] == "npz"
        assert payload["results"]["num_points"] == 600


class TestIndexVerify:
    def test_verify_clean(self, v2_index, capsys):
        assert main(["index", "verify", v2_index]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_v1(self, v1_index, capsys):
        assert main(["index", "verify", v1_index]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["index", "verify", "--json", v1_index]) == 0
        payload, _ = _payload(capsys)
        assert payload["results"]["ok"] is True
        assert payload["results"]["container"] == "npz"

    def test_verify_corrupted_exits_nonzero(self, v2_index, tmp_path,
                                            capsys):
        from repro.core.persist import index_info

        bad = tmp_path / "bad.drim"
        raw = bytearray(open(v2_index, "rb").read())
        seg = index_info(v2_index)["segments"]["codes_flat"]
        raw[seg["offset"]] ^= 0xFF
        bad.write_bytes(bytes(raw))
        rc = main(["index", "verify", "--json", str(bad)])
        assert rc == 1
        payload, _ = _payload(capsys)
        assert payload["results"]["ok"] is False
        assert any("codes_flat" in e for e in payload["results"]["errors"])


class TestIndexCompact:
    def test_compact_out_of_place(self, v2_index, tmp_path, capsys):
        from repro.core.persist import load_index, save_index

        # stage a tombstoned copy so compaction has work to do
        quant = load_index(v2_index, mmap=False)
        quant = quant.compact()  # private writable copy
        quant.delete([0, 1, 2])
        src = str(tmp_path / "tomb.drim")
        save_index(quant, src)

        out = str(tmp_path / "compacted.drim")
        rc = main(["index", "compact", "--json", src, "--out", out])
        assert rc == 0
        payload, _ = _payload(capsys)
        assert payload["results"]["removed_tombstones"] == 3
        assert payload["results"]["num_points"] == 19997

        from repro.core.persist import index_info
        assert index_info(out)["num_tombstones"] == 0
        # the source was left untouched
        assert index_info(src)["num_tombstones"] == 3

    def test_compact_in_place(self, v2_index, tmp_path, capsys):
        import shutil

        from repro.core.persist import index_info

        path = str(tmp_path / "idx.drim")
        shutil.copyfile(v2_index, path)
        rc = main(["index", "compact", path])
        assert rc == 0
        assert "dropped 0 tombstones" in capsys.readouterr().out
        assert index_info(path)["num_tombstones"] == 0


class TestSearchWithV2Index:
    def test_search_loads_v2_file(self, v2_index, capsys):
        rc = main(
            [
                "search", "--preset", "sift-like-20k", "--index", v2_index,
                "--nlist", "64", "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@10" in out

    @pytest.mark.parametrize("mode", ["bound", "budget"])
    def test_search_adaptive_json_envelope(self, v2_index, capsys, mode):
        rc = main(
            [
                "search", "--json", "--preset", "sift-like-20k",
                "--index", v2_index, "--adaptive", mode,
                "--nlist", "64", "--nprobe", "8", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "20",
            ]
        )
        assert rc == 0
        payload, _ = _payload(capsys)
        rep = payload["results"]["adaptive"]
        assert rep["mode"] == mode
        assert rep["nprobe_max"] == 8
        assert 0 < rep["total_probes_executed"] <= 20 * 8
        assert sum(rep["stop_reasons"].values()) == 20

    def test_search_adaptive_off_reports_null(self, v2_index, capsys):
        rc = main(
            [
                "search", "--json", "--preset", "sift-like-20k",
                "--index", v2_index, "--adaptive", "off",
                "--nlist", "64", "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "10",
            ]
        )
        assert rc == 0
        payload, _ = _payload(capsys)
        assert payload["results"]["adaptive"] is None
        assert payload["config"]["engine"]["search"]["adaptive"] == "off"
