"""CLI tests — invoke cli.main() directly and inspect stdout."""

import json

import pytest

from repro.cli import main


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "sift-like-20k" in out
        assert "MRAM" in out


class TestModel:
    def test_model_paper_scale(self, capsys):
        rc = main(
            [
                "model",
                "--points", "100000000",
                "--queries", "10000",
                "--nlist", "16384",
                "--nprobe", "96",
                "--m", "16",
                "--cb", "256",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled speedup" in out
        assert "QPS" in out

    def test_model_with_mul_slower(self, capsys):
        common = [
            "model", "--points", "1000000", "--queries", "100",
            "--nlist", "1024", "--nprobe", "8", "--m", "16",
        ]
        main(common)
        fast = capsys.readouterr().out
        main(common + ["--with-mul"])
        slow = capsys.readouterr().out

        def pim_ms(s):
            line = [l for l in s.splitlines() if l.startswith("pim ")][0]
            return float(line.split(":")[1].strip().split()[0])

        assert pim_ms(slow) >= pim_ms(fast)


class TestBuildSearch:
    def test_build_then_search(self, tmp_path, capsys):
        out_path = str(tmp_path / "idx.drim")
        rc = main(
            [
                "index", "build", "--preset", "sift-like-20k", "--out", out_path,
                "--nlist", "64", "--m", "16", "--cb", "32",
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

        rc = main(
            [
                "search", "--preset", "sift-like-20k", "--index", out_path,
                "--nlist", "64", "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "30",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@10" in out
        assert "qps=" in out

    def test_search_no_balance(self, capsys):
        rc = main(
            [
                "search", "--preset", "sift-like-20k", "--nlist", "32",
                "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "20", "--no-balance",
            ]
        )
        assert rc == 0


class TestTune:
    def test_tune_finds_config(self, capsys):
        rc = main(
            [
                "tune", "--preset", "sift-like-20k", "--constraint", "0.5",
                "--iterations", "4", "--dpus", "8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "best:" in out

    def test_tune_infeasible(self, capsys):
        rc = main(
            [
                "tune", "--preset", "sift-like-20k", "--constraint", "0.999",
                "--iterations", "2", "--dpus", "8",
            ]
        )
        assert rc == 1


class TestServe:
    def test_serve_reports_latency(self, capsys):
        rc = main(
            [
                "serve", "--preset", "sift-like-20k", "--rate", "5000",
                "--queries", "60", "--dpus", "4", "--nlist", "32",
                "--nprobe", "4", "--m", "16", "--cb", "32",
                "--batch-size", "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "p99" in out and "utilization" in out


class TestCharacterize:
    def test_characterize(self, capsys):
        rc = main(
            ["characterize", "--preset", "sift-like-20k", "--nlist", "32"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "intrinsic dimension" in out
        assert "imbalance" in out
        assert "zipf" in out


class TestFrontier:
    def test_frontier_prints_knee(self, capsys):
        rc = main(["frontier", "--preset", "sift-like-20k", "--dpus", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "knee" in out
        assert "recall@10" in out


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            main(["index", "build", "--preset", "x"])  # --out missing

    def test_alias_flags_parse(self, capsys):
        """Hidden long-form aliases map onto the canonical flags."""
        rc = main(
            [
                "model", "--num-points", "1000000", "--queries", "100",
                "--nlist", "1024", "--nprobe", "8", "--num-subspaces", "16",
                "--codebook-size", "256", "--topk", "10",
            ]
        )
        assert rc == 0
        assert "modeled speedup" in capsys.readouterr().out


ENVELOPE_KEYS = {"command", "config", "results", "metrics"}


class TestJsonEnvelope:
    """Every subcommand's --json output is one machine-readable object."""

    def _payload(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert set(payload) == ENVELOPE_KEYS
        return rc, payload, captured.err

    def test_info(self, capsys):
        rc, payload, err = self._payload(capsys, ["info", "--json"])
        assert rc == 0
        assert payload["command"] == "info"
        assert "sift-like-20k" in payload["results"]["presets"]

    def test_model(self, capsys):
        rc, payload, _ = self._payload(
            capsys,
            [
                "model", "--json", "--points", "1000000", "--queries", "100",
                "--nlist", "1024", "--nprobe", "8", "--m", "16",
            ],
        )
        assert rc == 0
        assert payload["results"]["speedup"] > 0
        assert payload["config"]["index"]["nlist"] == 1024

    def test_search_carries_metrics_and_config(self, capsys):
        rc, payload, err = self._payload(
            capsys,
            [
                "search", "--json", "--preset", "sift-like-20k",
                "--nlist", "32", "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "20",
            ],
        )
        assert rc == 0
        assert payload["command"] == "search"
        assert 0.0 < payload["results"]["recall_at_k"] <= 1.0
        # --json switches observability on: the envelope carries metrics.
        metrics = payload["metrics"]
        assert metrics is not None
        hist_names = {h["name"] for h in metrics["histograms"]}
        assert "drimann_phase_seconds" in hist_names
        # The engine config echoed in the envelope round-trips.
        from repro.core.config import EngineConfig

        engine_d = payload["config"]["engine"]
        assert EngineConfig.from_dict(engine_d).to_dict() == engine_d
        # Human chatter stays on stderr.
        assert "recall@10" in err

    def test_serve_metrics_out(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        rc, payload, _ = self._payload(
            capsys,
            [
                "serve", "--json", "--metrics-out", str(out),
                "--preset", "sift-like-20k", "--rate", "5000",
                "--queries", "40", "--dpus", "4", "--nlist", "32",
                "--nprobe", "4", "--m", "16", "--cb", "32",
                "--batch-size", "16",
            ],
        )
        assert rc == 0
        assert payload["results"]["num_queries"] == 40
        written = json.loads(out.read_text())
        names = {s["name"] for group in written.values() for s in group}
        assert "drimann_serving_latency_seconds" in names
        assert "drimann_scheduler_tasks_total" in names
        assert "drimann_faults_dead_dpus" in names

    def test_text_mode_has_no_metrics_overhead(self, capsys):
        """Without --json/--profile/--metrics-out, search runs obs-off."""
        rc = main(
            [
                "search", "--preset", "sift-like-20k", "--nlist", "32",
                "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@10" in out

    def test_search_profile_prints_phase_table(self, capsys):
        rc = main(
            [
                "search", "--profile", "--preset", "sift-like-20k",
                "--nlist", "32", "--nprobe", "4", "--m", "16", "--cb", "32",
                "--dpus", "4", "--queries", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase" in out and "DC" in out
