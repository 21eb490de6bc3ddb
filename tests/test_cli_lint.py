"""`repro lint` end-to-end through cli.main()."""

import json
import os

import pytest

from repro.cli import main

_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "broken_kernel.py"
)


class TestCleanRepo:
    def test_default_lint_is_clean(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output_parses(self, capsys):
        assert main(["lint", "--json", "--select", "resources"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "lint"
        assert payload["config"]["families"] == ["resources"]
        assert "findings" in payload["results"]
        assert payload["results"]["counts"]["error"] == 0
        assert payload["metrics"] is None


class TestSelect:
    def test_single_family(self, capsys):
        assert main(["lint", "--select", "ast"]) == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_unknown_family_exits_2(self, capsys):
        assert main(["lint", "--select", "nonsense"]) == 2
        assert "unknown checker families" in capsys.readouterr().out


class TestStrictFailures:
    def test_broken_contract_fails_strict(self, capsys):
        rc = main(
            ["lint", "--strict", "--select", "costs",
             "--kernel-module", _FIXTURE]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "instruction-mix-drift" in out

    def test_broken_contract_without_strict_exits_0(self, capsys):
        rc = main(["lint", "--select", "costs", "--kernel-module", _FIXTURE])
        assert rc == 0
        assert "instruction-mix-drift" in capsys.readouterr().out

    def test_infeasible_grid_fails_strict(self, capsys):
        rc = main(
            ["lint", "--strict", "--select", "resources",
             "--grid-m", "32", "--grid-cb", "256", "--grid-tasklets", "24"]
        )
        assert rc == 1
        assert "wram-overflow" in capsys.readouterr().out

    def test_same_grid_at_16_tasklets_passes(self, capsys):
        rc = main(
            ["lint", "--strict", "--select", "resources",
             "--grid-m", "32", "--grid-cb", "256", "--grid-tasklets", "16"]
        )
        assert rc == 0


class TestTraceMode:
    def test_trace_flag_runs_trace_family_only(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        with open(path, "w") as f:
            json.dump(
                {"traceEvents": [
                    {"name": "RC", "ph": "X", "ts": 0, "dur": 10, "tid": 0},
                    {"name": "LC", "ph": "X", "ts": 5, "dur": 10, "tid": 0},
                ]},
                f,
            )
        assert main(["lint", "--strict", "--trace", path]) == 1
        assert "event-overlap" in capsys.readouterr().out

    def test_clean_trace_passes(self, tmp_path, capsys):
        from repro.pim.trace import Tracer

        tracer = Tracer()
        tracer.record("RC", 0, 0, 100)
        path = str(tmp_path / "trace.json")
        tracer.export_chrome_trace(path)
        assert main(["lint", "--strict", "--trace", path]) == 0

    def test_missing_trace_fails_strict(self, tmp_path, capsys):
        rc = main(
            ["lint", "--strict", "--trace", str(tmp_path / "nope.json")]
        )
        assert rc == 1
        assert "unreadable-trace" in capsys.readouterr().out


class TestMinSeverity:
    def test_min_severity_filters_text(self, capsys):
        assert main(
            ["lint", "--select", "resources", "--grid-tasklets", "8",
             "--min-severity", "error"]
        ) == 0
        out = capsys.readouterr().out
        # The underfill warnings exist but are hidden from the text.
        assert "tasklet-underfill" not in out
        assert "finding(s)" in out


class TestConcurrencyFamily:
    def test_concurrency_family_selectable_and_clean(self, capsys):
        assert main(["lint", "--strict", "--select", "concurrency"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_default_families_include_concurrency(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["families"] == [
            "resources", "costs", "ast", "concurrency"
        ]


class TestSanitizeCommand:
    def test_sanitize_strict_is_clean(self, capsys):
        assert main(["sanitize", "--strict", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sanitize"
        assert payload["results"]["counts"]["error"] == 0
        stats = payload["results"]["sanitize"]
        assert stats["num_events"] > 0 and stats["num_processes"] >= 1
        assert stats["kinds"]["unlink"] == 1

    def test_lint_sanitize_merges_envelope(self, capsys):
        rc = main(
            ["lint", "--strict", "--sanitize", "--select", "concurrency",
             "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["sanitize"] is True
        assert "sanitize" in payload["results"]
        assert payload["results"]["counts"]["error"] == 0

    def test_sanitize_trace_out(self, tmp_path, capsys):
        path = str(tmp_path / "arena.json")
        assert main(["sanitize", "--trace-out", path, "--json"]) == 0
        capsys.readouterr()
        with open(path) as f:
            trace = json.load(f)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "arena:create" in names and "arena:unlink" in names

    def test_sanitize_unknown_config_raises(self):
        with pytest.raises(ValueError, match="config"):
            main(["sanitize", "--config", "nope"])

    @pytest.mark.parametrize("workers", ["0", "1"])
    def test_sanitize_without_a_pool_raises(self, workers):
        """Fewer than two workers means no pool to sanitize: an error,
        never a vacuous zero-finding pass."""
        with pytest.raises(ValueError, match="shard_workers"):
            main(["sanitize", "--workers", workers, "--json"])
