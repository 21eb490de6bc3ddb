import os

import pytest

from repro.cli import main as cli_main
from repro.faults.chaos import ChaosConfig, run_chaos

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="module")
def smoke_dup():
    return run_chaos(ChaosConfig.smoke(duplicate=True, seed=0))


@pytest.fixture(scope="module")
def smoke_nodup():
    return run_chaos(ChaosConfig.smoke(duplicate=False, seed=0))


class TestConfig:
    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(fail_stop_rates=())

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(fail_stop_rates=(0.0, 1.5))


class TestAcceptance:
    def test_control_arm_is_exact(self, smoke_dup):
        p0 = smoke_dup.point_at(0.0)
        assert p0.exact
        assert p0.recall == 1.0
        assert p0.dead_dpus == 0

    def test_failstop_with_duplication_keeps_recall(self, smoke_dup):
        """5% fail-stop + duplication: recall within 1% of fault-free."""
        p = smoke_dup.point_at(0.05)
        assert p.dead_dpus > 0
        assert p.recall >= smoke_dup.point_at(0.0).recall - 0.01
        assert p.availability == 1.0
        assert p.task_retries > 0

    def test_failstop_without_duplication_degrades_not_crashes(
        self, smoke_nodup
    ):
        """Same fault rate, no replicas: degraded fraction, no raise."""
        p = smoke_nodup.point_at(0.05)
        assert p.dead_dpus > 0
        assert p.degraded_fraction > 0.0
        assert p.availability < 1.0
        assert p.recall > 0.0  # partial results, not empty output

    def test_unknown_rate_raises_keyerror(self, smoke_dup):
        with pytest.raises(KeyError):
            smoke_dup.point_at(0.42)


class TestDeterminism:
    def test_same_config_same_report(self, smoke_dup):
        again = run_chaos(ChaosConfig.smoke(duplicate=True, seed=0))
        assert again.to_dict() == smoke_dup.to_dict()

    def test_seed_changes_plan(self):
        a = run_chaos(ChaosConfig.smoke(seed=0))
        b = run_chaos(ChaosConfig.smoke(seed=3))
        assert a.to_dict() != b.to_dict()


class TestChaosOutputFrozen:
    """The engine's failover path is byte-frozen: both arms' ``--json``
    envelopes equal the committed fixtures (CI diffs them too)."""

    @pytest.mark.parametrize(
        "extra, fixture",
        [([], "chaos_smoke.json"), (["--no-dup"], "chaos_smoke_no_dup.json")],
    )
    def test_smoke_json_is_frozen(self, capsys, extra, fixture):
        assert cli_main(["chaos", "--smoke", "--json", *extra]) == 0
        with open(os.path.join(_FIXTURES, fixture), encoding="utf-8") as f:
            assert capsys.readouterr().out == f.read()


class TestReportSurface:
    def test_summary_has_header_and_rows(self, smoke_dup):
        text = smoke_dup.summary()
        assert "chaos sweep" in text
        assert "recall@k" in text
        assert len(text.splitlines()) == 2 + len(smoke_dup.points)

    def test_to_dict_round_trips_config(self, smoke_dup):
        d = smoke_dup.to_dict()
        assert d["config"]["num_dpus"] == 32
        assert len(d["points"]) == len(smoke_dup.points)
