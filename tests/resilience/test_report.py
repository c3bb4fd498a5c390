"""Reporting, reconciliation rendering and the CLI surface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.faults.scenarios import FlappingHost
from repro.faults.plan import FaultPlan
from repro.report.resilience import (
    render_differential,
    render_resilience_report,
    resilience_summary,
)
from repro.resilience.chaos import chaos_policy
from repro.sim.calendar import HOUR


@pytest.fixture(scope="module")
def flapping_result():
    plan = FaultPlan(
        [FlappingHost(range(24), period=4 * HOUR, down_fraction=0.5)],
        seed=7,
    )
    return run_experiment(ExperimentConfig(days=1, seed=7), faults=plan,
                          strict_postcollect=False, collect_nbench=False,
                          resilience=chaos_policy(7))


@pytest.fixture(scope="module")
def plain_result():
    return run_experiment(ExperimentConfig(days=1, seed=7),
                          collect_nbench=False)


class TestSummary:
    def test_reconciliation_closes(self, flapping_result):
        s = resilience_summary(flapping_result)
        rec = s["reconciliation"]
        assert rec["unexplained"] == 0
        assert rec["observed"] == (rec["attempts"] + rec["shed"]
                                   + rec["breaker_skipped"])
        assert s["policy_attached"]
        assert s["breaker"]["transitions"].get("tripped", 0) > 0

    def test_policy_off_summary_collapses(self, plain_result):
        s = resilience_summary(plain_result)
        assert not s["policy_attached"]
        assert "breaker" not in s
        rec = s["reconciliation"]
        assert rec["shed"] == rec["breaker_skipped"] == 0
        assert rec["observed"] == rec["attempts"]
        assert rec["unexplained"] == 0

    def test_summary_is_json_able(self, flapping_result):
        json.dumps(resilience_summary(flapping_result))


class TestRendering:
    def test_report_states_that_accounting_closes(self, flapping_result):
        text = render_resilience_report(flapping_result)
        assert "zero unexplained slots" in text
        assert "machines closed" in text
        assert "response rate" in text

    def test_policy_off_report(self, plain_result):
        text = render_resilience_report(plain_result)
        assert "control plane inactive" in text

    def test_differential_verdict_column(self):
        rows = [
            {"scenario": "x", "response_rate_off": 0.4,
             "response_rate_on": 0.7, "p99_off": 200.0, "p99_on": 180.0,
             "unexplained_off": 0, "unexplained_on": 0},
            {"scenario": "y", "response_rate_off": 0.5,
             "response_rate_on": 0.4, "p99_off": 200.0, "p99_on": 180.0,
             "unexplained_off": 0, "unexplained_on": 0},
        ]
        text = render_differential(rows)
        assert "dominates" in text
        assert "LOSES" in text


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.days == 1
        assert args.scenario == "flapping"
        assert not args.differential

    def test_run_resilience_conflicts_with_resume(self, capsys):
        rc = main(["run", "--resume", "--recover-dir", "/tmp/x",
                   "--resilience"])
        assert rc == 2
        assert "--resilience" in capsys.readouterr().err

    def test_run_with_resilience_prints_summary_line(self, tmp_path,
                                                     capsys):
        out = tmp_path / "t.csv"
        rc = main(["run", "--days", "1", "--seed", "4", "--resilience",
                   "--out", str(out)])
        assert rc == 0
        assert "resilience:" in capsys.readouterr().out
        assert out.exists()

    def test_resilience_command_unknown_scenario(self, capsys):
        rc = main(["resilience", "--scenario", "bogus"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_resilience_command_json_digest(self, tmp_path, capsys):
        out = tmp_path / "digest.json"
        rc = main(["resilience", "--days", "1", "--seed", "7",
                   "--scenario", "flapping", "--json", "--out", str(out)])
        assert rc == 0
        digest = json.loads(out.read_text())
        assert digest["policy_attached"]
        assert digest["reconciliation"]["unexplained"] == 0
        printed = json.loads(
            capsys.readouterr().out.split("resilience digest ->")[0])
        assert printed == digest

    def test_resilience_command_fault_free(self, capsys):
        rc = main(["resilience", "--days", "1", "--scenario", "none"])
        assert rc == 0
        assert "zero unexplained slots" in capsys.readouterr().out
