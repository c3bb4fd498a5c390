"""The differential chaos harness: dominance, accounting, determinism."""

import json

import pytest

from repro.cli import main as cli_main
from repro.resilience import chaos
from repro.resilience.chaos import (
    SCENARIOS,
    chaos_policy,
    main,
    run_differential,
    run_one,
)


class TestCatalog:
    def test_covers_every_scenario_family(self):
        assert set(SCENARIOS) == {"outage", "partition", "flapping",
                                  "slow", "corruption", "storm"}

    def test_factories_build_fresh_plans(self):
        f = SCENARIOS["flapping"]
        assert f(86400.0, 7) is not f(86400.0, 7)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_one("thermonuclear")


class TestDifferential:
    @pytest.fixture(scope="class")
    def rows(self):
        # two structurally different scenarios: flapping exercises the
        # breaker + fast-fail machinery, slow exercises hedging
        return run_differential(days=1, seed=7,
                                scenarios=["flapping", "slow"])

    def test_policy_on_dominates(self, rows):
        for row in rows:
            assert row["dominates"], row["scenario"]
            assert row["response_rate_on"] > row["response_rate_off"]
            assert row["p99_on"] <= row["p99_off"]

    def test_accounting_closes_on_both_sides(self, rows):
        for row in rows:
            assert row["unexplained_on"] == 0
            assert row["unexplained_off"] == 0

    def test_mechanisms_engage(self, rows):
        by_name = {r["scenario"]: r for r in rows}
        flapping = by_name["flapping"]["on"]
        assert flapping["breaker"]["transitions"]
        assert flapping["reconciliation"]["breaker_skipped"] > 0
        slow = by_name["slow"]["on"]
        assert slow["hedging"]["hedges"] > 0
        assert slow["hedging"]["hedge_wins"] > 0

    def test_policy_off_rows_have_no_control_plane(self, rows):
        for row in rows:
            assert row["on"]["policy_attached"]
            assert not row["off"]["policy_attached"]

    def test_verdict_is_deterministic(self, rows):
        again = run_differential(days=1, seed=7, scenarios=["flapping"])[0]
        before = next(r for r in rows if r["scenario"] == "flapping")
        for key in ("response_rate_off", "response_rate_on",
                    "p99_off", "p99_on"):
            assert again[key] == before[key]


class TestMain:
    def test_exit_zero_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["--days", "1", "--seed", "7",
                   "--scenario", "storm", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert [r["scenario"] for r in rows] == ["storm"]
        assert rows[0]["dominates"]
        stdout = capsys.readouterr().out
        assert "storm" in stdout and str(out) in stdout


def _row(scenario, **overrides):
    """A differential row in which policy-on dominates, then overridden."""
    row = {"scenario": scenario, "response_rate_off": 0.40,
           "response_rate_on": 0.60, "p99_off": 200.0, "p99_on": 180.0,
           "unexplained_on": 0, "unexplained_off": 0}
    row.update(overrides)
    return row


class TestOneVerdict:
    """The harness and ``repro resilience --differential`` fail on every
    clause docs/resilience.md promises, through the one verdict."""

    @pytest.mark.parametrize("row", [
        _row("slow", p99_on=250.0),
        _row("storm", unexplained_on=3),
        _row("outage", response_rate_on=0.40),
    ], ids=["p99", "accounting", "equal-rate"])
    @pytest.mark.parametrize("entry", ["chaos", "cli"])
    def test_failing_row_exits_1_and_names_scenario(self, monkeypatch,
                                                    capsys, row, entry):
        monkeypatch.setattr(chaos, "run_differential",
                            lambda **kwargs: [row])
        if entry == "chaos":
            rc = main(["--days", "1"])
        else:
            rc = cli_main(["resilience", "--differential"])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"FAIL {row['scenario']}: " in captured.err
        assert "LOSES" in captured.out


class TestChaosPolicy:
    def test_short_horizon_cooldowns(self):
        p = chaos_policy(3)
        assert p.seed == 3
        assert p.breaker_cooldown <= 1800.0
