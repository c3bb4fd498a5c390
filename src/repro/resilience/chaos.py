"""Differential chaos harness: policy-on vs policy-off, per scenario.

For each :mod:`repro.faults` scenario the harness runs the same
experiment twice -- once with the classic coordinator, once with a
:class:`~repro.resilience.ResiliencePolicy` attached -- and checks the
control plane's contract: **policy-on must dominate policy-off**, with a
strictly higher response rate and a p99 iteration time no worse, and
the slot accounting must close with zero unexplained slots on both
sides.  :func:`verdict` is the one statement of that contract.  All
runs are fully seeded, so verdicts are deterministic across reruns.

Run it directly (CI's ``resilience-chaos`` job does)::

    PYTHONPATH=src python -m repro.resilience.chaos --days 1 --seed 7 \\
        --out resilience-report.json

Exit status is 1 when any scenario fails :func:`verdict`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.faults.scenarios import (
    AccessDeniedStorm,
    CoordinatorOutage,
    FlappingHost,
    NetworkPartition,
    SlowMachines,
    StdoutCorruption,
)
from repro.resilience.policy import ResiliencePolicy
from repro.sim.calendar import HOUR

__all__ = ["SCENARIOS", "chaos_policy", "run_one", "run_differential",
           "verdict", "report_differential", "main"]

#: ``name -> factory(horizon, seed) -> FaultPlan`` for every scenario in
#: the catalog.  Each call builds a *fresh* plan (plans own a private RNG
#: that must not be shared between the on- and off-policy runs).
SCENARIOS: Dict[str, Callable[[float, int], FaultPlan]] = {
    "outage": lambda horizon, seed: FaultPlan(
        [CoordinatorOutage(start=0.30 * horizon, end=0.45 * horizon)],
        seed=seed,
    ),
    "partition": lambda horizon, seed: FaultPlan(
        [NetworkPartition(("L01", "L02"),
                          start=0.20 * horizon, end=0.80 * horizon)],
        seed=seed,
    ),
    "flapping": lambda horizon, seed: FaultPlan(
        # A 4 h period with a 50% duty cycle keeps each down phase 2 h
        # long (8 consecutive 15-min probes), so breakers structurally
        # trip and recover several times over the run.
        [FlappingHost(range(0, 24), period=4 * HOUR, down_fraction=0.5)],
        seed=seed,
    ),
    "slow": lambda horizon, seed: FaultPlan(
        [SlowMachines(fraction=0.3, factor=6.0,
                      start=0.10 * horizon, end=0.90 * horizon)],
        seed=seed,
    ),
    "corruption": lambda horizon, seed: FaultPlan(
        [StdoutCorruption(probability=0.2, mode="truncate")],
        seed=seed,
    ),
    "storm": lambda horizon, seed: FaultPlan(
        [AccessDeniedStorm(probability=0.35)],
        seed=seed,
    ),
}


def chaos_policy(seed: int = 0) -> ResiliencePolicy:
    """The policy the harness (and CI) runs with.

    Defaults except for a breaker cooldown tuned to the harness's short
    horizons: production-scale cooldowns would never see a half-open
    probe inside a few simulated hours.
    """
    return ResiliencePolicy(seed=seed, breaker_cooldown=1800.0,
                            breaker_cooldown_max=3600.0)


def run_one(
    scenario: str,
    *,
    days: int = 1,
    seed: int = 7,
    policy: Optional[ResiliencePolicy] = None,
) -> Dict[str, object]:
    """Run one scenario once and return its resilience summary."""
    from repro.config import ExperimentConfig
    from repro.experiment import run_experiment
    from repro.report.resilience import resilience_summary

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"pick one of {sorted(SCENARIOS)}")
    cfg = ExperimentConfig(days=days, seed=seed)
    plan = SCENARIOS[scenario](cfg.horizon, seed)
    result = run_experiment(
        cfg,
        faults=plan,
        strict_postcollect=False,
        collect_nbench=False,
        resilience=policy,
    )
    summary = resilience_summary(result)
    summary["scenario"] = scenario
    return summary


def run_differential(
    *,
    days: int = 1,
    seed: int = 7,
    scenarios: Optional[Sequence[str]] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> List[Dict[str, object]]:
    """Policy-on vs policy-off rows for the requested scenarios."""
    policy = policy or chaos_policy(seed)
    rows: List[Dict[str, object]] = []
    for name in scenarios or sorted(SCENARIOS):
        off = run_one(name, days=days, seed=seed, policy=None)
        on = run_one(name, days=days, seed=seed, policy=policy)
        row = {
            "scenario": name,
            "response_rate_off": off["response_rate"],
            "response_rate_on": on["response_rate"],
            "p99_off": off["p99_iteration_seconds"],
            "p99_on": on["p99_iteration_seconds"],
            "unexplained_on": on["reconciliation"]["unexplained"],
            "unexplained_off": off["reconciliation"]["unexplained"],
            "off": off,
            "on": on,
        }
        row["dominates"] = not verdict(row)
        rows.append(row)
    return rows


def verdict(row: Dict[str, object]) -> List[str]:
    """Why policy-on fails to dominate in one differential row.

    Empty when it dominates: a strictly higher response rate, a p99
    iteration time no worse, and zero unexplained slots on both sides.
    """
    reasons = []
    if not row["response_rate_on"] > row["response_rate_off"]:
        reasons.append("policy-on does not raise the response rate")
    if row["p99_on"] > row["p99_off"]:
        reasons.append("policy-on regresses p99 iteration time")
    if row["unexplained_on"] != 0 or row["unexplained_off"] != 0:
        reasons.append("accounting does not close")
    return reasons


def report_differential(rows: List[Dict[str, object]],
                        out: Optional[str] = None) -> int:
    """Print the differential table, write the JSON report to ``out``,
    print one ``FAIL`` line per :func:`verdict` reason, and return the
    exit status (1 when any scenario fails)."""
    from repro.report.resilience import render_differential

    print(render_differential(rows))
    if out:
        with open(out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"reconciliation report -> {out}")
    failures = [f"{row['scenario']}: {reason}"
                for row in rows for reason in verdict(row)]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point of the chaos harness (used by CI)."""
    parser = argparse.ArgumentParser(
        prog="repro.resilience.chaos",
        description="policy-on vs policy-off differential across the "
        "fault-scenario catalog",
    )
    parser.add_argument("--days", type=int, default=1,
                        help="simulated days per run (default 1)")
    parser.add_argument("--seed", type=int, default=7,
                        help="experiment and policy seed (default 7)")
    parser.add_argument("--scenario", action="append", default=None,
                        choices=sorted(SCENARIOS), dest="scenarios",
                        help="run only this scenario (repeatable)")
    parser.add_argument("--out", default=None, metavar="REPORT",
                        help="write the full JSON reconciliation report "
                        "here (the CI artifact)")
    args = parser.parse_args(argv)

    rows = run_differential(days=args.days, seed=args.seed,
                            scenarios=args.scenarios)
    return report_differential(rows, args.out)


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())
