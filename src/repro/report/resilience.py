"""Resilience control-plane reporting and reconciliation.

Renders what the adaptive control plane (:mod:`repro.resilience`) did
during a run and -- the part the chaos harness and CI gate on -- proves
the accounting closes: every machine-slot of every executed iteration is
either a collected sample, an accounted failure, a shed slot or a
breaker skip, with **zero unexplained**:

``observed = collected + parse_failures + timeouts + access_denied
+ shed + breaker_skipped``

where ``observed = iterations_run * n_machines``.  The renderer works on
any :class:`~repro.experiment.MonitoringResult`; without an attached
policy the resilience rows are simply zero and the identity collapses to
the classic ``observed = attempts``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.report.tables import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiment import MonitoringResult

__all__ = ["resilience_summary", "render_resilience_report",
           "render_differential"]


def _p99(durations: List[float]) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations, dtype=float), 99.0))


def resilience_summary(result: "MonitoringResult") -> Dict[str, object]:
    """JSON-able digest of a run's resilience behaviour and accounting."""
    meta = result.meta
    coord = result.coordinator
    rc = coord.resilience
    observed = meta.iterations_run * meta.n_machines
    failed = meta.timeouts + meta.access_denied + meta.parse_failures
    unexplained = (observed - meta.samples_collected - failed
                   - meta.shed - meta.breaker_skipped)
    summary: Dict[str, object] = {
        "policy_attached": rc is not None,
        "reconciliation": {
            "observed": observed,
            "attempts": meta.attempts,
            "collected": meta.samples_collected,
            "parse_failures": meta.parse_failures,
            "timeouts": meta.timeouts,
            "access_denied": meta.access_denied,
            "shed": meta.shed,
            "breaker_skipped": meta.breaker_skipped,
            "unexplained": unexplained,
        },
        "response_rate": coord.response_rate,
        "p99_iteration_seconds": _p99(coord.iteration_durations),
        "retries": {
            "attempted": meta.retries,
            "recovered": meta.retries_recovered,
            "skipped": meta.retries_skipped,
        },
        "hedging": {
            "hedges": meta.hedges,
            "hedge_wins": meta.hedge_wins,
        },
    }
    if rc is not None:
        transitions: Dict[str, int] = {}
        for tr in rc.breaker_log:
            transitions[tr.reason] = transitions.get(tr.reason, 0) + 1
        summary["breaker"] = {
            "states": rc.state_counts(),
            "transitions": transitions,
            "log_entries": len(rc.breaker_log),
        }
        summary["shedding"] = {
            "total": rc.shed_total,
            "by_reason": dict(sorted(rc.shed_by_reason.items())),
            "ledger_entries": len(rc.shed_ledger),
            "log_dropped": rc.log_dropped,
        }
        summary["deadlines"] = rc.deadlines()
        summary["fastfail_cuts"] = rc.fastfail_cuts
    return summary


def render_resilience_report(result: "MonitoringResult") -> str:
    """Human-readable resilience report for one finished run."""
    s = resilience_summary(result)
    rec = s["reconciliation"]
    parts: List[str] = []

    table = Table(["slot accounting", "count"])
    for key in ("observed", "collected", "parse_failures", "timeouts",
                "access_denied", "shed", "breaker_skipped", "unexplained"):
        table.add_row([key, rec[key]])
    parts.append("Reconciliation (observed = collected + failures + shed "
                 "+ breaker_skipped)\n" + table.render())
    ok = rec["unexplained"] == 0
    parts.append(f"accounting {'closes: zero unexplained slots' if ok else 'DOES NOT CLOSE'}"
                 + ("" if ok else f" ({rec['unexplained']} unexplained)"))

    table = Table(["metric", "value"])
    table.add_row(["response rate", f"{100 * s['response_rate']:.1f}%"])
    table.add_row(["p99 iteration seconds",
                   f"{s['p99_iteration_seconds']:.2f}"])
    retries = s["retries"]
    table.add_row(["retries attempted / recovered / skipped",
                   f"{retries['attempted']} / {retries['recovered']} / "
                   f"{retries['skipped']}"])
    hedging = s["hedging"]
    table.add_row(["hedges / wins",
                   f"{hedging['hedges']} / {hedging['hedge_wins']}"])
    if s["policy_attached"]:
        table.add_row(["deadline fast-fail cuts", s["fastfail_cuts"]])
    parts.append(table.render())

    if s["policy_attached"]:
        breaker = s["breaker"]
        table = Table(["breaker", "value"])
        for state, count in breaker["states"].items():
            table.add_row([f"machines {state}", count])
        for reason, count in sorted(breaker["transitions"].items()):
            table.add_row([f"transitions: {reason}", count])
        parts.append(table.render())

        shedding = s["shedding"]
        table = Table(["shedding", "value"])
        table.add_row(["total shed", shedding["total"]])
        for reason, count in shedding["by_reason"].items():
            table.add_row([f"reason: {reason}", count])
        if shedding["log_dropped"]:
            table.add_row(["ledger entries dropped (max_log)",
                           shedding["log_dropped"]])
        parts.append(table.render())

        table = Table(["lab", "adaptive deadline (s)"])
        for lab, deadline in s["deadlines"].items():
            table.add_row([lab, "warming up" if deadline is None
                           else f"{deadline:.2f}"])
        parts.append(table.render())
    else:
        parts.append("(no ResiliencePolicy attached: control plane inactive)")
    return "\n\n".join(parts)


def render_differential(rows: List[Dict[str, object]]) -> str:
    """Render policy-on vs policy-off rows from the chaos harness.

    Each row carries ``scenario``, ``response_rate_off/_on``,
    ``p99_off/_on`` and ``unexplained_off/_on``; the verdict column
    states whether policy-on dominates per
    :func:`repro.resilience.chaos.verdict`.
    """
    from repro.resilience.chaos import verdict

    table = Table(["scenario", "resp off", "resp on", "p99 off", "p99 on",
                   "verdict"])
    for row in rows:
        table.add_row([
            row["scenario"],
            f"{100 * row['response_rate_off']:.1f}%",
            f"{100 * row['response_rate_on']:.1f}%",
            f"{row['p99_off']:.2f}s",
            f"{row['p99_on']:.2f}s",
            "LOSES" if verdict(row) else "dominates",
        ])
    return table.render()
