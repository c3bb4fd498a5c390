"""Resilience control-plane overhead on a fault-free run.

Times the same paper-scale experiment (``REPRO_BENCH_DAYS`` days, 169
machines, no fault plan) three ways:

- **baseline** -- ``resilience=None`` (the default, pre-PR behaviour),
- **inert policy** -- a policy whose thresholds are set so no mechanism
  can ever act (breaker needs a billion consecutive failures, hedging
  disabled, the adaptive deadline clamped to the fixed ``off_timeout``):
  the run does bit-identical work to the baseline while still paying
  the full hot path -- :meth:`ResilienceControl.admit` and
  :meth:`~ResilienceControl.observe` per machine-slot plus the O(n)
  shed plan per pass.  This is the clean overhead measurement.
- **default policy** -- :class:`repro.resilience.ResiliencePolicy`
  defaults.  On the organic fleet breakers do trip overnight (machines
  powered off for hours look exactly like dead ones), so this run does
  *less* probing work; it is timed for the user-visible wall clock, not
  for an apples-to-apples hot-path comparison.

Every run pins ``kernel="object"``.  An attached policy forces the
per-object probing pass, so under ``kernel="auto"`` the baseline would
time the columnar pass instead and the comparison would measure the
kernel, not the control plane.  The three configurations are timed in
interleaved rounds (baseline, inert, default, ``ROUNDS`` times), so a
slow episode of the host lands on all three instead of on one.

Overhead budget
---------------
Both policy-attached runs must stay within **5%** of the baseline wall
clock.  The budget holds because the fault-free hot path pays one dict
lookup plus a handful of float operations per machine-slot, and the
per-pass shed plan never finds the budget binding (a fault-free pass
costs ~250 s against a 720 s budget), so nothing is sorted or shed.

``REPRO_BENCH_DAYS=14`` gives a quick but noisier check; the assertion
adds a small absolute slack so short runs don't fail on scheduler
jitter.
"""

from __future__ import annotations

import gc
import os
import time

from benchmarks.conftest import bench_days, bench_seed, show, write_bench_report
from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.report.tables import Table
from repro.resilience import ResiliencePolicy

#: Maximum tolerated policy-on/baseline wall-clock ratio.
OVERHEAD_BUDGET = 1.05
#: Absolute slack (seconds) so short runs tolerate scheduler jitter.
NOISE_SLACK = 0.5
#: Interleaved rounds, each timing every configuration once (minimum
#: taken per configuration -- noise is strictly additive, so the fastest
#: repetition is the best estimate).
ROUNDS = 3


def inert_policy() -> ResiliencePolicy:
    """A policy that pays the full hot path but never changes behaviour.

    The breaker threshold is unreachable, hedging is off, and the
    adaptive deadline's lower clamp equals the executor's 1.5 s
    ``off_timeout`` so ``min(off_timeout, deadline)`` is always the
    fixed timeout.  The resulting trace is bit-identical to baseline.
    """
    return ResiliencePolicy(breaker_min_failures=10**9,
                            hedge_enabled=False,
                            deadline_min=1.5)


def _timed_run(policy):
    """One timed run; returns ``(coordinator, n_samples, wall_seconds)``."""
    cfg = ExperimentConfig(days=bench_days(), seed=bench_seed(),
                           kernel="object")
    gc.collect()
    t0 = time.perf_counter()
    result = run_experiment(cfg, collect_nbench=False, resilience=policy)
    elapsed = time.perf_counter() - t0
    return result.coordinator, len(result.store), elapsed


def _best_of_interleaved(policy_factories, rounds=ROUNDS):
    """Per configuration: ``(coordinator, n_samples, best wall s)``."""
    runs = [[] for _ in policy_factories]
    for _ in range(rounds):
        for timed, factory in zip(runs, policy_factories):
            timed.append(_timed_run(factory()))
    return [(timed[0][0], timed[0][1], min(t for _, _, t in timed))
            for timed in runs]


def test_resilience_overhead_within_budget():
    # warm up imports/allocators so the first timed config isn't penalised
    run_experiment(ExperimentConfig(days=1, seed=bench_seed(),
                                    kernel="object"),
                   collect_nbench=False)

    (_, n_base, base), (inert_coord, n_inert, inert), (coord, _, on) = (
        _best_of_interleaved([lambda: None, inert_policy, ResiliencePolicy])
    )

    # the inert policy did bit-identical work: same trace volume, no
    # mechanism ever fired
    assert n_inert == n_base
    assert inert_coord.shed == 0
    assert inert_coord.breaker_skipped == 0
    assert inert_coord.hedges == 0
    # the default policy never sheds either (the budget is never binding
    # on a fault-free fleet); breakers may trip on overnight power-offs
    assert coord.shed == 0

    table = Table(["configuration", "wall s", "overhead"], ndigits=2)
    for name, seconds in (("baseline (resilience=None)", base),
                          ("inert policy (hot path only)", inert),
                          ("default ResiliencePolicy", on)):
        table.add_row([name, seconds, f"{(seconds - base) / base:+.1%}"])
    show("resilience control-plane overhead", table.render())

    write_bench_report("resilience_overhead", {
        "days": bench_days(),
        "seed": bench_seed(),
        "cpu_count": os.cpu_count() or 1,
        "kernel": "object",
        "rounds": ROUNDS,
        "overhead_target": OVERHEAD_BUDGET,
        "noise_slack_seconds": NOISE_SLACK,
        "target_asserted": True,
        "runs": [
            {"configuration": "baseline", "wall_seconds": round(base, 3),
             "samples": n_base},
            {"configuration": "inert_policy", "wall_seconds": round(inert, 3),
             "samples": n_inert,
             "overhead": round((inert - base) / base, 4)},
            {"configuration": "default_policy", "wall_seconds": round(on, 3),
             "overhead": round((on - base) / base, 4)},
        ],
    }, env_var="REPRO_RESILIENCE_BENCH_OUT")

    assert inert <= base * OVERHEAD_BUDGET + NOISE_SLACK, (
        f"inert-policy run {inert:.2f}s exceeds {OVERHEAD_BUDGET:.0%} of "
        f"baseline {base:.2f}s"
    )
    assert on <= base * OVERHEAD_BUDGET + NOISE_SLACK, (
        f"policy-on run {on:.2f}s exceeds {OVERHEAD_BUDGET:.0%} of "
        f"baseline {base:.2f}s"
    )
