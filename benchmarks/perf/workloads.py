"""The five workloads and why each is in the benchmark.

Every workload is a closed batch job: one ``run_experiment`` call over
the public API, then the read path a user runs on its output.  Sizes
are chosen so that each stresses a different layer (see README.md):

- ``paper`` is many small passes, so per-pass fixed cost dominates;
- ``fleet10k`` is few wide passes, so per-machine cost dominates;
- ``journaled`` forces the object pass and exercises the write path
  (journal, checkpoints) and the live replay; a gain in the columnar
  kernel or the tick backend must show no change here;
- ``sharded10k`` and ``net10k`` are ``fleet10k`` fanned out over two
  worker processes, through the process pool and the TCP lease
  control plane respectively.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Workload", "WORKLOADS", "select"]

#: Size of every workload in quick mode (the self-test).
QUICK_MACHINES = 169
QUICK_DAYS = 2
#: Worker processes of the sharded workloads (the host has 2 CPUs).
SHARDS = 2
#: Fleets below this size get their simulation seed screened for
#: typical demand (see :meth:`Workload.simulation_seed`).
SCREEN_BELOW_MACHINES = 1000
#: Candidate seeds screened per benchmark seed (odd: one is the median).
SCREEN_CANDIDATES = 9


@dataclass(frozen=True)
class Workload:
    """One named input set: fleet size, run length and transport."""

    name: str
    why: str
    machines: int
    days: int
    shards: int = 1
    net: bool = False
    journaled: bool = False

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @property
    def shape(self) -> tuple:
        """Inputs and transport; equal shapes run identical workloads."""
        return (self.machines, self.days, self.shards, self.net,
                self.journaled)

    def quick(self) -> "Workload":
        """The same workload shrunk to the quick-mode size."""
        return dataclasses.replace(self, machines=QUICK_MACHINES,
                                   days=QUICK_DAYS)

    def sequential(self) -> "Workload":
        """The unsharded run whose output this workload must equal."""
        return dataclasses.replace(self, name=f"{self.name}.sequential",
                                   shards=1, net=False)

    def simulation_seed(self, seed: int) -> int:
        """The seed the program receives for benchmark seed ``seed``.

        Each lab draws a demand multiplier (lognormal, sigma 0.12), so a
        169-machine fleet's simulated activity, and with it the run
        time, varies by about 5% from seed to seed; on 10k machines the
        hundreds of labs average it out.  A small fleet therefore
        screens :data:`SCREEN_CANDIDATES` seeds derived from ``seed``
        and keeps the one whose fleet-wide demand is the median: the
        inputs still change with the seed, their size less (the spread
        of simulated events across seeds fell from about 4.5% to 3%).
        """
        if self.machines >= SCREEN_BELOW_MACHINES:
            return seed
        from repro.config import ExperimentConfig
        from repro.machines.hardware import scaled_labs
        from repro.sim.fleet import FleetSimulator

        labs = scaled_labs(self.machines)

        def demand(candidate: int) -> float:
            fleet = FleetSimulator(
                ExperimentConfig(days=self.days, seed=candidate), labs=labs)
            return sum(lab.n_machines * fleet.lab_demand[lab.name]
                       for lab in labs)

        candidates = [seed * 100 + j for j in range(SCREEN_CANDIDATES)]
        return sorted(candidates, key=demand)[SCREEN_CANDIDATES // 2]

    def child_args(self) -> List[str]:
        """Arguments that make ``benchmarks.perf.execute`` run it."""
        args = ["--machines", str(self.machines), "--days", str(self.days),
                "--shards", str(self.shards)]
        if self.net:
            args.append("--net")
        if self.journaled:
            args.append("--journaled")
        return args


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper",
        "The paper's own run, 169 machines x 77 days: many small passes, "
        "so per-pass fixed cost and the tick backend dominate",
        machines=169, days=77,
    ),
    Workload(
        "fleet10k",
        "10k machines x 1 day: few wide passes, so per-machine cost "
        "(behaviour, fleet build, NBench) dominates",
        machines=10_000, days=1,
    ),
    Workload(
        "journaled",
        "169 machines x 7 days with journal and checkpoints, then live "
        "replay: the object pass and the write path, bypassing the "
        "columnar kernel",
        machines=169, days=7, journaled=True,
    ),
    Workload(
        "sharded10k",
        "fleet10k fanned out over 2 worker processes by the default "
        "process pool: fan-out and merge cost",
        machines=10_000, days=1, shards=SHARDS,
    ),
    Workload(
        "net10k",
        "fleet10k over the TCP lease control plane with 2 spawned "
        "workers: the networked transport's cost",
        machines=10_000, days=1, shards=SHARDS, net=True,
    ),
)}


def select(names, *, quick: bool) -> List[Workload]:
    """Workloads by name, in catalog order, shrunk in quick mode."""
    unknown = sorted(set(names) - WORKLOADS.keys())
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; "
                         f"expected some of {sorted(WORKLOADS)}")
    chosen = [w for n, w in WORKLOADS.items() if n in set(names)]
    return [w.quick() for w in chosen] if quick else chosen
