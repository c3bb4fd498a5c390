"""The NBench benchmark probe.

Section 4.1: "NBench performance indexes were gathered with DDC using the
corresponding benchmark probe."  This probe runs the ten-kernel suite on
the remote machine and reports per-kernel rates plus the two aggregate
indexes on stdout.

Against *simulated* machines the kernels cannot execute at
period-correct speed, so the probe consults the calibrated performance
model (:mod:`repro.nbench.model`) -- the simulated analogue of actually
running the suite on that hardware, noise included.  On the *host*, the
same wire format is produced by :func:`host_nbench_report`, which really
executes the kernels.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ddc.probe import Probe, ProbeResult
from repro.errors import ProbeError
from repro.machines.hardware import MachineSpec
from repro.machines.winapi import Win32Api
from repro.nbench.index import compute_indexes
from repro.nbench.kernels import ALL_KERNELS
from repro.nbench.model import predict_rates
from repro.nbench.runner import run_benchmark_suite

__all__ = ["NBenchProbe", "parse_nbench_output", "host_nbench_report"]

_HEADER = "NBenchProbe/1.0"


def _format_report(hostname: str, rates: Dict[str, float]) -> str:
    int_idx, fp_idx = compute_indexes(rates)
    lines = [_HEADER, f"host: {hostname}"]
    for k in ALL_KERNELS:
        lines.append(f"kernel.{k.name}: {rates[k.name]:.4f}")
    lines.append(f"index.int: {int_idx:.2f}")
    lines.append(f"index.fp: {fp_idx:.2f}")
    return "\n".join(lines) + "\n"


class NBenchProbe(Probe):
    """Benchmark probe producing per-kernel rates and composite indexes.

    Parameters
    ----------
    rng:
        Measurement-noise stream (real NBench runs scatter a few percent
        between executions on the same box).

    Notes
    -----
    Unlike W32Probe this probe is *not* free: the suite loads the CPU for
    its whole runtime, so it was run once per machine, not every 15
    minutes.  ``cpu_seconds`` reflects that cost.
    """

    name = "nbench_probe.exe"

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def run(self, api: Win32Api, now: float) -> ProbeResult:
        """Benchmark the machine behind ``api`` at time ``now``."""
        del now
        return self.benchmark(api.machine_spec)

    def benchmark(self, spec: MachineSpec) -> ProbeResult:
        """Benchmark a machine of hardware ``spec``: the result depends
        on nothing but the spec and the noise stream."""
        rates = predict_rates(spec, self._rng)
        return ProbeResult(
            stdout=_format_report(spec.hostname, rates),
            cpu_seconds=45.0,  # a full suite run takes tens of seconds
        )


def host_nbench_report(hostname: str = "localhost", *, min_duration: float = 0.05) -> str:
    """Really execute the kernels on the host and format the same report."""
    timings, _, _ = run_benchmark_suite(min_duration=min_duration)
    return _format_report(hostname, {n: t.rate for n, t in timings.items()})


def parse_nbench_output(stdout: str) -> Dict[str, float]:
    """Parse an NBench report into ``{kernel -> rate, 'int' / 'fp' -> index}``.

    Raises
    ------
    ProbeError
        On malformed or incomplete reports.
    """
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("NBenchProbe/"):
        raise ProbeError("not an NBench probe report")
    out: Dict[str, float] = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("host:"):
            continue
        if ": " not in line:
            raise ProbeError(f"malformed NBench line {line!r}")
        key, value = line.split(": ", 1)
        if key.startswith("kernel."):
            out[key[len("kernel."):]] = float(value)
        elif key == "index.int":
            out["int"] = float(value)
        elif key == "index.fp":
            out["fp"] = float(value)
        else:
            raise ProbeError(f"unknown NBench key {key!r}")
    missing = {k.name for k in ALL_KERNELS} - out.keys()
    if missing or "int" not in out or "fp" not in out:
        raise ProbeError(f"incomplete NBench report (missing {sorted(missing)})")
    return out
