"""Coordinator-side post-collecting code.

DDC lets the user attach *post-collecting code* to a probe: a Python
callable executed at the coordinator immediately after each successful
remote execution, receiving the probe's stdout/stderr plus context (the
remote machine's name, the collection time).  Its job is to parse,
extract and persist whatever the study needs (paper section 3, Fig. 1
step 3).

:class:`SamplePostCollector` is the post-collecting code of the
monitoring experiment: it parses W32Probe reports into
:class:`~repro.traces.records.Sample` records, maintains the per-machine
static info, and appends to a :class:`~repro.traces.store.TraceStore`.
It has no persistence hook of its own: a crash-safe run journals the
rows the store gained at the end of each pass
(:meth:`repro.recovery.runtime.RecoveryRuntime.on_iteration_end`), so
the object pass and the columnar pass write the same journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.ddc.w32probe import parse_w32probe, session_fields
from repro.errors import ProbeError
from repro.traces.records import Sample, StaticInfo
from repro.traces.store import TraceStore

__all__ = ["PostCollectContext", "PostCollector", "SamplePostCollector"]


@dataclass(frozen=True)
class PostCollectContext:
    """Context DDC passes to post-collecting code.

    Attributes
    ----------
    machine_id / hostname / lab:
        Identity of the probed machine (from the coordinator's roster).
    t:
        Absolute collection time (when the probe's output landed).
    iteration:
        Zero-based index of the probing iteration.
    """

    machine_id: int
    hostname: str
    lab: str
    t: float
    iteration: int


class PostCollector(Protocol):
    """Signature of post-collecting code (mirrors DDC's Python hook)."""

    def __call__(
        self, stdout: str, stderr: str, context: PostCollectContext
    ) -> Optional[Sample]:
        """Process one probe execution; return the extracted sample."""
        ...  # pragma: no cover


class SamplePostCollector:
    """Parses W32Probe output into samples and stores them.

    Parameters
    ----------
    store:
        Destination trace store.  If the store carries a
        :class:`~repro.traces.records.TraceMeta`, static machine info is
        registered there on first sight of each machine.
    strict:
        When true (default), malformed probe output raises
        :class:`~repro.errors.ProbeError`; when false it is counted in
        :attr:`parse_failures` and dropped, which is how a long-running
        unattended collector must behave.
    """

    def __init__(self, store: TraceStore, *, strict: bool = True):
        self.store = store
        self.strict = strict
        self.parse_failures = 0

    def __call__(
        self, stdout: str, stderr: str, context: PostCollectContext
    ) -> Optional[Sample]:
        """Parse, persist, and return the sample for this execution."""
        del stderr  # W32Probe writes nothing there on success
        try:
            report = parse_w32probe(stdout)
            sample = self._to_sample(report, context)
        except (ProbeError, ValueError, KeyError) as exc:
            if self.strict:
                raise ProbeError(
                    f"{context.hostname} iter {context.iteration}: {exc}"
                ) from exc
            self.parse_failures += 1
            return None
        self.store.add(sample)
        self._register_static(report, context)
        return sample

    # ------------------------------------------------------------------
    def _to_sample(self, report: dict, context: PostCollectContext) -> Sample:
        sess = session_fields(report)
        return Sample(
            machine_id=context.machine_id,
            hostname=report["host"],
            lab=context.lab,
            iteration=context.iteration,
            t=context.t,
            boot_time=float(report["boot_time_s"]),
            uptime_s=float(report["uptime_s"]),
            cpu_idle_s=min(float(report["cpu.idle_s"]), float(report["uptime_s"])),
            mem_load_pct=float(report["mem.load_pct"]),
            swap_load_pct=float(report["swap.load_pct"]),
            disk_total_b=int(report["disk.total_bytes"]),
            disk_free_b=int(report["disk.free_bytes"]),
            smart_cycles=int(report["smart.power_cycles"]),
            smart_poh_h=float(report["smart.power_on_hours"]),
            net_sent_b=int(report["net.sent_bytes"]),
            net_recv_b=int(report["net.recv_bytes"]),
            has_session=sess is not None,
            username=sess[0] if sess else "",
            session_start=sess[1] if sess else float("nan"),
        )

    def _register_static(self, report: dict, context: PostCollectContext) -> None:
        meta = self.store.meta
        if meta is None or context.machine_id in meta.statics:
            return
        meta.statics[context.machine_id] = StaticInfo(
            machine_id=context.machine_id,
            hostname=report["host"],
            lab=context.lab,
            cpu_name=report["cpu.name"],
            cpu_mhz=float(report["cpu.mhz"]),
            os_name=report["os"],
            ram_mb=int(report["ram.total_mb"]),
            swap_mb=int(report["swap.total_mb"]),
            disk_serial=report["disk.serial"],
            disk_total_b=int(report["disk.total_bytes"]),
            mac=report["mac.0"],
        )
