"""W32Probe: the monitoring probe of section 3.1.

The probe gathers the static metrics (processor, OS, memory sizes, disk
serial/size, MACs) and the dynamic metrics (boot time and uptime,
idle-thread CPU time, memory and swap load, free disk space, SMART power
counters, NIC byte totals, interactive session) and serialises them to
stdout as ``key: value`` lines -- one metric per line, stable keys, a
versioned header.  :func:`parse_w32probe` is the exact inverse and is the
*only* consumer of the format, used by the coordinator's post-collecting
code.

Keeping a text wire format (instead of handing Python objects around)
preserves the real system's failure modes: truncated output, unknown
keys, and version skew are all representable and tested.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ddc.probe import Probe, ProbeResult
from repro.errors import ProbeError
from repro.machines.winapi import Win32Api

__all__ = ["W32PROBE_VERSION", "W32Probe", "parse_w32probe"]

#: Wire-format version emitted in the header line.
W32PROBE_VERSION = "1.2"

_HEADER = f"W32Probe/{W32PROBE_VERSION}"

# Keys that every well-formed report must carry (session keys are optional).
_REQUIRED_KEYS = frozenset(
    {
        "host",
        "os",
        "cpu.name",
        "cpu.mhz",
        "ram.total_mb",
        "swap.total_mb",
        "disk.serial",
        "disk.total_bytes",
        "disk.free_bytes",
        "smart.power_cycles",
        "smart.power_on_hours",
        "boot_time_s",
        "uptime_s",
        "cpu.idle_s",
        "mem.load_pct",
        "swap.load_pct",
        "net.sent_bytes",
        "net.recv_bytes",
        "mac.0",
    }
)


class W32Probe(Probe):
    """The monitoring probe.  See module docstring for the wire format."""

    name = "w32probe.exe"

    #: Draw-free and fixed-cost: the columnar pass's probe cost, which
    #: it charges each powered machine without materialising the report
    #: (must equal the ``cpu_seconds`` :meth:`run` reports).
    shadow_cost_seconds = 0.01

    def run(self, api: Win32Api, now: float) -> ProbeResult:
        """Collect one full report from the machine behind ``api``."""
        info = api.system_info()
        mem = api.global_memory_status(now)
        free_b, total_b = api.get_disk_free_space(now)
        smart = api.smart_read_attributes(now)
        nics = api.get_if_table(now)
        session = api.query_interactive_session(now)

        lines = [
            _HEADER,
            f"host: {info.hostname}",
            f"os: {info.os_name}",
            f"cpu.name: {info.processor_name}",
            f"cpu.mhz: {info.processor_mhz:.0f}",
            f"ram.total_mb: {info.total_phys_mb}",
            f"swap.total_mb: {info.total_swap_mb}",
            f"disk.serial: {info.disk_serial}",
            f"disk.total_bytes: {info.disk_total_bytes}",
            f"disk.free_bytes: {free_b}",
            f"smart.power_cycles: {smart[0x0C].raw}",
            f"smart.power_on_hours: {smart[0x09].raw}",
            f"boot_time_s: {api.boot_time(now):.3f}",
            f"uptime_s: {api.get_tick_count(now) / 1000.0:.3f}",
            f"cpu.idle_s: {api.get_idle_time(now):.3f}",
            f"mem.load_pct: {mem.dw_memory_load}",
            f"swap.load_pct: {mem.swap_load}",
            f"net.sent_bytes: {nics[0].bytes_sent}",
            f"net.recv_bytes: {nics[0].bytes_recv}",
        ]
        for i, nic in enumerate(nics):
            lines.append(f"mac.{i}: {nic.mac}")
        if session is not None:
            lines.append(f"session.user: {session.username}")
            lines.append(f"session.logon_s: {session.logon_time:.3f}")
        # W32Probe is a handful of win32 calls: charge a token CPU cost.
        return ProbeResult(stdout="\n".join(lines) + "\n",
                           cpu_seconds=self.shadow_cost_seconds)


def parse_w32probe(stdout: str) -> Dict[str, str]:
    """Parse a W32Probe report back into a key -> value dict.

    Raises
    ------
    ProbeError
        On a missing/unknown header, a malformed line, or a report missing
        required keys (e.g. truncated by a dying connection).
    """
    lines = stdout.splitlines()
    if not lines:
        raise ProbeError("empty probe output")
    header = lines[0].strip()
    if not header.startswith("W32Probe/"):
        raise ProbeError(f"not a W32Probe report (header {header!r})")
    version = header.split("/", 1)[1]
    if version.split(".")[0] != W32PROBE_VERSION.split(".")[0]:
        raise ProbeError(f"incompatible W32Probe major version {version!r}")
    out: Dict[str, str] = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line:
            continue
        if ": " not in line:
            raise ProbeError(f"malformed probe line {line!r}")
        key, value = line.split(": ", 1)
        if key in out:
            raise ProbeError(f"duplicate probe key {key!r}")
        out[key] = value
    missing = _REQUIRED_KEYS - out.keys()
    if missing:
        raise ProbeError(f"probe report missing keys: {sorted(missing)}")
    return out


def session_fields(report: Dict[str, str]) -> Optional[tuple[str, float]]:
    """Extract ``(username, logon_time)`` from a parsed report, or ``None``.

    A report must carry either both session keys or neither.
    """
    user = report.get("session.user")
    logon = report.get("session.logon_s")
    if (user is None) != (logon is None):
        raise ProbeError("inconsistent session fields in probe report")
    if user is None:
        return None
    return user, float(logon)  # type: ignore[arg-type]
