"""Probe abstraction.

A DDC probe is, per the paper, "a win32 console application that uses its
output channels to communicate its results": it runs *on the remote
machine*, writes metrics to stdout, diagnostics to stderr, and exits.
The coordinator captures both channels and hands them to probe-specific
post-collecting code.

Here a probe is a Python object whose :meth:`Probe.run` executes against
the remote machine's win32 facade at a given simulated instant.  The
stdout/stderr discipline is kept: a probe returns *text*, and only the
post-collect layer parses it -- so the serialisation format is exercised
end-to-end exactly as in the real system.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.machines.winapi import Win32Api

__all__ = ["ProbeResult", "Probe"]


@dataclass(frozen=True)
class ProbeResult:
    """Captured output of one probe execution.

    Attributes
    ----------
    stdout / stderr:
        The probe's output channels, as captured by the coordinator.
    exit_code:
        Process exit code (0 on success).
    cpu_seconds:
        CPU time the probe consumed on the remote machine.  W32Probe
        "requires practically no CPU" (section 3); the value is kept so
        the overhead claim can be measured (bench_ddc_overhead).
    """

    stdout: str
    stderr: str = ""
    exit_code: int = 0
    cpu_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the probe exited successfully."""
        return self.exit_code == 0


class Probe(abc.ABC):
    """A remotely executable console probe."""

    #: Executable name, as it would be pushed by psexec.
    name: str = "probe.exe"

    #: Fixed CPU cost of one execution, declared only by probes whose
    #: :meth:`run` consumes no randomness and always reports this exact
    #: ``cpu_seconds``.  The columnar pass charges it to each powered
    #: machine's probing cursor without running the probe; ``None``
    #: (the default) means the probe must really run.
    shadow_cost_seconds = None

    @abc.abstractmethod
    def run(self, api: Win32Api, now: float) -> ProbeResult:
        """Execute on the remote machine at simulated time ``now``.

        Parameters
        ----------
        api:
            The machine's win32 surface.
        now:
            Absolute simulation time of the execution.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
