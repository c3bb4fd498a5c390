"""The timing core: repeated measurements summarised as median and IQR.

Every number the perf benchmark reports is a :class:`Summary` of
repeated runs, never a single shot or a best-of-N.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Median, inter-quartile range and count of one metric's runs."""

    median: float
    iqr: float
    n: int

    def as_dict(self) -> dict:
        return {"median": self.median, "iqr": self.iqr, "n": self.n}


def summarize(values: Sequence[float]) -> Summary:
    """Summarise repeated measurements of one metric.

    The IQR uses :func:`statistics.quantiles` (``n=4``, exclusive
    method); with fewer than two values it is 0.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarise zero measurements")
    if len(vals) < 2:
        return Summary(vals[0], 0.0, 1)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return Summary(statistics.median(vals), q3 - q1, len(vals))
