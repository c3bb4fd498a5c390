"""Frozen snapshot of an observed run, with JSONL interchange.

An :class:`ObsSnapshot` is the portable artefact of an instrumented run:
every metric row, every recorded span, the sampled event stream and the
buffer-overflow accounting, detached from the live registry so it can be
serialized, shipped (e.g. as a CI artifact) and re-analysed offline by
``repro obs`` or :mod:`repro.report.obs`.

JSONL layout: the first line is a ``meta`` header, then one object per
record, each tagged with ``kind`` (``counter`` / ``gauge`` /
``histogram`` / ``span`` / ``event``).  The format round-trips exactly
(``tests/obs`` enforces it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import SnapshotFormatError

__all__ = ["ObsSnapshot", "SNAPSHOT_FORMAT_VERSION"]

#: Bumped whenever the JSONL schema changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

_METRIC_KINDS = ("counter", "gauge", "histogram")


@dataclass
class ObsSnapshot:
    """Immutable-by-convention dump of one run's observability state.

    Attributes
    ----------
    metrics:
        Rows from :meth:`repro.obs.metrics.MetricsRegistry.rows` --
        dicts with ``kind``/``name``/``labels`` plus kind-specific data.
    spans:
        Finished spans as dicts (``name``, ``start``, ``end``, ``depth``,
        ``seq``, ``labels``).
    events:
        Sampled engine events as dicts (``time``, ``seq``, ``name``).
    spans_dropped / events_dropped:
        Records lost to the bounded buffers (0 means complete capture).
    events_seen / event_sample_every:
        Total fired events offered to the sampler and its stride.
    """

    metrics: List[dict] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    spans_dropped: int = 0
    events_dropped: int = 0
    events_seen: int = 0
    event_sample_every: int = 1

    # ------------------------------------------------------------------
    # queries (used by the report renderer and the CLI)
    # ------------------------------------------------------------------
    def _rows(self, kind: str, name: str) -> List[dict]:
        return [r for r in self.metrics if r["kind"] == kind and r["name"] == name]

    def counter_total(self, name: str) -> int:
        """Sum of a counter over every label set (0 when absent)."""
        return sum(r["value"] for r in self._rows("counter", name))

    def counter_by_label(self, name: str, label: str) -> Dict[str, int]:
        """``{label value: count}`` for one counter, summing other labels."""
        out: Dict[str, int] = {}
        for r in self._rows("counter", name):
            key = r["labels"].get(label, "")
            out[key] = out.get(key, 0) + r["value"]
        return out

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """A gauge's value, or ``None`` if never written."""
        want = {k: str(v) for k, v in labels.items()}
        for r in self._rows("gauge", name):
            if r["labels"] == want:
                return r["value"]
        return None

    def histograms(self, name: str) -> List[dict]:
        """All histogram rows for ``name`` (one per label set)."""
        return self._rows("histogram", name)

    def metric_names(self) -> List[str]:
        """Sorted distinct metric names present in the snapshot."""
        return sorted({r["name"] for r in self.metrics})

    def span_durations(self, name: str) -> List[float]:
        """Durations of every recorded span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    # ------------------------------------------------------------------
    # shard merge
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, snapshots: "Sequence[ObsSnapshot]") -> "ObsSnapshot":
        """Combine the snapshots of one run's processes into one.

        A sharded run's workers each observe their own machines' engine
        and agents, and the parent observes the one probing pass, so no
        two snapshots hold the same observation: counter values and
        histogram bucket counts and totals sum per ``(name, labels)``
        row; gauges (heap high-water marks, wall-clock phase timings)
        take the maximum; spans and sampled events concatenate in
        ``snapshots`` order -- the workers in shard order, then the
        parent -- and the drop accounting sums.
        """
        if not snapshots:
            raise SnapshotFormatError("cannot merge zero snapshots")
        merged: Dict[tuple, dict] = {}
        for snap in snapshots:
            for row in snap.metrics:
                key = (row["kind"], row["name"],
                       tuple(sorted(row["labels"].items())))
                have = merged.get(key)
                if have is None:
                    merged[key] = {k: (list(v) if isinstance(v, list) else v)
                                   for k, v in row.items()}
                elif row["kind"] == "histogram":
                    have["counts"] = [a + b for a, b in
                                      zip(have["counts"], row["counts"])]
                    have["count"] += row["count"]
                    have["total"] += row["total"]
                    for agg, fn in (("min", min), ("max", max)):
                        if row[agg] is not None:
                            have[agg] = (row[agg] if have[agg] is None
                                         else fn(have[agg], row[agg]))
                elif row["kind"] == "counter":
                    have["value"] += row["value"]
                else:
                    have["value"] = max(have["value"], row["value"])
        rows = sorted(merged.values(),
                      key=lambda r: (r["name"], sorted(r["labels"].items())))
        return cls(
            metrics=rows,
            spans=[span for snap in snapshots for span in snap.spans],
            events=[event for snap in snapshots for event in snap.events],
            spans_dropped=sum(snap.spans_dropped for snap in snapshots),
            events_dropped=sum(snap.events_dropped for snap in snapshots),
            events_seen=sum(snap.events_seen for snap in snapshots),
            event_sample_every=snapshots[0].event_sample_every,
        )

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------
    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the snapshot as kind-tagged JSONL with a meta header."""
        header = {
            "kind": "meta",
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "spans_dropped": self.spans_dropped,
            "events_dropped": self.events_dropped,
            "events_seen": self.events_seen,
            "event_sample_every": self.event_sample_every,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in self.metrics:
                fh.write(json.dumps(row) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"kind": "span", **span}) + "\n")
            for event in self.events:
                fh.write(json.dumps({"kind": "event", **event}) + "\n")

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "ObsSnapshot":
        """Read a snapshot written by :meth:`write_jsonl`."""
        snap = cls()
        saw_meta = False
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SnapshotFormatError(
                        f"{path}:{line_no}: bad JSON") from exc
                kind = row.get("kind")
                if kind == "meta":
                    if row.get("format_version") != SNAPSHOT_FORMAT_VERSION:
                        raise SnapshotFormatError(
                            f"{path}: unsupported snapshot format "
                            f"{row.get('format_version')!r}"
                        )
                    snap.spans_dropped = int(row.get("spans_dropped", 0))
                    snap.events_dropped = int(row.get("events_dropped", 0))
                    snap.events_seen = int(row.get("events_seen", 0))
                    snap.event_sample_every = int(
                        row.get("event_sample_every", 1))
                    saw_meta = True
                elif kind in _METRIC_KINDS:
                    snap.metrics.append(row)
                elif kind == "span":
                    row.pop("kind")
                    snap.spans.append(row)
                elif kind == "event":
                    row.pop("kind")
                    snap.events.append(row)
                else:
                    raise SnapshotFormatError(
                        f"{path}:{line_no}: unknown record kind {kind!r}")
        if not saw_meta:
            raise SnapshotFormatError(f"{path}: missing snapshot meta header")
        return snap
