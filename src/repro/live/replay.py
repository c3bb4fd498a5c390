"""Replay a finished journal and compare against the batch analyses.

Two snapshot builders over the *same* journal:

- :func:`replay_snapshot` feeds every record through the streaming
  :class:`~repro.live.rollup.LiveRollups` (exactly what the live
  ingestor does, minus the waiting);
- :func:`batch_snapshot` reconstructs a
  :class:`~repro.traces.store.TraceStore` and runs the real
  :mod:`repro.analysis` modules (``pairwise_cpu``,
  ``idleness_by_login_state``, ``machines_on_series``,
  ``uptime_ratios``, ``cluster_equivalence``) over the columnar trace,
  then formats the results into the same snapshot shape with the same
  :data:`~repro.live.rollup.ROUND_DECIMALS` rounding.

The replay guarantee -- pinned by ``tests/live/test_rollups.py`` and
the CI live-smoke job -- is that the two dicts are **equal**.

Journal-derived metadata
------------------------
A bare journal carries no :class:`~repro.traces.records.TraceMeta`, so
both builders infer the same quantities from the records themselves:

- ``sample_period`` from the first two iteration markers (marker times
  are exactly ``k x period``);
- ``n_machines`` as ``max(machine_id) + 1`` (roster ids are dense
  indexes, and the batch ``bincount`` analyses size arrays the same
  way);
- ``iterations_run`` from the markers' ``ran`` flag (journals written
  before the flag existed count every marker as run).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import AnalysisError, LiveError
from repro.live.rollup import LiveRollups, _round
from repro.recovery.journal import JournalTailReader, iter_bodies
from repro.recovery.runtime import sample_from_json_dict

__all__ = [
    "batch_snapshot",
    "infer_sample_period",
    "read_journal",
    "replay_rollups",
    "replay_snapshot",
]


def _default_period() -> float:
    from repro.config import DdcParams

    return DdcParams().sample_period


def read_journal(
    journal_dir: Union[str, Path],
) -> Tuple[List[dict], List[dict]]:
    """Drain a static journal; returns ``(sample bodies, iter bodies)``."""
    reader = JournalTailReader(journal_dir)
    samples: List[dict] = []
    iters: List[dict] = []
    while True:
        records = reader.poll()
        if not records:
            break
        for rec in records:
            kind = rec.body.get("kind")
            if kind == "sample":
                samples.append(rec.body["data"])
            elif kind == "iter":
                iters.append(rec.body)
    if reader.records_read == 0:
        raise LiveError(f"no journal records found under {journal_dir}")
    return samples, iters


def infer_sample_period(
    journal_dir: Union[str, Path], *, default: Optional[float] = None
) -> float:
    """Infer the sampling period from the journal's iteration markers.

    Marker times are scheduled at exactly ``k x sample_period``, so any
    two markers at distinct iterations pin the period exactly; reading
    stops at the second one.  Falls back to ``default`` when the journal
    holds fewer than two markers; raises
    :class:`~repro.errors.LiveError` if there is no fallback.
    """
    first: Optional[dict] = None
    for body in iter_bodies(journal_dir):
        if body.get("kind") != "iter":
            continue
        if first is None:
            first = body
        elif int(body["k"]) != int(first["k"]):
            return (float(body["t"]) - float(first["t"])) / (
                int(body["k"]) - int(first["k"])
            )
    if default is not None:
        return default
    raise LiveError(
        f"cannot infer sample period: journal under {journal_dir} has "
        "fewer than two iteration markers"
    )


def replay_rollups(
    journal_dir: Union[str, Path], *, sample_period: Optional[float] = None
) -> LiveRollups:
    """Stream a finished journal through fresh :class:`LiveRollups`."""
    if sample_period is None:
        sample_period = infer_sample_period(
            journal_dir, default=_default_period()
        )
    rollups = LiveRollups(sample_period)
    reader = JournalTailReader(journal_dir)
    while True:
        records = reader.poll()
        if not records:
            break
        rollups.ingest_records(records)
    if rollups.records_ingested == 0:
        raise LiveError(f"no journal records found under {journal_dir}")
    return rollups


def replay_snapshot(
    journal_dir: Union[str, Path],
    *,
    sample_period: Optional[float] = None,
    include_machines: bool = True,
) -> dict:
    """The streaming side of the differential: replayed rollup snapshot."""
    rollups = replay_rollups(journal_dir, sample_period=sample_period)
    return rollups.snapshot(include_machines=include_machines)


def batch_snapshot(
    journal_dir: Union[str, Path],
    *,
    sample_period: Optional[float] = None,
    include_machines: bool = True,
) -> dict:
    """The batch side of the differential: :mod:`repro.analysis` output.

    Reconstructs the trace store from the journal, runs the batch
    analyses and formats their results into the snapshot shape of
    :meth:`LiveRollups.snapshot`.
    """
    import numpy as np

    from repro.analysis.availability import machines_on_series, uptime_ratios
    from repro.analysis.cpu import (
        PairwiseCpu,
        idleness_by_login_state,
        pairwise_cpu,
    )
    from repro.analysis.equivalence import cluster_equivalence
    from repro.traces.columnar import ColumnarTrace
    from repro.traces.records import TraceMeta
    from repro.traces.store import TraceStore

    sample_bodies, iter_bodies = read_journal(journal_dir)
    if sample_period is None:
        sample_period = infer_sample_period(
            journal_dir, default=_default_period()
        )

    store = TraceStore()
    for data in sample_bodies:
        store.add(sample_from_json_dict(data))

    scheduled = len(iter_bodies)
    runs = sum(1 for b in iter_bodies if b.get("ran", True))
    last_k = int(iter_bodies[-1]["k"]) if iter_bodies else None
    sim_time = float(iter_bodies[-1]["t"]) if iter_bodies else None

    mid_col = np.asarray(store.column("machine_id"), dtype=np.int64)
    n = int(mid_col.max()) + 1 if len(store) else 0
    attempts = runs * n

    out: dict = {
        "schema": 1,
        "iterations": {
            "scheduled": scheduled,
            "run": runs,
            "last_k": last_k,
            "sim_time": _round(sim_time),
        },
    }
    if attempts == 0 or len(store) == 0:
        out["counts"] = {
            "samples": len(store),
            "machines": n,
            "machines_seen": int(np.unique(mid_col).shape[0]) if len(store) else 0,
            "labs": len(set(store.column("lab"))),
            "attempts": attempts,
            "occupied_samples": 0,
            "pairs": 0,
            "occupied_pairs": 0,
        }
        out["fleet"] = None
        out["labs"] = {}
        if include_machines:
            out["machines"] = {}
        return out

    meta = TraceMeta(
        n_machines=n,
        sample_period=sample_period,
        horizon=(last_k + 1) * sample_period if last_k is not None else 0.0,
    )
    meta.iterations_scheduled = scheduled
    meta.iterations_run = runs
    meta.samples_collected = len(store)
    meta.attempts = attempts
    meta.timeouts = attempts - len(store)
    store.meta = meta

    trace = ColumnarTrace(store)
    occupied = trace.occupied_mask()
    try:
        pairs = pairwise_cpu(trace)
    except AnalysisError:
        empty_i = np.empty(0, dtype=np.int64)
        pairs = PairwiseCpu(
            i=empty_i,
            j=empty_i,
            gap=np.empty(0),
            idle_frac=np.empty(0),
            occupied=np.empty(0, dtype=bool),
            raw_login=np.empty(0, dtype=bool),
            t=np.empty(0),
            machine_id=np.empty(0, dtype=np.int32),
        )
    series = machines_on_series(trace)
    uptime = uptime_ratios(trace, meta).summary()
    eq = cluster_equivalence(trace, meta, pairs=pairs)
    with np.errstate(invalid="ignore"):
        idle_by_state = idleness_by_login_state(pairs) if len(pairs) else {
            "both": float("nan"),
            "no_login": float("nan"),
            "with_login": float("nan"),
        }

    out["counts"] = {
        "samples": len(store),
        "machines": n,
        "machines_seen": int(np.unique(mid_col).shape[0]),
        "labs": len(set(store.column("lab"))),
        "attempts": attempts,
        "occupied_samples": int(occupied.sum()),
        "pairs": int(len(pairs)),
        "occupied_pairs": int(pairs.occupied.sum()),
    }
    out["fleet"] = {
        "response_rate": _round(len(store) / attempts),
        "avg_powered_on": _round(series.avg_powered_on),
        "avg_user_free": _round(series.avg_user_free),
        "idle_pct": {
            "both": _round(idle_by_state["both"]),
            "no_login": _round(idle_by_state["no_login"]),
            "with_login": _round(idle_by_state["with_login"]),
        },
        "equivalence": {
            "ratio_total": _round(eq.ratio_total),
            "ratio_occupied": _round(eq.ratio_occupied),
            "ratio_free": _round(eq.ratio_free),
        },
        "uptime": {
            "above_0.5": int(uptime["above_0.5"]),
            "above_0.8": int(uptime["above_0.8"]),
            "above_0.9": int(uptime["above_0.9"]),
            "max": _round(uptime["max"]),
            "mean": _round(uptime["mean"]),
        },
    }

    # Per-machine aggregates via bincounts over the full roster, then
    # per-lab by summing each lab's member machines -- the same numbers
    # the streaming accumulators carry.
    mid_lab: dict = {}
    mid_host: dict = {}
    for mid, lab, host in zip(
        mid_col.tolist(), store.column("lab"), store.column("hostname")
    ):
        mid_lab[mid] = lab
        mid_host[mid] = host

    counts_per_mid = np.bincount(trace.machine_id, minlength=n)
    occ_per_mid = np.bincount(
        trace.machine_id, weights=occupied.astype(float), minlength=n
    )
    pairs_per_mid = np.bincount(pairs.machine_id, minlength=n)
    idle_per_mid = np.bincount(
        pairs.machine_id, weights=pairs.idle_frac, minlength=n
    )

    lab_mids: dict = {}
    for mid, lab in mid_lab.items():
        lab_mids.setdefault(lab, []).append(mid)
    labs_out: dict = {}
    for lab in sorted(lab_mids):
        mids = np.asarray(lab_mids[lab], dtype=np.int64)
        lab_samples = int(counts_per_mid[mids].sum())
        lab_occ = int(occ_per_mid[mids].sum())
        lab_pairs = int(pairs_per_mid[mids].sum())
        lab_idle = float(idle_per_mid[mids].sum())
        labs_out[lab] = {
            "machines": int(mids.shape[0]),
            "samples": lab_samples,
            "occupied_samples": lab_occ,
            "response_rate": _round(lab_samples / (runs * mids.shape[0])),
            "avg_powered_on": _round(lab_samples / runs),
            "avg_user_free": _round((lab_samples - lab_occ) / runs),
            "pairs": lab_pairs,
            "idle_pct": _round(100.0 * lab_idle / lab_pairs)
            if lab_pairs else None,
        }
    out["labs"] = labs_out

    if include_machines:
        # Last sample per machine: the trace is sorted (machine, t), so
        # block ends are the per-machine maxima.  Usernames live only in
        # the store; re-apply the same sort to line them up.
        t_col = np.asarray(store.column("t"), dtype=np.float64)
        order = np.lexsort((t_col, mid_col))
        usernames = store.column("username")
        block_end = np.flatnonzero(
            np.r_[trace.machine_id[1:] != trace.machine_id[:-1], True]
        )
        machines_out: dict = {}
        for idx in block_end.tolist():
            mid = int(trace.machine_id[idx])
            n_pairs = int(pairs_per_mid[mid])
            machines_out[str(mid)] = {
                "lab": mid_lab[mid],
                "hostname": mid_host[mid],
                "samples": int(counts_per_mid[mid]),
                "uptime_ratio": _round(min(counts_per_mid[mid] / runs, 1.0)),
                "pairs": n_pairs,
                "idle_pct": _round(100.0 * idle_per_mid[mid] / n_pairs)
                if n_pairs else None,
                "last": {
                    "t": _round(float(trace.t[idx])),
                    "iteration": int(trace.iteration[idx]),
                    "has_session": bool(trace.has_session[idx]),
                    "username": usernames[int(order[idx])],
                    "uptime_s": _round(float(trace.uptime[idx])),
                },
            }
        out["machines"] = machines_out
    return out
