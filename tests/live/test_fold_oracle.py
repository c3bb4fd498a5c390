"""The array fold of :class:`LiveRollups` against the per-row oracle.

Every pass sequence is ingested in several splits -- one record per
call, all records in one call, arbitrary cuts -- under the default
slice bound and under a bound of a few rows, so slices cross pass
records and split them.  Each ingestion must leave every counter and
running float total equal to the oracle's under ``==`` (no rounding),
and equal snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.live.rollup as rollup
from repro.live.rollup import FORGOTTEN_THRESHOLD, LiveRollups
from repro.recovery.journal import JournalRecord
from tests.live.row_oracle import RowRollups
from tests.recovery.passes import pass_record

PERIOD = 900.0

FLEET_TOTALS = (
    "iterations_scheduled", "iterations_run", "samples", "occupied_samples",
    "pairs", "occupied_pairs", "idle_sum", "idle_sum_occupied",
    "idle_sum_free", "eq_total", "eq_occupied", "eq_free", "last_iteration",
    "sim_time", "records_ingested", "n_machines",
)


def machine_state(r: LiveRollups) -> Dict[int, tuple]:
    """Every sampled machine's raw accumulators, as Python values."""
    out = {}
    for mid in range(len(r._m_samples)):
        if r._m_samples[mid] == 0:
            continue
        out[mid] = (
            r._lab_names[r._m_lab[mid]], r._m_hostname[mid],
            int(r._m_samples[mid]), int(r._m_pairs[mid]),
            float(r._m_idle_sum[mid]), float(r._m_last_t[mid]),
            int(r._m_last_iteration[mid]), float(r._m_last_uptime[mid]),
            float(r._m_last_idle[mid]), bool(r._m_last_has_session[mid]),
            r._m_last_username[mid],
        )
    return out


def oracle_machine_state(o: RowRollups) -> Dict[int, tuple]:
    return {
        mid: (m.lab, m.hostname, m.samples, m.pairs, m.idle_sum, m.last_t,
              m.last_iteration, m.last_uptime, m.last_idle,
              m.last_has_session, m.last_username)
        for mid, m in o.machines.items()
    }


def lab_state(r: LiveRollups) -> Dict[str, tuple]:
    return {
        name: (int(r._l_machines[code]), int(r._l_samples[code]),
               int(r._l_occupied[code]), int(r._l_pairs[code]),
               float(r._l_idle_sum[code]))
        for name, code in r._lab_codes.items()
    }


def oracle_lab_state(o: RowRollups) -> Dict[str, tuple]:
    return {name: (st.machines, st.samples, st.occupied, st.pairs,
                   st.idle_sum)
            for name, st in o.labs.items()}


def assert_matches(r: LiveRollups, o: RowRollups) -> None:
    for name in FLEET_TOTALS:
        assert getattr(r, name) == getattr(o, name), name
    assert r._order == list(o.machines)
    assert r._lab_names == list(o.labs)
    assert machine_state(r) == oracle_machine_state(o)
    assert lab_state(r) == oracle_lab_state(o)
    assert r.snapshot() == o.snapshot()
    assert (r.snapshot(include_machines=False)
            == o.snapshot(include_machines=False))
    for mid in o.machines:
        assert r.machine_snapshot(mid) == {"machine_id": mid,
                                           **o.machine_dict(mid)}
    for name in o.labs:
        view = r.lab_snapshot(name)
        assert view["stats"] == o.snapshot()["labs"][name]
        assert view["machines"] == {
            str(mid): o.machine_dict(mid)
            for mid in sorted(o.machines) if o.machines[mid].lab == name}


def splits(records: List[JournalRecord],
           cuts: List[int]) -> List[List[List[JournalRecord]]]:
    """The batchings each sequence is ingested in."""
    bounds = sorted({min(c, len(records)) for c in cuts})
    edges = [0, *bounds, len(records)]
    return [
        [[rec] for rec in records],
        [records],
        [records[a:b] for a, b in zip(edges, edges[1:]) if b > a],
    ]


def check_every_split(records: List[JournalRecord], cuts: List[int],
                      bound: int) -> RowRollups:
    oracle = RowRollups(PERIOD)
    oracle.ingest_records(records)
    for fold_rows in (rollup.FOLD_ROWS, bound):
        with mock.patch.object(rollup, "FOLD_ROWS", fold_rows):
            for batches in splits(records, cuts):
                r = LiveRollups(PERIOD)
                for batch in batches:
                    r.ingest_records(batch)
                assert_matches(r, oracle)
    return oracle


# ----------------------------------------------------------------------
# generated pass sequences
# ----------------------------------------------------------------------
#: Session ages in seconds: under, exactly at and over the forgotten-
#: session threshold.
SESSION_AGES = (60.0, 3600.0, FORGOTTEN_THRESHOLD, FORGOTTEN_THRESHOLD + 1)


@st.composite
def pass_sequences(draw) -> List[JournalRecord]:
    """Passes over a small roster: distinct machines per pass, times
    increasing per machine, with reboots, zero uptimes, long and
    logon-less sessions, gaps past the cap and unsampled roster slots."""
    roster = draw(st.integers(1, 7))
    labs = [draw(st.sampled_from(("L01", "L02", "L03")))
            for _ in range(roster)]
    last: Dict[int, Tuple[float, float, float]] = {}
    records = []
    for k in range(draw(st.integers(1, 9))):
        ran = draw(st.integers(0, 5)) > 0
        mids = (draw(st.lists(st.integers(0, roster - 1), unique=True))
                if ran else [])
        rows = []
        for mid in mids:
            # offsets 675 apart put a gap exactly at the 1.75 x cap
            t = PERIOD * k + draw(st.sampled_from(
                (0.0, 1.5, 300.0, 675.0, 899.0)))
            if mid in last and not draw(st.integers(0, 4)) == 0:
                prev_t, prev_up, prev_idle = last[mid]
                gap = t - prev_t
                # -30 s sits exactly at the reboot detector's slack
                uptime = prev_up + gap + draw(st.sampled_from(
                    (0.0, -29.0, -30.0, -31.0, 5.0)))
                idle = prev_idle + gap * draw(st.sampled_from(
                    (-0.25, 0.0, 0.4, 1.0, 1.5)))
            else:  # first sample, or rebooted since the last one
                uptime = draw(st.sampled_from((0.0, 40.0, 3600.0)))
                idle = uptime * draw(st.sampled_from((0.0, 0.5, 1.25)))
            has_session = draw(st.booleans())
            start = (float("nan") if not has_session or draw(st.booleans())
                     else t - draw(st.sampled_from(SESSION_AGES)))
            rows.append(dict(
                machine_id=mid, hostname=f"m{mid:03d}", lab=labs[mid],
                iteration=k, t=t, uptime_s=uptime, cpu_idle_s=idle,
                has_session=has_session, session_start=start,
                username=draw(st.sampled_from(("ann", "bo")))
                if has_session else "",
            ))
            last[mid] = (t, uptime, idle)
        records.append(pass_record(k, PERIOD * k, rows, ran=ran))
    return records


class TestOracle:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=pass_sequences(),
           cuts=st.lists(st.integers(0, 12), max_size=4),
           bound=st.integers(1, 5))
    def test_array_fold_equals_row_fold(self, records, cuts, bound):
        check_every_split(records, cuts, bound)

    def test_every_branch(self):
        """One hand-built sequence that takes every branch of the rule."""
        def row(mid, k, dt, uptime, idle, *, lab="L01", session=None,
                user=""):
            t = PERIOD * k + dt
            return dict(
                machine_id=mid, hostname=f"m{mid:03d}", lab=lab,
                iteration=k, t=t, uptime_s=uptime, cpu_idle_s=idle,
                has_session=session is not None,
                session_start=(float("nan") if session is None
                               else t - session),
                username=user)

        records = [
            # first samples; machine 1 reports with uptime 0
            pass_record(0, 0.0, [row(0, 0, 5.0, 3600.0, 1800.0),
                                 row(1, 0, 6.0, 0.0, 0.0)]),
            # valid pairs, one within a session under 10 h and one with
            # a session whose logon time is absent (NaN)
            pass_record(1, 900.0, [
                row(0, 1, 5.0, 4500.0, 2250.0, session=600.0, user="ann"),
                row(1, 1, 6.0, 900.0, 450.0, session=float("nan"),
                    user="bo")]),
            # machine 1 rebooted within the gap cap
            pass_record(2, 1800.0, [row(1, 2, 6.0, 120.0, 60.0)]),
            # machine 0: gap past the cap; machine 5 (a new lab, seen
            # late; ids 2-4 never report): first sample inside a session
            # of 10 h or more
            pass_record(3, 2700.0, [
                row(0, 3, 5.0, 6300.0, 3000.0),
                row(5, 3, 7.0, 86400.0, 40000.0, lab="L09",
                    session=FORGOTTEN_THRESHOLD + 1.0, user="cy")]),
            # a forgotten session in a valid pair
            pass_record(4, 3600.0, [
                row(5, 4, 7.0, 87300.0, 40900.0, lab="L09",
                    session=FORGOTTEN_THRESHOLD + 901.0, user="cy")]),
            # an iteration that did not run
            pass_record(5, 4500.0, [], ran=False),
        ]
        oracle = check_every_split(records, [1, 3], 2)
        assert oracle.pairs == 3           # pass 1 twice, pass 4 once
        assert oracle.occupied_pairs == 2  # the 10 h session is free
        assert oracle.occupied_samples == 2
        assert oracle.n_machines == 6 > len(oracle.machines) == 3
        assert list(oracle.labs) == ["L01", "L09"]
        assert (oracle.iterations_run, oracle.iterations_scheduled) == (5, 6)

