"""Streaming rollups: the replay==batch differential and unit edges."""

from __future__ import annotations

import threading
from unittest import mock

import pytest

import repro.live.rollup as rollup
from repro.errors import LiveError
from repro.live.config import LiveConfig, parse_rate
from repro.live.replay import (
    batch_snapshot,
    infer_sample_period,
    read_journal,
    replay_rollups,
    replay_snapshot,
)
from repro.live.rollup import LiveRollups
from tests.recovery.passes import pass_record


def _sample(mid, t, *, iteration, uptime=3600.0, idle=1800.0,
            has_session=False, session_start=None, lab="lab66",
            username=""):
    """A pass record of iteration ``iteration`` holding one row."""
    return pass_record(iteration, 900.0 * iteration, [dict(
        machine_id=mid,
        t=t,
        iteration=iteration,
        uptime_s=uptime,
        cpu_idle_s=idle,
        has_session=has_session,
        session_start=(float("nan") if session_start is None
                       else session_start),
        lab=lab,
        hostname=f"m{mid:03d}",
        username=username,
    )])


def _iter(k, *, period=900.0, ran=True):
    """A pass record of iteration ``k`` that added no rows."""
    return pass_record(k, period * k, [], ran=ran)


class TestDifferential:
    """The PR's pinned guarantee: streaming == batch, exactly."""

    def test_replay_equals_batch(self, finished_run):
        live = replay_snapshot(finished_run.journal_dir)
        batch = batch_snapshot(finished_run.journal_dir)
        assert live == batch

    def test_replay_equals_batch_without_machines(self, finished_run):
        live = replay_snapshot(finished_run.journal_dir,
                               include_machines=False)
        batch = batch_snapshot(finished_run.journal_dir,
                               include_machines=False)
        assert "machines" not in live
        assert live == batch

    def test_snapshot_is_populated(self, finished_run):
        snap = replay_snapshot(finished_run.journal_dir)
        assert snap["schema"] == 1
        assert snap["iterations"]["run"] > 0
        assert snap["counts"]["samples"] > 0
        assert snap["fleet"] is not None
        assert 0 < snap["fleet"]["response_rate"] <= 1
        assert snap["labs"]  # scaled roster keeps at least one lab
        for lab in snap["labs"].values():
            assert lab["machines"] > 0
        assert len(snap["machines"]) == snap["counts"]["machines_seen"]

    def test_period_inference_is_exact(self, finished_run):
        assert infer_sample_period(finished_run.journal_dir) == 900.0

    def test_read_journal_returns_bodies(self, finished_run):
        samples, iters = read_journal(finished_run.journal_dir)
        assert samples and iters
        assert all("machine_id" in s for s in samples)
        assert [b["k"] for b in iters] == sorted(b["k"] for b in iters)


class TestReplayErrors:
    def test_empty_journal_raises(self, tmp_path):
        with pytest.raises(LiveError):
            read_journal(tmp_path)
        with pytest.raises(LiveError):
            replay_rollups(tmp_path)

    def test_period_inference_fallback(self, tmp_path):
        with pytest.raises(LiveError):
            infer_sample_period(tmp_path)
        assert infer_sample_period(tmp_path, default=123.0) == 123.0


class TestStreamingEstimators:
    def test_pair_vs_fallback_contribution(self):
        r = LiveRollups(900.0)
        # first sample has no predecessor: fallback idle/uptime, no pair
        r.ingest_records([_sample(0, 900.0, iteration=1,
                                  uptime=3600.0, idle=1800.0)])
        assert r.pairs == 0
        assert r.eq_total == pytest.approx(0.5)
        # second sample 900 s later without reboot: pairwise estimator
        r.ingest_records([_sample(0, 1800.0, iteration=2,
                                  uptime=4500.0, idle=2250.0)])
        assert r.pairs == 1
        assert r.idle_sum == pytest.approx(0.5)

    def test_gap_cap_breaks_pairs(self):
        r = LiveRollups(900.0)
        r.ingest_records([_sample(0, 900.0, iteration=1)])
        # 1.75 x 900 = 1575 s is the cap; a 1800 s gap is not a pair
        r.ingest_records([_sample(0, 2700.0, iteration=3, uptime=5400.0)])
        assert r.pairs == 0

    def test_reboot_breaks_pairs(self):
        r = LiveRollups(900.0)
        r.ingest_records([_sample(0, 900.0, iteration=1, uptime=7200.0)])
        # uptime reset below previous+gap: machine rebooted in between
        r.ingest_records([_sample(0, 1800.0, iteration=2, uptime=300.0)])
        assert r.pairs == 0

    def test_forgotten_session_reclassified(self):
        r = LiveRollups(900.0)
        t = 50_000.0
        r.ingest_records([_sample(0, t, iteration=1, has_session=True,
                                  session_start=t - 11 * 3600.0)])
        # logged in >= 10 h: counted as free for occupancy purposes ...
        assert r.occupied_samples == 0
        # ... but the raw login state still drives the equivalence split
        assert r.eq_occupied > 0

    def test_non_increasing_time_rejected(self):
        r = LiveRollups(900.0)
        r.ingest_records([_sample(0, 900.0, iteration=1)])
        with pytest.raises(LiveError):
            r.ingest_records([_sample(0, 900.0, iteration=2)])
        before = (r.snapshot(), r.records_ingested)
        # Machine 1 is fine, then machine 0 goes back in time: the whole
        # call is refused, folded in one slice or in one slice per row.
        batch = [_sample(1, 1800.0, iteration=2),
                 _sample(0, 2700.0, iteration=3),
                 _sample(0, 2000.0, iteration=4)]
        for fold_rows in (rollup.FOLD_ROWS, 1):
            with mock.patch.object(rollup, "FOLD_ROWS", fold_rows):
                with pytest.raises(LiveError,
                                   match=r"machine 0: 2700\.0 -> 2000\.0"):
                    r.ingest_records(batch)
            assert (r.snapshot(), r.records_ingested) == before
            assert r.machine_snapshot(1) is None

    def test_negative_machine_id_rejected(self):
        r = LiveRollups(900.0)
        r.ingest_records([_sample(0, 900.0, iteration=1)])
        before = r.snapshot()
        with pytest.raises(LiveError, match="negative machine id -1"):
            r.ingest_records([_sample(1, 1800.0, iteration=2),
                              _sample(-1, 1800.0, iteration=2)])
        assert r.snapshot() == before

    def test_empty_snapshot_shape(self):
        snap = LiveRollups(900.0).snapshot()
        assert snap["fleet"] is None
        assert snap["labs"] == {}
        assert snap["machines"] == {}

    def test_unknown_lab_and_machine_views(self):
        r = LiveRollups(900.0)
        assert r.lab_snapshot("nope") is None
        assert r.machine_snapshot(7) is None
        r.ingest_records([_sample(3, 900.0, iteration=1), _iter(1)])
        view = r.lab_snapshot("lab66")
        assert view is not None and "3" in view["machines"]
        assert r.machine_snapshot(3)["lab"] == "lab66"
        # ids no row reached, outside the per-machine arrays or negative
        # (which an array index would wrap to machine 3)
        for mid in (0, 4, 10 ** 11, -1, -4):
            assert r.machine_snapshot(mid) is None

    def test_invalid_period_rejected(self):
        with pytest.raises(LiveError):
            LiveRollups(0.0)


class TestSubscription:
    def test_timeout_returns_none(self):
        r = LiveRollups(900.0)
        assert r.wait_for_iteration(timeout=0.01) is None

    def test_wakes_on_marker(self):
        r = LiveRollups(900.0)
        got = []
        t = threading.Thread(
            target=lambda: got.append(r.wait_for_iteration(timeout=5.0))
        )
        t.start()
        # let the waiter block, then publish a marker
        import time
        time.sleep(0.05)
        r.ingest_records([_iter(4)])
        t.join(5.0)
        assert got == [4]

    def test_since_already_satisfied(self):
        r = LiveRollups(900.0)
        r.ingest_records([_iter(9)])
        # an older threshold returns immediately without a new marker
        assert r.wait_for_iteration(since=3, timeout=0.01) == 9
        # the implicit threshold (newest seen) requires a *new* marker
        assert r.wait_for_iteration(timeout=0.01) is None


class TestConfig:
    @pytest.mark.parametrize("text,expected", [
        ("max", None), ("MAX", None), ("60x", 60.0),
        ("60", 60.0), (" 2.5X ", 2.5),
    ])
    def test_parse_rate_ok(self, text, expected):
        assert parse_rate(text) == expected

    @pytest.mark.parametrize("text", ["", "fast", "0", "-3x", "inf", "nanx"])
    def test_parse_rate_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rate(text)

    @pytest.mark.parametrize("kwargs", [
        {"days": 0},
        {"rate": 0.0},
        {"rate": float("inf")},
        {"port": 70000},
        {"port": -1},
        {"machines": 0},
    ])
    def test_live_config_validation(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            LiveConfig(run_dir=tmp_path, **kwargs)
