"""Query-service endpoints and behaviour under concurrent readers."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.live.replay import replay_rollups
from repro.live.rollup import LiveRollups
from repro.live.server import LiveServer
from repro.recovery.journal import JournalTailReader


def _get(base, path, timeout=30.0):
    """GET; returns ``(status, parsed JSON body)`` even on HTTP errors."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture(scope="module")
def served(finished_run):
    """A replay-mode server over the session journal's rollups."""
    rollups = replay_rollups(finished_run.journal_dir)
    server = LiveServer(rollups, port=0)
    server.start()
    yield server
    server.stop()


class TestEndpoints:
    def test_root_lists_endpoints(self, served):
        status, body = _get(served.url, "/")
        assert status == 200
        assert "/stats" in body["endpoints"]

    def test_stats_excludes_machines_by_default(self, served):
        status, body = _get(served.url, "/stats")
        assert status == 200
        assert body["fleet"] is not None
        assert "machines" not in body
        status, body = _get(served.url, "/stats?machines=1")
        assert status == 200
        assert body["machines"]

    def test_labs_listing_and_detail(self, served):
        status, body = _get(served.url, "/labs")
        assert status == 200 and body["labs"]
        name = next(iter(body["labs"]))
        status, detail = _get(served.url, f"/labs/{name}")
        assert status == 200
        assert detail["lab"] == name
        assert detail["stats"]["machines"] == len(detail["machines"])

    def test_unknown_lab_404(self, served):
        status, body = _get(served.url, "/labs/atlantis")
        assert status == 404 and "error" in body

    def test_machine_detail(self, served):
        status, body = _get(served.url, "/machines/0")
        assert status == 200
        assert body["machine_id"] == 0
        assert body["samples"] > 0

    def test_machine_bad_id_400_unknown_404(self, served):
        assert _get(served.url, "/machines/zero")[0] == 400
        assert _get(served.url, "/machines/99999")[0] == 404
        # The rollups index arrays by machine id: a negative id must not
        # wrap to another machine, nor a huge one fail the request.
        for mid in ("-1", "99999999999"):
            assert _get(served.url, f"/machines/{mid}") == (
                404, {"error": f"unknown machine {mid}"})

    def test_unknown_endpoint_404(self, served):
        assert _get(served.url, "/nope")[0] == 404

    def test_health_replay_mode(self, served):
        status, body = _get(served.url, "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["mode"] == "replay"
        assert body["terminal"] is True

    def test_metricz_reports_requests(self, served):
        _get(served.url, "/stats")
        status, body = _get(served.url, "/metricz")
        assert status == 200
        rows = body["metrics"]
        hits = [r for r in rows
                if r["name"] == "live.requests" and r.get("value", 0) > 0]
        assert hits

    def test_subscribe_long_poll_times_out(self, served):
        # nothing new arrives in replay mode: the poll reports the
        # timeout and that the source is terminal
        status, body = _get(served.url, "/subscribe?timeout=0.1")
        assert status == 200
        assert body["timed_out"] is True
        assert body["terminal"] is True

    def test_subscribe_since_returns_immediately(self, served):
        last = served.rollups.last_iteration
        status, body = _get(served.url,
                            f"/subscribe?since={last - 1}&timeout=5")
        assert status == 200
        assert body["iteration"] == last
        assert body["timed_out"] is False

    def test_subscribe_bad_since_400(self, served):
        assert _get(served.url, "/subscribe?since=later")[0] == 400


class TestConcurrency:
    def test_many_readers_during_ingestion(self, finished_run):
        """16 hammering readers while records stream in: zero 5xx."""
        rollups = LiveRollups(900.0)
        server = LiveServer(rollups, port=0)
        server.start()
        stop = threading.Event()
        counts = {"requests": 0, "5xx": 0}
        lock = threading.Lock()

        def reader(i):
            paths = ["/stats", "/labs", "/health", "/stats?machines=1",
                     f"/machines/{i}", "/metricz"]
            j = 0
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                        server.url + paths[j % len(paths)], timeout=30
                    ) as resp:
                        resp.read()
                        bad = resp.status >= 500
                except urllib.error.HTTPError as err:
                    bad = err.code >= 500
                except OSError:
                    bad = False  # transport noise, not a server error
                with lock:
                    counts["requests"] += 1
                    counts["5xx"] += bad
                j += 1

        threads = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(16)]
        for t in threads:
            t.start()
        # feed the finished journal through the live rollups while the
        # readers hammer every endpoint
        tail = JournalTailReader(finished_run.journal_dir)
        total = 0
        while True:
            batch = tail.poll()
            if not batch:
                break
            total += len(batch)
            rollups.ingest_records(batch)
        stop.set()
        for t in threads:
            t.join(10.0)
        server.stop()
        assert total > 0
        assert counts["requests"] > 0
        assert counts["5xx"] == 0, f"{counts['5xx']} 5xx responses"

    def test_subscribe_wakes_on_live_marker(self):
        rollups = LiveRollups(900.0)
        server = LiveServer(rollups, port=0)
        server.start()
        results = []

        def waiter():
            results.append(_get(server.url, "/subscribe?timeout=10"))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        import time
        time.sleep(0.2)  # let the long-poll park on the condition
        from repro.recovery.journal import JournalRecord
        rollups.ingest_records([JournalRecord(1, 1, {
            "kind": "iter", "k": 5, "t": 4500.0, "n": 0,
            "digest": "0" * 8, "ran": True,
        })])
        t.join(10.0)
        server.stop()
        [(status, body)] = results
        assert status == 200
        assert body["iteration"] == 5
        assert body["timed_out"] is False
