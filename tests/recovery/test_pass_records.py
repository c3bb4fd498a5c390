"""Journal pass records: the journal holds every row, damage and foreign
versions are refused with typed errors.

``replay == batch`` cannot catch a dropped row, because both sides read
the same journal; these tests decode the journal on their own and hold
it against the run's in-memory store.
"""

from __future__ import annotations

import base64
import hashlib
import json

import pytest

from repro.cli import main
from repro.config import ExperimentConfig
from repro.errors import JournalError, LiveError
from repro.experiment import run_experiment
from repro.live.replay import batch_snapshot, replay_snapshot
from repro.recovery import RecoveryConfig
from repro.recovery.journal import (
    JOURNAL_VERSION,
    JournalTailReader,
    JournalWriter,
    Quarantine,
    decode_line,
    decode_record,
    encode_record,
    scan_journal,
)
from repro.recovery.rows import ROW_BYTES, STRINGS
from repro.report.recovery import recovery_status, render_recovery_report
from repro.traces.store import CSV_FIELDS, TraceStore
from tests.recovery.passes import machine_rows, pass_body, write_pass

#: The paper's 169-machine fleet for two days.
TRUTH_CONFIG = ExperimentConfig(days=2, seed=2005)

#: SHA-256 of ``json.dumps(replay_snapshot(journal), sort_keys=True)``
#: for TRUTH_CONFIG's journal, as the per-row fold
#: (``tests/live/row_oracle.py``) formats it; both kernels write the
#: same journal.
REPLAY_SHA256 = (
    "0381abf7742de07cad8ae06b02eef4f0206fb246eba74b19a3887b6b7897e9c1")


@pytest.fixture(scope="module")
def journaled_runs(tmp_path_factory):
    """``kernel -> (result, run_dir)`` for one crash-safe run per kernel."""
    root = tmp_path_factory.mktemp("truth")
    runs = {}
    for kernel in ("object", "columnar"):
        run_dir = root / kernel
        result = run_experiment(TRUTH_CONFIG.replace(kernel=kernel),
                                recovery=RecoveryConfig(run_dir, fsync=False))
        runs[kernel] = (result, run_dir)
    return runs


def journal_store(journal_dir) -> TraceStore:
    """Every pass record of a journal, decoded into one store."""
    reader = JournalTailReader(journal_dir)
    store = TraceStore()
    while True:
        records = reader.poll()
        if not records:
            break
        for rec in records:
            if rec.rows is not None:
                store.extend_columns(**rec.rows)
    assert reader.anomalies == []
    return store


@pytest.mark.parametrize("kernel", ["object", "columnar"])
class TestJournalTruth:
    def test_journal_equals_the_store(self, journaled_runs, kernel):
        result, run_dir = journaled_runs[kernel]
        assert (result.coordinator._cols is not None) == (
            kernel == "columnar")
        store = journal_store(run_dir / "journal")
        assert len(store) == len(result.store) > 0
        for name in CSV_FIELDS:
            col, ref = store.column(name), result.store.column(name)
            if isinstance(ref, list):
                assert col == ref, name
            else:
                assert col.tobytes() == ref.tobytes(), name
        assert result.recovery.samples_journaled == len(result.store)

    def test_status_counts_every_row(self, journaled_runs, kernel, capsys):
        result, run_dir = journaled_runs[kernel]
        assert main(["recovery", str(run_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["samples_journaled"] == len(result.store)
        assert len(status["segments"]) > 1
        assert {s["version"] for s in status["segments"]} == {JOURNAL_VERSION}

    def test_replay_snapshot_bytes_are_pinned(self, journaled_runs, kernel):
        _result, run_dir = journaled_runs[kernel]
        snap = replay_snapshot(run_dir / "journal")
        text = json.dumps(snap, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REPLAY_SHA256


def damaged(body: dict, *, n=None, code=None) -> str:
    """A CRC-valid line of ``body`` with a lying ``n``, or with the first
    row's ``lab`` code overwritten by ``code``."""
    body = dict(body)
    if n is not None:
        body["n"] = n
    if code is not None:
        payload = bytearray(base64.b64decode(body["rows"]))
        # the string columns' codes follow the numeric buffers
        rows = body["n"]
        offset = rows * (ROW_BYTES - 4 * len(STRINGS)
                         + 4 * STRINGS.index("lab"))
        payload[offset:offset + 4] = code.to_bytes(4, "little", signed=True)
        body["rows"] = base64.b64encode(bytes(payload)).decode("ascii")
    line = encode_record(body)
    assert decode_line(line) == body  # the line CRC verifies
    return line


class TestDamagedPassRecord:
    BODY = pass_body(3, 2700.0, machine_rows(3, 4))

    def test_clean_record_round_trips(self):
        body, rows = decode_record(encode_record(self.BODY))
        assert body == self.BODY
        assert rows["machine_id"].tolist() == [0, 1, 2, 3]
        assert rows["hostname"] == ["m000", "m001", "m002", "m003"]

    @pytest.mark.parametrize("n", [0, 3, 5, 40, -1])
    def test_row_count_disagrees_with_the_buffer(self, n):
        with pytest.raises(JournalError):
            decode_record(damaged(self.BODY, n=n))

    @pytest.mark.parametrize("code", [1, 99, -1])
    def test_string_code_out_of_range(self, code):
        # every row is in lab L01: the lab column's only code is 0
        with pytest.raises(JournalError, match="out-of-range"):
            decode_record(damaged(self.BODY, code=code))

    def test_rows_that_are_not_base64(self):
        with pytest.raises(JournalError, match="base64"):
            decode_record(encode_record(dict(self.BODY, rows="not*b64")))

    def test_interior_damage_is_quarantined_and_tailed(self, tmp_path):
        run_dir = tmp_path / "run"
        journal = run_dir / "journal"
        w = JournalWriter(journal, segment_records=8, fsync=False)
        for k in range(4):
            write_pass(w, k, 4)  # two passes per segment
        w.close()
        first = journal / "segment-000001.jsonl"
        lines = first.read_text().splitlines()
        lines[1] = damaged(decode_line(lines[1]), n=5)
        first.write_text("\n".join(lines) + "\n")

        reader = JournalTailReader(journal)
        records = []
        while True:
            batch = reader.poll()
            if not batch:
                break
            records += batch
        assert reader.anomalies[0].reason == "crc_mismatch"
        assert reader.anomalies[0].segment == 1
        assert reader.anomalies[0].line == 2
        assert [r.body["k"] for r in records
                if r.body["kind"] == "iter"] == [2, 3]

        q = Quarantine(run_dir)
        scan = scan_journal(journal, q)
        assert scan.quarantined == 1
        assert not first.exists() and (q.dir / first.name).exists()
        assert [e["reason"] for e in q.read_ledger()] == ["crc_mismatch"]
        assert sorted(scan.iteration_digests) == [2, 3]


class TestForeignVersion:
    @pytest.fixture
    def v1_run_dir(self, tmp_path):
        """A crashed run dir whose journal segment is version 1."""
        run_dir = tmp_path / "run"
        (run_dir / "journal").mkdir(parents=True)
        (run_dir / "checkpoints").mkdir()
        # a stale staged checkpoint a resume would sweep into quarantine
        (run_dir / "checkpoints" / "ckpt-00000007.tmp").write_bytes(b"x")
        lines = [
            encode_record({"kind": "head", "version": 1, "segment": 1}),
            encode_record({"kind": "sample", "k": 0,
                           "data": {"machine_id": 0, "t": 1.5}}),
            encode_record({"kind": "iter", "k": 0, "t": 0.0, "n": 1,
                           "digest": "0badf00d", "ran": True}),
        ]
        segment = run_dir / "journal" / "segment-000001.jsonl"
        segment.write_text("\n".join(lines) + "\n")
        return run_dir

    def test_resume_refuses_before_anything_moves(self, v1_run_dir):
        segment = v1_run_dir / "journal" / "segment-000001.jsonl"
        before = segment.read_bytes()
        with pytest.raises(JournalError,
                           match=rf"version 1\b.*version {JOURNAL_VERSION}"):
            run_experiment(ExperimentConfig(days=1, seed=3),
                           resume_from=v1_run_dir)
        assert not (v1_run_dir / "quarantine").exists()
        assert segment.read_bytes() == before
        assert (v1_run_dir / "checkpoints" / "ckpt-00000007.tmp").exists()

    def test_replay_refuses(self, v1_run_dir):
        with pytest.raises(LiveError, match="version 1"):
            replay_snapshot(v1_run_dir / "journal")
        with pytest.raises(LiveError, match="version 1"):
            batch_snapshot(v1_run_dir / "journal")
        assert not (v1_run_dir / "quarantine").exists()

    def test_status_names_the_version(self, v1_run_dir):
        status = recovery_status(v1_run_dir)
        [segment] = status["segments"]
        assert segment["version"] == 1
        assert segment["status"] == "unsupported_version"
        assert not status["resumable"]
        assert "another format version" in render_recovery_report(
            v1_run_dir)
        assert not (v1_run_dir / "quarantine").exists()
