"""Follow-mode journal reads: rotation, torn tails, damage, quarantine."""

from __future__ import annotations

import pytest

import repro.recovery.journal as journal
from repro.recovery.journal import (
    JournalTailReader,
    JournalWriter,
    Quarantine,
    decode_line,
    decode_pass,
    encode_record,
    scan_journal,
)
from tests.recovery.passes import machine_rows, pass_body, write_pass


def write_iteration(writer, k, samples=3, *, ran=True):
    write_pass(writer, k, samples, ran=ran)


def drain(reader):
    out = []
    while True:
        batch = reader.poll()
        if not batch:
            return out
        out.extend(batch)


class TestFollowBasics:
    def test_empty_then_first_segment(self, tmp_path):
        reader = JournalTailReader(tmp_path)
        assert reader.poll() == []  # nothing there yet, not an error
        w = JournalWriter(tmp_path, fsync=False)
        write_iteration(w, 0)
        records = drain(reader)
        kinds = [r.body["kind"] for r in records]
        assert kinds == ["head", "iter"]
        assert records[1].body["n"] == 3
        assert reader.records_read == 2
        w.close()

    def test_incremental_no_reread(self, tmp_path):
        w = JournalWriter(tmp_path, fsync=False)
        reader = JournalTailReader(tmp_path)
        write_iteration(w, 0)
        first = drain(reader)
        write_iteration(w, 1)
        second = drain(reader)
        # follow-mode: the second poll returns only the new records
        assert [r.body["k"] for r in second if r.body["kind"] == "iter"] == [1]
        assert len(first) + len(second) == reader.records_read
        w.close()

    def test_rotation_mid_read(self, tmp_path):
        # Seal threshold of 4 samples: every iteration (head + a pass
        # record of 3 rows, weighing 1 + 3) trips rotation, so the reader
        # must follow the writer across segment boundaries while both
        # are running.
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        reader = JournalTailReader(tmp_path)
        seen = []
        for k in range(4):
            write_iteration(w, k)
            seen.extend(drain(reader))
        w.close()
        seen.extend(drain(reader))
        iters = [r.body["k"] for r in seen if r.body["kind"] == "iter"]
        assert iters == [0, 1, 2, 3]
        # all four seals verified; the reader advanced past three (the
        # newest sealed segment has no successor yet to advance into)
        assert reader.seals_verified == 4
        assert reader.segments_finished == 3
        assert reader.anomalies == []

    def test_seal_only_advances_when_next_exists(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        write_iteration(w, 0)  # seals segment 1
        reader = JournalTailReader(tmp_path)
        drain(reader)
        assert reader.seals_verified == 1
        before = reader.segments_finished
        write_iteration(w, 1)  # opens segment 2
        records = drain(reader)
        assert reader.segments_finished > before
        assert any(r.body["kind"] == "head" for r in records)
        w.close()


class TestSegmentTransitions:
    def test_drain_lists_the_directory_at_most_twice_per_poll(
            self, tmp_path, monkeypatch):
        # Every iteration (head + a pass record of 3 rows) seals its
        # segment: 150 iterations leave 150 segments.
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        for k in range(150):
            write_iteration(w, k)
        w.close()
        assert len(list(tmp_path.glob("segment-*.jsonl"))) == 150
        listings = []
        real = journal._segment_files

        def counting(journal_dir):
            listings.append(journal_dir)
            return real(journal_dir)

        monkeypatch.setattr(journal, "_segment_files", counting)
        reader = JournalTailReader(tmp_path)
        records = reader.poll()
        # the successor is opened by name; the listings are the first
        # segment's and the one that finds no successor at the end
        assert len(listings) <= 2
        assert [r.body["k"] for r in records
                if r.body["kind"] == "iter"] == list(range(150))
        assert reader.seals_verified == 150
        assert reader.segments_finished == 149
        listings.clear()
        assert reader.poll() == []
        assert len(listings) <= 2


class TestTornAndDamaged:
    def test_unterminated_tail_is_pending_not_lost(self, tmp_path):
        w = JournalWriter(tmp_path, fsync=False)
        write_iteration(w, 0)
        reader = JournalTailReader(tmp_path)
        drain(reader)
        # emulate a partially flushed line: bytes present, no newline
        line = encode_record(pass_body(1, 900.0, machine_rows(1, 1)))
        with open(w.segment_path, "a") as fh:
            fh.write(line[: len(line) // 2])
            fh.flush()
        assert reader.poll() == []  # pending, not an anomaly
        assert reader.anomalies == []
        with open(w.segment_path, "a") as fh:
            fh.write(line[len(line) // 2:] + "\n")
        [record] = drain(reader)
        assert decode_pass(record.body)["machine_id"].tolist() == [0]

    def test_torn_tail_permanent_once_next_segment_exists(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        write_iteration(w, 0)           # segment 1, sealed
        write_iteration(w, 1)           # segment 2, sealed
        w.tear()                        # segment 3 ends in a torn line
        # a fourth segment appears: the torn tail can never complete
        w2 = JournalWriter(tmp_path, start_segment=4, fsync=False)
        write_iteration(w2, 2)
        reader = JournalTailReader(tmp_path)
        records = drain(reader)
        assert [a.reason for a in reader.anomalies] == ["torn_tail"]
        # everything before and after the tear was still delivered
        iters = [r.body["k"] for r in records if r.body["kind"] == "iter"]
        assert iters == [0, 1, 2]
        w2.close()

    def test_interior_crc_damage_keeps_prefix_skips_rest(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=100, fsync=False)
        write_iteration(w, 0)
        write_iteration(w, 1)
        write_iteration(w, 2)
        w.abort()  # close without seal; file keeps all three iterations
        path = next(tmp_path.glob("segment-*.jsonl"))
        lines = path.read_text().splitlines()
        # line 3 is iteration 1's pass record
        assert decode_line(lines[2])["k"] == 1
        lines[2] = lines[2].replace('"k":1', '"k":9')
        path.write_text("\n".join(lines) + "\n")
        reader = JournalTailReader(tmp_path)
        records = drain(reader)
        # prefix (head + iteration 0's pass record) is delivered ...
        assert len(records) == 2
        # ... then the damaged line poisons the rest of the segment: the
        # mismatch itself plus the skipped remainder are both surfaced
        assert [a.reason for a in reader.anomalies] == [
            "crc_mismatch", "records_after_done",
        ]
        assert reader.anomalies[0].line == 3
        assert reader.poll() == []  # stays done, no re-reads

    def test_quarantine_interplay_segment_vanishes(self, tmp_path):
        run_dir = tmp_path / "run"
        journal = run_dir / "journal"
        w = JournalWriter(journal, segment_records=4, fsync=False)
        write_iteration(w, 0)           # segment 1, sealed
        write_iteration(w, 1)           # segment 2, sealed
        write_iteration(w, 2)           # segment 3, sealed
        w.close()
        # damage segment 2 after its seal verified on disk
        seg2 = journal / "segment-000002.jsonl"
        lines = seg2.read_text().splitlines()
        lines[1] = lines[1].replace('"k":1', '"k":7')
        seg2.write_text("\n".join(lines) + "\n")
        reader = JournalTailReader(journal)
        records = reader.poll()  # hits the damage, surfaces it, moves on
        # batch recovery quarantines (moves) the damaged segment now
        scan = scan_journal(journal, Quarantine(run_dir))
        assert any(s.quarantined for s in scan.segments)
        records += drain(reader)
        reasons = [a.reason for a in reader.anomalies]
        # the damage is surfaced, never raised, and segment 3 is still
        # delivered even though segment 2 is now gone from disk
        assert reasons and set(reasons) <= {"crc_mismatch",
                                            "records_after_done"}
        iters = [r.body["k"] for r in records if r.body["kind"] == "iter"]
        assert 2 in iters
        # a reader positioned inside the quarantined segment notes the
        # vanish and skips forward instead of erroring out
        late = JournalTailReader(journal, start_segment=2)
        tail = drain(late)
        assert [a.reason for a in late.anomalies] == ["segment_vanished"]
        assert [r.body["k"] for r in tail
                if r.body["kind"] == "iter"] == [2]

    def test_bad_seal_flagged(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        write_iteration(w, 0)
        w.close()
        seg = next(tmp_path.glob("segment-*.jsonl"))
        lines = seg.read_text().splitlines()
        # replace the seal with one claiming a wrong record count
        assert '"kind":"seal"' in lines[-1]
        lines[-1] = encode_record({"kind": "seal", "segment": 1,
                                   "records": 99, "digest": "00000000"})
        seg.write_text("\n".join(lines) + "\n")
        reader = JournalTailReader(tmp_path)
        drain(reader)
        assert [a.reason for a in reader.anomalies] == ["bad_seal"]
        assert reader.seals_verified == 0


class TestRanFlag:
    def test_ran_false_recorded(self, tmp_path):
        w = JournalWriter(tmp_path, fsync=False)
        write_iteration(w, 0, samples=0, ran=False)
        write_iteration(w, 1, samples=2, ran=True)
        w.close()
        reader = JournalTailReader(tmp_path)
        markers = [r.body for r in drain(reader) if r.body["kind"] == "iter"]
        assert [m["ran"] for m in markers] == [False, True]

    def test_start_segment_resumes_numbering(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=4, fsync=False)
        write_iteration(w, 0)
        w.close()
        reader = JournalTailReader(tmp_path, start_segment=1)
        drain(reader)
        assert reader.records_read == 2  # head + the pass record
        assert reader.seals_verified == 1
