"""Unit tests for the write-ahead trace journal."""

import json

import pytest

from repro.errors import JournalError
from repro.recovery.journal import (
    JournalWriter,
    Quarantine,
    decode_line,
    encode_record,
    retro_seal,
    scan_journal,
)
from tests.recovery.passes import write_pass


def write_iterations(writer, n_iters=3, samples_per_iter=4, start=0):
    """Drive a writer through complete iterations, mirroring the runtime."""
    for k in range(start, start + n_iters):
        write_pass(writer, k, samples_per_iter)


class TestRecordCodec:
    def test_roundtrip(self):
        body = {"kind": "sample", "k": 3, "data": {"x": 1.5, "y": None}}
        assert decode_line(encode_record(body)) == body

    def test_crc_mismatch_raises(self):
        line = encode_record({"kind": "iter", "k": 1})
        tampered = line.replace('"k":1', '"k":2')
        with pytest.raises(JournalError, match="CRC mismatch"):
            decode_line(tampered)

    def test_garbage_raises(self):
        with pytest.raises(JournalError):
            decode_line('{"crc":"dead')
        with pytest.raises(JournalError):
            decode_line('{"no_envelope": true}')

    @pytest.mark.parametrize("body", [
        {"kind": "head", "version": 1, "segment": 7},
        {"kind": "sample", "k": 12, "data": {
            "machine_id": 41, "hostname": "L03-M07", "lab": "L03",
            "iteration": 12, "t": 10812.534, "boot_time": 1234.5,
            "uptime_s": 9578.034, "cpu_idle_s": 9001.25,
            "mem_load_pct": 37.0, "swap_load_pct": 4.0,
            "disk_total_b": 40_000_000_000, "disk_free_b": 12_345_678_901,
            "smart_cycles": 812, "smart_poh_h": 6021.0,
            "net_sent_b": 1_048_576, "net_recv_b": 7_340_032,
            "has_session": False, "username": "", "session_start": None}},
        {"kind": "sample", "k": 13, "data": {
            "has_session": True, "username": "joão.sá",
            "session_start": 10001.5, "t": 1e-7}},
        {"kind": "iter", "k": 12, "t": 10800.0, "n": 81,
         "digest": "0badf00d", "ran": True},
        {"kind": "seal", "segment": 7, "records": 4095,
         "digest": "deadbeef"},
    ], ids=["head", "sample", "sample-non-ascii", "iter", "seal"])
    def test_line_is_the_two_dumps_encoding(self, body):
        # encode_record encodes the body once; the line must stay the
        # bytes of dumping the body, then the whole envelope.
        import zlib

        def dumps(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        crc = format(zlib.crc32(dumps(body).encode("utf-8")) & 0xFFFFFFFF,
                     "08x")
        assert encode_record(body) == dumps({"crc": crc, "body": body})
        assert decode_line(encode_record(body)) == body


class TestWriter:
    def test_segment_head_and_flush(self, tmp_path):
        w = JournalWriter(tmp_path, fsync=False)
        write_pass(w, 0, 1)
        # write-ahead discipline: the record is on disk before close
        lines = w.segment_path.read_text().splitlines()
        assert decode_line(lines[0])["kind"] == "head"
        assert decode_line(lines[1])["kind"] == "iter"
        w.close()

    def test_rotation_at_iteration_boundary(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=8, fsync=False)
        write_iterations(w, n_iters=4, samples_per_iter=4)
        w.close()
        files = sorted(tmp_path.glob("segment-*.jsonl"))
        # rotation counts samples: head + 4 rows + marker reaches 8 at
        # the second pass, so each segment holds two passes
        assert len(files) == 2
        # every segment ends with a valid seal record
        for path in files:
            last = decode_line(path.read_text().splitlines()[-1])
            assert last["kind"] == "seal"

    def test_close_is_sealed_abort_is_not(self, tmp_path):
        w = JournalWriter(tmp_path / "a", fsync=False)
        write_iterations(w, 1)
        w.close()
        sealed = (tmp_path / "a" / "segment-000001.jsonl").read_text()
        assert decode_line(sealed.splitlines()[-1])["kind"] == "seal"
        w = JournalWriter(tmp_path / "b", fsync=False)
        write_iterations(w, 1)
        w.abort()
        unsealed = (tmp_path / "b" / "segment-000001.jsonl").read_text()
        assert decode_line(unsealed.splitlines()[-1])["kind"] == "iter"

    def test_start_segment_continues_numbering(self, tmp_path):
        w = JournalWriter(tmp_path, start_segment=4, fsync=False)
        write_pass(w, 0, 0)
        assert w.segment_path.name == "segment-000004.jsonl"
        w.close()

    def test_refuses_to_overwrite_segment(self, tmp_path):
        w = JournalWriter(tmp_path, fsync=False)
        write_iterations(w, 1)
        w.close()
        w2 = JournalWriter(tmp_path, start_segment=1, fsync=False)
        with pytest.raises(JournalError, match="already exists"):
            write_pass(w2, 0, 0)


class TestScan:
    def test_clean_journal(self, tmp_path):
        w = JournalWriter(tmp_path, segment_records=8, fsync=False)
        write_iterations(w, n_iters=4, samples_per_iter=4)
        w.close()
        scan = scan_journal(tmp_path, Quarantine(tmp_path.parent))
        assert scan.quarantined == 0 and scan.torn_tails == 0
        assert sorted(scan.iteration_digests) == [0, 1, 2, 3]
        assert all(n == 4 for _, n in scan.iteration_digests.values())
        assert scan.next_segment == scan.last_segment + 1

    def test_torn_tail_dropped_and_ledgered(self, tmp_path):
        run_dir = tmp_path / "run"
        w = JournalWriter(run_dir / "journal", fsync=False)
        write_iterations(w, 2)
        w.tear()  # half-written line, the crash signature
        q = Quarantine(run_dir)
        scan = scan_journal(run_dir / "journal", q)
        assert scan.torn_tails == 1 and scan.quarantined == 0
        # the complete prefix survives
        assert sorted(scan.iteration_digests) == [0, 1]
        entry = q.read_ledger()[0]
        assert entry["reason"] == "torn_tail"
        assert entry["action"] == "dropped"

    def test_interior_corruption_quarantines_segment(self, tmp_path):
        run_dir = tmp_path / "run"
        w = JournalWriter(run_dir / "journal", segment_records=8, fsync=False)
        write_iterations(w, n_iters=4, samples_per_iter=4)
        w.close()
        victim = sorted((run_dir / "journal").glob("segment-*.jsonl"))[0]
        raw = victim.read_bytes()
        victim.write_bytes(raw[:200] + b"X" + raw[201:])
        q = Quarantine(run_dir)
        scan = scan_journal(run_dir / "journal", q)
        assert scan.quarantined == 1
        assert not victim.exists()  # moved wholesale into quarantine
        assert (q.dir / victim.name).exists()
        reasons = {e["reason"] for e in q.read_ledger()}
        assert "crc_mismatch" in reasons
        # the undamaged segments still contribute digests
        assert scan.iteration_digests

    def test_unsealed_interior_segment_quarantined(self, tmp_path):
        run_dir = tmp_path / "run"
        w = JournalWriter(run_dir / "journal", segment_records=8, fsync=False)
        write_iterations(w, n_iters=4, samples_per_iter=4)
        w.close()
        first = sorted((run_dir / "journal").glob("segment-*.jsonl"))[0]
        lines = first.read_text().splitlines()
        assert decode_line(lines[-1])["kind"] == "seal"
        first.write_text("\n".join(lines[:-1]) + "\n")  # strip the seal
        q = Quarantine(run_dir)
        scan = scan_journal(run_dir / "journal", q)
        assert scan.quarantined == 1
        assert any(e["reason"] == "unsealed_interior_segment"
                   for e in q.read_ledger())

    def test_bad_seal_quarantined(self, tmp_path):
        run_dir = tmp_path / "run"
        w = JournalWriter(run_dir / "journal", segment_records=8, fsync=False)
        write_iterations(w, n_iters=4, samples_per_iter=4)
        w.close()
        first = sorted((run_dir / "journal").glob("segment-*.jsonl"))[0]
        lines = first.read_text().splitlines()
        seal = decode_line(lines[-1])
        seal["digest"] = "00000000"
        lines[-1] = encode_record(seal)  # valid CRC, lying digest
        first.write_text("\n".join(lines) + "\n")
        q = Quarantine(run_dir)
        scan = scan_journal(run_dir / "journal", q)
        assert scan.quarantined == 1
        assert any(e["reason"] == "bad_seal" for e in q.read_ledger())

    def test_retro_seal_restores_invariant(self, tmp_path):
        run_dir = tmp_path / "run"
        w = JournalWriter(run_dir / "journal", fsync=False)
        write_iterations(w, 2)
        w.abort()  # crashed: tail unsealed
        q = Quarantine(run_dir)
        scan = scan_journal(run_dir / "journal", q)
        assert not scan.segments[-1].sealed
        retro_seal(scan)
        rescan = scan_journal(run_dir / "journal", Quarantine(run_dir))
        assert rescan.segments[-1].sealed
        assert rescan.iteration_digests == scan.iteration_digests


class TestQuarantineLedger:
    def test_report_moves_and_ledgers(self, tmp_path):
        victim = tmp_path / "damaged.bin"
        victim.write_bytes(b"junk")
        q = Quarantine(tmp_path)
        entry = q.report("crc_mismatch", file=victim, segment=3)
        assert not victim.exists()
        assert (q.dir / "damaged.bin").exists()
        assert entry["segment"] == 3
        # the ledger is machine-readable JSONL
        raw = q.ledger_path.read_text().splitlines()
        assert json.loads(raw[0])["reason"] == "crc_mismatch"

    def test_name_collisions_suffixed(self, tmp_path):
        q = Quarantine(tmp_path)
        for _ in range(2):
            victim = tmp_path / "same.bin"
            victim.write_bytes(b"x")
            q.report("crc_mismatch", file=victim)
        names = {e["quarantined_as"] for e in q.read_ledger()}
        assert names == {"same.bin", "same.bin.1"}
