"""Unit tests for versioned, atomic experiment checkpoints."""

import json
import pickle

import pytest

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    KEEP_CHECKPOINTS,
    config_digest,
    describe_checkpoints,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.recovery.journal import Quarantine
from repro.traces.records import Sample, TraceMeta
from repro.traces.store import TraceStore


CFG = ExperimentConfig(days=1, seed=9)


def write(ckpt_dir, iteration, payload=None, **kwargs):
    return write_checkpoint(
        ckpt_dir, iteration=iteration, sim_now=900.0 * iteration,
        config=CFG, state=payload or {"iteration": iteration},
        fsync=False, **kwargs,
    )


def sample(i):
    """Row ``i`` of a synthetic trace; every third row has a session."""
    user = f"u{i % 5}" if i % 3 == 0 else ""
    return Sample(
        machine_id=i % 7, hostname=f"h{i % 7:02d}", lab=f"L{i % 2:02d}",
        iteration=i // 7, t=900.0 * (i // 7) + i, boot_time=-60.0 * i,
        uptime_s=60.0 * i + 1.5, cpu_idle_s=30.0 * i, mem_load_pct=i % 100,
        swap_load_pct=0.5, disk_total_b=2**40 + i, disk_free_b=2**39 - i,
        smart_cycles=i, smart_poh_h=i / 3, net_sent_b=10 * i,
        net_recv_b=2**33 + i, has_session=bool(user), username=user,
        session_start=float(i) if user else float("nan"),
    )


def store_with(n):
    store = TraceStore(TraceMeta(n_machines=7, sample_period=900.0,
                                 horizon=86400.0))
    store.extend(sample(i) for i in range(n))
    return store


def rows(store):
    return [repr(s) for s in store.samples()]


def write_ladder(ckpt_dir, cuts):
    """Checkpoint a growing store at iterations 7, 15, ... with ``cuts``
    rows each; returns the final store."""
    store, start = None, 0
    for k, n in zip(range(7, 8 * len(cuts), 8), cuts):
        store = store_with(n)
        write(ckpt_dir, k, {"store": store, "k": k}, rows_from=start)
        start = n
    return store


class TestConfigDigest:
    def test_stable(self):
        assert config_digest(CFG) == config_digest(ExperimentConfig(days=1, seed=9))

    def test_sensitive(self):
        assert config_digest(CFG) != config_digest(ExperimentConfig(days=1, seed=10))


class TestWriteLoad:
    def test_roundtrip(self, tmp_path):
        path = write(tmp_path / "ckpt", 12, {"a": [1, 2], "b": float("inf")})
        assert path.name == "ckpt-00000012.ckpt"
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert ckpt.iteration == 12
        assert ckpt.version == CHECKPOINT_VERSION
        assert ckpt.sim_now == 900.0 * 12
        assert ckpt.config == config_digest(CFG)
        assert ckpt.state == {"a": [1, 2], "b": float("inf")}

    def test_latest_wins(self, tmp_path):
        for k in (7, 15, 23):
            write(tmp_path / "ckpt", k)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert ckpt.iteration == 23

    def test_empty_dir_is_none(self, tmp_path):
        assert load_latest_checkpoint(tmp_path / "none", Quarantine(tmp_path)) is None


class TestDeltas:
    def test_rows_round_trip_through_deltas(self, tmp_path):
        store = write_ladder(tmp_path / "ckpt", [5, 5, 12, 20])
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert ckpt.iteration == 31 and ckpt.rows == 20
        assert ckpt.state["k"] == 31
        assert rows(ckpt.state["store"]) == rows(store)
        assert ckpt.state["store"].meta == store.meta

    def test_graph_payload_carries_no_rows(self, tmp_path):
        store = store_with(500)
        path = write(tmp_path / "ckpt", 7, {"store": store, "again": store})
        assert path.stat().st_size < 2048
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["v"] == CHECKPOINT_VERSION == 2
        assert header["rows"] == 500
        delta = json.loads(
            (tmp_path / "ckpt" / "delta-00000007.delta").read_bytes()
            .split(b"\n", 1)[0])
        assert (delta["start"], delta["stop"]) == (0, 500)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert ckpt.state["again"] is ckpt.state["store"]

    def test_random_streams_revive_exactly(self, tmp_path):
        import numpy as np

        from repro.sim.random import RandomStreams

        streams = RandomStreams(2005)
        agent = streams.stream("agent/h01")
        agent.random(7)  # mid-stream, with a cached uint32 pending
        agent.integers(0, 2**32, dtype=np.uint32)
        plan = np.random.Generator(np.random.PCG64(99))
        write(tmp_path / "ckpt", 7, {"streams": streams, "agent": agent,
                                     "plan": plan})
        state = load_latest_checkpoint(tmp_path / "ckpt",
                                       Quarantine(tmp_path)).state
        assert state["agent"] is state["streams"].stream("agent/h01")
        for old, new in ((agent, state["agent"]), (plan, state["plan"])):
            assert new.bit_generator.state == old.bit_generator.state
            seq, new_seq = old.bit_generator.seed_seq, new.bit_generator.seed_seq
            assert new_seq.spawn_key == seq.spawn_key
            assert new_seq.pool.tolist() == seq.pool.tolist()
            assert new.random(5).tolist() == old.random(5).tolist()

    def test_store_pickles_whole_outside_checkpoints(self):
        store = store_with(40)
        assert rows(pickle.loads(pickle.dumps(store))) == rows(store)

    def test_only_newest_checkpoints_kept(self, tmp_path):
        write_ladder(tmp_path / "ckpt", [3, 6, 9, 12, 15])
        names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert names == [
            "ckpt-00000031.ckpt", "ckpt-00000039.ckpt",
            "delta-00000007.delta", "delta-00000015.delta",
            "delta-00000023.delta", "delta-00000031.delta",
            "delta-00000039.delta",
        ]
        assert KEEP_CHECKPOINTS == 2

    def test_bad_delta_falls_back_to_older_checkpoint(self, tmp_path):
        write_ladder(tmp_path / "ckpt", [4, 9, 13])
        newest = tmp_path / "ckpt" / "delta-00000023.delta"
        raw = bytearray(newest.read_bytes())
        raw[-2] ^= 0x20
        newest.write_bytes(bytes(raw))
        q = Quarantine(tmp_path)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", q)
        assert ckpt.iteration == 15
        assert rows(ckpt.state["store"]) == rows(store_with(9))
        assert [e["reason"] for e in q.read_ledger()] == [
            "bad_delta", "broken_chain"]
        assert "CRC mismatch" in q.read_ledger()[0]["detail"]

    def test_chain_skips_stale_delta_of_other_cadence(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        write_ladder(ckpt_dir, [4, 9, 13])  # checkpoints at 7, 15, 23
        # A resumed generation at another cadence checkpoints at 19 and
        # 27 from the rows at 15; the old delta-23 stays behind.
        write(ckpt_dir, 19, {"store": store_with(11)}, rows_from=9)
        write(ckpt_dir, 27, {"store": store_with(16)}, rows_from=11)
        ckpt = load_latest_checkpoint(ckpt_dir, Quarantine(tmp_path))
        assert ckpt.iteration == 27
        assert rows(ckpt.state["store"]) == rows(store_with(16))

    def test_rows_from_past_the_store_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="start row"):
            write(tmp_path / "ckpt", 7, {"store": store_with(3)},
                  rows_from=4)

    def test_every_flipped_delta_byte_is_detected(self, tmp_path):
        """Header fields are cross-checked (file name, row range, column
        layout, payload length), the payload is CRC-guarded: no single
        flipped byte loads."""
        write(tmp_path / "ckpt", 7, {"store": store_with(12)})
        path = tmp_path / "ckpt" / "delta-00000007.delta"
        raw = path.read_bytes()
        for i in range(len(raw)):
            damaged = bytearray(raw)
            damaged[i] ^= 0x01  # header bytes stay ASCII: '4' -> '5'
            path.write_bytes(bytes(damaged))
            _, deltas = describe_checkpoints(tmp_path / "ckpt")
            assert deltas[0]["status"] == "corrupt", i

    def test_describe_marks_broken_chain(self, tmp_path):
        write_ladder(tmp_path / "ckpt", [4, 9, 13])
        (tmp_path / "ckpt" / "delta-00000007.delta").write_bytes(b"junk\n")
        checkpoints, deltas = describe_checkpoints(tmp_path / "ckpt")
        assert [(r["file"], r["status"]) for r in checkpoints] == [
            ("ckpt-00000015.ckpt", "broken_chain"),
            ("ckpt-00000023.ckpt", "broken_chain"),
        ]
        assert [r["status"] for r in deltas] == ["corrupt", "ok", "ok"]
        assert deltas[1]["start"] == 4 and deltas[1]["stop"] == 9


class TestCorruptionHandling:
    def test_truncated_payload_falls_back(self, tmp_path):
        write(tmp_path / "ckpt", 7)
        newest = write(tmp_path / "ckpt", 15)
        raw = newest.read_bytes()
        newest.write_bytes(raw[:-10])
        q = Quarantine(tmp_path)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", q)
        assert ckpt.iteration == 7  # older one still loads
        entry = q.read_ledger()[0]
        assert entry["reason"] == "bad_checkpoint"
        assert "truncated" in entry["detail"]
        assert (q.dir / "ckpt-00000015.ckpt").exists()

    def test_flipped_payload_byte_detected(self, tmp_path):
        newest = write(tmp_path / "ckpt", 5)
        raw = bytearray(newest.read_bytes())
        raw[-3] ^= 0xFF
        newest.write_bytes(bytes(raw))
        q = Quarantine(tmp_path)
        assert load_latest_checkpoint(tmp_path / "ckpt", q) is None
        assert "CRC mismatch" in q.read_ledger()[0]["detail"]

    def test_unsupported_version_quarantined(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        header = {"v": 99, "iteration": 1, "sim_now": 0.0, "config": "x",
                  "payload_len": 0, "payload_crc": "00000000"}
        (ckpt_dir / "ckpt-00000001.ckpt").write_bytes(
            json.dumps(header).encode() + b"\n"
        )
        q = Quarantine(tmp_path)
        assert load_latest_checkpoint(ckpt_dir, q) is None
        assert "version" in q.read_ledger()[0]["detail"]

    def test_version_1_checkpoint_quarantined(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        header = {"v": 1, "iteration": 7, "sim_now": 6300.0, "config": "x",
                  "payload_len": 0, "payload_crc": "00000000"}
        (ckpt_dir / "ckpt-00000007.ckpt").write_bytes(
            json.dumps(header).encode() + b"\n"
        )
        q = Quarantine(tmp_path)
        assert load_latest_checkpoint(ckpt_dir, q) is None
        entry = q.read_ledger()[0]
        assert entry["reason"] == "bad_checkpoint"
        assert "unsupported checkpoint version 1" in entry["detail"]

    def test_stale_tmp_swept(self, tmp_path):
        # _tear_after emulates dying mid-checkpoint: staged tmp, no rename
        tmp = write(tmp_path / "ckpt", 3, _tear_after=16)
        assert tmp.suffix == ".tmp"
        write(tmp_path / "ckpt", 2)
        q = Quarantine(tmp_path)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", q)
        assert ckpt.iteration == 2
        assert not tmp.exists()
        assert q.read_ledger()[0]["reason"] == "stale_checkpoint_tmp"


class TestReadErrors:
    def test_bad_header_is_checkpoint_error(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / "ckpt-00000001.ckpt").write_bytes(b"not json\n")
        q = Quarantine(tmp_path)
        assert load_latest_checkpoint(ckpt_dir, q) is None
        assert q.read_ledger()[0]["reason"] == "bad_checkpoint"

    def test_checkpoint_error_is_typed(self):
        from repro.errors import RecoveryError, ReproError

        assert issubclass(CheckpointError, RecoveryError)
        assert issubclass(CheckpointError, ReproError)
