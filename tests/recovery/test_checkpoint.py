"""Unit tests for versioned, atomic experiment checkpoints."""

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    KEEP_CHECKPOINTS,
    ChainTip,
    config_digest,
    describe_checkpoints,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.machines.hardware import build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
from repro.recovery.journal import Quarantine
from repro.sim.kernel import RosterColumns
from repro.traces.records import Sample, TraceMeta
from repro.traces.store import TraceStore


CFG = ExperimentConfig(days=1, seed=9)


def write(ckpt_dir, iteration, payload=None, **kwargs):
    return write_checkpoint(
        ckpt_dir, iteration=iteration, sim_now=900.0 * iteration,
        config=config_digest(CFG), state=payload or {"iteration": iteration},
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
    rows each, as one run generation; returns the final store."""
    store, tip = None, ChainTip()
    for k, n in zip(range(7, 8 * len(cuts), 8), cuts):
        store = store_with(n)
        write(ckpt_dir, k, {"store": store, "k": k}, tip=tip)
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
        assert header["v"] == CHECKPOINT_VERSION == 4
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

    def test_one_listing_per_run_generation(self, tmp_path, monkeypatch):
        """The checkpoint that leaves the window is pruned by name: the
        directory keeps every delta, so listing it per checkpoint would
        cost O(run length) each time."""
        listings = []
        glob = Path.glob

        def counting(self, pattern):
            listings.append(pattern)
            return glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting)
        write_ladder(tmp_path / "ckpt", [3, 6, 9, 12, 15])
        assert listings == ["ckpt-*.ckpt"]

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
        tip = ChainTip(iteration=15, rows=9)
        write(ckpt_dir, 19, {"store": store_with(11)}, tip=tip)
        write(ckpt_dir, 27, {"store": store_with(16)}, tip=tip)
        ckpt = load_latest_checkpoint(ckpt_dir, Quarantine(tmp_path))
        assert ckpt.iteration == 27
        assert rows(ckpt.state["store"]) == rows(store_with(16))

    def test_rows_from_past_the_store_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="start row"):
            write(tmp_path / "ckpt", 7, {"store": store_with(3)},
                  tip=ChainTip(rows=4))

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


def machines(n):
    return [SimMachine(spec, SmartDisk(spec.disk_serial, spec.disk_bytes))
            for spec in build_fleet()[:n]]


def live(fleet, t):
    """One session and one boot record per machine, starting at ``t``."""
    for m in fleet:
        m.boot(t)
        m.login(t + 1.0, f"u{int(t)}")
        m.logout(t + 2.5)
        m.shutdown(t + 3.25)


def logs(fleet):
    return [(m.boot_log, m.session_log) for m in fleet]


def statics(meta):
    """``meta.statics`` in insertion order, by ``repr`` (NBench is NaN)."""
    return [(key, repr(info)) for key, info in meta.statics.items()]


def payload_only(path):
    """The graph a checkpoint's pickle holds, revived without its deltas."""
    return pickle.loads(path.read_bytes().split(b"\n", 1)[1])


class TestGroundTruth:
    """Logs and statics ride in the deltas and come back in chain order."""

    def test_logs_and_statics_round_trip(self, tmp_path):
        fleet, store, tip = machines(3), store_with(0), ChainTip()
        roster = RosterColumns([m.spec for m in fleet])
        for k, t in ((7, 0.0), (15, 100.0), (23, 200.0)):
            live(fleet[:k // 8 + 1], t)  # a machine joins per checkpoint
            i = 2 - k // 8  # statics arrive out of id order
            store.meta.statics[fleet[i].spec.machine_id] = \
                roster.static_info(i)
            path = write(tmp_path / "ckpt", k,
                         {"fleet": fleet, "store": store}, tip=tip)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert logs(ckpt.state["fleet"]) == logs(fleet)
        assert statics(ckpt.state["store"].meta) == statics(store.meta)
        assert list(store.meta.statics) == [2, 1, 0]
        # a resumed generation extends exactly what the writer reached
        assert ckpt.tip == dataclasses.replace(tip, kept=None)
        # the pickle itself holds none of it
        bare = payload_only(path)
        assert [lg for m in bare["fleet"] for lg in logs([m])[0]] == [[]] * 6
        assert bare["store"].meta.statics == {}

    def test_stale_zero_row_delta_of_other_cadence_not_chained(self,
                                                               tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        fleet, tip = machines(1), ChainTip()
        live(fleet, 0.0)
        write(ckpt_dir, 7, {"fleet": fleet, "store": store_with(4)}, tip=tip)
        live(fleet, 100.0)
        write(ckpt_dir, 15, {"fleet": fleet, "store": store_with(9)},
              tip=tip)
        # Generation 1 dies inside checkpoint 23: its zero-row delta,
        # holding the records of [100, 200], is in place, the checkpoint
        # is not.
        live(fleet, 200.0)
        write(ckpt_dir, 23, {"fleet": fleet, "store": store_with(9)},
              tip=tip, _tear_after=16)
        ckpt = load_latest_checkpoint(ckpt_dir, Quarantine(tmp_path))
        assert ckpt.iteration == 15
        # Generation 2 checkpoints every 5 iterations, with other truth.
        state, tip = ckpt.state, ckpt.tip
        live(state["fleet"], 300.0)
        write(ckpt_dir, 19, state, tip=tip)
        write(ckpt_dir, 24, state, tip=tip)
        ckpt = load_latest_checkpoint(ckpt_dir, Quarantine(tmp_path))
        assert ckpt.iteration == 24 and ckpt.rows == 9
        [machine] = ckpt.state["fleet"]
        assert [r.boot_time for r in machine.boot_log] == [0.0, 100.0, 300.0]
        assert [r.start for r in machine.session_log] == [1.0, 101.0, 301.0]
        _, deltas = describe_checkpoints(ckpt_dir)
        assert [(d["iteration"], d["link"]) for d in deltas] == [
            (7, -1), (15, 7), (19, 15), (23, 15), (24, 19)]

    def test_zero_row_checkpoint_restores_its_records(self, tmp_path):
        fleet, tip = machines(2), ChainTip()
        for k, t in ((7, 0.0), (15, 100.0)):
            live(fleet, t)
            write(tmp_path / "ckpt", k,
                  {"fleet": fleet, "store": store_with(0)}, tip=tip)
        ckpt = load_latest_checkpoint(tmp_path / "ckpt", Quarantine(tmp_path))
        assert ckpt.iteration == 15 and ckpt.rows == 0
        assert logs(ckpt.state["fleet"]) == logs(fleet)
        assert len(fleet[0].boot_log) == 2

    def test_missing_link_breaks_the_chain(self, tmp_path):
        fleet, tip = machines(1), ChainTip()
        for k, t in ((7, 0.0), (15, 100.0)):
            live(fleet, t)
            write(tmp_path / "ckpt", k, {"fleet": fleet}, tip=tip)
        (tmp_path / "ckpt" / "delta-00000007.delta").unlink()
        checkpoints, _ = describe_checkpoints(tmp_path / "ckpt")
        assert [r["status"] for r in checkpoints] == ["broken_chain"] * 2
        assert load_latest_checkpoint(tmp_path / "ckpt",
                                      Quarantine(tmp_path)) is None

    def test_machines_sharing_an_id_rejected(self, tmp_path):
        [a] = machines(1)
        twin = SimMachine(a.spec, SmartDisk(a.spec.disk_serial,
                                            a.spec.disk_bytes))
        with pytest.raises(CheckpointError, match="two machines"):
            write(tmp_path / "ckpt", 7, {"fleet": [a, twin]})


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
