"""``repro run --shards N``: routing, validation, output."""

from repro.cli import main
from repro.traces.store import TraceStore


class TestRunShards:
    def test_sharded_run_matches_sequential_csv(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        sh = tmp_path / "sh.csv"
        assert main(["run", "--days", "1", "--seed", "4",
                     "--out", str(seq)]) == 0
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "2",
                     "--out", str(sh)]) == 0
        assert sh.read_bytes() == seq.read_bytes()
        out = capsys.readouterr().out
        assert "response rate" in out
        assert "campaign: 2 shards supervised, 0 restarts" in out

    def test_sharded_run_exports_merged_snapshot(self, tmp_path):
        out = tmp_path / "t.csv"
        snap = tmp_path / "obs.jsonl"
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "2",
                     "--out", str(out), "--obs-out", str(snap)]) == 0
        from repro.obs import ObsSnapshot

        merged = ObsSnapshot.read_jsonl(snap)
        store = TraceStore.read_csv(out)
        assert merged.counter_total("ddc.samples") == len(store)

    def test_rejects_non_positive_shards(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--shards", "0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "--shards" in capsys.readouterr().err

    def test_supervised_run_matches_sequential(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        sup = tmp_path / "sup.csv"
        assert main(["run", "--days", "1", "--seed", "4",
                     "--out", str(seq)]) == 0
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "3",
                     "--out", str(sup)]) == 0
        assert sup.read_bytes() == seq.read_bytes()
        assert "campaign: 3 shards supervised" in capsys.readouterr().out


class TestRunCampaign:
    """``--shards N --recover-dir D``: the supervised campaign path."""

    def test_campaign_and_resume_match_sequential(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        camp = tmp_path / "camp.csv"
        res = tmp_path / "res.csv"
        camp_dir = tmp_path / "camp"
        assert main(["run", "--days", "1", "--seed", "4",
                     "--out", str(seq)]) == 0
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "2",
                     "--recover-dir", str(camp_dir),
                     "--out", str(camp)]) == 0
        assert camp.read_bytes() == seq.read_bytes()
        assert "campaign: 2 shards supervised" in capsys.readouterr().out
        # a merged campaign still resumes -- completed shards replay
        # their sealed journals under digest verification
        assert main(["run", "--days", "1", "--seed", "4", "--resume",
                     "--recover-dir", str(camp_dir),
                     "--out", str(res)]) == 0
        assert res.read_bytes() == seq.read_bytes()

    def test_resume_missing_dir_fails_before_creating_it(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "nope"
        rc = main(["run", "--days", "1", "--shards", "2", "--resume",
                   "--recover-dir", str(missing),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "no such recovery directory" in capsys.readouterr().err
        assert not missing.exists()

    def test_resume_foreign_dir_rejected(self, tmp_path, capsys):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "junk.txt").write_text("not a run dir")
        rc = main(["run", "--days", "1", "--resume",
                   "--recover-dir", str(foreign),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "neither a campaign manifest" in capsys.readouterr().err

    def test_sequential_dir_not_resumable_as_campaign(self, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "seqrun"
        (run_dir / "journal").mkdir(parents=True)
        rc = main(["run", "--days", "1", "--shards", "2", "--resume",
                   "--recover-dir", str(run_dir),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "--shards 1" in capsys.readouterr().err

    def test_resume_shard_count_mismatch_rejected(self, tmp_path, capsys):
        camp_dir = tmp_path / "camp"
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "2",
                     "--recover-dir", str(camp_dir),
                     "--out", str(tmp_path / "c.csv")]) == 0
        rc = main(["run", "--days", "1", "--seed", "4", "--shards", "4",
                   "--resume", "--recover-dir", str(camp_dir),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "collected with 2 shards" in capsys.readouterr().err
