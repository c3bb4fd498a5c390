"""``repro run --listen/--workers`` and ``repro worker``: CLI surface."""

import pytest

from repro.cli import main


class TestRunNetValidation:
    """Every conflict must exit 2 before anything touches the disk."""

    def out(self, tmp_path):
        return str(tmp_path / "t.csv")

    def test_workers_must_be_positive(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--workers", "0",
                   "--shards", "2", "--out", self.out(tmp_path)])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_needs_two_shards(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--workers", "2",
                   "--out", self.out(tmp_path)])
        assert rc == 2
        assert "--shards >= 2" in capsys.readouterr().err

    def test_conflicts_with_supervise(self, tmp_path, capsys):
        # --supervise is gone (every sharded run is a campaign), so the
        # parser rejects it as an unknown flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--days", "1", "--workers", "2", "--shards", "2",
                  "--supervise", "--out", self.out(tmp_path)])
        assert exit_info.value.code == 2
        assert "--supervise" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_conflicts_with_resume(self, tmp_path, capsys):
        recover = tmp_path / "campaign"
        rc = main(["run", "--days", "1", "--workers", "2", "--shards", "2",
                   "--resume", "--recover-dir", str(recover),
                   "--out", self.out(tmp_path)])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err
        # Validation fired before the run directory was created.
        assert not recover.exists()

    def test_malformed_listen_endpoint(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--shards", "2",
                   "--listen", "udp://127.0.0.1:7077",
                   "--out", self.out(tmp_path)])
        assert rc == 2
        assert "--listen" in capsys.readouterr().err

    def test_validation_precedes_recover_dir_creation(self, tmp_path,
                                                      capsys):
        recover = tmp_path / "fresh-campaign"
        rc = main(["run", "--days", "1", "--shards", "2",
                   "--listen", "tcp://127.0.0.1:nope",
                   "--recover-dir", str(recover),
                   "--out", self.out(tmp_path)])
        assert rc == 2
        capsys.readouterr()
        assert not recover.exists()


class TestWorkerValidation:
    def test_malformed_endpoint_exits_2(self, capsys):
        rc = main(["worker", "not-an-endpoint"])
        assert rc == 2
        assert "endpoint" in capsys.readouterr().err


class TestRunNetHappyPath:
    def test_networked_campaign_matches_sequential_csv(self, tmp_path,
                                                       capsys):
        seq = tmp_path / "seq.csv"
        net = tmp_path / "net.csv"
        assert main(["run", "--days", "1", "--seed", "4",
                     "--out", str(seq)]) == 0
        assert main(["run", "--days", "1", "--seed", "4", "--shards", "2",
                     "--workers", "2", "--out", str(net)]) == 0
        assert net.read_bytes() == seq.read_bytes()
