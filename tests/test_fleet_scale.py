"""Fleet-size scaling: ``scaled_labs`` / ``repro run --machines N``.

Covers the catalog-cycling factory's shape and validation, the CLI
guards, and a 10k-machine smoke run that must finish within a CI
wall-clock budget (the columnar kernel's whole point at that scale).
"""

import time

import pytest

from repro.cli import main
from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.machines.hardware import TABLE1_LABS, build_fleet, scaled_labs

#: Generous CI budget for one simulated day at 10k machines; an unloaded
#: single-core container does it in ~13s on the columnar kernel (the
#: per-object path alone would spend ~41s in probing passes).
SMOKE_BUDGET_SECONDS = 120.0


class TestScaledLabs:
    def test_identity_at_paper_size(self):
        assert scaled_labs(169) is TABLE1_LABS

    @pytest.mark.parametrize("n", (1, 9, 169, 170, 400, 10_000))
    def test_exact_machine_count(self, n):
        labs = scaled_labs(n)
        assert sum(lab.n_machines for lab in labs) == n

    def test_lab_names_stay_unique_across_cycles(self):
        labs = scaled_labs(1000)
        names = [lab.name for lab in labs]
        assert len(names) == len(set(names))
        assert names[:11] == [lab.name for lab in TABLE1_LABS]
        assert names[11] == "L12"  # cycle 2's copy of L01

    def test_hostnames_stay_unique(self):
        fleet = build_fleet(scaled_labs(400))
        hostnames = [spec.hostname for spec in fleet]
        assert len(hostnames) == len(set(hostnames)) == 400

    def test_cycles_preserve_hardware_mix(self):
        labs = scaled_labs(169 * 2)
        for original, copy in zip(labs[:11], labs[11:]):
            assert copy.cpu == original.cpu
            assert copy.ram_mb == original.ram_mb
            assert copy.n_machines == original.n_machines

    @pytest.mark.parametrize("bad", (0, -1, -169))
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            scaled_labs(bad)

    @pytest.mark.parametrize("bad", (2.5, 169.0, "169", None, True, False))
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="integer|positive"):
            scaled_labs(bad)


class TestCliMachines:
    def test_machines_zero_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--machines", "0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "--machines" in capsys.readouterr().err

    def test_machines_negative_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--days", "1", "--machines", "-5",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_machines_with_resume_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--machines", "200", "--resume",
                   "--recover-dir", str(tmp_path / "run"),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "resume" in capsys.readouterr().err

    def test_scaled_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["run", "--days", "1", "--seed", "4", "--machines", "200",
                   "--out", str(out)])
        assert rc == 0
        from repro.traces.store import TraceStore

        store = TraceStore.read_csv(out)
        ids = {sample.machine_id for sample in store.samples()}
        # machines beyond the paper's 169 really probed -> fleet scaled
        assert max(ids) > 168
        assert ids <= set(range(200))

    @pytest.mark.parametrize("extra", (
        ("--obs-out", "snap.jsonl"),
        ("--resilience",),
    ), ids=("obs", "resilience"))
    def test_columnar_kernel_flag_rejected_when_ineligible(
            self, tmp_path, capsys, extra):
        # Statically-known ineligible combinations exit 2 up front,
        # before any observer snapshot exists on disk.
        extra = tuple(str(tmp_path / a) if a == "snap.jsonl" else a
                      for a in extra)
        rc = main(["run", "--days", "1", "--kernel", "columnar",
                   "--out", str(tmp_path / "t.csv"), *extra])
        assert rc == 2
        assert "columnar" in capsys.readouterr().err
        assert not (tmp_path / "snap.jsonl").exists()

    def test_columnar_kernel_flag_with_recover_dir_writes_journal(
            self, tmp_path, capsys):
        # A crash-safe run journals from the columnar pass.
        run_dir = tmp_path / "rundir"
        rc = main(["run", "--days", "1", "--kernel", "columnar",
                   "--recover-dir", str(run_dir),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        assert any((run_dir / "journal").glob("segment-*.jsonl"))
        assert (tmp_path / "t.csv").exists()

    def test_columnar_kernel_flag_composes_with_shards(self, tmp_path,
                                                       capsys):
        # PR 10 lifted the shards exclusivity: the sharded merge is
        # byte-identical, so --kernel columnar --shards N is a valid run.
        out = tmp_path / "t.csv"
        rc = main(["run", "--days", "1", "--kernel", "columnar",
                   "--shards", "2", "--out", str(out)])
        assert rc == 0
        assert out.exists()


class TestTenThousandMachineSmoke:
    def test_one_day_within_budget(self):
        cfg = ExperimentConfig(days=1, seed=7)
        t0 = time.perf_counter()
        result = run_experiment(cfg, labs=scaled_labs(10_000),
                                collect_nbench=False)
        elapsed = time.perf_counter() - t0
        assert result.coordinator._cols is not None  # columnar engaged
        assert result.fleet._backend is not None  # tick-batched behaviour
        assert result.meta.n_machines == 10_000
        assert len(result.store) > 100_000
        assert elapsed < SMOKE_BUDGET_SECONDS, (
            f"10k-machine day took {elapsed:.1f}s, "
            f"budget {SMOKE_BUDGET_SECONDS:.0f}s"
        )
