"""One compatibility table, one verdict on every surface.

For every rule in :data:`repro.compat.RULES`:

- ``run_experiment`` raises the rule's exception and message before it
  creates anything on disk;
- ``repro run`` with the same flags exits 2 with the same message,
  where a CLI spelling exists;
- for each columnar blocker, a coordinator built with that hook
  reports the same reason from ``columnar_ineligibility()``.
"""

import pytest

from repro.cli import main
from repro.compat import (
    RULES,
    SWITCHES,
    columnar_reason,
    switches,
    violation,
)
from repro.config import DdcParams, ExperimentConfig
from repro.experiment import run_experiment
from repro.faults.scenarios import paper_like_plan
from repro.machines.hardware import TABLE1_LABS
from repro.obs.observer import Observer
from repro.recovery import RecoveryConfig, shard_dir
from repro.resilience.policy import ResiliencePolicy
from repro.shard.net.config import NetConfig
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardTask, run_shard

CFG = ExperimentConfig(days=1, seed=1)
COLUMNAR = CFG.replace(kernel="columnar")
LABS = TABLE1_LABS[:1]


def stock_fleet(config, labs):
    from repro.sim.fleet import FleetSimulator

    return FleetSimulator(config, labs=labs)


#: ``run_dir -> (config, run_experiment kwargs)`` breaking each rule;
#: ``None`` where the rule has no API spelling.
API_CASES = {
    "resume+net": lambda d: (CFG, dict(resume_from=d, net=NetConfig())),
    "resume+recovery": lambda d: (
        CFG, dict(resume_from=d, recovery=RecoveryConfig(d / "fresh"))),
    "resume+resilience": lambda d: (
        CFG, dict(resume_from=d, resilience=ResiliencePolicy())),
    "resume+no_run_dir": None,
    "resume+machines": None,
    "net+one_shard": lambda d: (CFG, dict(net=NetConfig(), shards=1)),
    "net+supervise": lambda d: (
        CFG, dict(net=NetConfig(), shards=2, supervise=True)),
    "net+fleet_factory": lambda d: (
        CFG, dict(net=NetConfig(), shards=2, fleet_factory=stock_fleet)),
    "sharded+fleet_factory": lambda d: (
        CFG, dict(shards=2, fleet_factory=stock_fleet)),
    "columnar+faults": lambda d: (COLUMNAR, dict(faults=paper_like_plan(
        CFG.horizon, labs=(LABS[0].name,), seed=3))),
    "columnar+policy": lambda d: (
        COLUMNAR, dict(resilience=ResiliencePolicy())),
    "columnar+observer": lambda d: (COLUMNAR, dict(observer=Observer())),
    "columnar+retries": lambda d: (
        COLUMNAR.replace(ddc=DdcParams(retry_limit=1)), {}),
    "columnar+fleet_factory": lambda d: (
        COLUMNAR, dict(fleet_factory=stock_fleet)),
}

#: ``run_dir -> repro run flags`` breaking each rule; ``None`` where the
#: rule involves an argument with no CLI flag.
CLI_CASES = {
    "resume+net": lambda d: ["--resume", "--recover-dir", d,
                             "--workers", "2", "--shards", "2"],
    "resume+recovery": None,  # the CLI spells resume as --recover-dir
    "resume+resilience": lambda d: ["--resume", "--recover-dir", d,
                                    "--resilience"],
    "resume+no_run_dir": lambda d: ["--resume"],
    "resume+machines": lambda d: ["--resume", "--recover-dir", d,
                                  "--machines", "200"],
    "net+one_shard": lambda d: ["--workers", "2"],
    "net+supervise": lambda d: ["--workers", "2", "--shards", "2",
                                "--supervise"],
    "net+fleet_factory": None,
    "sharded+fleet_factory": None,
    "columnar+faults": None,
    "columnar+policy": lambda d: ["--kernel", "columnar",
                                  "--resilience"],
    "columnar+observer": lambda d: ["--kernel", "columnar",
                                    "--obs-out", d / "snap.jsonl"],
    "columnar+retries": None,
    "columnar+fleet_factory": None,
}

#: Columnar blockers the coordinator cannot see: the fleet is built
#: around it, so kernel resolution checks it (see the last test).
COORDINATOR_BLIND = {"columnar+fleet_factory"}


def name(rule):
    return "+".join(rule.needs)


def rules_where(spelled):
    return pytest.mark.parametrize(
        "rule", [r for r in RULES if spelled(r)], ids=name)


def test_every_rule_has_its_spellings_listed():
    names = [name(r) for r in RULES]
    assert len(set(names)) == len(names)
    assert set(API_CASES) == set(CLI_CASES) == set(names)
    assert {s for r in RULES for s in r.needs} <= set(SWITCHES)


def test_no_switch_breaks_no_rule_and_names_are_checked():
    assert violation(switches()) is None
    assert columnar_reason(switches()) is None
    with pytest.raises(TypeError, match="unknown"):
        switches(sharding=True)


@rules_where(lambda r: API_CASES[name(r)] is not None)
def test_run_experiment_rejects_before_writing(rule, tmp_path):
    config, kwargs = API_CASES[name(rule)](tmp_path / "run")
    with pytest.raises(Exception) as info:
        run_experiment(config, labs=LABS, collect_nbench=False, **kwargs)
    assert type(info.value) is rule.error
    assert str(info.value) == rule.message
    assert list(tmp_path.iterdir()) == []


@rules_where(lambda r: CLI_CASES[name(r)] is not None)
def test_cli_exits_2_with_the_same_message(rule, tmp_path, capsys):
    flags = [str(a) for a in CLI_CASES[name(rule)](tmp_path / "run")]
    rc = main(["run", "--days", "1", "--out", str(tmp_path / "t.csv"),
               *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {rule.message}\n"
    assert list(tmp_path.iterdir()) == []


@rules_where(lambda r: r.reason is not None
             and name(r) not in COORDINATOR_BLIND)
def test_columnar_ineligibility_gives_the_same_reason(rule, tmp_path):
    # The same switches under kernel="auto" build the run the table
    # rejects for kernel="columnar"; its coordinator names the blocker.
    config, kwargs = API_CASES[name(rule)](tmp_path / "run")
    result = run_experiment(config.replace(kernel="auto"), labs=LABS,
                            collect_nbench=False, strict_postcollect=False,
                            **kwargs)
    assert result.coordinator._cols is None
    assert result.coordinator.columnar_ineligibility() == rule.reason


def test_custom_fleet_blocks_the_kernel_with_the_tables_reason():
    (rule,) = [r for r in RULES if name(r) in COORDINATOR_BLIND]
    task = ShardTask(config=COLUMNAR, shard=ShardPlan.build(LABS, 1).specs[0],
                     labs=tuple(LABS), collect_nbench=False)
    with pytest.raises(ValueError, match=rule.reason):
        run_shard(task, fleet_factory=stock_fleet)


@pytest.mark.parametrize("shards", [1, 2])
def test_columnar_recovery_runs_columnar(tmp_path, shards):
    # A crash-safe run journals from the columnar pass, so no rule
    # stands between kernel="columnar" and recovery= or resume_from=.
    assert columnar_reason(switches(recovery=True)) is None
    assert columnar_reason(switches(resume=True)) is None
    run_dir = tmp_path / "run"
    # kernel="columnar" raises on an ineligible run, so finishing is
    # the proof that every shard took the columnar pass.
    result = run_experiment(ExperimentConfig(days=1, kernel="columnar"),
                            labs=TABLE1_LABS[:3],
                            recovery=RecoveryConfig(run_dir, fsync=False),
                            shards=shards)
    dirs = ([run_dir] if shards == 1
            else [shard_dir(run_dir, k) for k in range(shards)])
    for d in dirs:
        assert any((d / "journal").glob("segment-*.jsonl")), d
        assert any((d / "checkpoints").glob("ckpt-*.ckpt")), d
    if shards == 1:
        assert result.coordinator._cols is not None
        assert result.recovery.samples_journaled == len(result.store)
