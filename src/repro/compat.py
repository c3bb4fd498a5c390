"""The compatibility table: run switches that cannot be combined.

Every such rule lives here, once.  :func:`repro.experiment
.run_experiment` checks the table before it touches the filesystem,
``repro run`` checks it for its exit-2 pre-flight, and
:meth:`repro.ddc.coordinator.DdcCoordinator.columnar_ineligibility`
takes its reasons from the columnar rows.  Each rule keeps one
exception type and one message naming both the API argument and the
CLI flag.  Checks on single values (counts, endpoint syntax, the
contents of a resume directory) stay with the code that reads them.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Tuple, Type

from repro.errors import CheckpointError

__all__ = ["SWITCHES", "Rule", "RULES", "switches", "violation", "check",
           "columnar_reason"]

#: Every switch a rule can name, with its API argument and CLI flag.
SWITCHES = {
    "resume": "resume_from=; --resume",
    "recovery": "recovery=; --recover-dir without --resume",
    "resilience": "resilience=; --resilience",
    "policy": "a ResiliencePolicy via resilience= or config.ddc.resilience",
    "net": "net=; --listen or --workers",
    "supervise": "a CampaignPolicy via supervise= (no CLI flag)",
    "one_shard": "shards= or config.shards below 2; --shards below 2",
    "sharded": "shards= or config.shards above 1; --shards above 1",
    "columnar": "config.kernel='columnar'; --kernel columnar",
    "fleet_factory": "fleet_factory= (no CLI flag)",
    "faults": "a non-empty faults= plan (no CLI flag)",
    "observer": "an enabled observer=; --obs-out",
    "retries": "config.ddc.retry_limit > 0 (no CLI flag)",
    "no_run_dir": "--resume without --recover-dir (CLI only)",
    "machines": "--machines (CLI only)",
}


def switches(**on: bool) -> FrozenSet[str]:
    """The switches of one run request that are on."""
    unknown = set(on) - set(SWITCHES)
    if unknown:
        raise TypeError(f"unknown compatibility switches {sorted(unknown)}")
    return frozenset(name for name, value in on.items() if value)


class Rule(NamedTuple):
    """Switches that cannot all be on, and what a request gets if they are."""

    needs: Tuple[str, ...]
    error: Type[Exception]
    message: str
    #: For a columnar blocker, the reason ``columnar_ineligibility()``
    #: reports.
    reason: Optional[str] = None

    def applies(self, on: FrozenSet[str]) -> bool:
        return on.issuperset(self.needs)


def _columnar(switch: str, reason: str, spelling: str) -> Rule:
    return Rule(
        ("columnar", switch), ValueError,
        f"kernel='columnar' (--kernel columnar) requested but the run is "
        f"ineligible: {reason} ({spelling}); the columnar pass replicates "
        "none of that hook's behaviour -- use kernel='auto' (--kernel "
        "auto) to fall back to the object path (see docs/columnar.md)",
        reason,
    )


#: The table, checked in order: the first rule that applies decides.
RULES: Tuple[Rule, ...] = (
    Rule(("resume", "net"), CheckpointError,
         "networked campaign resume (resume_from= with net=; --resume "
         "with --listen/--workers) is not supported: the shard-<k>/ "
         "namespaces are worker-host-local; resume the campaign locally "
         "with resume_from= alone (--resume without --listen/--workers)"),
    Rule(("resume", "recovery"), CheckpointError,
         "pass either recovery= (fresh run) or resume_from= (continue a "
         "crashed run), not both"),
    Rule(("resume", "resilience"), CheckpointError,
         "resilience= (--resilience) cannot be changed on resume "
         "(resume_from=, --resume): the policy and its control-plane "
         "state come from the checkpoint"),
    Rule(("resume", "no_run_dir"), ValueError,
         "--resume needs --recover-dir, the run directory to resume"),
    Rule(("resume", "machines"), ValueError,
         "--machines cannot be changed on --resume; the resumed run keeps "
         "its checkpointed fleet"),
    Rule(("net", "one_shard"), ValueError,
         "net= (--listen/--workers) runs a networked campaign, which "
         "needs --shards >= 2 (shards=): it exists to fan shards out "
         "over workers"),
    Rule(("net", "supervise"), ValueError,
         "net= (--listen/--workers) and supervise= are mutually "
         "exclusive: supervise= tunes a campaign on forked workers; tune "
         "a net= campaign with NetConfig(policy=CampaignPolicy(...))"),
    Rule(("net", "fleet_factory"), ValueError,
         "fleet_factory is not supported with net= (--listen/--workers): "
         "networked workers rebuild their fleet from the picklable config"),
    Rule(("sharded", "fleet_factory"), ValueError,
         "fleet_factory is not supported with shards > 1 (--shards): "
         "worker processes rebuild their fleet from the picklable config"),
    _columnar("faults", "fault plan attached", "faults="),
    _columnar("policy", "resilience control plane attached",
              "resilience= or config.ddc.resilience; --resilience"),
    _columnar("observer", "observer attached", "observer=; --obs-out"),
    _columnar("retries", "retries enabled", "config.ddc.retry_limit > 0"),
)


def violation(on: FrozenSet[str]) -> Optional[Rule]:
    """The first rule the switches ``on`` break, or ``None``."""
    return next((rule for rule in RULES if rule.applies(on)), None)


def check(on: FrozenSet[str]) -> None:
    """Raise the first broken rule's exception with its message."""
    rule = violation(on)
    if rule is not None:
        raise rule.error(rule.message)


def columnar_reason(on: FrozenSet[str]) -> Optional[str]:
    """Why a run with switches ``on`` cannot take the columnar pass."""
    on = on | {"columnar"}
    return next((rule.reason for rule in RULES
                 if rule.reason is not None and rule.applies(on)), None)
