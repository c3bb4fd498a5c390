"""The DDC central coordinator.

"All executions of probes are orchestrated by DDC's central coordinator
host, which is a normal PC" (section 3).  Every ``sample_period`` seconds
the coordinator attempts one **iteration**: a sequential pass over the
whole machine roster, remote-executing the probe on each machine, feeding
successful output to the post-collecting code and accounting timeouts for
the powered-off ones.

Fidelity notes
--------------
- Iterations are *attempted* every 15 minutes but the coordinator itself
  is not perfectly available (the paper completed 6,883 of 7,392 possible
  iterations); ``DdcParams.coordinator_availability`` models that.
- Within an iteration machines are probed **sequentially**: machine
  ``i+1`` is contacted only after machine ``i``'s execution (or timeout)
  finished, so collection times drift a few seconds per machine --
  exactly like the original and why :class:`~repro.traces.records.Sample`
  stores its own ``t``.
- A probe observes the machine at its actual execution instant.  Because
  remote latencies are far smaller than the inter-event times of machine
  state, the coordinator performs a whole iteration inside one simulation
  event, extrapolating the piecewise-constant state over the (seconds of)
  in-iteration drift; the induced error is bounded by one latency, versus
  the 900 s sampling period.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DdcParams
from repro.ddc.postcollect import (
    PostCollectContext,
    PostCollector,
    SamplePostCollector,
)
from repro.ddc.probe import Probe, ProbeResult
from repro.ddc.remote import Credentials, RemoteExecutor, RemoteOutcome
from repro.errors import AccessDenied, MachineUnreachable
from repro.faults.plan import FaultPlan
from repro.machines.machine import SimMachine
from repro.resilience.control import PROBE, SHED, ResilienceControl
from repro.sim.engine import Simulator
from repro.traces.records import TraceMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machines.winapi import Win32Api
    from repro.obs.observer import Observer
    from repro.recovery.runtime import RecoveryRuntime

__all__ = ["DdcCoordinator"]


class _LabSet(frozenset):
    """A shard's owned lab names; pickles sorted, not in hash order.

    A plain frozenset pickles in iteration order, which follows
    ``PYTHONHASHSEED``; this one keeps checkpoint bytes independent of
    the hash seed.  The executor shares the coordinator's instance.
    """

    __slots__ = ()

    def __reduce__(self):
        return _LabSet, (sorted(self),)


class _StandInProbe(Probe):
    """What a shard coordinator runs on a foreign machine.

    Returns the real probe's fixed ``shadow_cost_seconds`` without
    reading the machine.  The executor still performs every draw and
    control-plane call of a real attempt, so the shared latency stream
    and the pass clock advance exactly as in the owning shard, which
    alone materialises the report.
    """

    name = "stand-in.exe"

    def __init__(self, cost: float):
        self._result = ProbeResult(stdout="", cpu_seconds=cost)

    def run(self, api: "Win32Api", now: float) -> ProbeResult:
        return self._result


class _LabInstruments:
    """Per-lab instruments, bound once so the probing loop stays cheap."""

    __slots__ = ("timeouts", "access_denied", "samples", "parse_failures",
                 "retries", "retries_recovered", "retries_skipped",
                 "pass_seconds")

    def __init__(self, observer: "Observer", lab: str):
        from repro.obs.metrics import DURATION_BUCKETS

        m = observer.metrics
        self.timeouts = m.counter("ddc.timeouts", lab=lab)
        self.access_denied = m.counter("ddc.access_denied", lab=lab)
        self.samples = m.counter("ddc.samples", lab=lab)
        self.parse_failures = m.counter("ddc.parse_failures", lab=lab)
        self.retries = m.counter("ddc.retries", lab=lab)
        self.retries_recovered = m.counter("ddc.retries_recovered", lab=lab)
        self.retries_skipped = m.counter("ddc.retries_skipped", lab=lab)
        self.pass_seconds = m.histogram(
            "ddc.lab_pass_seconds", edges=DURATION_BUCKETS, lab=lab
        )


class DdcCoordinator:
    """Schedules probing iterations over a machine roster.

    Parameters
    ----------
    machines:
        The roster, in probing order (the paper iterates lab by lab).
    sim:
        The shared discrete-event simulator (monitoring lives in the same
        timeline as the users).
    params:
        Collector settings (period, availability, latencies).
    probe:
        The probe to execute remotely each iteration.
    post_collect:
        Post-collecting code invoked on each successful execution.
    rng:
        Stream for coordinator-side noise (availability, latency).
    horizon:
        Experiment end time (seconds); iterations stop there.
    credentials:
        Admin credentials; defaults to a fleet-accepted pair.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  An empty plan is
        dropped here, keeping the hot path hook-free and the output
        bitwise-identical to a plan-less run.
    observer:
        Optional :class:`repro.obs.Observer`.  When attached, every
        iteration opens a ``ddc.iteration`` span (with its simulated
        extent stamped via :meth:`~repro.obs.Span.set_end`, since a whole
        pass runs inside one engine event), iteration and per-lab pass
        durations land in histograms, and the failure counters
        (timeouts, access-denied, retries, parse failures) are tallied
        per lab.  Dropped at construction when absent or disabled, the
        same differential guarantee as ``faults``.
    owned_labs:
        Labs this coordinator *collects for* (``None`` -- the default --
        means all: the classic sequential run).  A shard coordinator
        still walks the **whole** roster every iteration so that the
        shared latency stream, the fault hooks and the resilience
        control plane evolve exactly as in the sequential run, but a
        foreign machine's attempts run unaccounted (``count=False`` in
        :meth:`_execute_with_retry`), with a stand-in probe wherever
        that is draw-exact: no sample is stored and no counter
        incremented.  Merged shard accounting therefore sums to the
        sequential run's.
    """

    def __init__(
        self,
        machines: Sequence[SimMachine],
        sim: Simulator,
        params: DdcParams,
        probe: Probe,
        post_collect: PostCollector,
        rng: np.random.Generator,
        horizon: float,
        credentials: Optional[Credentials] = None,
        faults: Optional[FaultPlan] = None,
        observer: Optional["Observer"] = None,
        owned_labs: Optional[frozenset] = None,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.machines: List[SimMachine] = list(machines)
        self.sim = sim
        self.params = params
        self.probe = probe
        self.post_collect = post_collect
        self.rng = rng
        self.horizon = float(horizon)
        self.faults = faults if faults is not None and not faults.empty else None
        self.owned_labs = (_LabSet(owned_labs) if owned_labs is not None
                           else None)
        self._shadow_cost = probe.shadow_cost_seconds
        #: The probe a foreign machine runs.  Skipping the real probe is
        #: only sound for a draw-free fixed-cost probe with no fault plan
        #: (fault hooks see the machine and draw from the plan's streams
        #: in roster order); otherwise the real probe runs, unaccounted.
        self._foreign_probe: Probe = (
            _StandInProbe(self._shadow_cost)
            if self.faults is None and self._shadow_cost is not None
            else probe
        )
        self._obs = observer if observer is not None and observer.enabled else None
        self._lab_instruments: Dict[str, _LabInstruments] = {}
        if self._obs is not None:
            from repro.obs.metrics import DURATION_BUCKETS

            m = self._obs.metrics
            self._c_iter_run = m.counter("ddc.iterations_run")
            self._c_iter_lost = m.counter("ddc.iterations_lost")
            self._h_iteration = m.histogram(
                "ddc.iteration_seconds", edges=DURATION_BUCKETS
            )
        admin = credentials or Credentials.create("DDC\\collector", "probe!2005")
        self.credentials = admin
        self.executor = RemoteExecutor(
            admin,
            latency_range=params.exec_latency,
            off_timeout=params.off_timeout,
            rng=rng,
            faults=self.faults,
            observer=observer,
            owned_labs=self.owned_labs,
        )
        #: Resilience control plane; ``None`` (no policy on ``params``)
        #: keeps the classic pass with bit-identical traces -- the same
        #: drop-at-construction contract as ``faults`` and ``observer``.
        self.resilience: Optional[ResilienceControl] = None
        if params.resilience is not None:
            self.resilience = ResilienceControl(
                params.resilience,
                [(m.spec.machine_id, m.spec.lab) for m in self.machines],
                off_timeout=params.off_timeout,
                sample_period=params.sample_period,
                observer=observer,
            )
        # accounting (owned machines only; all machines when unsharded)
        self.iterations_scheduled = 0
        self.iterations_run = 0
        self.attempts = 0
        self.timeouts = 0
        self.access_denied = 0
        self.samples_collected = 0
        self.parse_failures = 0
        self.retries = 0
        self.retries_recovered = 0
        self.retries_skipped = 0
        # Resilience slots, counted per admit verdict / hedge dispatch of
        # *owned* machines.  Equal to the control plane's full-fleet
        # totals when owned_labs is None, and summing to them across a
        # shard plan otherwise (the control plane itself is replicated
        # identically in every shard).
        self._shed = 0
        self._breaker_skipped = 0
        self._hedges = 0
        self._hedge_wins = 0
        self.iteration_durations: List[float] = []
        #: Columnar mirror (see :mod:`repro.sim.kernel`); installed by
        #: :meth:`enable_columnar` when the configuration is eligible.
        self._cols = None
        self._registered: Optional[np.ndarray] = None
        self._started = False
        #: Recovery hook installed by :class:`repro.recovery.runtime
        #: .RecoveryRuntime` (journal cadence, checkpoints, crash points).
        self.recovery: Optional["RecoveryRuntime"] = None
        #: Supervision hook: ``callable(iteration, t, ran)`` invoked at
        #: the very end of every scheduled iteration, after the recovery
        #: hook -- so a heartbeat reports only durable progress.  A
        #: campaign's shard worker installs its control endpoint here.
        self.heartbeat = None

    def __getstate__(self) -> dict:
        # The recovery runtime owns open journal handles, the heartbeat
        # hook owns multiprocessing queues; both are rebuilt around the
        # revived graph by the resume path, so checkpoints exclude them.
        state = self.__dict__.copy()
        state["recovery"] = None
        state["heartbeat"] = None
        return state

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first iteration (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(0.0, self._iteration, 0, name="ddc_iter")

    def _iteration(self, k: int) -> None:
        start = self.sim.now
        if k == 0:
            # Later iterations stay on the period grid anchored here (a
            # staggered schedule's first iteration fires at its offset).
            self._origin = start
        obs = self._obs
        ran = False
        self.iterations_scheduled += 1
        if self.faults is not None and self.faults.coordinator_down(start, k):
            # injected outage: the iteration is lost entirely
            if obs is not None:
                self._c_iter_lost.inc()
        elif self.rng.random() < self.params.coordinator_availability:
            self.iterations_run += 1
            ran = True
            run_pass = (self._run_pass if self._cols is None
                        else self._run_pass_columnar)
            if obs is not None:
                with obs.span("ddc.iteration", iteration=k) as span:
                    elapsed = run_pass(k, start)
                    span.set_end(start + elapsed)
                self._c_iter_run.inc()
                self._h_iteration.observe(elapsed)
            else:
                elapsed = run_pass(k, start)
            self.iteration_durations.append(elapsed)
        elif obs is not None:
            self._c_iter_lost.inc()
        nxt = self._origin + (k + 1) * self.params.sample_period
        if nxt < self.horizon:
            self.sim.schedule(nxt, self._iteration, k + 1, name="ddc_iter")
        if self.recovery is not None:
            # After the next iteration is on the heap, so a checkpoint
            # taken here revives into a run that keeps iterating.
            self.recovery.on_iteration_end(k, start, ran=ran)
        # getattr: a coordinator revived from a pre-heartbeat checkpoint
        # has no such attribute in its pickled __dict__.
        heartbeat = getattr(self, "heartbeat", None)
        if heartbeat is not None:
            heartbeat(k, start, ran)

    def _lab(self, lab: str) -> _LabInstruments:
        """Per-lab instruments, created on first encounter."""
        li = self._lab_instruments.get(lab)
        if li is None:
            li = _LabInstruments(self._obs, lab)
            self._lab_instruments[lab] = li
        return li

    def _retryable(self, error: Optional[Exception]) -> bool:
        """Whether a failed outcome is worth a bounded retry.

        Only *transient* denials qualify: a deterministic credential
        mismatch fails identically every time, so retrying it burns
        iteration budget for nothing (the withheld retries are counted
        in ``retries_skipped``).
        """
        if isinstance(error, AccessDenied):
            return error.transient
        return self.params.retry_unreachable and isinstance(
            error, MachineUnreachable
        )

    def _execute_with_retry(
        self, machine: SimMachine, start: float, count: bool = True
    ) -> "tuple[RemoteOutcome, float]":
        """One attempt plus bounded retries; returns (outcome, elapsed).

        The resilience control plane, when attached, rides every
        executor call (retries included).  ``count=False`` replicates a
        foreign machine's attempts with :attr:`_foreign_probe` -- same
        draws, same control-plane evidence, same elapsed time -- without
        touching the retry counters: the owning shard accounts them.
        """
        probe = self.probe if count else self._foreign_probe
        rc = self.resilience
        outcome = self.executor.execute(
            machine, probe, start, self.credentials, rc
        )
        elapsed = outcome.elapsed
        if outcome.ok or self.params.retry_limit == 0:
            return outcome, elapsed
        backoff = self.params.retry_backoff
        li = (self._lab(machine.spec.lab)
              if count and self._obs is not None else None)
        for _ in range(self.params.retry_limit):
            if not self._retryable(outcome.error):
                if count:
                    # a retry opportunity withheld as futile
                    self.retries_skipped += 1
                    if li is not None:
                        li.retries_skipped.inc()
                break
            if count:
                self.retries += 1
                if li is not None:
                    li.retries.inc()
            elapsed += backoff
            outcome = self.executor.execute(
                machine, probe, start + elapsed, self.credentials, rc
            )
            elapsed += outcome.elapsed
            backoff *= 2.0
            if outcome.ok:
                if count:
                    self.retries_recovered += 1
                    if li is not None:
                        li.retries_recovered.inc()
                break
        return outcome, elapsed

    def _run_pass(self, k: int, start: float) -> float:
        """One sequential pass over the roster; returns its duration.

        With the resilience control plane attached, each machine first
        passes :meth:`~repro.resilience.control.ResilienceControl.admit`
        (circuit breaker, load shedder).  Skipped machines are fully
        accounted: ``iterations_run * n_machines == attempts + shed +
        breaker_skipped`` holds at all times.
        """
        rc = self.resilience
        if rc is not None:
            rc.begin_pass(k, start)
        observing = self._obs is not None
        owned = self.owned_labs
        cursor = start
        lab_start = start
        current_lab: Optional[str] = None
        li: Optional[_LabInstruments] = None
        mine = True
        for machine in self.machines:
            if machine.spec.lab != current_lab:
                # The roster is lab-ordered, so each lab is one contiguous
                # segment of the pass; close the previous lab's timing.
                if li is not None:
                    li.pass_seconds.observe(cursor - lab_start)
                current_lab = machine.spec.lab
                mine = owned is None or current_lab in owned
                li = self._lab(current_lab) if observing and mine else None
                lab_start = cursor
            if rc is not None:
                verdict = rc.admit(machine.spec.machine_id, cursor)
                if verdict != PROBE:
                    if mine:
                        if verdict == SHED:
                            self._shed += 1
                        else:
                            self._breaker_skipped += 1
                    continue
            if not mine:
                _, elapsed = self._execute_with_retry(
                    machine, cursor, count=False
                )
                cursor += elapsed
                continue
            if rc is not None:
                # Hedge dispatches happen inside the executor (retries
                # included); the before/after delta attributes them to
                # this owned machine.
                h0, w0 = rc.hedges, rc.hedge_wins
            outcome, elapsed = self._execute_with_retry(machine, cursor)
            if rc is not None:
                self._hedges += rc.hedges - h0
                self._hedge_wins += rc.hedge_wins - w0
            self.attempts += 1
            cursor += elapsed
            self._account_outcome(machine, outcome, cursor, k, li)
        if li is not None:
            li.pass_seconds.observe(cursor - lab_start)
        return cursor - start

    def _account_outcome(
        self,
        machine: SimMachine,
        outcome: RemoteOutcome,
        t: float,
        k: int,
        li: Optional[_LabInstruments],
    ) -> None:
        """Fold one attempt's outcome into the counters (and the trace)."""
        if outcome.ok:
            assert outcome.result is not None
            spec = machine.spec
            ctx = PostCollectContext(
                machine_id=spec.machine_id,
                hostname=spec.hostname,
                lab=spec.lab,
                t=t,
                iteration=k,
            )
            if self.post_collect(outcome.result.stdout,
                                 outcome.result.stderr, ctx) is not None:
                self.samples_collected += 1
                if li is not None:
                    li.samples.inc()
            else:
                # Non-strict post-collecting code dropped the report
                # (garbled telemetry); strict mode raises instead.
                self.parse_failures += 1
                if li is not None:
                    li.parse_failures.inc()
        elif isinstance(outcome.error, MachineUnreachable):
            self.timeouts += 1
            if li is not None:
                li.timeouts.inc()
        elif isinstance(outcome.error, AccessDenied):
            self.access_denied += 1
            if li is not None:
                li.access_denied.inc()

    # -- columnar kernel (see repro.sim.kernel and docs/columnar.md) ----
    def columnar_ineligibility(self) -> Optional[str]:
        """Why this coordinator cannot use the columnar pass, or ``None``.

        The columnar pass replicates the exact fault-free, hook-free
        probing loop; any feature that adds per-machine hooks (faults,
        resilience, retries, observation, a custom probe or
        post-collector) keeps the per-object path, whose output the
        columnar one is bit-identical to anyway.  A bound recovery
        runtime is no such hook: the pass journals its rows through
        :meth:`~repro.recovery.runtime.RecoveryRuntime.on_columns`, in
        roster order and before the store admits them, writing the same
        journal bytes as the object path.  A *sharded* coordinator
        (``owned_labs`` set) is eligible: the pass still draws and times
        the full roster -- replicating the sequential cursor chain and
        RNG cursor exactly -- and restricts materialisation (samples,
        statics, counters) to the owned mask, the vectorised twin of the
        per-object foreign path.

        The hooks a run request can switch on are read from the
        :mod:`repro.compat` table, so this verdict and the up-front
        rejection of ``kernel="columnar"`` agree by construction.
        """
        from repro.compat import columnar_reason, switches
        from repro.ddc.w32probe import W32Probe

        reason = columnar_reason(switches(
            faults=self.faults is not None,
            policy=self.resilience is not None,
            observer=self._obs is not None,
            retries=self.params.retry_limit != 0,
        ))
        if reason is not None:
            return reason
        if type(self.probe) is not W32Probe:
            return f"probe is {type(self.probe).__name__}, not W32Probe"
        if type(self.post_collect) is not SamplePostCollector:
            return "custom post-collecting code"
        return None

    def enable_columnar(self, columns) -> None:
        """Install a pass source and switch iterations to
        :meth:`_run_pass_columnar`.

        The source is the fleet's live :class:`~repro.sim.kernel
        .FleetColumns` mirror, or, in the parent of a gathered shard
        plan, the :class:`~repro.shard.gather.GatheredPasses` its
        workers recorded; that coordinator holds no machines (they live
        in the workers) and takes its roster from the source.

        Raises :class:`ValueError` when the configuration is ineligible
        (see :meth:`columnar_ineligibility`) or the mirror does not match
        the roster.
        """
        reason = self.columnar_ineligibility()
        if reason is not None:
            raise ValueError(f"columnar kernel ineligible: {reason}")
        if self.machines and columns.n != len(self.machines):
            raise ValueError(
                f"columnar mirror covers {columns.n} machines, "
                f"roster has {len(self.machines)}"
            )
        self._cols = columns
        self._registered = np.zeros(columns.n, dtype=bool)
        meta = self.post_collect.store.meta
        if meta is not None and meta.statics:
            for i, mid in enumerate(columns.machine_id.tolist()):
                if mid in meta.statics:
                    self._registered[i] = True
        # Shard ownership as a roster mask: draws and the cursor chain
        # stay full-roster (the shared "ddc" stream must advance exactly
        # as in the sequential run); accounting and the store restrict
        # to the owned slice.
        if self.owned_labs is None:
            self._owned_mask = np.ones(columns.n, dtype=bool)
        else:
            self._owned_mask = np.array(
                [lab in self.owned_labs for lab in columns.labs], dtype=bool
            )
        self._n_owned = int(np.count_nonzero(self._owned_mask))
        lo, hi = self.params.exec_latency
        self._lat_lo = float(lo)
        self._lat_hi = float(hi)

    def _run_pass_columnar(self, k: int, start: float) -> float:
        """Vectorised twin of :meth:`_run_pass`, bit-identical output.

        The gather step reads this instant's pass inputs off the source
        (``on``: roster positions of the powered machines; ``rows``:
        the gathered inputs of the owned ones); the emit step,
        :meth:`_emit_columnar`, turns them into samples.
        """
        on, rows = self._cols.pass_inputs(k, self._owned_mask)
        return self._emit_columnar(k, start, on, rows)

    def _emit_columnar(self, k: int, start: float, on: np.ndarray,
                       rows: dict) -> float:
        """The emit step of the columnar pass; returns its duration.

        The whole pass runs inside one engine event, so its inputs are a
        frozen snapshot: the powered set cannot change mid-pass, the
        latency draws collapse into one exact-size batch (consuming the
        ``"ddc"`` stream draw-for-draw like the sequential loop), the
        cursor chain becomes a cumulative sum, and every probe field is
        one array expression replicating the W32Probe wire format plus
        the post-collector's parse, including every rounding step.
        """
        cols = self._cols
        n = cols.n
        n_on = int(on.size)
        p = self.params
        # one batched draw == n_on sequential draws, in roster order
        # (powered-off machines draw nothing, they cost off_timeout flat)
        lat = self.rng.uniform(self._lat_lo, self._lat_hi, n_on)
        elapsed = np.full(n, p.off_timeout)
        elapsed[on] = lat + self._shadow_cost
        # cursor chain: float addition is non-associative, so replicate
        # the sequential `cursor += elapsed` exactly with a prefix sum
        cum = np.cumsum(np.concatenate(((start,), elapsed)))
        # Accounting and materialisation restrict to the owned slice --
        # the draws and the cursor chain above stay full-roster so a
        # sharded pass replicates the sequential "ddc" stream exactly
        # (the vectorised twin of the per-object shadow path).
        keep = self._owned_mask[on]
        k_on = int(np.count_nonzero(keep))
        self.attempts += self._n_owned
        self.timeouts += self._n_owned - k_on
        self.samples_collected += k_on
        duration = float(cum[-1]) - start
        if k_on == 0:
            return duration
        from repro.sim.kernel import round3

        # each probe observes its machine at its actual execution instant
        t_sample = cum[1:][on][keep]
        tau = (cum[:-1][on] + lat)[keep]
        idx = on[keep]
        dt = np.maximum(tau - rows["last_update"], 0.0)
        # uptime rides GetTickCount: seconds -> ms -> seconds, then %.3f
        uptime = round3((tau - rows["boot_time"]) * 1000.0 / 1000.0)
        idle = np.minimum(
            round3(rows["idle_acc"] + dt * (1.0 - rows["busy_frac"])),
            uptime,
        )
        # GlobalMemoryStatus arithmetic: dwMemoryLoad rounds, the pagefile
        # percentage is re-derived from the rounded available-bytes figure
        tp = cols.total_page[idx]
        avail = np.rint(tp * (1.0 - rows["swap_load"] / 100.0))
        swap = np.where(
            tp > 0.0,
            np.rint(100.0 * (tp - avail) / np.where(tp > 0.0, tp, 1.0)),
            0.0,
        )
        poh = np.trunc(
            (rows["poh_base_s"] + (tau - rows["on_since"])) / 3600.0
        )
        has_sess = rows["has_session"]
        idx_list = idx.tolist()
        hostnames = cols.hostnames
        labs = cols.labs
        disk_total = cols.disk_total[idx]
        columns = dict(
            machine_id=cols.machine_id[idx],
            iteration=np.full(k_on, k, dtype=np.int32),
            t=t_sample,
            boot_time=rows["boot_time_r3"],
            uptime_s=uptime,
            cpu_idle_s=idle,
            mem_load_pct=np.rint(rows["mem_load"]),
            swap_load_pct=swap,
            disk_total_b=disk_total,
            disk_free_b=disk_total - rows["disk_used"],
            smart_cycles=rows["cycles"],
            smart_poh_h=poh,
            net_sent_b=(rows["sent_acc"]
                        + dt * rows["sent_bps"]).astype(np.int64),
            net_recv_b=(rows["recv_acc"]
                        + dt * rows["recv_bps"]).astype(np.int64),
            has_session=has_sess,
            session_start=np.where(
                has_sess, rows["session_start_r3"], np.nan
            ),
            username=rows["username"],
            hostname=[hostnames[j] for j in idx_list],
            lab=[labs[j] for j in idx_list],
        )
        if self.recovery is not None:
            # write-ahead, as on the object path: journaled, each row
            # flushed, before the store admits them
            self.recovery.on_columns(k, columns)
        store = self.post_collect.store
        store.extend_columns(**columns)
        meta = store.meta
        if meta is not None:
            fresh = idx[~self._registered[idx]]
            if fresh.size:
                for j in fresh.tolist():
                    meta.statics[int(cols.machine_id[j])] = cols.static_info(j)
                self._registered[fresh] = True
        return duration

    # ------------------------------------------------------------------
    def progress(self) -> dict:
        """Point-in-time snapshot of the collection counters.

        Served by the live query service's ``/health`` endpoint while
        the driver thread is advancing the simulation.  Each value is a
        single attribute read of a Python int (atomic under the GIL), so
        the snapshot is safe to take from another thread; values from
        different counters may straddle one in-flight iteration, which
        is fine for monitoring.
        """
        return {
            "iterations_scheduled": self.iterations_scheduled,
            "iterations_run": self.iterations_run,
            "attempts": self.attempts,
            "samples_collected": self.samples_collected,
            "timeouts": self.timeouts,
            "access_denied": self.access_denied,
            "parse_failures": self.parse_failures,
            "response_rate": self.response_rate,
        }

    def finalize_meta(self, meta: TraceMeta) -> TraceMeta:
        """Copy the accounting counters into a trace's metadata."""
        meta.iterations_scheduled = self.iterations_scheduled
        meta.iterations_run = self.iterations_run
        meta.attempts = self.attempts
        meta.timeouts = self.timeouts
        meta.access_denied = self.access_denied
        meta.samples_collected = self.samples_collected
        meta.parse_failures = self.parse_failures
        meta.retries = self.retries
        meta.retries_recovered = self.retries_recovered
        meta.retries_skipped = self.retries_skipped
        meta.shed = self.shed
        meta.breaker_skipped = self.breaker_skipped
        meta.hedges = self.hedges
        meta.hedge_wins = self.hedge_wins
        return meta

    # -- resilience accounting views (0 when no policy is attached).
    # Counted per *owned* admit verdict / hedge dispatch, so that shard
    # metas sum to the sequential run's; identical to the control
    # plane's full-fleet totals when ``owned_labs`` is None.
    @property
    def shed(self) -> int:
        """Machine-slots skipped by the load shedder."""
        return self._shed

    @property
    def breaker_skipped(self) -> int:
        """Machine-slots blocked by an open circuit breaker."""
        return self._breaker_skipped

    @property
    def hedges(self) -> int:
        """Hedged duplicate probes dispatched."""
        return self._hedges

    @property
    def hedge_wins(self) -> int:
        """Hedged duplicates that beat their primary."""
        return self._hedge_wins

    @property
    def response_rate(self) -> float:
        """Fraction of attempts that yielded a sample (paper: 50.2%).

        0.0 -- not NaN -- when no attempt was ever made (e.g. a run
        aborted before its first pass), so downstream reporting
        arithmetic never propagates NaN.
        """
        if self.attempts == 0:
            return 0.0
        return self.samples_collected / self.attempts
