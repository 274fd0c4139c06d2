"""Discrete-event SR inference-serving simulation.

Runs one serving scenario — workload, batching, routing, admission,
autoscaling, SLO — on the event engine that powers the training
simulations, against the same calibrated V100 cost model.  The moving
parts:

* **arrivals** replay the pre-generated trace into the router: one entry
  per distinct arrival instant;
* each **replica** is a callback state machine around the pure
  :class:`~repro.serve.batcher.DynamicBatcher` (start, idle, waiting for
  the dispatch deadline, busy): one fused forward launch per batch,
  per-batch latency from :class:`~repro.serve.costing.ServingCostModel`;
* the **router** places each request on a routable replica of the live
  pool (policy pluggable) or sheds it when every bounded queue is full;
* the **autoscaler** grows/shrinks the pool against queue depth, paying
  checkpoint-read + weight-broadcast cold start for every new replica;
* **failures** come from an ordinary :class:`~repro.faults.FaultPlan`
  (``RankFailure.rank`` is the replica id): a dead replica black-holes
  its queue until the :class:`~repro.resilience.HeartbeatConfig` watchdog
  declares it, then every orphaned request is retried through the router
  (failover) and, under ``RecoveryPolicy.restart``, a replacement replica
  is spawned.

All five loops (arrivals, replicas, autoscaler, failures, declarations)
are chains of engine callbacks: each entry runs one step and pushes the
next.  The order invariant: each loop pushes its entries at fixed points,
with fixed time expressions (``arrival - now``, ``max(0, deadline - now)``,
the batch latency, ``poll_interval_s``, ``spec.time - now``,
``declared_at - now``) and priorities (``URGENT`` for a loop's first
step, ``NORMAL`` otherwise), so the heap's ``(time, priority, seq)`` order
— and with it which requests join which batch on which replica — is the
one ``tests/test_serve_golden.py`` pins request by request.

Everything is deterministic: the trace is seed-derived, the event heap is
totally ordered, policies break ties by replica id, and the run ends when
every arrival is resolved — so two runs of the same scenario produce
byte-identical SLO ledgers.  A finished run drops the entries still
pending, so it holds no reference cycle and is freed by reference
counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError, SimulationError
from repro.faults import FaultInjector, FaultPlan, RankFailure
from repro.resilience import RESTART_FROM_CHECKPOINT, RecoveryPolicy
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.batcher import BatchingConfig, DynamicBatcher
from repro.serve.costing import ServingCostModel
from repro.serve.router import AdmissionConfig, make_routing_policy
from repro.serve.slo import SLOConfig, SLOLedger
from repro.serve.workload import Request, WorkloadConfig, generate_arrivals
from repro.sim import Environment, Event
from repro.sim.engine import NORMAL, URGENT

# replica lifecycle states
WARMING = "warming"
HEALTHY = "healthy"
DEAD = "dead"
RETIRED = "retired"


@dataclass(frozen=True)
class ServeScenario:
    """Frozen, digest-able description of one serving experiment."""

    name: str = "default"
    model: str = "edsr-paper"
    routing: str = "jsq"
    initial_replicas: int = 2
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    slo: SLOConfig = field(default_factory=SLOConfig)
    #: pin every frame of a video session to one replica (recurrent
    #: serving state lives on the replica); implied by streaming classes
    session_affinity: bool = False

    def __post_init__(self) -> None:
        if self.initial_replicas < 1:
            raise ConfigError(
                f"initial_replicas must be >= 1, got {self.initial_replicas}"
            )

    @property
    def affinity_active(self) -> bool:
        return self.session_affinity or any(
            c.frames > 1 for c in self.workload.classes
        )


@dataclass
class ServeReport:
    """Result of one serving run (the ledger summary is the payload)."""

    scenario: str
    policy: str
    model: str
    duration_s: float
    seed: int
    summary: dict
    #: live objects, only present on inline (non-cached) runs
    ledger: SLOLedger | None = None
    trace: list | None = None

    def to_payload(self) -> dict:
        return {
            "kind": "serve-report",
            "scenario": self.scenario,
            "policy": self.policy,
            "model": self.model,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "summary": self.summary,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeReport":
        return cls(
            scenario=payload["scenario"],
            policy=payload["policy"],
            model=payload["model"],
            duration_s=payload["duration_s"],
            seed=payload["seed"],
            summary=payload["summary"],
        )

    def lines(self) -> list[str]:
        """Human-readable itemization for reports and the CLI."""
        s = self.summary
        lat = s["latency_ms"]
        return [
            f"requests           {s['arrived']:6d} arrived, "
            f"{s['completed']} completed, {s['shed']} shed, "
            f"{s['retried_requests']} retried",
            f"throughput         {s['throughput_rps']:10.2f} req/s "
            f"(goodput {s['goodput_rps']:.2f} req/s, "
            f"SLO attainment {s['slo_attainment']:.1%})",
            f"latency (ms)       p50 {lat['p50']:.2f}  p95 {lat['p95']:.2f}  "
            f"p99 {lat['p99']:.2f}  p999 {lat['p999']:.2f}",
            f"utilization        {s['utilization']:10.1%}",
            f"elasticity         {s['cold_starts']} cold start(s) "
            f"({s['cold_start_s']:.3f} s), {s['detections']} failure(s) "
            f"detected",
        ] + self._video_lines()

    def _video_lines(self) -> list[str]:
        v = self.summary.get("video")
        if v is None:
            return []
        flat = v["frame_latency_ms"]
        return [
            f"video sessions     {v['sessions']:6d} streams, "
            f"{v['rehomes']} re-home(s)",
            f"frames             {v['frames_arrived']:6d} arrived, "
            f"{v['frames_completed']} completed, {v['frames_shed']} shed",
            f"jitter buffer      late-frame ratio {v['late_frame_ratio']:.1%}, "
            f"{v['rebuffers']} rebuffer(s)",
            f"frame latency (ms) p50 {flat['p50']:.2f}  p99 {flat['p99']:.2f}",
        ]


class _Replica:
    """Mutable per-replica simulation state.

    ``armed``, ``timed`` and ``epoch`` drive the replica's callback state
    machine: see :class:`_ServeSimulation`.
    """

    __slots__ = (
        "id", "state", "retiring", "declared", "batcher", "in_flight",
        "armed", "timed", "epoch", "busy_s", "queued_work_s", "busy_until",
        "warmed_at", "ended_at",
    )

    def __init__(self, rid: int, batching: BatchingConfig):
        self.id = rid
        self.state = WARMING
        self.retiring = False
        self.declared = False
        self.batcher = DynamicBatcher(batching)
        self.in_flight: list[Request] = []
        #: waiting, and nothing has woken it yet: a wake pushes an entry
        self.armed = False
        #: the current wait races a dispatch-deadline timeout
        self.timed = False
        #: entries pushed under an older epoch return at once
        self.epoch = 0
        self.busy_s = 0.0
        self.queued_work_s = 0.0
        self.busy_until = 0.0
        self.warmed_at: float | None = None
        self.ended_at: float | None = None

    # the RoutableReplica protocol ------------------------------------------
    def queue_len(self) -> int:
        return len(self.batcher)

    def backlog_s(self, now: float) -> float:
        return self.queued_work_s + max(0.0, self.busy_until - now)

    @property
    def accepting(self) -> bool:
        """Routable: not retired/retiring, not *declared* dead.

        A dead-but-undeclared replica still takes traffic — the router
        cannot know better until the watchdog speaks.  That queue is
        failed over at declaration time.
        """
        return (
            not self.retiring
            and not self.declared
            and self.state in (HEALTHY, DEAD)
        )


class _ServeSimulation:
    """One scenario wired onto an :class:`Environment`.

    Every loop is a chain of engine callbacks: each entry it pushes runs
    one step and pushes the next.  A replica moves through:

    * **start** — an ``URGENT`` entry at spawn; a cold start is one timeout;
    * **idle** — ``armed``: the first enqueue (or a scale-down) pushes one
      ``NORMAL`` entry at the current instant, which resumes the replica;
    * **waiting for the dispatch deadline** — ``armed`` and ``timed``: a
      timeout to the deadline races the wake, and whichever fires first
      pushes one more entry at the current instant, from which the replica
      resumes (the *hop*, so that entries due at that instant keep their
      place before it), and moves the replica's ``epoch``;
    * **busy** — a timeout of the batch latency completes the batch.

    A failure moves the epoch and disarms the wake, so every entry the
    dead replica left on the heap returns at once.
    """

    def __init__(
        self,
        scenario: ServeScenario,
        *,
        duration_s: float,
        seed: int,
        fault_plan: FaultPlan | None,
        recovery: RecoveryPolicy,
        collect_trace: bool,
    ):
        self.scenario = scenario
        self.duration_s = float(duration_s)
        self.seed = int(seed)
        self.recovery = recovery
        self.env = Environment()
        self.cost = ServingCostModel(scenario.model)
        self.policy = make_routing_policy(scenario.routing)
        self.ledger = SLOLedger(scenario.slo)
        self.injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.requests = generate_arrivals(
            scenario.workload, self.duration_s, self.seed
        )
        self.replicas: dict[int, _Replica] = {}
        #: the replicas neither retiring nor declared dead, in id order
        self.pool: list[_Replica] = []
        #: session id -> home replica id (affinity routing state)
        self.session_home: dict[int, int] = {}
        self._affinity = scenario.affinity_active
        self._next_rid = 0
        self._last_scale_at = -math.inf
        self.outstanding = 0
        self.arrivals_done = False
        self.done = self.env.event("serve-done")
        # bail-out horizon for the autoscaler loop: far beyond any sane
        # drain time, so a stuck request surfaces as DeadlockError
        self._hard_deadline = self.duration_s * 4.0 + 300.0
        self.trace: list | None = [] if collect_trace else None

    # -- tracing ---------------------------------------------------------------
    def _trace(self, name, *, ph="i", ts=None, dur=0.0, tid="router", args=None):
        if self.trace is None:
            return
        from repro.profiling.trace_export import TraceEvent

        self.trace.append(
            TraceEvent(
                name=name,
                ph=ph,
                ts_us=(self.env.now if ts is None else ts) * 1e6,
                dur_us=dur * 1e6,
                pid="repro-serve",
                tid=tid,
                cat="serve",
                args=args,
            )
        )

    # -- replicas --------------------------------------------------------------
    # Each entry a replica pushes carries the epoch it was pushed in, and
    # its callback runs only while ``rep.epoch`` still matches: a failure,
    # or the first of a deadline and a wake, moves the epoch on.

    def _instant(self, priority: int = NORMAL) -> Event:
        """An entry due at the current instant; append its callbacks."""
        return self.env.event().succeed(priority=priority)

    def spawn_replica(self, *, cold_start_s: float = 0.0, reason: str = "initial") -> _Replica:
        rep = _Replica(self._next_rid, self.scenario.batching)
        self._next_rid += 1
        self.replicas[rep.id] = rep
        self.pool.append(rep)
        epoch = rep.epoch
        self._instant(URGENT).callbacks.append(
            lambda _: rep.epoch == epoch and self._start(rep, cold_start_s)
        )
        if cold_start_s > 0:
            self._trace(
                f"cold-start ({reason})", ph="X", dur=cold_start_s,
                tid=f"replica-{rep.id}",
            )
        return rep

    def _start(self, rep: _Replica, cold_start_s: float) -> None:
        if cold_start_s > 0:
            epoch = rep.epoch
            self.env.timeout(cold_start_s).callbacks.append(
                lambda _: rep.epoch == epoch and self._warm(rep)
            )
        else:
            self._warm(rep)

    def _warm(self, rep: _Replica) -> None:
        rep.state = HEALTHY
        rep.warmed_at = self.env.now
        self._serve(rep)

    def _serve(self, rep: _Replica) -> None:
        """Retire, wait, or dispatch one batch: one pass of the server loop."""
        env = self.env
        batcher = rep.batcher
        if not len(batcher):
            if rep.retiring:
                rep.state = RETIRED
                rep.ended_at = env.now
            else:
                rep.armed, rep.timed = True, False
            return
        now = env.now
        epoch = rep.epoch
        if not batcher.ready(now):
            rep.armed, rep.timed = True, True
            deadline = batcher.next_deadline()
            env.timeout(max(0.0, deadline - now)).callbacks.append(
                lambda _: rep.epoch == epoch and self._deadline(rep)
            )
            return
        cost = self.cost
        batch = batcher.pop_batch(now)
        for req in batch:
            rep.queued_work_s = max(
                0.0, rep.queued_work_s - cost.request_latency(req.cls)
            )
        rep.in_flight = batch
        latency = cost.batch_latency(batch)
        rep.busy_until = now + latency
        env.timeout(latency).callbacks.append(
            lambda _: rep.epoch == epoch and self._complete(rep, now, latency)
        )

    def _complete(self, rep: _Replica, start: float, latency: float) -> None:
        batch, rep.in_flight = rep.in_flight, []
        rep.busy_s += latency
        self._trace(
            f"batch[{len(batch)}]", ph="X", ts=start, dur=latency,
            tid=f"replica-{rep.id}",
            args={"requests": len(batch)},
        )
        now = self.env.now
        for req in batch:
            self.ledger.note_completed(req, now, replica=rep.id)
            self._resolve_one()
        self._serve(rep)

    def _wake(self, rep: _Replica) -> None:
        """Resume an ``armed`` replica at this instant (enqueue, scale-down)."""
        rep.armed = False
        epoch = rep.epoch
        self._instant().callbacks.append(
            lambda _: rep.epoch == epoch and self._woken(rep)
        )

    def _woken(self, rep: _Replica) -> None:
        if rep.timed:
            self._hop(rep)
        else:
            self._serve(rep)

    def _deadline(self, rep: _Replica) -> None:
        rep.armed = False
        self._hop(rep)

    def _hop(self, rep: _Replica) -> None:
        """The first of a deadline and a wake fired: resume one entry later.

        The extra entry lets entries already due at this instant (an
        arrival, a failover retry) run before the replica dispatches, so
        the requests they enqueue can still join its batch.  The epoch moves, so
        the pair's loser returns at once.
        """
        rep.epoch += 1
        epoch = rep.epoch
        self._instant().callbacks.append(
            lambda _: rep.epoch == epoch and self._serve(rep)
        )

    # -- routing ---------------------------------------------------------------
    def _routable(self) -> list[_Replica]:
        # a pool member is ``accepting`` unless it is still WARMING
        cap = self.scenario.admission.queue_capacity
        return [
            rep
            for rep in self.pool
            if rep.state != WARMING and len(rep.batcher) < cap
        ]

    def _shed(self, request: Request) -> None:
        self.ledger.note_shed(request, self.env.now)
        self._trace(
            "shed", args={"rid": request.rid, "class": request.cls.name}
        )
        self._resolve_one()

    def _enqueue(self, target: _Replica, request: Request) -> None:
        target.batcher.enqueue(request, self.env.now)
        target.queued_work_s += self.cost.request_latency(request.cls)
        if target.armed:
            self._wake(target)

    def route(self, request: Request) -> None:
        """Place (or shed) one request at the current instant."""
        if self._affinity and request.session is not None:
            self._route_session(request)
            return
        target = self.policy.choose(self._routable(), self.env.now)
        if target is None:
            self._shed(request)
            return
        self._enqueue(target, request)

    def _route_session(self, request: Request) -> None:
        """Affinity routing: every frame of a session lands on its home.

        A full-but-alive home sheds the frame rather than splitting the
        stream (the recurrent serving state lives on the home replica);
        the session is re-homed only when its home stops accepting —
        declared dead, retiring, or retired — and the whole remainder of
        the stream follows to the new home.
        """
        sid = request.session
        cap = self.scenario.admission.queue_capacity
        home_id = self.session_home.get(sid)
        home = self.replicas.get(home_id) if home_id is not None else None
        if home is not None and home.accepting:
            if len(home.batcher) < cap:
                self._enqueue(home, request)
            else:
                self._shed(request)
            return
        target = self.policy.choose(self._routable(), self.env.now)
        if target is None:
            self._shed(request)
            return
        if home_id is not None:
            self.ledger.note_rehome(sid)
            self._trace(
                "session-rehome",
                args={"session": sid, "from": home_id, "to": target.id},
            )
        self.session_home[sid] = target.id
        self._enqueue(target, request)

    # -- arrivals --------------------------------------------------------------
    def _await_arrival(self, i: int) -> None:
        """Admit ``requests[i:]`` up to the clock, then wait for the next."""
        env = self.env
        requests = self.requests
        for i in range(i, len(requests)):
            arrival = requests[i].arrival
            if arrival > env.now:
                env.timeout(arrival - env.now).callbacks.append(
                    lambda _, i=i: self._arrive(i)
                )
                return
            self._admit(requests[i])
        self.arrivals_done = True
        self._maybe_done()

    def _arrive(self, i: int) -> None:
        # admitted without re-reading the clock: ``now + (arrival - now)``
        # need not equal ``arrival`` in floating point
        self._admit(self.requests[i])
        self._await_arrival(i + 1)

    def _admit(self, request: Request) -> None:
        self.outstanding += 1
        self.ledger.note_arrival(request)
        self.route(request)

    def _resolve_one(self) -> None:
        self.outstanding -= 1
        self._maybe_done()

    def _maybe_done(self) -> None:
        if (
            self.arrivals_done
            and self.outstanding == 0
            and not self.done.triggered
        ):
            self.done.succeed()

    # -- failures --------------------------------------------------------------
    def _await_failure(self, failures: list[RankFailure], i: int) -> None:
        """Kill ``failures[i:]`` up to the clock, then wait for the next."""
        env = self.env
        for i in range(i, len(failures)):
            spec = failures[i]
            if spec.time > env.now:
                env.timeout(spec.time - env.now).callbacks.append(
                    lambda _, i=i: self._fail_at(failures, i)
                )
                return
            self._fail(spec)

    def _fail_at(self, failures: list[RankFailure], i: int) -> None:
        self._fail(failures[i])
        self._await_failure(failures, i + 1)

    def _fail(self, spec: RankFailure) -> None:
        env = self.env
        rep = self.replicas.get(spec.rank)
        if rep is None or rep.state in (DEAD, RETIRED):
            return
        rep.state = DEAD
        rep.ended_at = env.now
        # every entry the replica left on the heap is now stale; its
        # orphans are failed over at declaration time
        rep.epoch += 1
        rep.armed = False
        self.injector.record(
            "rank-failure", env.now, rank=rep.id,
            detail=f"replica-{rep.id}",
        )
        self._trace("replica-failed", tid=f"replica-{rep.id}")
        declared_at = self.recovery.heartbeat.declared_at(spec.time)
        self._instant(URGENT).callbacks.append(
            lambda _: self._await_declaration(rep, declared_at)
        )

    def _await_declaration(self, rep: _Replica, declared_at: float) -> None:
        env = self.env
        if declared_at > env.now:
            env.timeout(declared_at - env.now).callbacks.append(
                lambda _: self._declare(rep)
            )
        else:
            self._declare(rep)

    def _declare(self, rep: _Replica) -> None:
        env = self.env
        rep.declared = True
        if not rep.retiring:  # a retiring replica already left the pool
            self.pool.remove(rep)
        self.ledger.note_detection()
        if self.injector is not None:
            self.injector.record(
                "replica-dead", env.now, rank=rep.id,
                detail=f"declared after "
                       f"{env.now - (rep.ended_at or env.now):.4f}s",
            )
        self._trace("replica-declared-dead", tid=f"replica-{rep.id}")
        orphans = rep.in_flight + rep.batcher.drain()
        rep.in_flight = []
        rep.queued_work_s = 0.0
        for request in orphans:
            self.ledger.note_retry(request, env.now)
            self._trace(
                "failover-retry",
                args={"rid": request.rid, "from": rep.id},
            )
            self.route(request)
        if self.recovery.restart:
            pool = sum(1 for r in self.pool if r.state != DEAD)
            if pool < self.scenario.autoscaler.max_replicas:
                cold = (
                    self.recovery.restart_overhead_s
                    + self.cost.cold_start_s(self.recovery.checkpoint)
                )
                self.ledger.note_cold_start(cold)
                self.spawn_replica(cold_start_s=cold, reason="failover")

    # -- autoscaler ------------------------------------------------------------
    def _await_poll(self) -> None:
        env = self.env
        if env.now < self._hard_deadline:
            env.timeout(self.scenario.autoscaler.poll_interval_s).callbacks.append(
                lambda _: self._autoscale()
            )

    def _autoscale(self) -> None:
        if self.done.triggered:
            return
        env = self.env
        cfg = self.scenario.autoscaler
        pool = [rep for rep in self.pool if rep.state != DEAD]
        # in-flight requests count as load: a saturated pool whose
        # batchers happen to be empty must not look idle to scale-down
        queued = sum(len(rep.batcher) + len(rep.in_flight) for rep in pool)
        action = cfg.decide(
            queued=queued,
            replicas=len(pool),
            now=env.now,
            last_action_at=self._last_scale_at,
        )
        if action > 0:
            cold = self.cost.cold_start_s(self.recovery.checkpoint)
            self.ledger.note_cold_start(cold)
            self.spawn_replica(cold_start_s=cold, reason="scale-up")
            self._trace("scale-up", tid="autoscaler",
                        args={"queued": queued, "pool": len(pool)})
            self._last_scale_at = env.now
        elif action < 0:
            idle = [
                rep
                for rep in pool
                if rep.state == HEALTHY
                and not len(rep.batcher)
                and not rep.in_flight
            ]
            if idle:
                victim = max(idle, key=lambda r: r.id)
                victim.retiring = True
                self.pool.remove(victim)
                if victim.armed:
                    self._wake(victim)
                self._trace("scale-down", tid="autoscaler",
                            args={"replica": victim.id})
                self._last_scale_at = env.now
        self._await_poll()

    # -- run -------------------------------------------------------------------
    def run(self) -> ServeReport:
        env = self.env
        for _ in range(self.scenario.initial_replicas):
            self.spawn_replica()
        # each loop starts from an URGENT entry at t = 0, in this order
        self._instant(URGENT).callbacks.append(lambda _: self._await_arrival(0))
        if self.scenario.autoscaler.enabled:
            self._instant(URGENT).callbacks.append(lambda _: self._await_poll())
        if self.injector is not None and self.injector.plan.failures:
            failures = sorted(
                self.injector.plan.failures, key=lambda f: (f.time, f.rank)
            )
            self._instant(URGENT).callbacks.append(
                lambda _: self._await_failure(failures, 0)
            )
        env.run(until=self.done)
        # the next poll, deadlines that lost their race, failures after the
        # end: dropped, so the finished run holds no callback cycle
        env.discard_pending()
        makespan = max(self.duration_s, env.now)
        for rep in self.replicas.values():
            if rep.warmed_at is None:
                continue
            end = rep.ended_at if rep.ended_at is not None else makespan
            self.ledger.note_replica_usage(
                rep.id, rep.busy_s, max(0.0, end - rep.warmed_at)
            )
        summary = self.ledger.finalize(makespan)
        counts = summary["completed"] + summary["shed"]
        if counts != summary["arrived"]:
            raise SimulationError(
                f"ledger accounted {counts} of {summary['arrived']} requests"
            )
        return ServeReport(
            scenario=self.scenario.name,
            policy=self.scenario.routing,
            model=self.scenario.model,
            duration_s=self.duration_s,
            seed=self.seed,
            summary=summary,
            ledger=self.ledger,
            trace=self.trace,
        )


def simulate_serve(
    scenario: ServeScenario,
    *,
    duration_s: float = 60.0,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
    collect_trace: bool = False,
) -> ServeReport:
    """Run one serving scenario to completion and return its report."""
    sim = _ServeSimulation(
        scenario,
        duration_s=duration_s,
        seed=seed,
        fault_plan=fault_plan,
        recovery=recovery or RESTART_FROM_CHECKPOINT,
        collect_trace=collect_trace,
    )
    return sim.run()
