"""The recovery ladder: one escalation order for every recovering loop.

Before each training step, a job under faults walks the same ladder:

1. declare dead failure domains, one watchdog stall per domain;
2. shrink the ring to the survivors;
3. restart from the newest valid snapshot and discard the lost work;
4. blacklist chronic stragglers;
5. regrow ranks whose outage has ended;
6. run the step at the slowest live rank's compute factor;
7. checkpoint when due.

:class:`RecoveryLadder` owns that order, the simulated clock, the
:class:`~repro.resilience.HeartbeatSupervisor` and the
:class:`~repro.resilience.RecoveryAccounting` ledger.  What a step, a
snapshot or a ring change *is* belongs to the job, which supplies six
hooks:

* ``shrink(live)`` — re-form the ring on the live ranks after deaths or a
  blacklisting;
* ``regrow(rank, live) -> seconds`` — re-admit ``rank`` on the re-formed
  ring; returns the weight re-broadcast's time;
* ``step(index, factor, live, clock) -> seconds`` — run step ``index``
  with the backward pass slowed by ``factor``;
* ``checkpoint(step, clock) -> seconds`` — snapshot after ``step`` steps;
  returns the write cost;
* ``restore(clock) -> (step, seconds)`` — load the newest valid snapshot;
  returns its step and the read cost of every snapshot tried;
* ``rewind(step)`` — drop what the job recorded for steps ``step`` on.

:class:`~repro.core.ScalingStudy` runs a priced job (engine steps, priced
snapshots rolled for corruption);
:class:`~repro.trainer.DistributedTrainer` runs a replica job (numpy
replicas, checkpoints written to disk).
"""

from __future__ import annotations

from repro.errors import RankFailedError
from repro.resilience.accounting import RecoveryAccounting
from repro.resilience.supervisor import HeartbeatSupervisor
from repro.utils.folds import fold_sum


class RecoveryLadder:
    """Walks a job's steps under ``policy``, recovering from the faults
    ``injector`` (None: no faults) raises on ``ranks``."""

    def __init__(self, policy, injector, ranks):
        self.policy = policy
        self.injector = injector
        self.live = list(ranks)
        self.size = len(self.live)
        self.supervisor = HeartbeatSupervisor(
            self.live, injector, policy.heartbeat
        )
        self.acct = RecoveryAccounting()
        self.clock = 0.0
        #: (step seconds, world size) per kept step; a restart truncates it
        self.records: list[tuple[float, int]] = []

    def run(self, job, steps: int) -> list[tuple[float, int]]:
        """Walk the ladder until ``steps`` steps are kept; returns the
        records."""
        policy = self.policy
        if policy.restart:
            self._checkpoint(job)
        while len(self.records) < steps:
            if self._declare_dead():
                job.shrink(self.live)
                if policy.restart:
                    self._restart(job)
            if policy.blacklist_after > 0:
                self._blacklist(job)
            if policy.regrow:
                self._regrow(job)
            self._step(job)
            if policy.restart and policy.checkpoint.due(len(self.records)):
                self._checkpoint(job)
        return self.records

    def _declare_dead(self) -> bool:
        """Drop every live rank the watchdog declares; True if any died.

        Whole failure domains are declared atomically: the ranks a node,
        switch or partition fault took down share one detection window,
        and each group's stall is charged off the *updated* clock, so
        overlapping windows never double-charge.
        """
        died = False
        for group in self.supervisor.poll_domains(self.clock):
            members = [d.rank for d in group.detections if d.rank in self.live]
            if not members:
                continue
            # survivors stall in the hung collective until the watchdog
            # declares the domain dead
            stall = max(0.0, group.declared_at - self.clock)
            self.clock += stall
            self.acct.note_detection(stall)
            for rank in members:
                self.live.remove(rank)
            died = True
        if died and not self.live:
            raise RankFailedError(
                f"all {self.size} ranks failed under plan "
                f"seed={self.injector.plan.seed}"
            )
        return died

    def _restart(self, job) -> None:
        """Resume from the newest valid snapshot; the steps after it are
        lost work, replayed on the shrunk world."""
        step, read = job.restore(self.clock)
        lost_steps = len(self.records) - step
        if lost_steps > 0:
            lost = fold_sum(t for t, _ in self.records[step:])
            self.acct.productive_s -= lost
            self.acct.note_lost_work(lost, steps=lost_steps)
            del self.records[step:]
            job.rewind(step)
        cost = read + self.policy.restart_overhead_s
        self.acct.note_restart(cost)
        self.clock += cost
        self.injector.record(
            "restart", self.clock,
            detail=f"from step {step} world={len(self.live)} verified",
        )

    def _blacklist(self, job) -> None:
        limit = self.policy.blacklist_after
        for rank in self.supervisor.over_limit(limit):
            if rank in self.live and len(self.live) > 1:
                self.live.remove(rank)
                self.supervisor.drop(rank)
                job.shrink(self.live)
                self.acct.note_blacklist(rank)
                self.injector.record(
                    "rank-blacklisted", self.clock, rank=rank,
                    detail=f"offenses>={limit}",
                )

    def _regrow(self, job) -> None:
        for rank in self.supervisor.recovered(self.clock):
            self.live.append(rank)
            self.live.sort()
            self.supervisor.readmit(rank)
            # the regrown replica's weights ride the re-formed ring,
            # charged with the restart overhead
            cost = self.policy.restart_overhead_s + job.regrow(rank, self.live)
            self.acct.note_regrow(rank, cost)
            self.clock += cost
            self.injector.record(
                "rank-regrown", self.clock, rank=rank,
                detail=f"world={len(self.live)}",
            )

    def _step(self, job) -> None:
        index = len(self.records)
        # synchronous data parallelism waits for the slowest live rank
        factor = 1.0
        if self.injector is not None:
            for rank in self.live:
                f = self.injector.compute_factor(rank, self.clock, index)
                self.supervisor.note_compute(rank, f, self.clock)
                factor = max(factor, f)
        seconds = job.step(index, factor, self.live, self.clock)
        self.records.append((seconds, len(self.live)))
        self.clock += seconds
        self.acct.note_productive(seconds)

    def _checkpoint(self, job) -> None:
        cost = job.checkpoint(len(self.records), self.clock)
        self.clock += cost
        self.acct.note_checkpoint(cost)
