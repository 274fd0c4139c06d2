"""One step program for every study path.

The paper prices a training step as

``step = forward + max(backward, comm_finish) + update``

— one fused allreduce overlapped with the backward pass, as in Horovod.
Every performance-mode study path (plain data parallelism, local-SGD,
video BPTT, hybrid layouts and the elastic-recovery loop) runs a *period*
of P such steps, each one phase of the period.  A
:class:`StepProgram` derives its period from the ``StudyConfig``, prices
any phase against one Horovod engine (:meth:`StepProgram.price` is the one
place the pageable-staging blocking charge is taken), and owns the clean
executor: warm-up, steady-state detection, early stop and extrapolation
(:meth:`StepProgram.run`).  The elastic-recovery loop keeps its own
orchestration and calls the same pricer and detector step by step.

See ``docs/performance.md`` for the per-program phase table.
"""

from __future__ import annotations

from repro.compression import CompressionConfig
from repro.core.calibration import PAGEABLE_BLOCKING_FACTOR
from repro.horovod.backend import build_backend
from repro.horovod.engine import HorovodEngine, StepTiming
from repro.horovod.fusion import PendingTensor
from repro.mpi.process import WorldSpec
from repro.perf.steady import PeriodicSteadyState
from repro.utils.seeding import SeedSequenceFactory


def period_of(cfg) -> tuple[str, ...]:
    """The phases a study config runs, one period long.

    Four phase kinds: ``"local"`` (compute and update, no collective),
    ``"frame"`` (compute only: a video frame step), ``"gradients"`` (the
    jittered gradient stream drained through the engine, overlapped with
    backward) and ``"parameters"`` (the dense weight stream, priced after
    backward: local-SGD averaging).  Plain data parallelism (and every
    hybrid layout) is P=1; local-SGD runs H-1 local steps then a
    parameter sync; video BPTT runs T-1 frame steps then the
    sequence-boundary gradient sync.  ``StudyConfig`` rejects local-SGD
    combined with video.
    """
    if cfg.local_sgd_h > 1:
        return ("local",) * (cfg.local_sgd_h - 1) + ("parameters",)
    return ("frame",) * (cfg.workload.frames - 1) + ("gradients",)


def gradient_stream(
    schedule, backward_time: float, sigma: float, rng
) -> list[PendingTensor]:
    """Per-tensor gradient readiness with per-step jitter.

    Real backward passes jitter a few percent step to step, so fusion
    groups (and hence message sizes / registration extents) vary — the
    reason the paper's registration-cache hit rate is ~93%, not ~100%.
    """
    noise = rng.normal(0.0, sigma, len(schedule))
    return [
        PendingTensor(
            t.name,
            t.nbytes,
            ready_time=max(0.0, t.ready_fraction * backward_time * (1.0 + eps)),
        )
        for t, eps in zip(schedule, noise)
    ]


def parameter_stream(schedule) -> list[PendingTensor]:
    """Model weights as a zero-ready-time stream (local-SGD sync).

    Parameter tensors mirror the gradient schedule's names and sizes;
    they are all resident when the sync fires, so every ready time is
    zero and fusion packs them as one back-to-back burst.
    """
    return [PendingTensor(t.name, t.nbytes, ready_time=0.0) for t in schedule]


def build_engine(
    cluster, num_ranks: int, scenario, cfg, *, hvprof=None, faults=None
):
    """Backend world + Horovod engine for one data-parallel group.

    Returns ``(world, engine, session)``; ``session`` is the fastpath
    replay session in fast engine mode, else None.
    """
    world_spec = WorldSpec(
        num_ranks=num_ranks, policy=scenario.policy, config=scenario.mv2
    )
    world, comm = build_backend(
        cluster, scenario.backend, world_spec=world_spec,
        num_ranks=num_ranks, faults=faults,
    )
    session = None
    if cfg.engine_mode == "fast":
        from repro.sim.fastpath import enable_fastpath

        session = enable_fastpath(world)
    if hvprof is not None:
        comm.add_observer(hvprof.observer)
    engine = HorovodEngine(
        comm, cfg.horovod, compression=CompressionConfig.parse(cfg.compression)
    )
    return world, engine, session


class StepProgram:
    """A period of phases priced against one Horovod engine.

    ``forward``, ``backward`` and ``update`` are the per-step compute
    walls (``backward`` is the nominal one; the recovery loop passes its
    perturbed backward per step).  ``extra`` is a constant per-step term
    outside the overlap (a hybrid layout's tp-group sync), ``schedule``
    the gradient schedule whose tensors the sync phases stream.  Without
    an ``engine`` (a hybrid layout with dp=1) sync phases cost no
    communication and draw no jitter.

    The program also holds the run's state: the jitter RNG, the
    steady-state detector (None when detection is off or a profiler must
    see every step), and the last sync's timing and blocking charge,
    which the point reports.
    """

    def __init__(
        self, cfg, num_gpus: int, *, forward: float, backward: float,
        update: float, schedule, world=None, engine=None, extra: float = 0.0,
        hvprof=None,
    ):
        self.phases = period_of(cfg)
        self.period = len(self.phases)
        self.forward = forward
        self.backward = backward
        self.update = update
        self.extra = extra
        self.schedule = schedule
        self.sigma = cfg.jitter_sigma
        self.world = world
        self.engine = engine
        self.transport = getattr(world, "transport", None)
        # seeded independently of the scenario so that scenario comparisons
        # (Figs. 10-12) see identical per-step jitter (paired runs)
        self.rng = SeedSequenceFactory(2021).generator(
            "gradient-jitter", num_gpus
        )
        # Steady-state extrapolation only makes sense in performance mode:
        # a profiler is counting per-step ops, so every step must be real.
        self.detector = None
        if (
            cfg.steady_detect
            and hvprof is None
            and cfg.measure_steps > cfg.steady_window
        ):
            self.detector = PeriodicSteadyState(
                self.period, cfg.steady_window, cfg.steady_rel_tol
            )
        self.blocking = 0.0
        # a short run may end before any sync boundary fires; the point's
        # comm fields then report the zero-comm local regime
        self.timing: StepTiming | None = None
        if self.period > 1:
            self.timing = StepTiming(
                backward_time=backward, comm_finish=0.0, coordination_time=0.0
            )

    def draw(self, step_index: int, backward: float):
        """The jittered gradient stream this step drains, else None.

        Only gradient-sync phases with an engine draw, so the RNG advances
        once per such step — callers that extrapolate a step must still
        draw for it to stay aligned with a full run.
        """
        phase = self.phases[step_index % self.period]
        if self.engine is None or phase != "gradients":
            return None
        return gradient_stream(self.schedule, backward, self.sigma, self.rng)

    def price(self, step_index: int, backward: float, stream=None) -> float:
        """Simulated seconds of one step; sync phases run the engine."""
        phase = self.phases[step_index % self.period]
        if phase == "frame":
            return self.forward + backward
        if phase == "local":
            return self.forward + backward + self.update
        comm_finish = 0.0
        if self.engine is not None:
            transport = self.transport
            staged = transport.max_staged_seconds() if transport else 0.0
            if phase == "parameters":
                self.timing = self.engine.run_step(
                    parameter_stream(self.schedule),
                    backward_time=0.0,
                    force_dense=True,
                )
            else:
                self.timing = self.engine.run_step(
                    stream, backward_time=backward
                )
            # Pageable staging copies block the GPU stream: charge the
            # busiest rank's staging time serially against the step.
            staged_delta = (
                transport.max_staged_seconds() - staged if transport else 0.0
            )
            self.blocking = staged_delta * PAGEABLE_BLOCKING_FACTOR
            comm_finish = self.timing.comm_finish
        if phase == "parameters":
            # the weights sync after backward: nothing to overlap with
            return (
                self.forward + backward + self.blocking + self.update
                + comm_finish
            )
        return (
            self.forward
            + max(backward, comm_finish)
            + self.blocking
            + self.extra
            + self.update
        )

    def run(self, warmup: int, measure: int) -> tuple[list[float], int]:
        """Walk warm-up then measured steps at the nominal backward.

        Returns the ``measure`` per-step times and how many of them were
        simulated.  Once the detector converges the rest are extrapolated:
        the list is extended with the converged per-phase values so the
        caller averages over the *full* list — the same arithmetic a full
        simulation performs, with the tail replaced by the steady value.
        The residual error is bounded by ``steady_rel_tol``.
        """
        detector = self.detector
        step_times: list[float] = []
        for step_index in range(warmup + measure):
            stream = self.draw(step_index, self.backward)
            step = self.price(step_index, self.backward, stream)
            if step_index < warmup:
                continue
            step_times.append(step)
            if detector is not None and len(step_times) < measure:
                detector.observe(step, step_index)
                if detector.converged():
                    simulated = len(step_times)
                    step_times.extend(detector.extrapolate(
                        step_index + 1, measure - simulated
                    ))
                    return step_times, simulated
        return step_times, len(step_times)

    def comm_fields(self, backend: str) -> dict:
        """The point's communication fields, from the last sync step."""
        regcache = None
        if self.world is not None and backend == "mpi":
            stats = self.world.regcache_stats()
            if stats["hits"] + stats["misses"]:
                regcache = stats["hit_rate"]
        # no timing only for a hybrid layout without dp peers
        timing = self.timing
        messages = timing.messages if timing else []
        return {
            "exposed_comm_time": timing.exposed_comm_time if timing else 0.0,
            "coordination_time": timing.coordination_time if timing else 0.0,
            "blocking_time": self.blocking,
            "comm_wall_time": timing.total_comm_time if timing else 0.0,
            "message_sizes": [m.nbytes for m in messages],
            "regcache_hit_rate": regcache,
        }
