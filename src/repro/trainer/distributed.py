"""Distributed (lock-step SPMD) functional training.

Implements the paper's §III-A recipe end to end on real numpy models:

1. map processes to GPUs (one replica per simulated rank);
2. broadcast initial parameters from rank 0;
3. wrap optimizers in the distributed optimizer (allreduce-averaged grads);
4. scale the learning rate by world size;
5. log throughput per step.

Both the *numerics* (replica synchrony, convergence) and the *timing*
(simulated step durations from the Horovod engine) come out of one run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.comm.api import broadcast_weights
from repro.data.dataset import SRDataset
from repro.data.loader import PatchLoader
from repro.data.sampler import DistributedSampler
from repro.errors import CheckpointError, ConfigError
from repro.horovod.engine import HorovodEngine
from repro.horovod.optimizer import (
    DistributedOptimizer,
    broadcast_parameters,
    scale_learning_rate,
)
from repro.resilience.accounting import RecoveryAccounting
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.ladder import RecoveryLadder
from repro.resilience.policy import SHRINK_CONTINUE, RecoveryPolicy
from repro.tensor import Tensor, functional as F
from repro.tensor.nn.module import Module
from repro.tensor.optim.adam import Adam
from repro.trainer.checkpoint import load_checkpoint
from repro.utils.folds import fold_sum


@dataclass
class DistributedTrainResult:
    losses: list[float] = field(default_factory=list)
    simulated_step_times: list[float] = field(default_factory=list)
    steps: int = 0
    total_images: int = 0
    # world size at each step (shrinks when a rank failure is absorbed)
    world_sizes: list[int] = field(default_factory=list)
    # recovery cost ledger (all productive time for a fault-free run)
    resilience: RecoveryAccounting = field(default_factory=RecoveryAccounting)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def simulated_images_per_second(self) -> float:
        total_time = fold_sum(self.simulated_step_times)
        if total_time <= 0:
            return 0.0
        return self.total_images / total_time


class DistributedTrainer:
    """Trains replicated models across simulated ranks.

    Every run walks a :class:`~repro.resilience.RecoveryLadder` under
    ``recovery`` (shrink-and-continue when no policy is given), so the
    ``faults`` an injector raises are detected, absorbed and itemized the
    same way as in the performance study.  A policy that restarts writes
    checkpoints under a fresh temporary directory, removed with its
    checkpoints when the trainer is freed (or at interpreter exit).
    """

    def __init__(
        self,
        model_factory: Callable[[int], Module],
        engine: HorovodEngine,
        dataset: SRDataset,
        *,
        batch_per_rank: int,
        lr_patch: int,
        base_lr: float = 1e-4,
        scale_lr: bool = True,
        seed: int = 0,
        faults=None,
        recovery: RecoveryPolicy | None = None,
        local_sgd_h: int = 1,
        layout=None,
    ):
        self.engine = engine
        if local_sgd_h < 1:
            raise ConfigError(
                f"local_sgd_h must be >= 1, got {local_sgd_h}"
            )
        # the functional trainer runs real (numpy) models; tensor/pipeline
        # execution exists only in the performance path, so a layout here
        # may describe pure data parallelism and nothing else
        self.layout = layout
        if layout is not None:
            layout.resolved(engine.num_ranks)
            if not layout.is_pure_dp:
                raise ConfigError(
                    "the functional trainer executes data-parallel only; "
                    "tensor/pipeline execution is performance-mode "
                    f"(got tp={layout.tp}, pp={layout.pp}; see "
                    "repro.parallel and docs/parallelism.md)"
                )
        # H == 1 is synchronous SGD (gradient allreduce every step); H > 1
        # runs H-1 purely local updates between parameter-averaging syncs
        self.local_sgd_h = local_sgd_h
        num_ranks = engine.num_ranks
        if num_ranks < 1:
            raise ConfigError("world must have at least one rank")
        self.faults = faults
        self.recovery = recovery or SHRINK_CONTINUE
        self.checkpoints = None
        if self.recovery.restart:
            directory = tempfile.mkdtemp(prefix="repro-ckpt-")
            # the finalizer holds the path, not the trainer: no cycle
            weakref.finalize(self, shutil.rmtree, directory, True)
            self.checkpoints = CheckpointManager(
                directory, self.recovery.checkpoint
            )
        self._model_factory = model_factory
        self.models = [model_factory(rank) for rank in range(num_ranks)]
        # charge each rank's HBM for its Horovod fusion buffer (§II-D step 2)
        engine.allocate_fusion_buffers()
        broadcast_parameters(self.models, engine)
        lr = scale_learning_rate(base_lr, num_ranks) if scale_lr else base_lr
        self._lr = lr
        optimizers = [Adam(m.parameters(), lr=lr) for m in self.models]
        self.dist_opt = DistributedOptimizer(optimizers, self.models, engine)
        self.loaders = [
            PatchLoader(
                dataset,
                batch_size=batch_per_rank,
                lr_patch=lr_patch,
                sampler=DistributedSampler(len(dataset), num_ranks, rank, seed=seed),
                seed=seed,
            )
            for rank in range(num_ranks)
        ]
        self.batch_per_rank = batch_per_rank
        # backward-time estimate for the fusion simulation: tiny models are
        # numpy-speed, so we use a nominal per-step compute budget
        self.nominal_backward_s = 0.25

    @property
    def active_ranks(self) -> list[int]:
        """Ranks still participating (shrinks under rank-failure faults)."""
        return list(self.dist_opt.ranks)

    def train(self, steps: int, *, loss: str = "l1") -> DistributedTrainResult:
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        loss_fn = {"l1": F.l1_loss, "mse": F.mse_loss}[loss]
        job = _ReplicaJob(self, steps, loss_fn)
        ladder = RecoveryLadder(self.recovery, self.faults, self.dist_opt.ranks)
        records = ladder.run(job, steps)
        world_sizes = [w for _, w in records]
        return DistributedTrainResult(
            losses=job.losses,
            simulated_step_times=[t for t, _ in records],
            steps=len(records),
            total_images=self.batch_per_rank * sum(world_sizes),
            world_sizes=world_sizes,
            resilience=ladder.acct,
        )

    def replicas_in_sync(self) -> bool:
        """Check the data-parallel invariant: all (surviving) replicas
        bit-identical."""
        models = self.dist_opt.models
        reference = models[0].state_dict()
        for model in models[1:]:
            for name, value in model.state_dict().items():
                if not np.array_equal(value, reference[name]):
                    return False
        return True


class _ReplicaJob:
    """The functional trainer's hooks for the recovery ladder.

    One numpy replica per live rank; checkpoints are real files under the
    trainer's :class:`~repro.resilience.CheckpointManager`, verified by
    checksum on restore.
    """

    def __init__(self, trainer: DistributedTrainer, steps: int, loss_fn):
        self.trainer = trainer
        self.loss_fn = loss_fn
        # batches are keyed by *original* rank so replay and regrow see
        # the exact data the rank would have consumed
        self.rank_batches = [
            list(loader.batches(steps)) for loader in trainer.loaders
        ]
        self.losses: list[float] = []

    def shrink(self, live: list[int]) -> None:
        dist_opt = self.trainer.dist_opt
        for rank in [r for r in dist_opt.ranks if r not in live]:
            dist_opt.drop_rank(rank)

    def regrow(self, rank: int, live: list[int]) -> float:
        """Clone a survivor's model and optimizer onto a fresh replica.

        The weight re-broadcast to the rejoining rank is priced through
        the communication layer, so its cost scales with the model.
        """
        trainer = self.trainer
        dist_opt = trainer.dist_opt
        state = dist_opt.models[0].state_dict()
        model = trainer._model_factory(rank)
        model.load_state_dict(state)
        optimizer = Adam(model.parameters(), lr=trainer._lr)
        optimizer.load_state_dict(dist_opt.optimizers[0].state_dict())
        dist_opt.add_rank(rank, model, optimizer)
        nbytes = sum(int(v.size) * int(v.itemsize) for v in state.values())
        rebcast = broadcast_weights(trainer.engine.comm, nbytes)
        return rebcast.time if rebcast is not None else 0.0

    def step(self, index: int, factor: float, live: list[int],
             clock: float) -> float:
        trainer = self.trainer
        dist_opt = trainer.dist_opt
        dist_opt.zero_grad()
        losses = []
        for rank, model in zip(dist_opt.ranks, dist_opt.models):
            lr_batch, hr_batch = self.rank_batches[rank][index]
            out = model(Tensor(lr_batch))
            step_loss = self.loss_fn(out, Tensor(hr_batch))
            step_loss.backward()
            losses.append(step_loss.item())
        self.losses.append(float(np.mean(losses)))
        backward = trainer.nominal_backward_s * factor
        if trainer.local_sgd_h > 1:
            # local-SGD inner step: no gradient exchange; the sync lands on
            # every H-th step, keyed on the *replayed* index so a restart
            # re-syncs at the same boundaries
            dist_opt.step_local()
            seconds = backward / 2 + backward
            if (index + 1) % trainer.local_sgd_h == 0:
                seconds += dist_opt.sync_parameters().comm_finish
            return seconds
        # nominal forward of backward / 2; the allreduce overlaps backward
        timing = dist_opt.step(backward_time=backward)
        return backward / 2 + max(backward, timing.comm_finish)

    def checkpoint(self, step: int, clock: float) -> float:
        """Snapshot rank 0's replica (all replicas are in sync)."""
        dist_opt = self.trainer.dist_opt
        _, cost = self.trainer.checkpoints.save(
            dist_opt.models[0],
            steps_completed=step,
            optimizer=dist_opt.optimizers[0],
        )
        return cost

    def restore(self, clock: float) -> tuple[int, float]:
        """Load the newest checkpoint that passes verification into every
        survivor."""
        checkpoints = self.trainer.checkpoints
        entry = checkpoints.latest_valid()
        if entry is None:
            raise CheckpointError(
                f"no valid checkpoint to restart from in "
                f"{checkpoints.directory!r}"
            )
        step, path = entry
        dist_opt = self.trainer.dist_opt
        for model, opt in zip(dist_opt.models, dist_opt.optimizers):
            load_checkpoint(model, path, optimizer=opt)
        return step, checkpoints.policy.read_cost(os.path.getsize(path))

    def rewind(self, step: int) -> None:
        del self.losses[step:]
