"""Distributed optimizer and parameter broadcast (paper §III-A steps 2-4).

The paper's recipe for adding Horovod to EDSR:

2. broadcast initial model parameters from rank 0;
3. wrap the optimizer in Horovod's DistributedOptimizer (allreduce-averaged
   gradients before each update);
4. scale the learning rate by the number of devices.

Our simulation runs all replicas lock-step in one process, so
:class:`DistributedOptimizer` owns *all* ranks' optimizers and reduces
across their models through the Horovod engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import HorovodError
from repro.horovod.engine import HorovodEngine, StepTiming
from repro.horovod.fusion import PendingTensor
from repro.mpi.comm import GpuBuffers
from repro.tensor.nn.module import Module
from repro.tensor.optim.base import Optimizer


def scale_learning_rate(base_lr: float, num_ranks: int) -> float:
    """Linear LR scaling rule (paper §III-A step 4)."""
    return base_lr * num_ranks


def broadcast_parameters(models: Sequence[Module], engine: HorovodEngine) -> None:
    """Copy rank 0's parameters to every replica (one bcast per tensor)."""
    if len(models) != engine.num_ranks:
        raise HorovodError(
            f"{len(models)} replicas for a {engine.num_ranks}-rank world"
        )
    named = [dict(m.named_parameters()) for m in models]
    reference = named[0]
    for name, param in reference.items():
        for rank in range(engine.num_ranks):
            if name not in named[rank]:
                raise HorovodError(f"replica {rank} is missing parameter {name!r}")
        engine.comm.bcast(
            GpuBuffers.from_arrays([n[name].data for n in named], name=name),
            root_index=0,
        )


class DistributedOptimizer:
    """Averages gradients across replicas, then applies each local update."""

    def __init__(
        self,
        optimizers: Sequence[Optimizer],
        models: Sequence[Module],
        engine: HorovodEngine,
    ):
        if len(optimizers) != len(models):
            raise HorovodError("need one optimizer per model replica")
        if len(models) != engine.num_ranks:
            raise HorovodError(
                f"{len(models)} replicas for a {engine.num_ranks}-rank world"
            )
        self.optimizers = list(optimizers)
        self.models = list(models)
        self.engine = engine
        # original rank ids owning each replica (shrinks on rank failure)
        self.ranks = list(range(len(models)))

    def drop_rank(self, rank: int) -> None:
        """Remove a failed rank's replica and shrink the engine's ring."""
        if rank not in self.ranks:
            raise HorovodError(f"rank {rank} not in optimizer world {self.ranks}")
        if len(self.ranks) == 1:
            raise HorovodError("cannot drop the last surviving rank")
        i = self.ranks.index(rank)
        del self.ranks[i]
        del self.models[i]
        del self.optimizers[i]
        self.engine.drop_compression_state(rank)
        self.engine.shrink_to(self.ranks)

    def add_rank(self, rank: int, model: Module, optimizer: Optimizer) -> None:
        """Re-admit a rank (elastic re-grow): insert its replica in rank
        order and re-form the engine's ring at the larger world."""
        if rank in self.ranks:
            raise HorovodError(f"rank {rank} already in optimizer world")
        i = sum(1 for r in self.ranks if r < rank)
        self.ranks.insert(i, rank)
        self.models.insert(i, model)
        self.optimizers.insert(i, optimizer)
        # a regrown replica starts from fresh state: any error-feedback
        # residual surviving from the rank's previous life is stale
        self.engine.drop_compression_state(rank)
        self.engine.reform_to(self.ranks)

    def zero_grad(self) -> None:
        for opt in self.optimizers:
            opt.zero_grad()

    def _gradient_stream(self, backward_time: float) -> list[PendingTensor]:
        """Build the pending-tensor stream from live replica gradients.

        Tensors are emitted in reverse parameter order (backward produces
        the tail's gradients first) with ready times spread uniformly over
        the backward pass.
        """
        named = [dict(m.named_parameters()) for m in self.models]
        names = list(named[0].keys())
        stream: list[PendingTensor] = []
        total = len(names)
        for i, name in enumerate(reversed(names)):
            grads = []
            for rank, params in enumerate(named):
                if params[name].grad is None:
                    raise HorovodError(
                        f"parameter {name!r} has no gradient on rank {rank}"
                    )
                grads.append(params[name].grad)
            ready = backward_time * (i + 1) / total if total else 0.0
            stream.append(
                PendingTensor(
                    name=name,
                    nbytes=grads[0].size * grads[0].itemsize,
                    ready_time=ready,
                    data=grads,
                )
            )
        return stream

    def step(self, *, backward_time: float = 0.0) -> StepTiming:
        """Allreduce-average all gradients, then run each local optimizer."""
        stream = self._gradient_stream(backward_time)
        timing = self.engine.run_step(stream, backward_time=backward_time)
        for opt in self.optimizers:
            opt.step()
        return timing

    # -- local SGD ----------------------------------------------------------
    def step_local(self) -> None:
        """Apply each replica's *local* gradients without any reduction
        (local-SGD inner step: replicas diverge until the next sync)."""
        for opt in self.optimizers:
            opt.step()

    def sync_parameters(self) -> StepTiming:
        """Average model *parameters* across replicas (local-SGD sync point).

        Runs the live weight arrays through the engine as a zero-ready-time
        stream so the synchronization is priced with the same fusion and
        collective machinery as a gradient reduction.  ``force_dense``
        because sparsifying weights would break the averaging contract;
        dense fp16/bf16 compression still applies (and is therefore an
        explicit accuracy trade documented in docs/compression.md).
        """
        named = [dict(m.named_parameters()) for m in self.models]
        names = list(named[0].keys())
        stream: list[PendingTensor] = []
        for name in names:
            arrays = []
            for rank, params in enumerate(named):
                if name not in params:
                    raise HorovodError(
                        f"replica {rank} is missing parameter {name!r}"
                    )
                arrays.append(params[name].data)
            stream.append(
                PendingTensor(
                    name=name,
                    nbytes=arrays[0].size * arrays[0].itemsize,
                    ready_time=0.0,
                    data=arrays,
                )
            )
        return self.engine.run_step(stream, backward_time=0.0, force_dense=True)
