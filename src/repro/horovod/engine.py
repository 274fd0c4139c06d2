"""Horovod execution engine: cycles, fusion buffers, backend submission.

Runs one training step's gradient stream through Tensor Fusion and the
backend communicator, producing both the *numeric* result (functional mode:
gradients really are averaged across ranks) and the *timing* result
(when communication finishes relative to backward, what was exposed).

Execution model: Horovod submits collectives on a single communication
stream, so messages run back-to-back; a message cannot start before its
cycle fires, all of its tensors are ready, and the negotiation for that
cycle has completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression import (
    CompressionConfig,
    build_compressor,
    sparse_wire_nbytes,
    sparsify_with_feedback,
    top_k_count,
)
from repro.errors import HorovodError
from repro.horovod.coordinator import CoordinatorModel
from repro.horovod.env import HorovodConfig
from repro.horovod.fusion import FusionMessage, PendingTensor, TensorFusion
from repro.horovod.timeline import Timeline
from repro.mpi.comm import GpuBuffer
from repro.mpi.datatypes import Datatype
from repro.utils.folds import fold_sum


@dataclass
class MessageRecord:
    """Timing of one submitted allreduce."""

    nbytes: int
    start: float
    finish: float
    fused_count: int
    algorithm: str

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class StepTiming:
    """Timing decomposition of one training step's communication."""

    backward_time: float
    comm_finish: float  # seconds after backward start when last reduce lands
    coordination_time: float
    messages: list[MessageRecord] = field(default_factory=list)
    cycles_used: int = 0

    @property
    def exposed_comm_time(self) -> float:
        """Communication not hidden behind the backward pass."""
        return max(0.0, self.comm_finish - self.backward_time)

    @property
    def total_comm_time(self) -> float:
        return fold_sum(m.duration for m in self.messages)


class HorovodEngine:
    """Drives fusion + backend collectives for one communicator."""

    def __init__(
        self,
        comm,
        config: HorovodConfig | None = None,
        *,
        coordinator: CoordinatorModel | None = None,
        timeline: Timeline | None = None,
        compression: CompressionConfig | None = None,
    ):
        self.comm = comm
        self.config = config or HorovodConfig()
        self.fusion = TensorFusion(self.config)
        self.coordinator = coordinator or CoordinatorModel()
        self.timeline = timeline
        self.compression = compression or CompressionConfig()
        self.compressor = build_compressor(self.compression)
        # top-k error-feedback residuals, keyed (world rank id, tensor name).
        # Survives ring reforms: a surviving rank keeps its accumulated
        # feedback across elastic shrink/regrow, but a *re-admitted* rank
        # must start from zero (see drop_compression_state).
        self._topk_residuals: dict[tuple, np.ndarray] = {}
        # Stable fusion-buffer identities per (slot, rank): the reuse that
        # makes the registration cache effective (paper §III-D).
        self._slot_buffers: dict[tuple[int, int], int] = {}
        self._fusion_allocations: list = []
        # response cache: signatures of previously-negotiated drain sets
        self._response_cache: set[frozenset] = set()
        self.response_cache_hits = 0
        self.response_cache_misses = 0

    def allocate_fusion_buffers(self) -> int:
        """Charge each rank's HBM for its fusion buffer (§II-D step 2).

        Horovod allocates one ``HOROVOD_FUSION_THRESHOLD``-sized device
        buffer per worker; on a 16 GB V100 the default 64 MB is invisible,
        but outsized thresholds eat into the activation budget (the memory
        side of fusion tuning).  Returns total bytes reserved.  No-op for
        backends without CUDA contexts (NCCL world) or zero thresholds.
        """
        if self._fusion_allocations or self.config.fusion_threshold == 0:
            return 0
        world = getattr(self.comm, "world", None)
        transport = getattr(world, "transport", None)
        if transport is None:
            return 0
        total = 0
        for rank_ctx in transport.ranks.values():
            alloc = rank_ctx.app_ctx.malloc(
                self.config.fusion_threshold, tag="fusion-buffer"
            )
            self._fusion_allocations.append((rank_ctx.app_ctx, alloc))
            total += alloc.nbytes
        return total

    def release_fusion_buffers(self) -> None:
        for ctx, alloc in self._fusion_allocations:
            ctx.free(alloc)
        self._fusion_allocations.clear()

    @property
    def num_ranks(self) -> int:
        return self.comm.size

    def shrink_to(self, ranks: list[int]) -> None:
        """Rebuild the communicator on surviving ranks after a failure.

        Mirrors an elastic-Horovod re-initialization: the response cache
        and fusion-slot identities are stale for the new ring and are
        dropped (the registration cache then re-warms on the new buffers),
        and the memoized collective step-schedules are rebuilt so no plan
        keyed against the old world size can ever be replayed on the new
        ring.
        """
        self.comm = self.comm.restrict(ranks)
        self._reset_ring_state()

    def reform_to(self, ranks: list[int]) -> None:
        """Re-form the ring on an arbitrary world subset (elastic re-grow
        of a previously-dropped rank).  Same cache invalidation as
        :meth:`shrink_to`."""
        self.comm = self.comm.reform(ranks)
        self._reset_ring_state()

    def _reset_ring_state(self) -> None:
        self._slot_buffers.clear()
        self._response_cache.clear()
        coster = getattr(getattr(self.comm, "world", None), "coster", None)
        if coster is not None:
            coster.schedules.clear()

    def drop_compression_state(self, rank: int) -> None:
        """Forget a rank's error-feedback residuals.

        Called when a rank leaves the ring *and* when one is re-admitted:
        a regrown replica starts from freshly-initialized state, so letting
        it resurrect a stale residual would silently inject gradient mass
        from a model that no longer exists.
        """
        stale = [key for key in self._topk_residuals if key[0] == rank]
        for key in stale:
            del self._topk_residuals[key]

    # -- buffers -----------------------------------------------------------------
    def _buffers_for(
        self,
        message: FusionMessage,
        *,
        wire_nbytes: int | None = None,
        dtype: Datatype = Datatype.FLOAT32,
        datas: list | None = None,
    ) -> list[GpuBuffer]:
        """Per-rank GpuBuffers for one message (stable ids for fused slots).

        With no overrides this builds the uncompressed fp32 wire image.  A
        compressor swaps in its own ``wire_nbytes``/``dtype``/``datas``
        while keeping the same buffer identities, so the registration cache
        sees one stable fusion buffer regardless of wire format.
        """
        if datas is None:
            functional = all(t.data is not None for t in message.tensors)
            if functional:
                datas = TensorFusion.pack(message, self.num_ranks)
        nbytes = message.nbytes if wire_nbytes is None else wire_nbytes
        buffers = []
        for rank in range(self.num_ranks):
            data = datas[rank] if datas is not None else None
            if message.fused:
                key = (message.buffer_slot, rank)
                if key in self._slot_buffers:
                    buffer_id = self._slot_buffers[key]
                else:
                    probe = GpuBuffer.virtual(0)
                    buffer_id = probe.buffer_id
                    self._slot_buffers[key] = buffer_id
                buf = GpuBuffer(
                    nbytes=nbytes,
                    dtype=dtype,
                    data=data,
                    name=f"fusion-slot{message.buffer_slot}",
                    buffer_id=buffer_id,
                )
            else:
                # unfused tensors live in freshly-allocated gradient memory
                # every step: no stable identity, no registration reuse
                tensor = message.tensors[0]
                buf = GpuBuffer(
                    nbytes=nbytes,
                    dtype=dtype,
                    data=data,
                    name=tensor.name,
                )
            buffers.append(buf)
        return buffers

    # -- submission paths --------------------------------------------------------
    def _submit_dense(self, message: FusionMessage, start: float) -> MessageRecord:
        """Dense allreduce of one fusion message, through the configured
        compressor.  ``mode="none"`` reproduces the uncompressed path
        byte-for-byte; fp16/bf16 halve the wire image before submission."""
        mode = self.compression.mode
        functional = all(t.data is not None for t in message.tensors)
        if mode == "none":
            buffers = self._buffers_for(message)
            timing = self.comm.allreduce(buffers, average=True)
            if functional:
                TensorFusion.unpack(message, [b.data for b in buffers])
        else:
            wire_nbytes = self.compressor.wire_nbytes(message.nbytes)
            packed = TensorFusion.pack(message, self.num_ranks) if functional else None
            if mode == "fp16":
                datas = (
                    [self.compressor.compress(p) for p in packed]
                    if functional
                    else [None] * self.num_ranks
                )
                buffers = self._buffers_for(
                    message,
                    wire_nbytes=wire_nbytes,
                    dtype=self.compressor.wire_dtype,
                    datas=datas,
                )
                timing = self.comm.allreduce(buffers, average=True)
                if functional:
                    TensorFusion.unpack(
                        message, [self.compressor.decompress(b.data) for b in buffers]
                    )
            else:  # bf16: numpy has no native bfloat16, so the arithmetic
                # happens locally on truncated fp32 while the wire is priced
                # as 2-byte elements through virtual buffers.
                buffers = self._buffers_for(
                    message,
                    wire_nbytes=wire_nbytes,
                    dtype=self.compressor.wire_dtype,
                    datas=[None] * self.num_ranks,
                )
                timing = self.comm.allreduce(buffers, average=True)
                if functional:
                    truncated = [self.compressor.compress(p) for p in packed]
                    total = truncated[0].copy()
                    for arr in truncated[1:]:
                        total += arr
                    result = self.compressor.compress(total / self.num_ranks)
                    TensorFusion.unpack(message, [result] * self.num_ranks)
        finish = start + timing.time
        return MessageRecord(
            nbytes=buffers[0].nbytes,
            start=start,
            finish=finish,
            fused_count=len(message.tensors),
            algorithm=timing.algorithm,
        )

    def _submit_sparse(self, message: FusionMessage, start: float) -> MessageRecord:
        """Top-k sparse exchange of one (unfused) tensor.

        Each rank contributes k (index, value) pairs selected from its
        gradient plus accumulated residual; the exchange is an allgather
        (no in-network reduction over mismatched index sets), and every
        rank reconstructs the dense average locally.
        """
        tensor = message.tensors[0]
        elements = tensor.nbytes // Datatype.FLOAT32.size
        k = top_k_count(elements, self.compression.topk_ratio)
        wire = sparse_wire_nbytes(k)
        if tensor.data is not None:
            dense = np.zeros(elements, dtype=np.float32)
            for i, rank_id in enumerate(self.comm.ranks):
                flat = np.ascontiguousarray(
                    tensor.data[i], dtype=np.float32
                ).reshape(-1)
                key = (rank_id, tensor.name)
                residual = self._topk_residuals.get(key)
                if residual is None:
                    residual = np.zeros(elements, dtype=np.float32)
                    self._topk_residuals[key] = residual
                indices, values = sparsify_with_feedback(flat, residual, k)
                dense[indices] += values
            average = dense / self.num_ranks
            for i in range(self.num_ranks):
                tensor.data[i][...] = average.reshape(tensor.data[i].shape)
        # sparse payloads reuse a stable per-tensor wire buffer each step,
        # so the registration cache (and the fastpath ring memo) still key
        # on a fixed identity despite the fresh (index, value) content
        buffers = []
        for rank in range(self.num_ranks):
            key = (f"sparse:{tensor.name}", rank)
            if key in self._slot_buffers:
                buffer_id = self._slot_buffers[key]
            else:
                probe = GpuBuffer.virtual(0)
                buffer_id = probe.buffer_id
                self._slot_buffers[key] = buffer_id
            buffers.append(
                GpuBuffer(
                    nbytes=wire,
                    dtype=Datatype.UINT8,
                    name=f"sparse:{tensor.name}",
                    buffer_id=buffer_id,
                )
            )
        _, timing = self.comm.allgather(buffers)
        finish = start + timing.time
        return MessageRecord(
            nbytes=wire,
            start=start,
            finish=finish,
            fused_count=1,
            algorithm=timing.algorithm,
        )

    # -- main entry -------------------------------------------------------------
    def run_step(
        self,
        tensors: list[PendingTensor],
        *,
        backward_time: float = 0.0,
        force_dense: bool = False,
    ) -> StepTiming:
        """Reduce one step's gradient stream; average across ranks.

        Execution-coupled fusion: a drain happens when the communication
        thread is free *and* a cycle boundary has fired; everything that
        became ready in the meantime is packed together.  This is the
        back-pressure dynamic that grows fusion sizes when the backend is
        slow — and, with the tuned cycle times the paper uses (§II-D), what
        produces the 16-64 MB fused messages of Table I.

        ``force_dense`` disables top-k sparsification for this call only —
        used by local-SGD parameter synchronization, where sparsifying the
        *weights* (rather than gradients) would break the averaging
        contract.  Dense fp16/bf16 compression still applies.
        """
        sparse_active = self.compression.is_sparse and not force_dense
        for t in tensors:
            if t.data is not None and len(t.data) != self.num_ranks:
                raise HorovodError(
                    f"tensor {t.name!r} carries {len(t.data)} rank arrays, "
                    f"world has {self.num_ranks}"
                )
        cycle = self.config.cycle_time_s
        pending = sorted(tensors, key=lambda t: (t.ready_time, t.name))
        coordination = 0.0
        records: list[MessageRecord] = []
        exec_free = 0.0
        cycles_used = 0
        slot = 0
        i = 0
        while i < len(pending):
            # the comm thread wakes at the first cycle boundary after both
            # the next tensor's readiness and the end of current execution;
            # cycles free-run relative to the step (phase offset 1/2 models
            # the average misalignment between cycle clock and backward)
            t_earliest = max(pending[i].ready_time, exec_free)
            if cycle > 0:
                k = int(np.floor(t_earliest / cycle + 0.5 - 1e-12))
                # clamp: the epsilon above can land fire a float-ulp below
                # t_earliest, which would drain nothing and never advance
                fire = max((k + 0.5) * cycle, t_earliest)
            else:
                fire = t_earliest
            cycles_used += 1
            # drain everything ready by the fire time
            ready_end = i
            while ready_end < len(pending) and pending[ready_end].ready_time <= fire:
                ready_end += 1
            drained = pending[i:ready_end]
            i = ready_end
            signature = frozenset(t.name for t in drained)
            if self.config.response_cache and signature in self._response_cache:
                overhead = self.coordinator.cached_cycle_overhead(self.num_ranks)
                self.response_cache_hits += 1
            else:
                overhead = self.coordinator.cycle_overhead(
                    self.num_ranks, len(drained)
                )
                self.response_cache_misses += 1
                if self.config.response_cache:
                    self._response_cache.add(signature)
            coordination += overhead
            fire += overhead
            # pack the drained set greedily into fusion-buffer messages
            # (same greedy loop the offline planner uses — one home now);
            # sparse messages bypass fusion entirely: each tensor carries
            # its own (index, value) payload, so threshold 0 sends singles
            messages, slot = TensorFusion.pack_greedy(
                drained,
                0 if sparse_active else self.config.fusion_threshold,
                cycle_index=cycles_used - 1, slot_start=slot,
            )
            for message in messages:
                start = max(fire, exec_free)
                if sparse_active:
                    record = self._submit_sparse(message, start)
                else:
                    record = self._submit_dense(message, start)
                exec_free = record.finish
                records.append(record)
                if self.timeline is not None:
                    self.timeline.record(
                        "allgather" if sparse_active else "allreduce",
                        start=start,
                        duration=record.duration,
                        nbytes=record.nbytes,
                        detail=",".join(message.names[:4]),
                    )
        comm_finish = records[-1].finish if records else 0.0
        return StepTiming(
            backward_time=backward_time,
            comm_finish=comm_finish,
            coordination_time=coordination,
            messages=records,
            cycles_used=cycles_used,
        )
