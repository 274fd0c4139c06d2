"""Priced-once tables against the per-call loops they replace.

``ModelCostModel`` sums its layer totals once at construction,
``ServingCostModel`` prices each (patch, scale, batch size) once,
``TransportModel`` resolves each ordered rank pair's geometry once and
prices each transfer shape once, and ``StepCoster`` prices each reduction
size once.  None of them changes the arithmetic, so each must equal a
fresh reference computation exactly: the totals a plain loop over the
layers in order, the latency table ``ThroughputModel.inference_time`` on
a freshly built cost model, every quote field what the per-call lookups
give (rank dicts, ``can_ipc``, the per-node HCA map and
``Cluster.path_cost`` with link state read live), and a reduction
``reduce_time_for`` on a fresh coster.  Link state is read only under a
``LinkFault``: any other plan prices every route and quote at the
fault-free constants without consulting it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cuda.runtime import IPC_OPEN_OVERHEAD_S
from repro.faults import CorruptionFault, FaultInjector, FaultPlan, LinkFault
from repro.hardware import LASSEN, Cluster
from repro.models import (
    EDSR_BASELINE,
    EDSR_PAPER,
    EDSR_TINY,
    RESNET50,
    RESNET_TINY,
    ModelCostModel,
)
from repro.models.blocks import SUPPORTED_SCALES
from repro.models.costing import ThroughputModel
from repro.models.edsr import EDSR_PAPER_TEXT
from repro.models.segmentation import DEEPLAB_V3, segmentation_cost
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode, StepCoster
from repro.mpi.collectives.base import PairTransfer
from repro.mpi.process import SingletonDevicePolicy
from repro.mpi.transports import (
    CUDA_IPC_THRESHOLD,
    SMP_EAGER_THRESHOLD,
    STAGED_KINDS,
    TransportKind,
)
from repro.parallel import ParallelLayout, stage_models
from repro.serve import DEFAULT_MIX, VIDEO_MIX, BatchingConfig, Request
from repro.serve.costing import ServingCostModel, serving_model_config
from repro.sim import Environment
from repro.utils.units import MIB

EDSR_PRESETS = (EDSR_PAPER, EDSR_BASELINE, EDSR_PAPER_TEXT, EDSR_TINY)


def reference_totals(layers) -> tuple[int, float, int]:
    params, flops, act = 0, 0.0, 0
    for layer in layers:
        params += layer.params
        flops += layer.flops_forward
        act += layer.activation_bytes
    return params, flops, act


def assert_totals_match(cost: ModelCostModel) -> None:
    assert isinstance(cost.layers, tuple)
    params, flops, act = reference_totals(cost.layers)
    assert cost.total_params == params
    assert cost.flops_forward == flops
    assert cost.activation_bytes_per_image == act
    assert cost.param_bytes == params * 4
    assert cost.flops_backward == 2.0 * flops
    assert cost.flops_train == flops + 2.0 * flops
    assert cost.num_layers == len(cost.layers)


def _cost_models():
    for config in EDSR_PRESETS:
        for scale in (2, 3, 4):
            sized = replace(config, scale=scale)
            yield f"edsr:{config.name}:x{scale}", ModelCostModel.for_edsr(sized)
    for scales in ((2,), (2, 4), SUPPORTED_SCALES):
        for recurrent in (False, True):
            yield (
                f"edsr-multi:{scales}:rec={recurrent}",
                ModelCostModel.for_edsr_multi(
                    EDSR_PAPER, scales, recurrent=recurrent
                ),
            )
    for config in (RESNET50, RESNET_TINY):
        yield f"resnet:{config.name}", ModelCostModel.for_resnet(config)
    yield "deeplab", segmentation_cost(DEEPLAB_V3)
    base = ModelCostModel.for_edsr(EDSR_PAPER)
    for tp, pp in ((2, 1), (4, 2), (1, 3), (2, 4)):
        layout = ParallelLayout(tp=tp, pp=pp, microbatches=pp)
        for stage in stage_models(base, layout):
            yield f"stage:tp{tp}:pp{pp}:{stage.index}", stage.cost


COST_MODELS = dict(_cost_models())


@pytest.mark.parametrize("name", sorted(COST_MODELS))
def test_stored_totals_equal_reference_loop(name):
    assert_totals_match(COST_MODELS[name])


def test_layers_are_frozen_even_from_a_list():
    layers = list(ModelCostModel.for_edsr(EDSR_TINY).layers)
    cost = ModelCostModel(
        "copy", layers, peak_utilization=0.41, batch_half_point=0.4
    )
    layers.pop()
    assert len(cost.layers) == len(layers) + 1
    assert_totals_match(cost)


def _shapes():
    return sorted({(c.patch, c.scale) for c in DEFAULT_MIX + VIDEO_MIX})


@pytest.mark.parametrize("patch,scale", _shapes())
def test_latency_table_equals_inference_time(patch, scale):
    serving = ServingCostModel("edsr-paper")
    config = replace(
        serving_model_config("edsr-paper"),
        name=f"edsr-paper@{patch}x{scale}", scale=scale,
    )
    fresh = ThroughputModel(
        ModelCostModel.for_edsr(config, patch=patch), LASSEN.node.gpu
    )
    cls = next(c for c in DEFAULT_MIX + VIDEO_MIX
               if (c.patch, c.scale) == (patch, scale))
    for n in range(1, BatchingConfig().max_batch + 1):
        expected = fresh.inference_time(n)
        batch = [Request(rid=i, cls=cls, arrival=0.0) for i in range(n)]
        # priced on first use, read from the table on the second
        assert serving.batch_latency(batch) == expected
        assert serving.batch_latency(batch) == expected
        assert serving.latency(patch, scale, n) == expected
    assert serving.request_latency(cls) == fresh.inference_time(1)


# -- transport pair table ----------------------------------------------------
MPI_CONFIGS = {
    "mpi": Mv2Config(registration_cache=False),
    "mpi-reg": Mv2Config(registration_cache=True),
    "mpi-opt": Mv2Config(registration_cache=True, mv2_visible_devices="all"),
    "gdr-off": Mv2Config(registration_cache=False, gdr_enabled=False),
    "gdr-off-reg": Mv2Config(
        registration_cache=True, gdr_enabled=False, mv2_visible_devices="all"
    ),
}
EAGER = Mv2Config().eager_threshold
#: every selection threshold from both sides, and a large odd size
SIZES = (
    1, SMP_EAGER_THRESHOLD, SMP_EAGER_THRESHOLD + 1, CUDA_IPC_THRESHOLD - 1,
    CUDA_IPC_THRESHOLD, EAGER, EAGER + 1, 16 * MIB + 28,
)
#: link degradation from t=1 s to t=2 s
WINDOW = FaultPlan(seed=0, faults=(LinkFault(
    bandwidth_factor=0.5, latency_add_s=2e-6, start=1.0, duration=1.0,
),))
QUOTE_FIELDS = (
    "kind", "staged", "src", "dst", "nbytes", "wire", "staging", "protocol",
    "opens_ipc", "src_buf", "dst_buf", "extent",
)


def _world(config, num_ranks, plan=None, *, injector=FaultInjector):
    cluster = Cluster(Environment(), LASSEN, num_nodes=(num_ranks + 3) // 4)
    spec = WorldSpec(
        num_ranks=num_ranks, policy=SingletonDevicePolicy(), config=config
    )
    faults = injector(plan) if plan is not None else None
    return MpiWorld(cluster, spec, faults=faults)


def reference_quote(transport, src, dst, nbytes, src_buf, dst_buf) -> dict:
    """A quote's fields from per-call lookups and ``Cluster.path_cost``."""
    a, b = transport.ranks[src], transport.ranks[dst]
    config, cluster = transport.config, transport.cluster
    pageable = cluster.spec.node.pageable_copy_bandwidth
    K = TransportKind
    if src == dst:
        kind = K.SELF
    elif a.node_id == b.node_id:
        if nbytes <= SMP_EAGER_THRESHOLD:
            kind = K.SMP_EAGER
        elif nbytes >= CUDA_IPC_THRESHOLD and transport.can_ipc(a, b):
            kind = K.CUDA_IPC
        else:
            kind = K.HOST_STAGED
    elif nbytes <= config.eager_threshold:
        kind = K.IB_EAGER
    else:
        kind = K.GDR_RDMA if config.gdr_enabled else K.STAGED_INTER
    q = dict(
        kind=kind, staged=kind in STAGED_KINDS, src=src, dst=dst,
        nbytes=nbytes, wire=0.0, staging=0.0, protocol=0.0, opens_ipc=False,
        ib=None, src_cache=None, src_buf=None, dst_cache=None, dst_buf=None,
        extent=nbytes,
    )
    path = cluster.path_cost(a.device_ref, b.device_ref, nbytes)
    ib = transport._ib[a.node_id]
    if kind is K.SMP_EAGER:
        q.update(protocol=2.0e-6, staging=2 * nbytes / pageable)
    elif kind is K.CUDA_IPC:
        opens = (min(src, dst), max(src, dst)) not in transport._ipc_pairs
        q.update(
            opens_ipc=opens,
            protocol=(IPC_OPEN_OVERHEAD_S if opens else 0.0) + 3.0e-6,
            wire=max(path, nbytes / config.cuda_ipc_bandwidth),
        )
    elif kind is K.HOST_STAGED:
        q.update(protocol=2.5e-6, staging=transport._staged_time(a, b, nbytes))
    elif kind is K.IB_EAGER:
        q.update(
            ib=ib, protocol=ib.eager_overhead(nbytes),
            staging=nbytes / pageable, wire=path,
        )
    elif kind is not K.SELF:
        q.update(
            ib=ib, protocol=ib.rendezvous_overhead(nbytes),
            src_cache=ib.reg_cache, src_buf=src_buf,
        )
        if kind is K.GDR_RDMA:
            q.update(
                dst_cache=transport._ib[b.node_id].reg_cache, dst_buf=dst_buf,
                wire=path,
            )
        else:
            q.update(staging=2 * nbytes / pageable, wire=cluster.path_cost(
                transport._cpu_of(a), transport._cpu_of(b), nbytes
            ))
    return q


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def assert_quotes_match(transport) -> list[float]:
    """Quote every ordered pair at every size twice (the first fills the
    pair table, the second reads it); returns the device-route wires."""
    wires = []
    for src in transport.ranks:
        for dst in transport.ranks:
            for nbytes in SIZES:
                expected = reference_quote(
                    transport, src, dst, nbytes, 100 + src, 100 + dst
                )
                for _ in range(2):
                    q = transport.quote(
                        src, dst, nbytes, src_buffer=100 + src,
                        dst_buffer=100 + dst,
                    )
                    case = (src, dst, nbytes)
                    assert transport.select(src, dst, nbytes) is q.kind, case
                    for name in QUOTE_FIELDS:
                        assert _bits(getattr(q, name)) == _bits(
                            expected[name]
                        ), (case, name)
                    for name in ("ib", "src_cache", "dst_cache"):
                        assert getattr(q, name) is expected[name], (case, name)
                if q.kind in (TransportKind.IB_EAGER, TransportKind.GDR_RDMA):
                    wires.append(q.wire)
    return wires


def price_entries(transport) -> int:
    return sum(len(row) for row in transport._prices.values())


def distinct_shapes(transport) -> int:
    """Shapes of every ordered pair at every size: both GPU indices,
    same node or not, the IPC verdict, ``src == dst`` and the size."""
    shapes = set()
    for src, a in transport.ranks.items():
        for dst, b in transport.ranks.items():
            pair = (
                a.physical_device, b.physical_device, a.node_id == b.node_id,
                transport.can_ipc(a, b), src == dst,
            )
            shapes.update((pair, nbytes) for nbytes in SIZES)
    return len(shapes)


@pytest.mark.parametrize("num_ranks", [8, 16])
@pytest.mark.parametrize("name", sorted(MPI_CONFIGS))
def test_pair_table_quotes_equal_per_call_lookups(name, num_ranks):
    transport = _world(MPI_CONFIGS[name], num_ranks).transport
    assert_quotes_match(transport)
    # one price per transfer shape, shared by every pair of that shape
    assert price_entries(transport) == distinct_shapes(transport)
    assert price_entries(transport) < len(transport._pairs) * len(SIZES)
    # an opened IPC pair changes only opens_ipc, which is read live
    for src, dst in ((0, 1), (1, 0), (2, 3)):
        transport.apply(transport.quote(src, dst, CUDA_IPC_THRESHOLD))
    assert_quotes_match(transport)


def test_ipc_price_filled_by_an_open_pair_still_opens_the_next():
    transport = _world(MPI_CONFIGS["mpi-opt"], 8).transport
    transport.apply(transport.quote(0, 1, 16 * MIB + 28))
    assert transport._ipc_pairs == {(0, 1)}
    # the open pair is the first to quote this size: it fills the entry
    first = transport.quote(0, 1, CUDA_IPC_THRESHOLD)
    assert first.kind is TransportKind.CUDA_IPC and not first.opens_ipc
    assert first.protocol == 3.0e-6
    # 4 -> 5 has the route class and IPC verdict of 0 -> 1
    pairs = transport._pairs
    q = transport.quote(4, 5, CUDA_IPC_THRESHOLD)
    assert pairs[(4, 5)].prices is pairs[(0, 1)].prices
    assert q.opens_ipc
    assert q.protocol.hex() == (IPC_OPEN_OVERHEAD_S + 3.0e-6).hex()
    # every other field too, for every pair, opened or not
    assert_quotes_match(transport)


@pytest.mark.parametrize("name", sorted(MPI_CONFIGS))
def test_pair_table_reads_link_state_live(name):
    world = _world(MPI_CONFIGS[name], 8, plan=WINDOW)
    env = world.cluster.env
    healthy = assert_quotes_match(world.transport)
    assert healthy
    # link state varies with simulated time: nothing enters the price table
    assert price_entries(world.transport) == 0
    env.run(until=1.5)
    degraded = assert_quotes_match(world.transport)
    assert all(d > h for d, h in zip(degraded, healthy))
    env.run(until=2.5)
    assert assert_quotes_match(world.transport) == healthy


def test_pair_table_filled_before_an_injector_is_attached():
    world = _world(MPI_CONFIGS["mpi-opt"], 8)
    healthy = assert_quotes_match(world.transport)
    world.cluster.apply_fault_injector(FaultInjector(WINDOW))
    world.cluster.env.run(until=1.5)
    degraded = assert_quotes_match(world.transport)
    assert all(d > h for d, h in zip(degraded, healthy))


# -- live link state only under a LinkFault ----------------------------------
class CountingInjector(FaultInjector):
    """A fault injector that counts its ``link_state`` consultations."""

    def __init__(self, plan):
        super().__init__(plan)
        self.link_state_calls = 0

    def link_state(self, kind, time):
        self.link_state_calls += 1
        return super().link_state(kind, time)


#: plans without a LinkFault
NO_LINK_FAULT = {
    "empty": FaultPlan(seed=0),
    "corruption": FaultPlan(seed=3, faults=(
        CorruptionFault(target="wire", prob=0.5),
        CorruptionFault(target="checkpoint", prob=0.5),
    )),
}
#: IB degraded in the first half of every 1 s period, healthy in the second
FLAP = FaultPlan(seed=0, faults=(LinkFault(
    kind="ib", bandwidth_factor=0.5, latency_add_s=2e-6, flap_period_s=1.0,
),))
#: the same IB degradation, held for good
HELD = FaultPlan(seed=0, faults=(LinkFault(
    kind="ib", bandwidth_factor=0.5, latency_add_s=2e-6,
),))


def _transfers(num_ranks):
    return [
        PairTransfer(src, dst, nbytes)
        for src in range(num_ranks)
        for dst in range(num_ranks)
        for nbytes in SIZES
    ]


def _quote_bits(q) -> tuple:
    return tuple(_bits(getattr(q, name)) for name in QUOTE_FIELDS)


def _quote(world, t: PairTransfer):
    return world.transport.quote(
        t.src, t.dst, t.nbytes, src_buffer=100 + t.src,
        dst_buffer=100 + t.dst,
    )


@pytest.mark.parametrize("plan", sorted(NO_LINK_FAULT))
@pytest.mark.parametrize("name", sorted(MPI_CONFIGS))
def test_no_link_fault_prices_at_fault_free_constants(name, plan):
    config = MPI_CONFIGS[name]
    world = _world(config, 8, NO_LINK_FAULT[plan], injector=CountingInjector)
    clean = _world(config, 8)
    assert not world.cluster.live_links
    transfers = _transfers(8)
    refs = [world.cluster.gpu_ref(g) for g in range(8)]
    clean_refs = [clean.cluster.gpu_ref(g) for g in range(8)]
    for until in (0.5, 1.5):
        world.cluster.env.run(until=until)
        for a, ca in zip(refs, clean_refs):
            for b, cb in zip(refs, clean_refs):
                for nbytes in SIZES:
                    assert world.cluster.path_cost(a, b, nbytes).hex() == (
                        clean.cluster.path_cost(ca, cb, nbytes).hex()
                    )
        for t in transfers:
            expected = _quote_bits(_quote(clean, t))
            assert _quote_bits(_quote(world, t)) == expected, t
    assert world.transport.faults.link_state_calls == 0


def test_flapping_link_prices_live_at_each_half_period():
    config = MPI_CONFIGS["mpi-opt"]
    world = _world(config, 8, FLAP)
    assert world.cluster.live_links
    clean = _world(config, 8)
    held = _world(config, 8, HELD)
    transfers = _transfers(8)
    inter_node = [t for t in transfers if t.src // 4 != t.dst // 4]
    a, b = world.cluster.gpu_ref(0), world.cluster.gpu_ref(4)
    for now, reference in ((0.25, held), (0.75, clean), (1.25, held),
                           (1.75, clean)):
        world.cluster.env.run(until=now)
        assert world.cluster.path_cost(a, b, 16 * MIB).hex() == (
            reference.cluster.path_cost(
                reference.cluster.gpu_ref(0), reference.cluster.gpu_ref(4),
                16 * MIB,
            ).hex()
        )
        for t in transfers:
            expected = _quote_bits(_quote(reference, t))
            assert _quote_bits(_quote(world, t)) == expected, (now, t)
    healthy = [_quote(clean, t).wire for t in inter_node]
    degraded = [_quote(held, t).wire for t in inter_node]
    assert all(d > h for d, h in zip(degraded, healthy))
    kinds = [e.kind for e in world.transport.faults.trace]
    assert kinds.count("link-degraded") == 2
    assert kinds.count("link-restored") == 2


# -- reduction table ---------------------------------------------------------
def test_reduction_table_equals_reduce_time_for():
    transport = _world(MPI_CONFIGS["mpi-opt"], 8).transport
    coster = StepCoster(transport, ExecutionMode.ANALYTIC)
    for kind in TransportKind:
        for dtype_bytes in (2, 4):
            for nbytes in SIZES:
                fresh = StepCoster(transport, ExecutionMode.ANALYTIC)
                expected = fresh.reduce_time_for(kind, nbytes, dtype_bytes)
                # kinds that share a staged flag share the table's entries
                for _ in range(2):
                    got = coster.reduction(kind, nbytes, dtype_bytes)
                    assert got.hex() == expected.hex(), (
                        kind, nbytes, dtype_bytes
                    )
