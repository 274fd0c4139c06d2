"""The unified communication stack: registry, selection tables, routing,
the hierarchical two-level backend, fault threading, and the autotuner.

Covers the repro.comm layer on its own terms; cross-backend bit-identity
with the pre-refactor entry points lives in test_comm_equivalence.py.
"""

import json
from dataclasses import replace

import pytest

from repro.comm import (
    CANDIDATES,
    TuningConfig,
    available_backends,
    build_communicator,
    default_table,
    tune_table,
    tuning_digest,
)
from repro.comm.api import broadcast_weights
from repro.comm.cost import (
    ScheduleMemo,
    allreduce_lower_bound,
    alpha_beta_time,
    weight_broadcast_time,
)
from repro.comm.hierarchical import ALGORITHM as HIER, HierarchicalWorld
from repro.comm.records import CommRecord
from repro.comm.selection import SelectionTable
from repro.core import MPI_OPT, ScalingStudy, StudyConfig
from repro.errors import CommError, ConfigError, NcclError
from repro.faults import FaultInjector, FaultPlan, LinkFault, MessageFault
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.mpi import WorldSpec
from repro.mpi.comm import Communicator, GpuBuffers
from repro.nccl import NcclWorld
from repro.nccl.protocol import DEFAULT_PROTOCOL
from repro.profiling import Hvprof
from repro.utils.units import KIB, MIB


def make_spec(num_ranks):
    return WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                     config=MPI_OPT.mv2)


def routed(backend, num_ranks, **kwargs):
    cluster = build_cluster(LASSEN, num_ranks)
    world_spec = make_spec(num_ranks) if backend == "mpi" else None
    _world, comm = build_communicator(
        cluster, backend, world_spec=world_spec, num_ranks=num_ranks, **kwargs
    )
    return comm


def virtual(nbytes, n):
    return GpuBuffers.virtual(nbytes, n)


# -- registry -------------------------------------------------------------------

class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) >= {"mpi", "nccl", "hierarchical"}

    def test_unknown_backend_is_config_error(self):
        cluster = build_cluster(LASSEN, 4)
        with pytest.raises(ConfigError, match="unknown backend"):
            build_communicator(cluster, "gloo", num_ranks=4)

    @pytest.mark.parametrize("backend", ["nccl", "hierarchical"])
    def test_no_silent_num_gpus_fallback(self, backend):
        """Regression: omitting both world_spec and num_ranks used to fall
        back to cluster.num_gpus silently; now it is a hard ConfigError."""
        cluster = build_cluster(LASSEN, 8)
        with pytest.raises(ConfigError, match="explicit world size"):
            build_communicator(cluster, backend)

    def test_mpi_requires_world_spec(self):
        cluster = build_cluster(LASSEN, 4)
        with pytest.raises(ConfigError, match="WorldSpec"):
            build_communicator(cluster, "mpi", num_ranks=4)

    def test_returns_routed_communicator(self):
        comm = routed("nccl", 4)
        assert type(comm) is Communicator  # the one class, every backend
        assert comm.world.backend_name == "nccl"
        assert comm.size == 4

    def test_rejects_a_table_for_another_backend(self):
        advisory = SelectionTable(
            backend="mpi+compression", byte_edges=(), rank_edges=(),
            algorithms=(("fp16",),), source="tuned",
        )
        for table in (default_table("nccl"), advisory):
            with pytest.raises(ConfigError, match="cannot route the 'mpi'"):
                routed("mpi", 4, table=table)
        # a study meets the mismatch when it builds its world, before
        # pricing anything, not as an unknown-algorithm error mid-step
        config = StudyConfig(measure_steps=1, comm_table=default_table("nccl"))
        with pytest.raises(ConfigError, match="'nccl' cannot route"):
            ScalingStudy(MPI_OPT, config).run_point(8)


# -- shared cost helpers --------------------------------------------------------

class TestCost:
    def test_alpha_beta_time(self):
        assert alpha_beta_time(1000, alpha_s=1e-6, bandwidth=1e9) == \
            pytest.approx(1e-6 + 1e-6)

    def test_allreduce_lower_bound_scales_with_ranks(self):
        small = allreduce_lower_bound(1 * MIB, 2, 1e9)
        large = allreduce_lower_bound(1 * MIB, 64, 1e9)
        assert large > small
        assert large < 2 * 1 * MIB / 1e9  # approaches 2n/B from below

    def test_weight_broadcast_matches_ib_transfer(self):
        nbytes = 4 * MIB
        assert weight_broadcast_time(LASSEN, nbytes) == \
            pytest.approx(LASSEN.ib.transfer_time(nbytes))
        assert weight_broadcast_time(LASSEN, nbytes, replicas=3) == \
            pytest.approx(3 * LASSEN.ib.transfer_time(nbytes))
        assert weight_broadcast_time(LASSEN, 0) == 0.0

    def test_schedule_memo_reuse_and_eviction(self):
        memo = ScheduleMemo(max_entries=2)
        built = []

        def builder(key):
            return lambda: built.append(key) or key

        assert memo.get("a", builder("a")) == "a"
        assert memo.get("a", builder("a2")) == "a"  # memo hit
        memo.get("b", builder("b"))
        memo.get("c", builder("c"))  # evicts "a" (FIFO)
        assert built == ["a", "b", "c"]
        assert len(memo) == 2
        memo.clear()
        assert len(memo) == 0


# -- selection tables -----------------------------------------------------------

class TestSelectionTable:
    def make(self):
        return SelectionTable(
            backend="mpi",
            byte_edges=(32 * KIB,),
            rank_edges=(4,),
            algorithms=(("recursive_doubling", "recursive_doubling"),
                        ("ring", "hierarchical")),
        )

    def test_lookup_buckets_are_inclusive_upper_bounds(self):
        t = self.make()
        assert t.lookup(32 * KIB, 4) == "recursive_doubling"
        assert t.lookup(32 * KIB + 1, 4) == "ring"
        assert t.lookup(64 * KIB, 5) == "hierarchical"

    def test_grid_shape_validated(self):
        with pytest.raises(ConfigError, match="grid must be"):
            SelectionTable("mpi", (1,), (1,), (("a", "b"),))

    def test_edges_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            SelectionTable("mpi", (2, 1), (), (("a",), ("b",), ("c",)))

    def test_payload_round_trip_preserves_digest(self):
        t = self.make()
        again = SelectionTable.from_payload(
            json.loads(json.dumps(t.to_payload()))
        )
        assert again == t
        assert again.digest() == t.digest()

    def test_digest_covers_policy_not_provenance(self):
        t = self.make()
        tuned = SelectionTable.from_payload(
            {**t.to_payload(), "source": "tuned", "extra": {"timings": {}}}
        )
        assert tuned.digest() == t.digest()  # same routing policy
        other = SelectionTable(
            backend="mpi", byte_edges=(64 * KIB,), rank_edges=(4,),
            algorithms=t.algorithms,
        )
        assert other.digest() != t.digest()


# -- routed communicator --------------------------------------------------------

class TestRouting:
    def ring_only_table(self):
        return SelectionTable(
            backend="mpi", byte_edges=(), rank_edges=(),
            algorithms=(("ring",),), source="tuned",
        )

    def test_no_table_keeps_backend_heuristic(self):
        comm = routed("mpi", 4)
        timing = comm.allreduce(virtual(4 * KIB, 4))
        # small power-of-two world: the MPI heuristic picks rd
        assert timing.algorithm == "recursive_doubling"

    def test_table_routes_algorithm(self):
        comm = routed("mpi", 4, table=self.ring_only_table())
        timing = comm.allreduce(virtual(4 * KIB, 4))
        assert timing.algorithm == "ring"

    def test_explicit_algorithm_beats_table(self):
        comm = routed("mpi", 4, table=self.ring_only_table())
        timing = comm.allreduce(
            virtual(4 * KIB, 4), algorithm="recursive_doubling"
        )
        assert timing.algorithm == "recursive_doubling"

    def test_unified_records(self):
        comm = routed("mpi", 4, table=self.ring_only_table())
        hv = Hvprof()
        comm.add_observer(hv.observer)
        comm.allreduce(virtual(1 * MIB, 4))
        comm.bcast(virtual(1 * MIB, 4))
        assert [r.op for r in hv.records] == ["allreduce", "bcast"]
        record = hv.records[0]
        assert isinstance(record, CommRecord)
        assert record.backend == "mpi"
        assert record.algorithm == "ring"
        assert record.nbytes == 1 * MIB
        assert record.num_ranks == 4

    def test_restrict_does_not_double_record(self):
        comm = routed("mpi", 4)
        hv = Hvprof()
        comm.add_observer(hv.observer)
        sub = comm.restrict([0, 1])
        sub.allreduce(virtual(4 * KIB, 2))
        assert len(hv.records) == 1
        assert (sub.op_count, comm.op_count) == (1, 0)

    def test_broadcast_weights_trivial_world_is_free(self):
        comm = routed("nccl", 4)
        assert broadcast_weights(comm, 0) is None
        timing = broadcast_weights(comm, 8 * MIB)
        assert timing.time > 0
        assert timing.op == "bcast"
        assert comm.op_count == 1


# -- hierarchical backend -------------------------------------------------------

class TestHierarchicalBackend:
    def test_world_validates_size(self):
        cluster = build_cluster(LASSEN, 8)
        with pytest.raises(CommError):
            HierarchicalWorld(cluster, 0)
        with pytest.raises(CommError):
            HierarchicalWorld(cluster, 9)

    def test_single_node_has_no_inter_segment(self):
        comm = routed("hierarchical", 4)
        timing = comm.allreduce(virtual(1 * MIB, 4))
        assert timing.algorithm == HIER
        assert "inter_allreduce" not in timing.segments
        assert set(timing.segments) == {"intra_reduce_scatter",
                                        "intra_broadcast"}

    def test_multi_node_has_all_three_phases(self):
        comm = routed("hierarchical", 16)
        timing = comm.allreduce(virtual(1 * MIB, 16))
        assert set(timing.segments) == {
            "intra_reduce_scatter", "inter_allreduce", "intra_broadcast"
        }
        assert timing.time == pytest.approx(sum(timing.segments.values()))

    @pytest.mark.parametrize("num_ranks", [16, 64])
    @pytest.mark.parametrize("nbytes", [1 * MIB, 16 * MIB, 64 * MIB])
    def test_beats_flat_ring_on_multi_node_bandwidth_bound(
        self, num_ranks, nbytes
    ):
        """The paper-level claim: two-level collectives win once messages
        are bandwidth-bound on multi-node worlds (>= ~1 MB)."""
        hier = routed("hierarchical", num_ranks)
        hier_t = hier.allreduce(virtual(nbytes, num_ranks)).time
        mpi = routed("mpi", num_ranks)
        ring_t = mpi.allreduce(
            virtual(nbytes, num_ranks), algorithm="ring"
        ).time
        assert hier_t < ring_t

    def test_rejects_foreign_algorithm(self):
        comm = routed("hierarchical", 8)
        with pytest.raises(CommError, match="implements only"):
            comm.allreduce(virtual(4 * KIB, 8), algorithm="ring")

    def test_functional_allreduce_and_bcast(self):
        import numpy as np

        comm = routed("hierarchical", 8)
        arrays = [np.full(64, float(r), dtype=np.float32) for r in range(8)]
        comm.allreduce(GpuBuffers.from_arrays(arrays), average=True)
        for a in arrays:
            np.testing.assert_allclose(a, np.mean(range(8)))
        arrays = [np.full(64, float(r), dtype=np.float32) for r in range(8)]
        comm.bcast(GpuBuffers.from_arrays(arrays))
        for a in arrays:
            np.testing.assert_allclose(a, 0.0)

    def test_restrict_and_reform(self):
        comm = routed("hierarchical", 8)
        sub = comm.restrict([0, 1, 2, 3])
        assert sub.size == 4
        back = sub.reform(list(range(8)))
        assert back.size == 8
        with pytest.raises(CommError):
            comm.restrict([99])

    def test_ib_fault_slows_inter_phase(self):
        clean = routed("hierarchical", 16)
        base = clean.allreduce(virtual(16 * MIB, 16)).time
        plan = FaultPlan(faults=(LinkFault(kind="ib", bandwidth_factor=0.25),))
        faulty = routed("hierarchical", 16, faults=FaultInjector(plan))
        degraded = faulty.allreduce(virtual(16 * MIB, 16)).time
        assert degraded > base

    def test_barrier_scales_logarithmically(self):
        t16 = routed("hierarchical", 16).barrier().time
        t64 = routed("hierarchical", 64).barrier().time
        assert 0 < t16 < t64


# -- fault threading into the NCCL envelope (satellite: uniform --fail) --------

class TestNcclFaults:
    def allreduce_time(self, num_ranks, nbytes, faults=None):
        comm = routed("nccl", num_ranks, faults=faults)
        return comm.allreduce(virtual(nbytes, num_ranks)).time

    def test_clean_injector_is_noop(self):
        base = self.allreduce_time(8, 16 * MIB)
        clean = self.allreduce_time(8, 16 * MIB, faults=FaultInjector(FaultPlan()))
        assert clean == base

    def test_ib_fault_degrades_multi_node(self):
        base = self.allreduce_time(16, 16 * MIB)
        plan = FaultPlan(faults=(LinkFault(kind="ib", bandwidth_factor=0.5),))
        assert self.allreduce_time(16, 16 * MIB, faults=FaultInjector(plan)) > base

    def test_nvlink_fault_degrades_single_node(self):
        base = self.allreduce_time(4, 16 * MIB)
        plan = FaultPlan(
            faults=(LinkFault(kind="nvlink-p2p", bandwidth_factor=0.5),)
        )
        assert self.allreduce_time(4, 16 * MIB, faults=FaultInjector(plan)) > base

    def test_link_latency_fault_adds_alpha(self):
        base = self.allreduce_time(16, 4 * KIB)
        plan = FaultPlan(faults=(LinkFault(kind="ib", latency_add_s=1e-4),))
        assert self.allreduce_time(16, 4 * KIB, faults=FaultInjector(plan)) > base

    def test_explicit_algorithm_override(self):
        comm = routed("nccl", 16)
        ring = comm.allreduce(virtual(1 * MIB, 16), algorithm="nccl-ring")
        tree = comm.allreduce(virtual(1 * MIB, 16), algorithm="nccl-tree")
        assert ring.algorithm == "nccl-ring"
        assert tree.algorithm == "nccl-tree"
        assert ring.time != tree.time
        with pytest.raises(NcclError):
            comm.allreduce(virtual(1 * MIB, 16), algorithm="rdb")


class TestDropRetransmit:
    """A certain drop on one inter-node hop costs one chunk retransmit:
    NCCL prices it at the unfaulted IB bandwidth, the hierarchical
    backend at its faulted IB alpha and bandwidth."""

    IB = LinkFault(kind="ib", bandwidth_factor=0.5, latency_add_s=20e-6)

    def drop_cost(self, backend, src, dst):
        def allreduce_time(*faults):
            plan = FaultPlan(faults=(self.IB, *faults))
            comm = routed(backend, 8, faults=FaultInjector(plan))
            return comm.allreduce(virtual(1 * MIB, 8)).time

        drop = MessageFault(src=src, dst=dst, drop_prob=1.0)
        return allreduce_time(drop) - allreduce_time()

    def test_nccl_retransmits_at_unfaulted_bandwidth(self):
        proto = DEFAULT_PROTOCOL
        ib_bw = LASSEN.ib.bandwidth * proto.ib_efficiency
        assert self.drop_cost("nccl", 3, 4) == pytest.approx(
            proto.inter_step_latency_s + proto.chunk_bytes / ib_bw
        )

    def test_hierarchical_retransmits_at_faulted_ib(self):
        proto = DEFAULT_PROTOCOL
        ib_bw = LASSEN.ib.bandwidth * proto.ib_efficiency * 0.5
        ib_alpha = proto.inter_step_latency_s + 20e-6
        assert self.drop_cost("hierarchical", 0, 4) == pytest.approx(
            ib_alpha + proto.chunk_bytes / ib_bw
        )


# -- autotuner crossover properties (satellite: tuned-table invariants) --------

class TestTunerProperties:
    @pytest.fixture(scope="class")
    def table(self):
        return tune_table(TuningConfig(
            backend="mpi",
            byte_points=(4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB),
            rank_counts=(4, 16, 512),
        ))

    LATENCY_OPTIMAL = {"recursive_doubling", "hierarchical"}
    BANDWIDTH_OPTIMAL = {"ring", "reduce_scatter_allgather", "hierarchical"}

    @pytest.mark.parametrize("num_ranks", [4, 16, 512])
    def test_small_messages_pick_latency_optimal(self, table, num_ranks):
        pick = table.lookup(4 * KIB, num_ranks)
        assert pick in self.LATENCY_OPTIMAL
        assert pick != "ring"  # the 2(p-1)-step latency-worst choice

    @pytest.mark.parametrize("num_ranks", [16, 512])
    def test_multi_node_small_messages_pick_recursive_doubling(
        self, table, num_ranks
    ):
        assert table.lookup(4 * KIB, num_ranks) == "recursive_doubling"

    @pytest.mark.parametrize("num_ranks", [4, 16, 512])
    @pytest.mark.parametrize("nbytes", [16 * MIB, 64 * MIB])
    def test_large_messages_pick_bandwidth_optimal(
        self, table, nbytes, num_ranks
    ):
        pick = table.lookup(nbytes, num_ranks)
        assert pick in self.BANDWIDTH_OPTIMAL
        assert pick != "recursive_doubling"  # full-size hops every step

    def test_every_cell_is_argmin_of_sweep(self, table):
        timings = table.extra["timings"]
        for nbytes in table.extra["byte_points"]:
            for ranks in table.extra["rank_counts"]:
                cell = timings[f"{nbytes}x{ranks}"]
                pick = table.lookup(nbytes, ranks)
                assert cell[pick] == min(cell.values())

    def test_tuning_is_deterministic_and_memoized(self):
        config = TuningConfig(byte_points=(4 * KIB, 1 * MIB),
                              rank_counts=(4, 16))
        a = tune_table(config)
        b = tune_table(config)
        assert a is b  # in-process memo
        assert a.digest() == b.digest()

    def test_tuning_digest_is_config_sensitive(self):
        a = tuning_digest(TuningConfig(byte_points=(4 * KIB,), rank_counts=(4,)))
        b = tuning_digest(TuningConfig(byte_points=(8 * KIB,), rank_counts=(4,)))
        assert a != b

    def test_tuned_table_round_trips_through_cache(self, tmp_path):
        from repro.perf.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        config = TuningConfig(byte_points=(4 * KIB, 1 * MIB),
                              rank_counts=(4, 16))
        first = tune_table(config, cache=cache)
        from repro.comm.tuning import _TUNE_MEMO

        _TUNE_MEMO.clear()
        second = tune_table(config, cache=cache)
        assert second == first
        assert second.digest() == first.digest()

    def test_non_pow2_worlds_skip_pow2_algorithms(self):
        table = tune_table(TuningConfig(byte_points=(4 * KIB, 16 * MIB),
                                        rank_counts=(12,)))
        for nbytes in (4 * KIB, 16 * MIB):
            assert table.lookup(nbytes, 12) in {"ring", "hierarchical"}

    def test_candidate_lists_cover_backends(self):
        assert set(CANDIDATES) == {"mpi", "nccl", "hierarchical"}

    def test_nccl_tuned_table_routes_nccl_backend(self):
        table = tune_table(TuningConfig(
            backend="nccl", byte_points=(4 * KIB, 64 * MIB),
            rank_counts=(16,),
        ))
        comm = routed("nccl", 16, table=table)
        small = comm.allreduce(virtual(4 * KIB, 16))
        large = comm.allreduce(virtual(64 * MIB, 16))
        assert small.algorithm == table.lookup(4 * KIB, 16)
        assert large.algorithm == table.lookup(64 * MIB, 16)


# -- digest integration ---------------------------------------------------------

class TestDigestIntegration:
    def test_point_digest_changes_with_active_table(self):
        """The config's selection table folds into the point digest."""

        def digest(table=None):
            config = StudyConfig(measure_steps=1, comm_table=table)
            return ScalingStudy(MPI_OPT, config).point_digest(4)

        base = digest()
        tabled = digest(default_table("mpi"))
        ring = SelectionTable(
            backend="mpi", byte_edges=(), rank_edges=(),
            algorithms=(("ring",),), source="tuned",
        )
        assert len({base, tabled, digest(ring)}) == 3
        assert digest(default_table("mpi")) == tabled
        assert digest() == base

    def test_point_digest_ignores_table_provenance(self):
        """A table folds into the point digest by what it routes: its
        ``source`` and tuning records leave the digest alone."""

        def digest(table):
            config = StudyConfig(measure_steps=1, comm_table=table)
            return ScalingStudy(MPI_OPT, config).point_digest(8)

        table = default_table("mpi")
        relabelled = replace(table, source="tuned", extra={"timings": [1.0]})
        assert relabelled.digest() == table.digest()
        assert digest(relabelled) == digest(table)
