"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.horovod import HorovodConfig, PendingTensor, TensorFusion
from repro.metrics import psnr, ssim
from repro.mpi.collectives.allreduce import allreduce_lower_bound
from repro.mpi.collectives.base import chunk_sizes, is_power_of_two
from repro.mpi.datatypes import ReduceOp
from repro.net.regcache import RegistrationCache, RegistrationCostModel
from repro.profiling.bins import PAPER_BINS, bin_for
from repro.data.sampler import DistributedSampler
from repro.sim import Environment, Resource
from repro.tensor import Tensor, functional as F
from repro.utils.seeding import (
    derive_seed,
    extend_seed,
    seed_prefix,
    seeded_random,
)
from repro.utils.units import format_bytes, parse_bytes

# keep hypothesis fast and deterministic in CI
FAST = settings(max_examples=50, deadline=None)


class TestChunking:
    @given(nbytes=st.integers(0, 10**9), parts=st.integers(1, 1025))
    @FAST
    def test_chunks_conserve_and_balance(self, nbytes, parts):
        chunks = chunk_sizes(nbytes, parts)
        assert len(chunks) == parts
        assert sum(chunks) == nbytes
        assert max(chunks) - min(chunks) <= 1
        assert all(c >= 0 for c in chunks)

    @given(n=st.integers(1, 2**20))
    @FAST
    def test_power_of_two_detector(self, n):
        assert is_power_of_two(n) == (bin(n).count("1") == 1)


class TestFusionProperties:
    sizes = st.lists(st.integers(4, 8 * 2**20), min_size=1, max_size=40)
    readies = st.floats(0, 0.5, allow_nan=False)

    @given(sizes=sizes, threshold=st.integers(0, 64 * 2**20),
           cycle=st.sampled_from([0.0, 1e-3, 10e-3]))
    @FAST
    def test_fusion_conserves_bytes_and_order(self, sizes, threshold, cycle):
        tensors = [
            PendingTensor(f"t{i}", s, ready_time=i * 1e-4)
            for i, s in enumerate(sizes)
        ]
        plan = TensorFusion(
            HorovodConfig(fusion_threshold=threshold, cycle_time_s=cycle)
        ).plan(tensors)
        # conservation: every tensor appears exactly once
        names = [t.name for m in plan.messages for t in m.tensors]
        assert sorted(names) == sorted(f"t{i}" for i in range(len(sizes)))
        # fused messages respect the threshold
        for m in plan.messages:
            if m.fused and threshold > 0:
                assert m.nbytes <= threshold
        # cycle indices are non-decreasing
        cycles = [m.cycle_index for m in plan.messages]
        assert cycles == sorted(cycles)

    @given(sizes=st.lists(st.integers(1, 2**16), min_size=1, max_size=12),
           ranks=st.integers(1, 4))
    @FAST
    def test_pack_unpack_is_identity(self, sizes, ranks):
        rng = np.random.default_rng(0)
        tensors = []
        for i, elements in enumerate(sizes):
            data = [rng.random(elements).astype(np.float32) for _ in range(ranks)]
            tensors.append(PendingTensor(f"t{i}", elements * 4, data=data))
        plan = TensorFusion(HorovodConfig(cycle_time_s=0.0)).plan(tensors)
        for message in plan.messages:
            originals = [
                [arr.copy() for arr in t.data] for t in message.tensors
            ]
            packed = TensorFusion.pack(message, ranks)
            TensorFusion.unpack(message, packed)
            for t, orig in zip(message.tensors, originals):
                for arr, o in zip(t.data, orig):
                    np.testing.assert_array_equal(arr, o)


def _equal_length_arrays(draw):
    length = draw(st.integers(1, 16))
    count = draw(st.integers(2, 5))
    element = st.floats(-100, 100, width=32)
    return [
        draw(st.lists(element, min_size=length, max_size=length))
        for _ in range(count)
    ]


equal_length_arrays = st.composite(_equal_length_arrays)()


class TestReduceOps:
    @given(data=equal_length_arrays)
    @FAST
    def test_sum_matches_numpy(self, data):
        arrays = [np.array(a, dtype=np.float32) for a in data]
        result = ReduceOp.SUM.reduce(arrays)
        np.testing.assert_allclose(
            result, np.sum(arrays, axis=0), rtol=1e-4, atol=1e-4
        )

    @given(data=equal_length_arrays)
    @FAST
    def test_max_min_bound_inputs(self, data):
        arrays = [np.array(a, dtype=np.float32) for a in data]
        high = ReduceOp.MAX.reduce(arrays)
        low = ReduceOp.MIN.reduce(arrays)
        for arr in arrays:
            assert (high >= arr).all()
            assert (low <= arr).all()


class TestBins:
    @given(nbytes=st.integers(0, 64 * 2**20))
    @FAST
    def test_bins_partition_the_range(self, nbytes):
        matches = [b for b in PAPER_BINS if b.contains(nbytes)]
        assert len(matches) == 1
        assert bin_for(nbytes) is matches[0]


class TestRegistrationCache:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 10**7)),
            min_size=1, max_size=60,
        ),
        enabled=st.booleans(),
    )
    @FAST
    def test_cache_invariants(self, ops, enabled):
        cache = RegistrationCache(enabled=enabled, max_entries=4)
        for buffer_id, nbytes in ops:
            cache.begin_transaction()
            cost = cache.acquire(buffer_id, nbytes)
            assert cost >= 0.0
        assert cache.hits + cache.misses == cache.lookups
        assert 0.0 <= cache.hit_rate <= 1.0
        if not enabled:
            assert cache.hits == 0

    @given(nbytes=st.integers(1, 10**9))
    @FAST
    def test_registration_cost_monotone_in_size(self, nbytes):
        model = RegistrationCostModel()
        assert model.register_time(nbytes) <= model.register_time(nbytes * 2)
        assert model.pages(nbytes) >= 1


class TestSampler:
    @given(
        size=st.integers(1, 500),
        ranks=st.integers(1, 16),
        epoch=st.integers(0, 5),
        shuffle=st.booleans(),
    )
    @FAST
    def test_shards_cover_dataset_evenly(self, size, ranks, epoch, shuffle):
        shards = []
        for rank in range(ranks):
            sampler = DistributedSampler(size, ranks, rank, shuffle=shuffle, seed=3)
            sampler.set_epoch(epoch)
            shards.append(sampler.indices())
        lengths = {len(s) for s in shards}
        assert lengths == {-(-size // ranks)}  # identical ceil-size shards
        seen = set(i for s in shards for i in s)
        assert seen == set(range(size))  # full coverage (with wraparound)


class TestMetricsProperties:
    images = st.integers(8, 24)

    @given(h=images, w=images, seed=st.integers(0, 1000))
    @FAST
    def test_psnr_ssim_identity_extremes(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((3, h, w))
        assert psnr(img, img) == float("inf")
        assert ssim(img, img) == pytest.approx(1.0)

    @given(seed=st.integers(0, 1000), scale=st.floats(0.01, 0.2))
    @FAST
    def test_psnr_decreases_with_noise_amplitude(self, seed, scale):
        rng = np.random.default_rng(seed)
        img = rng.random((3, 16, 16))
        noise = rng.standard_normal(img.shape)
        little = np.clip(img + scale * 0.5 * noise, 0, 1)
        lots = np.clip(img + scale * 2.0 * noise, 0, 1)
        assert psnr(little, img) >= psnr(lots, img)


class TestAutogradProperties:
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 10**6),
    )
    @FAST
    def test_sum_gradient_is_ones(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(shape).astype(np.float32),
                   requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(shape, dtype=np.float32))

    @given(
        seed=st.integers(0, 10**6),
        a_scale=st.floats(0.1, 10),
        b_scale=st.floats(0.1, 10),
    )
    @FAST
    def test_linearity_of_gradients(self, seed, a_scale, b_scale):
        """grad of (a*f + b*g) == a*grad(f) + b*grad(g)."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(6).astype(np.float32)

        def grad_of(fn):
            x = Tensor(data, requires_grad=True)
            fn(x).backward()
            return x.grad

        g_f = grad_of(lambda x: (x * x).sum())
        g_g = grad_of(lambda x: F.relu(x).sum())
        combined = grad_of(
            lambda x: (float(a_scale) * (x * x).sum()
                       + float(b_scale) * F.relu(x).sum())
        )
        np.testing.assert_allclose(
            combined, a_scale * g_f + b_scale * g_g, rtol=1e-3, atol=1e-4
        )

    @given(
        seed=st.integers(0, 10**6),
        r=st.sampled_from([2, 3]),
        c=st.integers(1, 3),
        hw=st.integers(2, 5),
    )
    @FAST
    def test_pixel_shuffle_preserves_values(self, seed, r, c, hw):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, c * r * r, hw, hw)).astype(np.float32)
        out = F.pixel_shuffle(Tensor(x), r).numpy()
        assert out.shape == (1, c, hw * r, hw * r)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


class TestUnitsAndSeeds:
    @given(nbytes=st.integers(0, 2**50))
    @FAST
    def test_format_bytes_never_crashes(self, nbytes):
        text = format_bytes(nbytes)
        assert text

    @given(value=st.integers(0, 2**40))
    @FAST
    def test_parse_format_roundtrip_exact_for_bytes(self, value):
        assert parse_bytes(str(value)) == value

    @given(seed=st.integers(0, 2**31), key=st.text(min_size=0, max_size=20))
    @FAST
    def test_derived_seeds_deterministic_and_distinct(self, seed, key):
        a = derive_seed(seed, key)
        b = derive_seed(seed, key)
        c = derive_seed(seed, key + "x")
        assert a == b
        assert a != c
        assert 0 <= a < 2**63

    @given(
        seed=st.integers(-(2**40), 2**40),
        keys=st.lists(st.one_of(st.text(max_size=8), st.integers(-9, 10**6)),
                      max_size=4),
        index=st.integers(0, 2**40),
    )
    @FAST
    def test_seed_prefix_extends_to_derive_seed(self, seed, keys, index):
        prefix = seed_prefix(seed, *keys)
        assert extend_seed(prefix, index) == derive_seed(seed, *keys, index)
        # the prefix is copied, not consumed
        assert extend_seed(prefix, index + 1) == derive_seed(
            seed, *keys, index + 1
        )


def _numpy_random(seed: int) -> float:
    return float(np.random.default_rng(seed).random())


class TestSeededRandom:
    """``seeded_random`` against numpy, the reference it must equal."""

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=500, deadline=None)
    def test_equals_default_rng_random(self, seed):
        assert seeded_random(seed).hex() == _numpy_random(seed).hex()

    def test_equals_default_rng_random_on_fixed_seeds(self):
        rng = random.Random(20210517)
        edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        one_word = [rng.randrange(2**32) for _ in range(10_000)]
        two_words = [rng.randrange(2**32, 2**64) for _ in range(10_000)]
        for seed in edges + one_word + two_words:
            assert seeded_random(seed).hex() == _numpy_random(seed).hex(), seed

    def test_numpy_integer_seed_is_converted(self):
        seed = np.uint64(2**64 - 1)
        assert seeded_random(seed) == _numpy_random(2**64 - 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_raises(self, seed):
        with pytest.raises(ValueError):
            seeded_random(seed)


class TestCollectiveBounds:
    @given(
        nbytes=st.integers(1, 10**8),
        p=st.integers(2, 512),
        bandwidth=st.floats(1e9, 1e11),
    )
    @FAST
    def test_lower_bound_properties(self, nbytes, p, bandwidth):
        bound = allreduce_lower_bound(nbytes, p, bandwidth)
        assert bound > 0
        # more ranks -> (weakly) more data movement per rank
        assert allreduce_lower_bound(nbytes, p + 1, bandwidth) >= bound * 0.99
        assert allreduce_lower_bound(nbytes, 1, bandwidth) == 0.0


class TestSimResourceProperties:
    @given(
        durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=12),
        capacity=st.integers(1, 4),
    )
    @FAST
    def test_makespan_bounds(self, durations, capacity):
        """Resource makespan lies between ideal parallel and serial bounds."""
        env = Environment()
        res = Resource(env, capacity=capacity)

        def user(env, duration):
            yield res.request()
            try:
                yield env.timeout(duration)
            finally:
                res.release()

        for d in durations:
            env.process(user(env, d))
        env.run()
        serial = sum(durations)
        ideal = max(max(durations), serial / capacity)
        assert env.now <= serial + 1e-9
        assert env.now >= ideal - 1e-9


def _strategy_fabric():
    from repro.hardware import LASSEN, Cluster
    from repro.mpi import Mv2Config, WorldSpec
    from repro.mpi.p2p import P2PFabric
    from repro.mpi.process import SingletonDevicePolicy, build_world
    from repro.mpi.transports import TransportModel

    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=1)
    config = Mv2Config(mv2_visible_devices="all", registration_cache=True)
    spec = WorldSpec(num_ranks=4, policy=SingletonDevicePolicy(), config=config)
    ranks = build_world(cluster, spec)
    return env, P2PFabric(TransportModel(cluster, config, ranks))


class TestP2PProperties:
    @given(
        messages=st.lists(
            st.tuples(
                st.integers(0, 3),       # src
                st.integers(0, 3),       # dst
                st.integers(0, 7),       # tag
                st.integers(1, 200_000),  # nbytes
            ),
            min_size=1,
            max_size=15,
        )
    )
    @FAST
    def test_matched_traffic_always_drains(self, messages):
        """For every send, post exactly one matching recv: the run must
        drain with all messages delivered, regardless of order or protocol
        (eager/rendezvous mix)."""
        messages = [(s, d, t, n) for s, d, t, n in messages if s != d]
        if not messages:
            return
        env, fabric = _strategy_fabric()
        for s, d, t, n in messages:
            fabric.isend(s, d, tag=t, nbytes=n)
        for s, d, t, n in messages:
            fabric.irecv(d, source=s, tag=t, nbytes=n)
        env.run()
        assert fabric.messages_delivered == len(messages)
        assert fabric.pending_counts() == (0, 0)

    @given(
        values=st.lists(
            st.floats(-10, 10, width=32), min_size=4, max_size=40
        ),
        seed=st.integers(0, 1000),
    )
    @FAST
    def test_spmd_ring_allreduce_matches_numpy(self, values, seed):
        from repro.mpi.collectives.spmd import ring_allreduce_spmd

        rng = np.random.default_rng(seed)
        base = np.array(values, dtype=np.float32)
        data = {r: base + rng.random(base.size).astype(np.float32)
                for r in range(4)}
        expected = np.sum(list(data.values()), axis=0)
        env, fabric = _strategy_fabric()
        ring_allreduce_spmd(fabric, [0, 1, 2, 3], base.size * 4, data=data)
        for r in range(4):
            np.testing.assert_allclose(data[r], expected, rtol=1e-4, atol=1e-4)


class TestRoutingProperties:
    @given(
        a=st.integers(0, 15),
        b=st.integers(0, 15),
        nbytes=st.integers(1, 10**8),
    )
    @FAST
    def test_route_costs_symmetric_and_positive(self, a, b, nbytes):
        from repro.hardware import LASSEN, Cluster

        cluster = Cluster(Environment(), LASSEN, num_nodes=4)
        ga, gb = cluster.gpu_ref(a), cluster.gpu_ref(b)
        forward = cluster.path_cost(ga, gb, nbytes)
        backward = cluster.path_cost(gb, ga, nbytes)
        assert forward == pytest.approx(backward)
        if a == b:
            assert forward == 0.0
        else:
            assert forward > 0
            # wire time never beats the bottleneck-bandwidth bound
            assert forward >= nbytes / cluster.path_bandwidth(ga, gb)

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @FAST
    def test_route_endpoints_consistent(self, a, b):
        from repro.hardware import LASSEN, Cluster

        cluster = Cluster(Environment(), LASSEN, num_nodes=4)
        ga, gb = cluster.gpu_ref(a), cluster.gpu_ref(b)
        hops = cluster.route(ga, gb)
        if a == b:
            assert hops == []
            return
        assert hops[0][1] == ga
        assert hops[-1][2] == gb
        # hops chain: each hop starts where the previous ended
        for (_, _, to), (_, frm, _) in zip(hops, hops[1:]):
            assert to == frm


class TestConvProperties:
    @given(seed=st.integers(0, 10**6))
    @FAST
    def test_conv_linear_in_weights(self, seed):
        """conv(x, w1 + w2) == conv(x, w1) + conv(x, w2)."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
        w1 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        w2 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        combined = F.conv2d(x, Tensor(w1 + w2), padding=1).numpy()
        separate = (
            F.conv2d(x, Tensor(w1), padding=1).numpy()
            + F.conv2d(x, Tensor(w2), padding=1).numpy()
        )
        np.testing.assert_allclose(combined, separate, rtol=1e-4, atol=1e-4)

    @given(seed=st.integers(0, 10**6), shift=st.integers(1, 2))
    @FAST
    def test_conv_translation_equivariance(self, seed, shift):
        """Shifting the input (valid conv) shifts the output."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, 9, 9)).astype(np.float32)
        w = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
        out = F.conv2d(Tensor(x), w, padding=0).numpy()
        shifted = np.roll(x, shift, axis=3)
        out_shifted = F.conv2d(Tensor(shifted), w, padding=0).numpy()
        # interior columns (unaffected by wrap-around) must match the shift
        np.testing.assert_allclose(
            out_shifted[..., shift + 1 :], out[..., 1 : out.shape[3] - shift],
            rtol=1e-4, atol=1e-4,
        )


class TestFaultDeterminism:
    """Identical seed + FaultPlan ⇒ byte-identical fault traces and timing,
    for any plan hypothesis can dream up — even when the run fails."""

    @given(
        seed=st.integers(0, 2**31),
        drop=st.floats(0.0, 0.9),
        delay=st.floats(0.0, 1e-3),
        sigma=st.floats(0.0, 0.5),
    )
    @FAST
    def test_p2p_chaos_runs_are_reproducible(self, seed, drop, delay, sigma):
        from repro.errors import MpiError
        from repro.faults import (
            FaultInjector, FaultPlan, JitterFault, MessageFault, RetryPolicy,
        )
        from repro.hardware import LASSEN, Cluster
        from repro.mpi import Mv2Config, WorldSpec
        from repro.mpi.p2p import P2PFabric
        from repro.mpi.process import SingletonDevicePolicy, build_world
        from repro.mpi.transports import TransportModel

        faults = [JitterFault(sigma=sigma)] if sigma > 0 else []
        if drop > 0 or delay > 0:
            faults.append(MessageFault(drop_prob=drop, delay_s=delay))
        plan = FaultPlan(seed=seed, faults=tuple(faults))

        def run_once():
            env = Environment()
            cluster = Cluster(env, LASSEN, num_nodes=1)
            config = Mv2Config(mv2_visible_devices="all",
                               registration_cache=True)
            spec = WorldSpec(num_ranks=4, policy=SingletonDevicePolicy(),
                             config=config)
            ranks = build_world(cluster, spec)
            injector = FaultInjector(plan)
            fabric = P2PFabric(TransportModel(
                cluster, config, ranks, faults=injector,
                retry=RetryPolicy(max_retries=6)))
            for s, d in ((0, 1), (1, 2), (2, 3), (3, 0)):
                fabric.isend(s, d, tag=s, nbytes=4096)
                fabric.irecv(d, source=s, tag=s, nbytes=4096)
            outcome = "ok"
            try:
                env.run()
            except MpiError as exc:  # reproducible failures count too
                outcome = f"{type(exc).__name__}"
            factors = [injector.compute_factor(r, env.now, step=1)
                       for r in range(4)]
            return outcome, env.now, factors, injector.trace.to_json()

        assert run_once() == run_once()

    @given(seed=st.integers(0, 2**31), sigma=st.floats(0.0, 1.0))
    @FAST
    def test_compute_factor_bounds_and_determinism(self, seed, sigma):
        from repro.faults import FaultInjector, FaultPlan, JitterFault

        plan = FaultPlan(seed=seed, faults=(JitterFault(sigma=sigma),))
        a = FaultInjector(plan).compute_factor(2, 0.0, step=5)
        b = FaultInjector(plan).compute_factor(2, 0.0, step=5)
        assert a == b
        assert a >= 1.0  # faults only ever slow compute down

    @given(seed=st.integers(0, 2**31))
    @FAST
    def test_plan_json_roundtrip_is_identity(self, seed):
        from repro.faults import (
            FaultPlan, LinkFault, MessageFault, RankFailure, StragglerFault,
        )

        plan = FaultPlan(seed=seed, faults=(
            StragglerFault(rank=seed % 8, factor=1.0 + (seed % 5)),
            LinkFault(kind="ib", bandwidth_factor=0.5),
            MessageFault(drop_prob=(seed % 100) / 100.0, delay_s=1e-6),
            RankFailure(rank=seed % 4, time=float(seed % 7)),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestDataProperties:
    @given(seed=st.integers(0, 500))
    @FAST
    def test_augmentation_preserves_pixel_multiset(self, seed):
        from repro.data.patches import augment_pair

        rng = np.random.default_rng(seed)
        lr = rng.random((3, 6, 6)).astype(np.float32)
        hr = rng.random((3, 12, 12)).astype(np.float32)
        lr2, hr2 = augment_pair(lr.copy(), hr.copy(), rng)
        np.testing.assert_allclose(np.sort(lr2.ravel()), np.sort(lr.ravel()))
        np.testing.assert_allclose(np.sort(hr2.ravel()), np.sort(hr.ravel()))
        assert lr2.shape == lr.shape and hr2.shape == hr.shape

    @given(index=st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_dataset_pairs_are_deterministic(self, index):
        from repro.data import DegradationConfig, SyntheticDiv2k, degrade

        src = SyntheticDiv2k(height=16, width=16, seed=9)
        hr1 = src.image(index)
        hr2 = src.image(index)
        np.testing.assert_array_equal(hr1, hr2)
        lr1 = degrade(hr1, DegradationConfig(scale=2))
        lr2 = degrade(hr2, DegradationConfig(scale=2))
        np.testing.assert_array_equal(lr1, lr2)
