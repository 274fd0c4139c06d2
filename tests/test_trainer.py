"""Tests for training loops: single-process, distributed, checkpointing."""

import gc
import os
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.scenarios import MPI_OPT
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.data.loader import PatchLoader
from repro.errors import ConfigError
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY, bicubic_upscale
from repro.metrics import psnr
from repro.mpi import MpiWorld, WorldSpec
from repro.resilience import RESTART_FROM_CHECKPOINT
from repro.sim import Environment
from repro.tensor.optim import Adam
from repro.trainer import (
    DistributedTrainer,
    ThroughputMeter,
    evaluate_sr,
    load_checkpoint,
    save_checkpoint,
    train_sr,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    src = SyntheticDiv2k(height=32, width=32, seed=7)
    return SRDataset(src, split="train", degradation=DegradationConfig(scale=2))


@pytest.fixture(scope="module")
def val_dataset():
    src = SyntheticDiv2k(height=32, width=32, seed=7)
    return SRDataset(src, split="val", degradation=DegradationConfig(scale=2))


class TestThroughputMeter:
    def test_rate_computation_skips_warmup(self):
        meter = ThroughputMeter(skip_first=1)
        meter.record(4, 10.0)  # warmup, skipped
        meter.record(4, 1.0)
        meter.record(4, 1.0)
        assert meter.images_per_second() == pytest.approx(4.0)
        assert meter.mean_step_time() == pytest.approx(1.0)

    def test_wall_clock_interface(self):
        meter = ThroughputMeter(skip_first=0)
        meter.start()
        elapsed = meter.stop(images=8)
        assert elapsed >= 0
        assert meter.step_count == 1

    def test_stop_without_start_rejected(self):
        with pytest.raises(ConfigError):
            ThroughputMeter().stop(images=1)

    def test_empty_meter_reports_zero(self):
        assert ThroughputMeter().images_per_second() == 0.0


class TestSingleProcessTraining:
    def test_loss_decreases(self, tiny_dataset):
        model = EDSR(EDSR_TINY, rng=np.random.default_rng(0))
        loader = PatchLoader(tiny_dataset, batch_size=2, lr_patch=8, seed=0)
        opt = Adam(model.parameters(), lr=2e-3)
        result = train_sr(model, loader, opt, steps=12)
        assert result.steps == 12
        first = np.mean(result.losses[:3])
        last = np.mean(result.losses[-3:])
        assert last < first

    def test_throughput_positive(self, tiny_dataset):
        model = EDSR(EDSR_TINY)
        loader = PatchLoader(tiny_dataset, batch_size=2, lr_patch=8)
        result = train_sr(model, loader, Adam(model.parameters(), lr=1e-3), steps=3)
        assert result.images_per_second > 0

    def test_bad_loss_name_rejected(self, tiny_dataset):
        model = EDSR(EDSR_TINY)
        loader = PatchLoader(tiny_dataset, batch_size=1, lr_patch=8)
        with pytest.raises(ConfigError):
            train_sr(model, loader, Adam(model.parameters(), lr=1e-3),
                     steps=1, loss="huber")

    def test_evaluate_reports_metrics(self, val_dataset):
        model = EDSR(EDSR_TINY)
        metrics = evaluate_sr(model, val_dataset, max_images=2)
        assert set(metrics) == {"psnr", "ssim", "images"}
        assert metrics["images"] == 2
        assert np.isfinite(metrics["psnr"])

    def test_training_improves_validation_psnr(self, tiny_dataset, val_dataset):
        """End-to-end sanity: brief training lifts held-out PSNR well above
        the untrained network (outperforming bicubic needs far more
        training than a unit test allows — see examples/quickstart.py)."""
        model = EDSR(EDSR_TINY, rng=np.random.default_rng(1))
        before = evaluate_sr(model, val_dataset, max_images=3)["psnr"]
        loader = PatchLoader(tiny_dataset, batch_size=4, lr_patch=12, seed=1)
        train_sr(model, loader, Adam(model.parameters(), lr=3e-3), steps=40)
        after = evaluate_sr(model, val_dataset, max_images=3)["psnr"]
        assert after > before + 3.0
        # and bicubic remains a meaningful reference point
        bic = np.mean([
            psnr(bicubic_upscale(val_dataset[i][0], 2), val_dataset[i][1])
            for i in range(3)
        ])
        assert np.isfinite(bic)


class TestDistributedTraining:
    def _engine(self, num_gpus):
        cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, num_gpus // 4))
        spec = WorldSpec(num_ranks=num_gpus, policy=MPI_OPT.policy,
                         config=MPI_OPT.mv2)
        comm = MpiWorld(cluster, spec).communicator()
        return HorovodEngine(comm, HorovodConfig(cycle_time_s=1e-3))

    def test_distributed_loss_decreases_and_replicas_sync(self, tiny_dataset):
        engine = self._engine(2)
        trainer = DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(10 + rank)),
            engine,
            tiny_dataset,
            batch_per_rank=2,
            lr_patch=8,
            base_lr=1e-3,
        )
        assert trainer.replicas_in_sync()  # broadcast happened
        result = trainer.train(steps=6)
        assert result.steps == 6
        assert trainer.replicas_in_sync()
        assert np.mean(result.losses[-2:]) < np.mean(result.losses[:2])

    def test_simulated_step_times_recorded(self, tiny_dataset):
        engine = self._engine(2)
        trainer = DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(rank)),
            engine, tiny_dataset, batch_per_rank=1, lr_patch=8,
        )
        result = trainer.train(steps=2)
        assert len(result.simulated_step_times) == 2
        assert all(t > 0 for t in result.simulated_step_times)

    def test_lr_scaled_by_world_size(self, tiny_dataset):
        engine = self._engine(4)
        trainer = DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(rank)),
            engine, tiny_dataset, batch_per_rank=1, lr_patch=8,
            base_lr=1e-4, scale_lr=True,
        )
        assert trainer.dist_opt.optimizers[0].lr == pytest.approx(4e-4)

    def test_restart_checkpoints_leave_with_the_trainer(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def checkpoint_dirs():
            return [p for p in tmp_path.iterdir()
                    if p.name.startswith("repro-ckpt-")]

        gc.disable()
        try:
            trainer = DistributedTrainer(
                lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(rank)),
                self._engine(2), tiny_dataset, batch_per_rank=1, lr_patch=8,
                recovery=RESTART_FROM_CHECKPOINT,
            )
            trainer.train(steps=2)
            (directory,) = checkpoint_dirs()
            assert any(directory.iterdir())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                del trainer
            # freed by reference counting, with its checkpoints
            assert checkpoint_dirs() == []
        finally:
            gc.enable()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        model = EDSR(EDSR_TINY, rng=np.random.default_rng(3))
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(model, path, step=17)
        clone = EDSR(EDSR_TINY, rng=np.random.default_rng(99))
        step = load_checkpoint(clone, path)
        assert step == 17
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_missing_file_rejected(self, tmp_path):
        model = EDSR(EDSR_TINY)
        with pytest.raises(ConfigError):
            load_checkpoint(model, os.path.join(tmp_path, "nope.npz"))
