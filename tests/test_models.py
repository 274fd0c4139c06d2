"""Tests for models: EDSR/SRCNN/SRResNet/ResNet forward+backward, bicubic,
and consistency between real models and their analytic cost structures."""

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.hardware import V100_16GB
from repro.models import (
    EDSR,
    EDSR_BASELINE,
    EDSR_PAPER,
    EDSR_TINY,
    RESNET50,
    RESNET_TINY,
    EDSRConfig,
    ModelCostModel,
    ResNet,
    SRCNN,
    SRResNet,
    bicubic_upscale,
    get_model_cost,
    list_model_costs,
)
from repro.models.bicubic import _cubic_kernel, _taps, bicubic_downscale, bicubic_resize
from repro.models.costing import ThroughputModel, TrainingMemoryModel
from repro.tensor import Tensor, functional as F
from repro.utils.units import GIB, MIB

RNG = np.random.default_rng(3)


def _reference_resample_axis(image, out_size, axis):
    """One axis of ``bicubic_resize`` with its weights computed per call."""
    in_size = image.shape[axis]
    if in_size == out_size:
        return image
    scale = in_size / out_size
    centres = (np.arange(out_size) + 0.5) * scale - 0.5
    left = np.floor(centres).astype(int) - 1
    sample_idx = left[:, None] + np.arange(4)[None, :]
    weights = _cubic_kernel(centres[:, None] - sample_idx)
    weights = weights / weights.sum(axis=1, keepdims=True)
    sample_idx = np.clip(sample_idx, 0, in_size - 1)
    gathered = np.moveaxis(image, axis, 0)[sample_idx]
    result = np.einsum("of,of...->o...", weights.astype(image.dtype), gathered)
    return np.moveaxis(result, 0, axis)


class TestEDSR:
    def test_output_shape_scale2(self):
        model = EDSR(EDSR_TINY)
        x = Tensor(RNG.random((2, 3, 12, 12)).astype(np.float32))
        out = model(x)
        assert out.shape == (2, 3, 24, 24)

    def test_output_shape_scale3_and_4(self):
        for scale in (3, 4):
            cfg = EDSRConfig(name="t", n_resblocks=1, n_feats=4, scale=scale,
                             res_scale=1.0)
            model = EDSR(cfg)
            out = model(Tensor(RNG.random((1, 3, 8, 8)).astype(np.float32)))
            assert out.shape == (1, 3, 8 * scale, 8 * scale)

    def test_backward_reaches_every_parameter(self):
        model = EDSR(EDSR_TINY)
        x = Tensor(RNG.random((1, 3, 8, 8)).astype(np.float32))
        target = Tensor(RNG.random((1, 3, 16, 16)).astype(np.float32))
        loss = F.l1_loss(model(x), target)
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"
            assert np.isfinite(p.grad).all(), f"non-finite gradient for {name}"

    def test_training_step_reduces_loss(self):
        from repro.tensor.optim import Adam

        model = EDSR(EDSR_TINY, rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=1e-3)
        x = Tensor(RNG.random((2, 3, 8, 8)).astype(np.float32))
        target = Tensor(RNG.random((2, 3, 16, 16)).astype(np.float32) * 0.5 + 0.25)
        losses = []
        for _ in range(8):
            model.zero_grad()
            loss = F.mse_loss(model(x), target)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_upscale_inference_helper(self):
        model = EDSR(EDSR_TINY)
        img = RNG.random((3, 10, 10)).astype(np.float32)
        out = model.upscale(img)
        assert out.shape == (3, 20, 20)

    def test_residual_scaling_applied(self):
        cfg = EDSRConfig(name="t", n_resblocks=1, n_feats=4, res_scale=0.1)
        model = EDSR(cfg)
        assert model.body[0].res_scale == 0.1

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            EDSRConfig(name="bad", scale=5)


class TestBaselines:
    def test_srcnn_preserves_resolution(self):
        model = SRCNN(f1=8, f2=4)
        out = model(Tensor(RNG.random((1, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (1, 3, 16, 16)

    def test_srcnn_upscale_pipeline(self):
        model = SRCNN(f1=8, f2=4)
        out = model.upscale(RNG.random((3, 8, 8)).astype(np.float32), scale=2)
        assert out.shape == (3, 16, 16)

    def test_srresnet_shape_and_backward(self):
        model = SRResNet(n_resblocks=1, n_feats=4, scale=2)
        x = Tensor(RNG.random((1, 3, 8, 8)).astype(np.float32))
        out = model(x)
        assert out.shape == (1, 3, 16, 16)
        F.mse_loss(out, Tensor(np.zeros(out.shape, dtype=np.float32))).backward()
        assert model.head.weight.grad is not None

    def test_resnet_tiny_forward_backward(self):
        model = ResNet(RESNET_TINY)
        x = Tensor(RNG.random((2, 3, 32, 32)).astype(np.float32))
        logits = model(x)
        assert logits.shape == (2, 10)
        F.cross_entropy(logits, np.array([1, 3])).backward()
        assert model.stem.weight.grad is not None
        assert model.fc.weight.grad is not None


class TestBicubic:
    def test_upscale_shape(self):
        img = RNG.random((3, 7, 9)).astype(np.float32)
        assert bicubic_upscale(img, 2).shape == (3, 14, 18)

    def test_constant_image_preserved(self):
        img = np.full((3, 8, 8), 0.5, dtype=np.float32)
        out = bicubic_upscale(img, 2)
        np.testing.assert_allclose(out, 0.5, atol=1e-5)

    def test_downscale_then_upscale_approximates_identity_for_smooth(self):
        yy, xx = np.mgrid[0:16, 0:16] / 16.0
        img = np.stack([yy, xx, (yy + xx) / 2]).astype(np.float32)
        recovered = bicubic_upscale(bicubic_downscale(img, 2), 2)
        interior = (slice(None), slice(2, -2), slice(2, -2))
        assert np.abs(recovered[interior] - img[interior]).mean() < 0.02

    def test_identity_resize(self):
        img = RNG.random((3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(bicubic_resize(img, 8, 8), img)

    def test_non_divisible_downscale_rejected(self):
        with pytest.raises(DataError):
            bicubic_downscale(np.zeros((3, 9, 9), dtype=np.float32), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "in_hw,out_hw",
        [
            ((8, 8), (16, 16)),  # upscale
            ((32, 32), (16, 16)),  # downscale
            ((12, 12), (12, 12)),  # in == out
            ((7, 13), (21, 5)),  # non-square, up one axis and down the other
            ((32, 24), (16, 12)),  # non-square downscale
            ((5, 9), (5, 27)),  # one axis unchanged
        ],
    )
    def test_resize_equals_per_call_weights(self, in_hw, out_hw, dtype):
        for image in (
            RNG.random((3, *in_hw)).astype(dtype),
            RNG.random(in_hw).astype(dtype),
        ):
            for _ in range(2):  # the second call reads cached taps
                out = bicubic_resize(image, *out_hw)
                ref = image if image.ndim == 3 else image[None]
                ref = _reference_resample_axis(ref, out_hw[0], axis=1)
                ref = _reference_resample_axis(ref, out_hw[1], axis=2)
                ref = ref if image.ndim == 3 else ref[0]
                assert out.dtype == ref.dtype == dtype
                assert np.array_equal(out, ref)

    def test_cached_taps_are_read_only(self):
        sample_idx, weights = _taps(32, 16)
        assert _taps(32, 16)[0] is sample_idx
        with pytest.raises(ValueError):
            sample_idx[0, 0] = 5
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0


class TestCostModels:
    @pytest.mark.parametrize("config", [EDSR_TINY, EDSR_BASELINE])
    def test_edsr_cost_params_match_real_model(self, config):
        real = EDSR(config)
        cost = ModelCostModel.for_edsr(config)
        assert cost.total_params == real.num_parameters()

    def test_resnet_tiny_cost_params_match_real_model(self):
        real = ResNet(RESNET_TINY)
        cost = ModelCostModel.for_resnet(RESNET_TINY)
        # BatchNorm affine params exist only in the real model
        bn_params = sum(
            p.size for name, p in real.named_parameters() if "bn" in name or "_bn" in name
        )
        assert cost.total_params == real.num_parameters() - bn_params

    def test_paper_scale_edsr_magnitude(self):
        cost = get_model_cost("edsr-paper")
        assert 35e6 < cost.total_params < 50e6  # ~43M in the EDSR paper
        assert 150 * MIB < cost.gradient_bytes < 180 * MIB
        assert 150e9 < cost.flops_forward < 220e9

    def test_fig1_throughput_anchors(self):
        """Single-V100 anchors from the paper: EDSR ~10.3, ResNet-50 ~360."""
        edsr = ThroughputModel(get_model_cost("edsr-paper"), V100_16GB)
        resnet = ThroughputModel(get_model_cost("resnet-50"), V100_16GB)
        assert edsr.images_per_second(4) == pytest.approx(10.3, rel=0.1)
        assert resnet.images_per_second(32) == pytest.approx(360, rel=0.1)

    def test_throughput_saturates_with_batch(self):
        tm = ThroughputModel(get_model_cost("edsr-paper"), V100_16GB)
        rates = [tm.images_per_second(b) for b in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 2 * rates[0]  # saturating, not linear

    def test_gradient_schedule_totals_and_order(self):
        cost = get_model_cost("edsr-paper")
        sched = cost.gradient_schedule()
        assert sum(t.nbytes for t in sched) == cost.gradient_bytes
        fractions = [t.ready_fraction for t in sched]
        assert fractions == sorted(fractions)
        assert sched[0].name.startswith("tail")  # backward starts at the tail
        assert sched[-1].name.startswith("head")
        assert fractions[-1] == pytest.approx(1.0)

    def test_memory_model_oom_boundary(self):
        cost = get_model_cost("edsr-paper")
        mm = TrainingMemoryModel(cost)
        hbm = V100_16GB.memory_bytes
        assert mm.bytes_required(4) < 2 * GIB
        max_batch = mm.max_batch(hbm)
        assert 16 < max_batch < 200
        assert mm.bytes_required(max_batch) <= hbm
        assert mm.bytes_required(max_batch + 1) > hbm

    def test_registry(self):
        assert "edsr-paper" in list_model_costs()
        with pytest.raises(ConfigError):
            get_model_cost("nope")

    def test_resnet50_flops_magnitude(self):
        cost = get_model_cost("resnet-50")
        # ~4.1 GMAC = ~8.2 GFLOP forward at 224x224
        assert 7e9 < cost.flops_forward < 9.5e9
        assert 23e6 < cost.total_params < 27e6


class TestScaleVariantCosts:
    """Cost structures must match the real models at every upscale factor."""

    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_tiny_edsr_cost_matches_real_at_scale(self, scale):
        cfg = EDSRConfig(name=f"t{scale}", n_resblocks=2, n_feats=8,
                         scale=scale, res_scale=1.0)
        real = EDSR(cfg)
        cost = ModelCostModel.for_edsr(cfg)
        assert cost.total_params == real.num_parameters()

    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_output_resolution_scales_flops(self, scale):
        cfg = EDSRConfig(name=f"t{scale}", n_resblocks=2, n_feats=8,
                         scale=scale, res_scale=1.0)
        cost = ModelCostModel.for_edsr(cfg, patch=16)
        tail = next(l for l in cost.layers if l.name == "tail")
        # tail conv runs at the upscaled resolution
        assert tail.flops_forward == pytest.approx(
            2.0 * (16 * scale) ** 2 * 8 * 3 * 9
        )

    def test_patch_size_scales_cost_quadratically(self):
        small = ModelCostModel.for_edsr(EDSR_TINY, patch=16)
        large = ModelCostModel.for_edsr(EDSR_TINY, patch=32)
        assert large.flops_forward == pytest.approx(4 * small.flops_forward)
        assert large.total_params == small.total_params
