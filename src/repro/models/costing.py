"""Analytic cost structure of the models (FLOPs, memory, gradient schedule).

The paper-scale EDSR (~43 M parameters, ~185 GFLOP forward per 48x48 LR
patch) cannot be executed in numpy at simulation speed, so the performance
path works on the model's *cost structure*:

* per-layer forward FLOPs and activation bytes -> GPU step time and the
  Fig. 9 memory curve;
* per-parameter-tensor gradient sizes in backward order with readiness
  fractions -> the tensor stream Horovod's fusion packs into messages,
  which in turn produces the Table I / Fig. 14 message-size distribution.

Consistency between this analytic description and the real (tiny) models is
enforced by tests: ``ModelCostModel.for_edsr(EDSR_TINY).total_params`` must
equal ``EDSR(EDSR_TINY).num_parameters()`` exactly, and likewise per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.hardware.specs import GpuSpec
from repro.models.blocks import upsampler_stage_factors
from repro.models.edsr import EDSRConfig
from repro.models.resnet import Bottleneck, ResNetConfig


@dataclass(frozen=True)
class LayerCost:
    """One parameterized layer's contribution (per image)."""

    name: str
    params: int
    flops_forward: float
    activation_bytes: int
    bias_params: int = 0
    # Output channels (feature width).  Tensor parallelism shards a layer
    # along this dimension, so a layer is tp-shardable iff ``tp`` divides
    # ``cout``; 0 marks layers with no channel structure (never sharded).
    cout: int = 0

    @property
    def param_bytes(self) -> int:
        return self.params * 4  # fp32

    @property
    def weight_params(self) -> int:
        return self.params - self.bias_params


@dataclass(frozen=True)
class GradientTensor:
    """One gradient message produced during the backward pass.

    ``ready_fraction`` is the fraction of total backward compute completed
    when this tensor's gradient becomes available (backward visits layers
    in reverse; the tail's gradients are ready almost immediately, the
    head's last).
    """

    name: str
    nbytes: int
    ready_fraction: float


def _conv_cost(
    name: str, cin: int, cout: int, k: int, h: int, w: int, *, bias: bool = True
) -> LayerCost:
    params = cout * cin * k * k + (cout if bias else 0)
    flops = 2.0 * h * w * cin * cout * k * k
    act = h * w * cout * 4
    return LayerCost(
        name, params, flops, act, bias_params=cout if bias else 0, cout=cout
    )


def _linear_cost(name: str, cin: int, cout: int) -> LayerCost:
    return LayerCost(name, cin * cout + cout, 2.0 * cin * cout, cout * 4,
                     bias_params=cout, cout=cout)


def upsampler_plan(
    config: EDSRConfig, scale: int, h: int, w: int, *, prefix: str = ""
) -> tuple[list[LayerCost], int, int]:
    """Per-stage costs of one sub-pixel upsampler head, validated.

    Prices exactly the structure :class:`~repro.models.blocks.Upsampler`
    builds — one ``r^2 x``-channel conv plus pixel shuffle per stage — and
    raises a typed :class:`~repro.errors.ConfigError` for any factor
    outside the supported set (the old ``scale // 2`` loop silently
    mis-priced odd scales).  Returns the stage layers and the upscaled
    (h, w).
    """
    layers: list[LayerCost] = []
    k = config.kernel_size
    for i, r in enumerate(upsampler_stage_factors(scale)):
        layers.append(
            _conv_cost(
                f"{prefix}upsampler.conv{i}",
                config.n_feats, r * r * config.n_feats, k, h, w,
            )
        )
        h, w = h * r, w * r
    return layers, h, w


class ModelCostModel:
    """Cost structure plus throughput-model coefficients for one model.

    The layer list is frozen into a tuple and its totals are summed once,
    in layer order, at construction: step and latency pricing read them on
    every call, and an immutable model cannot change them afterwards.
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[LayerCost],
        *,
        peak_utilization: float,
        batch_half_point: float,
        kernels_per_layer: float = 3.0,
    ):
        if not layers:
            raise ConfigError("model must have at least one layer")
        if not 0 < peak_utilization <= 1:
            raise ConfigError(f"peak_utilization must be in (0,1], got {peak_utilization}")
        self.name = name
        self.layers = tuple(layers)
        self.peak_utilization = peak_utilization
        self.batch_half_point = batch_half_point
        self.kernels_per_layer = kernels_per_layer
        self._total_params = sum(l.params for l in self.layers)
        self._flops_forward = sum(l.flops_forward for l in self.layers)
        self._activation_bytes = sum(l.activation_bytes for l in self.layers)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def for_edsr(
        cls, config: EDSRConfig, *, patch: int = 48
    ) -> "ModelCostModel":
        """Cost structure of EDSR at the given LR patch size."""
        c = config
        h = w = patch
        k = c.kernel_size
        layers = [_conv_cost("head", c.n_colors, c.n_feats, k, h, w)]
        for b in range(c.n_resblocks):
            layers.append(_conv_cost(f"block{b}.conv1", c.n_feats, c.n_feats, k, h, w))
            layers.append(_conv_cost(f"block{b}.conv2", c.n_feats, c.n_feats, k, h, w))
        layers.append(_conv_cost("body_conv", c.n_feats, c.n_feats, k, h, w))
        head_layers, h, w = upsampler_plan(c, c.scale, h, w)
        layers.extend(head_layers)
        layers.append(_conv_cost("tail", c.n_feats, c.n_colors, k, h, w))
        # Wide 48x48 conv stacks fill the V100 well even at small batch;
        # coefficients calibrated so batch 4 reproduces the paper's 10.3 img/s.
        return cls(
            config.name, layers, peak_utilization=0.41, batch_half_point=0.4
        )

    @classmethod
    def for_edsr_multi(
        cls,
        config: EDSRConfig,
        scales: tuple[int, ...],
        *,
        patch: int = 48,
        recurrent: bool = False,
        name: str | None = None,
    ) -> "ModelCostModel":
        """Multi-scale (and optionally recurrent) EDSR cost structure.

        One shared trunk (head + residual body) feeds one sub-pixel
        upsampler head per requested scale — the heads' layers are
        prefixed ``x<scale>.`` so gradient tensors stay distinguishable in
        the fusion stream.  ``recurrent`` adds the temporal fusion conv
        (previous hidden state concatenated onto the trunk features, 2F ->
        F at LR resolution) that carries state between video frames; its
        activation is exactly the inter-frame hidden state, so the memory
        model prices the carried state automatically.

        Single-scale, non-recurrent, 48-patch calls reduce to the same
        trunk arithmetic as :meth:`for_edsr`; the degenerate workload spec
        routes through the registered :meth:`for_edsr` model unchanged.
        """
        if not scales:
            raise ConfigError("for_edsr_multi needs at least one scale")
        c = config
        h = w = patch
        k = c.kernel_size
        layers = [_conv_cost("head", c.n_colors, c.n_feats, k, h, w)]
        for b in range(c.n_resblocks):
            layers.append(_conv_cost(f"block{b}.conv1", c.n_feats, c.n_feats, k, h, w))
            layers.append(_conv_cost(f"block{b}.conv2", c.n_feats, c.n_feats, k, h, w))
        layers.append(_conv_cost("body_conv", c.n_feats, c.n_feats, k, h, w))
        if recurrent:
            layers.append(
                _conv_cost("temporal.fuse", 2 * c.n_feats, c.n_feats, k, h, w)
            )
        for scale in scales:
            head_layers, sh, sw = upsampler_plan(
                c, scale, h, w, prefix=f"x{scale}."
            )
            layers.extend(head_layers)
            layers.append(
                _conv_cost(f"x{scale}.tail", c.n_feats, c.n_colors, k, sh, sw)
            )
        return cls(
            name or config.name, layers,
            peak_utilization=0.41, batch_half_point=0.4,
        )

    @classmethod
    def for_resnet(cls, config: ResNetConfig) -> "ModelCostModel":
        """Cost structure of a bottleneck ResNet at its native image size."""
        size = config.image_size
        layers = [_conv_cost("stem", 3, config.stem_channels, 7, size // 2, size // 2)]
        h = w = size // 4  # stem stride 2 + maxpool stride 2
        cin = config.stem_channels
        for s, (width, count, stage_stride) in enumerate(config.stages):
            for b in range(count):
                stride = stage_stride if b == 0 else 1
                h_out, w_out = h // stride, w // stride
                cout = width * Bottleneck.expansion
                prefix = f"stage{s}.block{b}"
                layers.append(_conv_cost(f"{prefix}.conv1", cin, width, 1, h, w))
                layers.append(_conv_cost(f"{prefix}.conv2", width, width, 3, h_out, w_out))
                layers.append(_conv_cost(f"{prefix}.conv3", width, cout, 1, h_out, w_out))
                if stride != 1 or cin != cout:
                    layers.append(_conv_cost(f"{prefix}.proj", cin, cout, 1, h_out, w_out))
                cin = cout
                h, w = h_out, w_out
        layers.append(_linear_cost("fc", cin, config.num_classes))
        # cuDNN's Winograd kernels push 3x3-conv efficiency well above the
        # naive-FLOP utilization; calibrated so batch 32 gives the paper's
        # ~360 img/s on a V100 (Fig. 1).
        return cls(
            config.name, layers, peak_utilization=0.63, batch_half_point=4.0,
            kernels_per_layer=5.0,
        )

    # -- aggregates ------------------------------------------------------------------
    @property
    def total_params(self) -> int:
        return self._total_params

    @property
    def param_bytes(self) -> int:
        return self.total_params * 4

    @property
    def gradient_bytes(self) -> int:
        return self.param_bytes

    @property
    def flops_forward(self) -> float:
        """Per image."""
        return self._flops_forward

    @property
    def flops_backward(self) -> float:
        """Per image (standard 2x forward: grads wrt inputs and weights)."""
        return 2.0 * self.flops_forward

    @property
    def flops_train(self) -> float:
        return self.flops_forward + self.flops_backward

    @property
    def activation_bytes_per_image(self) -> int:
        return self._activation_bytes

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- gradient message schedule ------------------------------------------------------
    def gradient_schedule(self) -> list[GradientTensor]:
        """Per-tensor gradients in the order backward emits them.

        Weight and bias are distinct tensors (they are distinct allreduce
        requests in Horovod until fusion merges them).
        """
        total_back = self.flops_backward
        tensors: list[GradientTensor] = []
        done = 0.0
        for layer in reversed(self.layers):
            done += 2.0 * layer.flops_forward
            fraction = min(1.0, done / total_back)
            tensors.append(
                GradientTensor(f"{layer.name}.weight", layer.weight_params * 4, fraction)
            )
            if layer.bias_params:
                tensors.append(
                    GradientTensor(f"{layer.name}.bias", layer.bias_params * 4, fraction)
                )
        return tensors


class TrainingMemoryModel:
    """Device-memory footprint of training (drives Fig. 9's OOM edge)."""

    def __init__(
        self,
        cost: ModelCostModel,
        *,
        optimizer_state_bytes_per_param: int = 8,  # Adam: two fp32 moments
        workspace_factor: float = 0.15,
    ):
        self.cost = cost
        self.optimizer_state_bytes_per_param = optimizer_state_bytes_per_param
        #: im2col/GEMM workspace per image (two rotating column buffers), as
        #: a fraction of the image's activation bytes
        self.workspace_factor = workspace_factor

    def fixed_bytes(self) -> int:
        """Parameters + gradients + optimizer state (batch-independent)."""
        return (
            self.cost.param_bytes
            + self.cost.gradient_bytes
            + self.cost.total_params * self.optimizer_state_bytes_per_param
        )

    def per_image_bytes(self) -> int:
        act = self.cost.activation_bytes_per_image
        return int(act * (1.0 + self.workspace_factor))

    def bytes_required(self, batch: int) -> int:
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        return self.fixed_bytes() + batch * self.per_image_bytes()

    def max_batch(self, available_bytes: int) -> int:
        """Largest batch that fits in ``available_bytes`` (0 if none)."""
        spare = available_bytes - self.fixed_bytes()
        if spare < self.per_image_bytes():
            return 0
        return spare // self.per_image_bytes()


class ThroughputModel:
    """Maps (model cost, GPU, batch) to step time and images/second."""

    def __init__(self, cost: ModelCostModel, gpu: GpuSpec):
        self.cost = cost
        self.gpu = gpu

    def utilization(self, batch: int) -> float:
        """Saturating occupancy curve: small batches under-fill the SMs."""
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        u = self.cost.peak_utilization * batch / (batch + self.cost.batch_half_point)
        return u

    def step_time(self, batch: int) -> float:
        """One training iteration (forward + backward), seconds."""
        flops = self.cost.flops_train * batch
        effective = self.gpu.peak_fp32_flops * self.utilization(batch)
        launch = (
            self.cost.num_layers
            * self.cost.kernels_per_layer
            * self.gpu.kernel_launch_overhead_s
        )
        return flops / effective + launch

    def inference_time(self, batch: int) -> float:
        """One forward-only (serving) pass over ``batch`` images, seconds.

        No backward pass, and roughly a third of training's kernel count
        (no weight-gradient or input-gradient kernels).
        """
        flops = self.cost.flops_forward * batch
        effective = self.gpu.peak_fp32_flops * self.utilization(batch)
        launch = (
            self.cost.num_layers
            * self.cost.kernels_per_layer
            * self.gpu.kernel_launch_overhead_s
        ) / 3.0
        return flops / effective + launch

    def forward_time(self, batch: int) -> float:
        return self.step_time(batch) / 3.0

    def backward_time(self, batch: int) -> float:
        return self.step_time(batch) * 2.0 / 3.0

    def images_per_second(self, batch: int) -> float:
        return batch / self.step_time(batch)
