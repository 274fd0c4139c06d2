"""Gradient-compression configuration.

A compression mode is spelled as a short spec string so it can travel
through CLIs, study configs, and cache digests unchanged:

* ``"none"``       — dense fp32 allreduce (the default; byte-identical to
  the uncompressed engine path).
* ``"fp16"``       — cast gradients to IEEE half precision before the
  allreduce; 2 bytes/element on the wire.
* ``"bf16"``       — truncate the fp32 mantissa to bfloat16 (round to
  nearest even); 2 bytes/element on the wire, fp32 accumulation.
* ``"topk:<r>"``   — keep only the ``r`` fraction of largest-magnitude
  elements per tensor, with error feedback; the wire format becomes an
  allgather of (index, value) pairs.
* ``"local-sgd"`` cadence is *not* a compression spec — it is configured
  separately (``StudyConfig.local_sgd_h`` / ``DistributedTrainer``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

MODES = ("none", "fp16", "bf16", "topk")

#: Bytes per sparse element on the wire: int32 index + fp32 value.
TOPK_INDEX_BYTES = 4
TOPK_VALUE_BYTES = 4


@dataclass(frozen=True)
class CompressionConfig:
    """Parsed, validated compression selection."""

    mode: str = "none"
    topk_ratio: float = 0.01

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown compression mode {self.mode!r}; expected one of {MODES}"
            )
        if self.mode == "topk" and not (0.0 < self.topk_ratio <= 1.0):
            raise ConfigError(
                f"topk ratio must be in (0, 1], got {self.topk_ratio!r}"
            )

    @property
    def is_sparse(self) -> bool:
        return self.mode == "topk"

    def spec(self) -> str:
        """Canonical spec string (round-trips through :func:`parse`)."""
        if self.mode == "topk":
            return f"topk:{self.topk_ratio:g}"
        return self.mode

    @classmethod
    def parse(cls, spec: str) -> "CompressionConfig":
        """Parse a ``--compression`` spec string."""
        if not isinstance(spec, str):
            raise ConfigError(f"compression spec must be a string, got {spec!r}")
        text = spec.strip().lower()
        if text in ("", "none"):
            return cls(mode="none")
        if text in ("fp16", "bf16"):
            return cls(mode=text)
        if text.startswith("topk"):
            _, _, ratio_text = text.partition(":")
            if not ratio_text:
                return cls(mode="topk")
            try:
                ratio = float(ratio_text)
            except ValueError:
                raise ConfigError(
                    f"bad top-k ratio in compression spec {spec!r}"
                ) from None
            return cls(mode="topk", topk_ratio=ratio)
        raise ConfigError(
            f"unknown compression spec {spec!r}; expected "
            "none | fp16 | bf16 | topk:<ratio>"
        )
