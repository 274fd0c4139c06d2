"""SR dataset: HR source + degradation, with per-image caching."""

from __future__ import annotations

import numpy as np

from repro.data.degradation import DegradationConfig, degrade
from repro.data.synthetic import SyntheticDiv2k
from repro.errors import DataError
from repro.utils.seeding import derive_seed


class SRDataset:
    """Pairs (lr, hr) images over a chosen split of the synthetic source.

    The cache keeps the first ``cache_size`` pairs generated and never
    evicts; any later item is generated again on every access.
    """

    def __init__(
        self,
        source: SyntheticDiv2k,
        *,
        split: str = "train",
        degradation: DegradationConfig | None = None,
        cache_size: int = 64,
    ):
        splits = {
            "train": source.train_indices,
            "val": source.val_indices,
            "test": source.test_indices,
        }
        if split not in splits:
            raise DataError(f"unknown split {split!r}; use train/val/test")
        self.source = source
        self.split = split
        self.indices = list(splits[split]())
        self.degradation = degradation or DegradationConfig()
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cache_size = cache_size

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def scale(self) -> int:
        return self.degradation.scale

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (lr, hr) for the i-th item of this split."""
        if not 0 <= i < len(self):
            raise DataError(f"index {i} out of range for split of {len(self)}")
        cached = self._cache.get(i)
        if cached is not None:
            return cached
        image_index = self.indices[i]
        hr = self.source.image(image_index)
        rng = None
        if self.degradation.noise_sigma > 0:  # degrade draws only to add noise
            rng = np.random.default_rng(
                derive_seed(self.source.seed, "degrade", image_index)
            )
        lr = degrade(hr, self.degradation, rng=rng)
        pair = (lr, hr)
        if len(self._cache) < self._cache_size:
            self._cache[i] = pair
        return pair
