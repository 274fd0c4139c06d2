"""Tests for the data pipeline and IQA metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.dataset as dataset_module
from repro.data import (
    DegradationConfig,
    DistributedSampler,
    PatchLoader,
    SRDataset,
    SyntheticDiv2k,
    degrade,
    sample_patch_pair,
)
from repro.data.synthetic import TEST_SIZE, TRAIN_SIZE, VAL_SIZE
from repro.errors import DataError
from repro.metrics import psnr, ssim
from repro.models.bicubic import bicubic_upscale
from repro.utils.seeding import derive_seed

RNG = np.random.default_rng(11)


def _reference_smooth_noise(rng, h, w, grid):
    """One octave drawn and interpolated on its own (the per-channel loop
    ``SyntheticDiv2k.image`` replaces with one draw and stored taps)."""
    gh, gw = max(2, h // grid), max(2, w // grid)
    coarse = rng.random((gh, gw), dtype=np.float64)
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = coarse[y0][:, x0] * (1 - fx) + coarse[y0][:, x1] * fx
    bottom = coarse[y1][:, x0] * (1 - fx) + coarse[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy


def _reference_grids(h, w, octaves):
    """Coarse grid shape of each octave, in draw order."""
    grids = []
    for octave in range(octaves):
        grid = max(4, min(h, w) // (2**octave + 1))
        grids.append((max(2, h // grid), max(2, w // grid)))
    return grids


def _reference_octave_sums(rng, h, w, octaves):
    """Each channel's amplitude-weighted octave sum, and the amplitude total."""
    sums = []
    for _ in range(3):
        acc = np.zeros((h, w))
        amplitude, total = 1.0, 0.0
        for octave in range(octaves):
            grid = max(4, min(h, w) // (2**octave + 1))
            acc += amplitude * _reference_smooth_noise(rng, h, w, grid)
            total += amplitude
            amplitude *= 0.55
        sums.append(acc)
    return sums, total


def _reference_image(src, index):
    """``src.image(index)`` computed channel by channel, octave by octave."""
    rng = np.random.default_rng(derive_seed(src.seed, "image", index))
    h, w = src.height, src.width
    base_hue = rng.random(3) * 0.6 + 0.2
    sums, total = _reference_octave_sums(rng, h, w, src.octaves)
    img = np.stack([base_hue[c] * 0.5 + 0.5 * sums[c] / total for c in range(3)])
    gy, gx = rng.standard_normal(2) * 0.15
    yy = np.linspace(-0.5, 0.5, h)[:, None]
    xx = np.linspace(-0.5, 0.5, w)[None, :]
    img += gy * yy + gx * xx
    for _ in range(src.num_shapes):
        color = rng.random(3).reshape(3, 1, 1)
        if rng.random() < 0.5:
            y0, x0 = rng.integers(0, h - 4), rng.integers(0, w - 4)
            dy = int(rng.integers(3, max(4, h // 3)))
            dx = int(rng.integers(3, max(4, w // 3)))
            img[:, y0 : y0 + dy, x0 : x0 + dx] = (
                0.6 * img[:, y0 : y0 + dy, x0 : x0 + dx] + 0.4 * color
            )
        else:
            cy, cx = rng.integers(0, h), rng.integers(0, w)
            r = int(rng.integers(2, max(3, min(h, w) // 5)))
            mask = (yy * h - (cy - h / 2)) ** 2 + (xx * w - (cx - w / 2)) ** 2 <= r * r
            img[:, mask] = 0.6 * img[:, mask] + 0.4 * color.reshape(3, 1)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


#: (height, width, seed) of the reference grid; 96x96 is the default size
REFERENCE_SHAPES = [(32, 32, 7), (24, 24, 7), (48, 64, 2021), (8, 8, 1), (33, 57, 3), (96, 96, 2021)]


class TestSyntheticSource:
    def test_shape_range_dtype(self):
        src = SyntheticDiv2k(height=48, width=64)
        img = src.image(0)
        assert img.shape == (3, 48, 64)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_deterministic_per_index(self):
        a = SyntheticDiv2k(seed=5).image(3)
        b = SyntheticDiv2k(seed=5).image(3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_indices_and_seeds(self):
        src = SyntheticDiv2k(seed=5)
        assert not np.array_equal(src.image(0), src.image(1))
        assert not np.array_equal(src.image(0), SyntheticDiv2k(seed=6).image(0))

    def test_div2k_split_sizes(self):
        src = SyntheticDiv2k()
        assert len(list(src.train_indices())) == TRAIN_SIZE == 800
        assert len(list(src.val_indices())) == VAL_SIZE == 100
        assert len(list(src.test_indices())) == TEST_SIZE == 100
        assert len(src) == 1000

    def test_images_have_structure_not_white_noise(self):
        """Neighbouring pixels must correlate (photo-like statistics)."""
        img = SyntheticDiv2k(height=64, width=64).image(0)
        horizontal_diff = np.abs(np.diff(img, axis=2)).mean()
        assert horizontal_diff < 0.1  # white noise would be ~0.33

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            SyntheticDiv2k().image(1000)

    @pytest.mark.parametrize("num_shapes", [0, 6])
    @pytest.mark.parametrize("octaves", [1, 4, 6])
    @pytest.mark.parametrize("height,width,seed", REFERENCE_SHAPES)
    def test_image_equals_per_channel_reference(
        self, height, width, seed, octaves, num_shapes
    ):
        src = SyntheticDiv2k(
            height=height, width=width, seed=seed,
            octaves=octaves, num_shapes=num_shapes,
        )
        for index in (0, 1, 799, 800, 999):
            img = src.image(index)
            ref = _reference_image(src, index)
            assert img.dtype == ref.dtype
            assert np.array_equal(img, ref), (index, height, width, seed)

    @pytest.mark.parametrize("octaves", [1, 4, 6, 10])
    @pytest.mark.parametrize("height,width,seed", REFERENCE_SHAPES)
    def test_value_noise_equals_reference_in_float64(self, height, width, seed, octaves):
        """The float64 noise field, before the float32 cast rounds away any
        last-ulp difference.  numpy reduces eight or more contiguous terms
        pairwise, so 10 octaves would expose an ``np.sum`` over octaves."""
        src = SyntheticDiv2k(height=height, width=width, seed=seed, octaves=octaves)
        grids = _reference_grids(height, width, octaves)
        draws = 3 * sum(gh * gw for gh, gw in grids)
        coarse = np.random.default_rng(seed).random(draws).reshape(3, -1)
        sums, _ = _reference_octave_sums(
            np.random.default_rng(seed), height, width, octaves
        )
        assert np.array_equal(src._value_noise(coarse), np.stack(sums))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_one_draw_equals_sequential_octave_draws(self, seed):
        """PCG64 fills doubles in order: one ``random(3 * G)`` call equals
        the channel-major, octave-minor ``random((gh, gw))`` calls."""
        for height, width, _ in REFERENCE_SHAPES:
            for octaves in (1, 4, 6):
                grids = _reference_grids(height, width, octaves)
                total = sum(gh * gw for gh, gw in grids)
                sequential = np.random.default_rng(seed)
                expected = [
                    sequential.random((gh, gw), dtype=np.float64).ravel()
                    for _ in range(3)
                    for gh, gw in grids
                ]
                one = np.random.default_rng(seed).random(3 * total)
                assert np.array_equal(one, np.concatenate(expected))
                # the generators are left in the same state too
                assert sequential.random() == np.random.default_rng(seed).random(
                    3 * total + 1
                )[-1]


class TestDegradationAndPatches:
    def test_degrade_halves_resolution(self):
        hr = SyntheticDiv2k(height=32, width=32).image(0)
        lr = degrade(hr, DegradationConfig(scale=2))
        assert lr.shape == (3, 16, 16)

    def test_blur_and_noise_options(self):
        hr = SyntheticDiv2k(height=32, width=32).image(0)
        plain = degrade(hr, DegradationConfig(scale=2))
        noisy = degrade(
            hr, DegradationConfig(scale=2, blur_sigma=0.8, noise_sigma=0.02),
            rng=np.random.default_rng(0),
        )
        assert not np.array_equal(plain, noisy)
        assert noisy.min() >= 0 and noisy.max() <= 1

    def test_patch_pair_alignment(self):
        src = SyntheticDiv2k(height=40, width=40)
        hr = src.image(0)
        lr = degrade(hr, DegradationConfig(scale=2))
        lr_crop, hr_crop = sample_patch_pair(lr, hr, 8, 2, RNG)
        assert lr_crop.shape == (3, 8, 8)
        assert hr_crop.shape == (3, 16, 16)
        # the HR crop downsampled should resemble the LR crop
        from repro.models.bicubic import bicubic_downscale

        approx = bicubic_downscale(hr_crop, 2)
        assert np.abs(approx - lr_crop).mean() < 0.1

    def test_patch_too_large_rejected(self):
        hr = np.zeros((3, 16, 16), dtype=np.float32)
        lr = np.zeros((3, 8, 8), dtype=np.float32)
        with pytest.raises(DataError):
            sample_patch_pair(lr, hr, 12, 2, RNG)

    def test_misaligned_sizes_rejected(self):
        with pytest.raises(DataError):
            sample_patch_pair(
                np.zeros((3, 8, 8), dtype=np.float32),
                np.zeros((3, 17, 16), dtype=np.float32),
                4, 2, RNG,
            )


class TestDatasetSamplerLoader:
    def test_dataset_splits(self):
        src = SyntheticDiv2k(height=24, width=24)
        train = SRDataset(src, split="train")
        val = SRDataset(src, split="val")
        assert len(train) == 800 and len(val) == 100
        lr, hr = train[0]
        assert hr.shape == (3, 24, 24) and lr.shape == (3, 12, 12)

    def test_dataset_caching_returns_same_object(self):
        src = SyntheticDiv2k(height=16, width=16)
        ds = SRDataset(src, split="val", cache_size=4)
        assert ds[0] is ds[0]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_noisy_pairs_equal_per_item_generator(self, split):
        src = SyntheticDiv2k(height=16, width=16, seed=9)
        cfg = DegradationConfig(scale=2, blur_sigma=0.8, noise_sigma=0.05)
        ds = SRDataset(src, split=split, degradation=cfg, cache_size=0)
        for i in (0, 1, len(ds) - 1):
            index = ds.indices[i]
            hr = src.image(index)
            rng = np.random.default_rng(derive_seed(src.seed, "degrade", index))
            lr, got_hr = ds[i]
            np.testing.assert_array_equal(got_hr, hr)
            np.testing.assert_array_equal(lr, degrade(hr, cfg, rng=rng))

    def test_noiseless_items_derive_no_degrade_seed(self, monkeypatch):
        keys = []

        def recording(root, *path):
            keys.append(path)
            return derive_seed(root, *path)

        monkeypatch.setattr(dataset_module, "derive_seed", recording)
        src = SyntheticDiv2k(height=16, width=16)
        ds = SRDataset(src, degradation=DegradationConfig(scale=2, blur_sigma=0.8))
        for i in range(3):
            ds[i]
        assert keys == []

    def test_sampler_shards_are_disjoint_and_cover(self):
        n, ranks = 100, 4
        shards = [
            DistributedSampler(n, ranks, r, shuffle=True, seed=1).indices()
            for r in range(ranks)
        ]
        assert all(len(s) == 25 for s in shards)
        combined = sorted(i for s in shards for i in s)
        assert combined == list(range(100))

    def test_sampler_pads_by_wraparound(self):
        shards = [DistributedSampler(10, 4, r, shuffle=False).indices() for r in range(4)]
        assert all(len(s) == 3 for s in shards)  # ceil(10/4)

    def test_sampler_epoch_changes_order(self):
        s = DistributedSampler(50, 2, 0, seed=3)
        first = s.indices()
        s.set_epoch(1)
        assert s.indices() != first

    def test_loader_batch_shapes(self):
        src = SyntheticDiv2k(height=32, width=32)
        ds = SRDataset(src, split="train")
        loader = PatchLoader(ds, batch_size=4, lr_patch=8)
        batches = list(loader.batches(3))
        assert len(batches) == 3
        lr_batch, hr_batch = batches[0]
        assert lr_batch.shape == (4, 3, 8, 8)
        assert hr_batch.shape == (4, 3, 16, 16)
        assert lr_batch.dtype == np.float32

    def test_loader_rank_streams_differ(self):
        src = SyntheticDiv2k(height=32, width=32)
        ds = SRDataset(src, split="train")
        batches = []
        for rank in range(2):
            sampler = DistributedSampler(len(ds), 2, rank, seed=1)
            loader = PatchLoader(ds, batch_size=2, lr_patch=8, sampler=sampler, seed=1)
            batches.append(next(iter(loader.batches(1))))
        assert not np.array_equal(batches[0][0], batches[1][0])


class TestMetrics:
    def test_psnr_identical_is_inf(self):
        img = RNG.random((3, 16, 16))
        assert psnr(img, img) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((1, 8, 8))
        b = np.full((1, 8, 8), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-6)

    def test_psnr_monotone_in_noise(self):
        img = SyntheticDiv2k(height=32, width=32).image(0)
        small = img + RNG.normal(0, 0.01, img.shape)
        large = img + RNG.normal(0, 0.1, img.shape)
        assert psnr(small, img) > psnr(large, img)

    def test_ssim_identical_is_one(self):
        img = RNG.random((3, 16, 16))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_ssim_decreases_with_distortion(self):
        img = SyntheticDiv2k(height=32, width=32).image(0)
        noisy = np.clip(img + RNG.normal(0, 0.1, img.shape), 0, 1)
        assert ssim(noisy, img) < 0.98

    def test_ssim_bounded(self):
        a = RNG.random((3, 16, 16))
        b = RNG.random((3, 16, 16))
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_bicubic_beats_nearest_on_smooth_content(self):
        """Sanity anchor for the Fig-4-style comparison."""
        yy, xx = np.mgrid[0:32, 0:32] / 32.0
        hr = np.stack(
            [np.sin(4 * yy) * 0.4 + 0.5, np.cos(3 * xx) * 0.4 + 0.5, yy * xx]
        ).astype(np.float32)
        lr = degrade(hr, DegradationConfig(scale=2))
        bic = bicubic_upscale(lr, 2)
        nearest = np.repeat(np.repeat(lr, 2, axis=1), 2, axis=2)
        assert psnr(bic, hr) > psnr(nearest, hr)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 5, 5)))
        with pytest.raises(DataError):
            ssim(np.zeros((3, 16, 16)), np.zeros((3, 17, 17)))
