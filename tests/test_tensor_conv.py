"""Gradient and semantics tests for conv2d, pooling, padding, pixel shuffle."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, functional as F

RNG = np.random.default_rng(7)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = fn(x.astype(np.float32))
        flat_x[i] = orig - eps
        minus = fn(x.astype(np.float32))
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


class TestConv2d:
    def test_forward_matches_direct_convolution(self):
        x = RNG.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = RNG.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), padding=0).numpy()
        assert out.shape == (1, 3, 3, 3)
        # direct computation for one output element
        expected = (x[0, :, 1:4, 2:5] * w[1]).sum()
        assert out[0, 1, 1, 2] == pytest.approx(expected, rel=1e-4)

    def test_same_padding_preserves_spatial_dims(self):
        x = Tensor(RNG.standard_normal((2, 4, 8, 8)).astype(np.float32))
        w = Tensor(RNG.standard_normal((4, 4, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, padding=1)
        assert out.shape == (2, 4, 8, 8)

    def test_stride_reduces_output(self):
        x = Tensor(RNG.standard_normal((1, 1, 8, 8)).astype(np.float32))
        w = Tensor(RNG.standard_normal((1, 1, 2, 2)).astype(np.float32))
        out = F.conv2d(x, w, stride=2)
        assert out.shape == (1, 1, 4, 4)

    def test_weight_gradient_numerically(self):
        x = RNG.standard_normal((2, 2, 5, 5)).astype(np.float32)
        w0 = RNG.standard_normal((3, 2, 3, 3)).astype(np.float32)
        w = Tensor(w0, requires_grad=True)
        F.conv2d(Tensor(x), w, padding=1).sum().backward()

        def fn(wd):
            return F.conv2d(Tensor(x), Tensor(wd), padding=1).numpy().sum()

        expected = numeric_grad(fn, w0)
        np.testing.assert_allclose(w.grad, expected, atol=2e-2, rtol=2e-2)

    def test_input_gradient_numerically(self):
        x0 = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = RNG.standard_normal((2, 2, 3, 3)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        F.conv2d(x, Tensor(w), padding=1).sum().backward()

        def fn(xd):
            return F.conv2d(Tensor(xd), Tensor(w), padding=1).numpy().sum()

        expected = numeric_grad(fn, x0)
        np.testing.assert_allclose(x.grad, expected, atol=2e-2, rtol=2e-2)

    def test_bias_gradient(self):
        x = Tensor(RNG.standard_normal((2, 1, 4, 4)).astype(np.float32))
        w = Tensor(RNG.standard_normal((3, 1, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()
        np.testing.assert_allclose(b.grad, 2 * 4 * 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            F.conv2d(
                Tensor(np.ones((1, 3, 4, 4), dtype=np.float32)),
                Tensor(np.ones((1, 2, 3, 3), dtype=np.float32)),
            )

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            F.conv2d(
                Tensor(np.ones((1, 1, 2, 2), dtype=np.float32)),
                Tensor(np.ones((1, 1, 5, 5), dtype=np.float32)),
            )


class TestPixelShuffle:
    def test_rearrangement_semantics(self):
        # channel c*r^2 layout: out[y*r+dy, x*r+dx] = in[c*r^2 slot (dy*r+dx)]
        x = np.arange(1 * 4 * 2 * 2, dtype=np.float32).reshape(1, 4, 2, 2)
        out = F.pixel_shuffle(Tensor(x), 2).numpy()
        assert out.shape == (1, 1, 4, 4)
        assert out[0, 0, 0, 0] == x[0, 0, 0, 0]
        assert out[0, 0, 0, 1] == x[0, 1, 0, 0]
        assert out[0, 0, 1, 0] == x[0, 2, 0, 0]
        assert out[0, 0, 1, 1] == x[0, 3, 0, 0]

    def test_gradient_is_permutation(self):
        x0 = RNG.standard_normal((2, 8, 3, 3)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        weights = RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)
        (F.pixel_shuffle(x, 2) * Tensor(weights)).sum().backward()

        def fn(xd):
            return (F.pixel_shuffle(Tensor(xd), 2) * Tensor(weights)).numpy().sum()

        expected = numeric_grad(fn, x0)
        np.testing.assert_allclose(x.grad, expected, atol=1e-2)

    def test_bad_channel_count_rejected(self):
        with pytest.raises(ShapeError):
            F.pixel_shuffle(Tensor(np.ones((1, 3, 2, 2), dtype=np.float32)), 2)

    def test_roundtrip_with_inverse(self):
        x = RNG.standard_normal((1, 4, 3, 3)).astype(np.float32)
        up = F.pixel_shuffle(Tensor(x), 2).numpy()
        # inverse rearrangement
        recovered = (
            up.reshape(1, 1, 3, 2, 3, 2).transpose(0, 1, 3, 5, 2, 4).reshape(1, 4, 3, 3)
        )
        np.testing.assert_allclose(recovered, x)


class TestPoolingAndPad:
    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self):
        x0 = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_max_pool_forward_and_gradient(self):
        x0 = np.array(
            [[[[1, 2, 0, 1], [3, 4, 1, 0], [0, 1, 9, 2], [1, 0, 3, 4]]]],
            dtype=np.float32,
        )
        x = Tensor(x0, requires_grad=True)
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.numpy()[0, 0], [[4, 1], [1, 9]])
        out.sum().backward()
        assert x.grad[0, 0, 1, 1] == 1.0  # the 4
        assert x.grad[0, 0, 2, 2] == 1.0  # the 9
        assert x.grad.sum() == 4.0

    def test_max_pool_gradient_numerically(self):
        x0 = RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        weights = RNG.standard_normal((2, 2, 3, 3)).astype(np.float32)
        (F.max_pool2d(x, 2) * Tensor(weights)).sum().backward()

        def fn(xd):
            return (F.max_pool2d(Tensor(xd), 2) * Tensor(weights)).numpy().sum()

        expected = numeric_grad(fn, x0)
        np.testing.assert_allclose(x.grad, expected, atol=2e-2)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.numpy(), 1.0)

    def test_pad2d_forward_backward(self):
        x0 = RNG.standard_normal((1, 1, 3, 3)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        out = F.pad2d(x, 2)
        assert out.shape == (1, 1, 7, 7)
        np.testing.assert_allclose(out.numpy()[0, 0, :2, :], 0.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    @pytest.mark.parametrize("value", [0.0, 1.5, -2.0])
    @pytest.mark.parametrize("padding", [1, 2, 3])
    def test_pad2d_equals_np_pad(self, padding, value, dtype):
        data = (RNG.standard_normal((2, 3, 4, 6)) * 4).astype(dtype)
        out = F.pad2d(data, padding, value)
        x = Tensor(data)  # a float64 array arrives as float32, as in every Tensor
        p = padding
        ref = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=value)
        assert out.dtype == ref.dtype
        assert np.array_equal(out.numpy(), ref)

    @pytest.mark.parametrize("padding", [1, 3])
    def test_pad2d_backward_crops_the_gradient(self, padding):
        x = Tensor(RNG.standard_normal((2, 3, 4, 6)).astype(np.float32), requires_grad=True)
        out = F.pad2d(x, padding, -2.0)
        grad = RNG.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        p = padding
        np.testing.assert_array_equal(x.grad, grad[:, :, p:-p, p:-p])

    def test_pad_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        assert F.pad2d(x, 0) is x
