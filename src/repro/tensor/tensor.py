"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a ``numpy`` array plus the closure needed to
propagate gradients to its parents.  The graph is built eagerly by the op
functions in :mod:`repro.tensor.ops`; ``backward()`` runs a topological
sweep accumulating ``.grad`` arrays.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

import numpy as np

from repro.errors import GradError, TensorError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / optimizer updates)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """An array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        _parents: tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        if isinstance(data, Tensor):
            raise TensorError("cannot wrap a Tensor in a Tensor")
        arr = np.asarray(data)
        if arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # -- constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32), requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.ones(shape, dtype=np.float32), requires_grad)

    # -- inspection ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.size * self.data.itemsize

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # -- autograd -----------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise GradError(
                f"gradient shape {grad.shape} != tensor shape {self.data.shape}"
                + (f" (tensor {self.name!r})" if self.name else "")
            )
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if not self.requires_grad:
            raise GradError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar (implemented in ops.basic; bound at import) -----------------
    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        label = f" {self.name!r}" if self.name else ""
        return f"<Tensor{label} shape={self.shape} dtype={self.dtype}{grad_flag}>"

    def __len__(self) -> int:
        return len(self.data)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def collect_parents(*tensors: Tensor) -> tuple[Tensor, ...]:
    """Parents tuple for a new graph node (empty if grad is globally off)."""
    if not _grad_enabled:
        return ()
    return tuple(t for t in tensors if t.requires_grad)


def result_requires_grad(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)
