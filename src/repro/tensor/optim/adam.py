"""Adam (the optimizer EDSR trains with: beta1=0.9, beta2=0.999, eps=1e-8)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.tensor.nn.module import Parameter
from repro.tensor.optim.base import Optimizer


class Adam(Optimizer):
    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-4,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError(f"betas must be in [0,1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        key = id(param)
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            self._v[key] = np.zeros_like(param.data)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key], self._v[key] = m, v
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # -- state round-trip -------------------------------------------------------
    def _per_param_state(self) -> dict[str, list[np.ndarray]]:
        m, v, t = [], [], []
        for p in self.params:
            key = id(p)
            m.append(self._m.get(key, np.zeros_like(p.data)))
            v.append(self._v.get(key, np.zeros_like(p.data)))
            t.append(np.asarray(self._t.get(key, 0)))
        return {"m": m, "v": v, "t": t}

    def _load_per_param_state(self, per_param) -> None:
        m, v, t = per_param["m"], per_param["v"], per_param["t"]
        if not len(m) == len(v) == len(t) == len(self.params):
            raise ConfigError(
                f"Adam state for {len(m)} parameter(s) cannot restore into "
                f"an optimizer over {len(self.params)}"
            )
        for p, m_i, v_i, t_i in zip(self.params, m, v, t):
            if m_i.shape != p.data.shape:
                raise ConfigError(
                    f"Adam moment shape {m_i.shape} does not match parameter "
                    f"shape {p.data.shape}"
                )
            key = id(p)
            self._m[key] = np.array(m_i, dtype=p.data.dtype, copy=True)
            self._v[key] = np.array(v_i, dtype=p.data.dtype, copy=True)
            self._t[key] = int(t_i)
