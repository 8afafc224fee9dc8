"""Optimizers.  The paper trains everything with Adam [29]."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: holds parameters and clears their gradients."""

    def __init__(self, parameters: Sequence[Tensor]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # state snapshot / restore (loss-spike recovery rolls back through
    # these so a restored run continues with consistent moment estimates)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Deep-copied parameter values plus optimizer slot state."""
        return {"params": [param.data.copy() for param in self.parameters]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        for param, data in zip(self.parameters, state["params"]):
            param.data[...] = data


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self, parameters: Sequence[Tensor], lr: float = 0.01, momentum: float = 0.0
    ):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.lr * param.grad
            param.data += velocity

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        for slot, data in zip(self._velocity, state["velocity"]):
            slot[...] = data


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Two scratch buffers per parameter (lazily allocated on the
        # first step) keep the whole update allocation-free.
        self._scratch: list[tuple[np.ndarray, np.ndarray] | None] = [
            None for _ in self.parameters
        ]

    def step(self) -> None:
        """One in-place Adam update.

        Every intermediate lives in per-parameter scratch buffers, and
        each IEEE operation matches the textbook expression operand-for-
        operand (scalar·array products commute bitwise), so the result
        is bit-identical to the allocating formulation
        ``param -= lr * (m/bias1) / (sqrt(v/bias2) + eps)`` —
        ``tests/test_kernel_backend.py`` holds it to that.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, (param, m, v) in enumerate(
            zip(self.parameters, self._m, self._v)
        ):
            if param.grad is None:
                continue
            grad = param.grad
            scratch = self._scratch[index]
            if scratch is None:
                scratch = (np.empty_like(grad), np.empty_like(grad))
                self._scratch[index] = scratch
            s1, s2 = scratch
            if self.weight_decay:
                # grad + wd*param, without touching param.grad in place.
                np.multiply(param.data, self.weight_decay, out=s1)
                s1 += grad
                grad = s1.copy()
            # m = beta1*m + (1-beta1)*grad
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            m *= self.beta1
            m += s1
            # v = beta2*v + (1-beta2)*grad^2
            np.multiply(grad, grad, out=s1)
            s1 *= 1.0 - self.beta2
            v *= self.beta2
            v += s1
            # param -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(m, bias1, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 *= self.lr
            np.divide(s1, s2, out=s1)
            param.data -= s1

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        state["step_count"] = self._step_count
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        for slot, data in zip(self._m, state["m"]):
            slot[...] = data
        for slot, data in zip(self._v, state["v"]):
            slot[...] = data
        self._step_count = state["step_count"]
