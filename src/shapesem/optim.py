"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor import Tensor

ADAM_EPS = 1e-8  # added to sqrt(v_hat) in the update's denominator


@dataclass
class AdamState:
    """First/second moment estimates and the step counter for one parameter.
    The moments share the parameter's memory layout (a conv kernel is
    tap-major behind its OIHW shape), so the update walks all of its arrays
    in one order."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, data: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(data, dtype=np.float32),
                   v=np.zeros_like(data, dtype=np.float32))


def adam_update(param: Tensor, grad: np.ndarray, state: AdamState,
                lr: float = 2e-4, beta1: float = 0.9,
                beta2: float = 0.999) -> None:
    """One in-place Adam step on ``param.data``; increments ``state.t``.

    ``state.m`` and ``state.v`` are updated in place and the step is built in
    two float32 buffers laid out like the parameter, so the update makes no
    other temporaries.  With Python-float hyperparameters the float32
    operations and their order are those of the textbook form
    ``param -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS)``, so the results are
    bitwise the same.
    """
    grad = np.asarray(grad, dtype=np.float32)
    if grad.shape != param.data.shape:
        raise DimensionError("grad shape %s != param shape %s"
                             % (grad.shape, param.data.shape))
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient; update refused")
    a = np.empty_like(param.data)
    b = np.empty_like(param.data)
    m, v = state.m, state.v
    state.t += 1
    np.multiply(m, beta1, out=m)  # m = beta1 * m + (1 - beta1) * g
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    np.multiply(v, beta2, out=v)  # v = beta2 * v + (1 - beta2) * g * g
    np.multiply(grad, 1.0 - beta2, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - beta1 ** state.t, out=a)  # m_hat
    np.divide(v, 1.0 - beta2 ** state.t, out=b)  # v_hat
    a *= lr
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    param.data -= a


class Adam:
    """Tracks AdamState per parameter; ``lr`` may be changed between steps."""

    def __init__(self, params, lr: float = 2e-4, beta1: float = 0.9,
                 beta2: float = 0.999):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.states = [AdamState.for_param(p.data) for p in self.params]

    def step(self):
        for p, s in zip(self.params, self.states):
            if p.grad is None:
                continue
            adam_update(p, p.grad, s, self.lr, self.beta1, self.beta2)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
