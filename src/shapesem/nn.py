"""Thin layer abstractions over the tensor engine.

Weight init is uniform in +-1/sqrt(fan_in), drawn from a caller-supplied
numpy Generator so whole networks are reproducible from one seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import numbers
import sys

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

# the most float32 parameters a network config may ask for (1 GiB); configs
# count theirs before anything is allocated
MAX_PARAMETERS = 2 ** 28


def check_fields(config, **least):
    """ConfigError unless each named field of the dataclass ``config`` holds
    a number of its declared kind, finite and at least its bound: an ``int``
    field takes no float or bool, a ``float`` field an int but no bool."""
    kinds = {f.name: f.type for f in dataclasses.fields(config)}
    for name, bound in least.items():
        value = getattr(config, name)
        integral = kinds[name] == "int"
        kind = numbers.Integral if integral else numbers.Real
        # compared exactly, so nan and an int beyond any float fail as well
        if (isinstance(value, bool) or not isinstance(value, kind)
                or not bound <= value <= sys.float_info.max):
            raise ConfigError("%s must be >= %s and %s, got %r" % (
                name, bound, "an integer" if integral else "a finite number",
                value))


def check_budget(config, n, unit, *sized_by):
    """ConfigError naming each ``sized_by`` field with its value when the
    ``n`` ``unit`` they give exceed MAX_PARAMETERS."""
    if n > MAX_PARAMETERS:
        raise ConfigError("%s give %d %s, above the budget of %d" % (
            ", ".join("%s %r" % (f, getattr(config, f)) for f in sized_by),
            n, unit, MAX_PARAMETERS))


class Layer:
    def state_arrays(self):
        """All arrays that define the layer (parameters + running stats)."""
        return [p.data for p in self.parameters()]


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = Tensor(_uniform(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(_uniform(rng, in_dim, (out_dim,)), requires_grad=True)

    def parameters(self):
        return [self.w, self.b]

    def __call__(self, x):
        return T.matmul(x, self.w) + self.b


class Conv2d(Layer):
    """A kernel ``w`` and a per-channel bias ``b``; ``bias=False`` leaves the
    bias out where a batch norm follows, whose mean subtraction cancels it.

    ``w`` has its (out, in, k, k) shape, or (in, out, k, k) for the
    transposed conv, but its memory is tap-major, ``w.transpose(0, 2, 3, 1)``
    contiguous, so the conv ops read it as their kernel matrix without a
    copy.  ``draw`` > ``k`` draws a ``draw`` x ``draw`` kernel at its fan-in
    and keeps the centre k x k taps."""

    transpose = False

    def __init__(self, in_ch: int, out_ch: int, k: int, stride: int, pad: int,
                 rng: np.random.Generator, bias: bool = True,
                 draw: int | None = None):
        d = draw or k
        shape = (in_ch, out_ch, d, d) if self.transpose else (out_ch, in_ch, d, d)
        lo = (d - k) // 2
        w = _uniform(rng, in_ch * d * d, shape)[:, :, lo : lo + k, lo : lo + k]
        w = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        self.w = Tensor(w, requires_grad=True)
        self.b = (Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)
                  if bias else None)
        self.stride, self.pad = stride, pad

    def parameters(self):
        return [self.w] if self.b is None else [self.w, self.b]

    def __call__(self, x):
        op = T.conv2d_transpose if self.transpose else T.conv2d
        out = op(x, self.w, self.stride, self.pad)
        return out if self.b is None else out + T.reshape(self.b, (1, -1, 1, 1))


class ConvTranspose2d(Conv2d):
    """The upsampling conv; its kernel is laid out (in, out, k, k)."""

    transpose = True


class BatchNorm2d(Layer):
    """Batch norm over (N, H, W) and ``leaky_relu`` of its slope in the same
    node: slope 0 is relu, 1 the plain norm.  ``running=False`` keeps no
    running statistics: such a norm always uses the batch moments, as a net
    that never runs in eval mode needs."""

    def __init__(self, ch: int, running: bool = True):
        self.gamma = Tensor(np.ones(ch, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(ch, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(ch, dtype=np.float32) if running else None
        self.running_var = np.ones(ch, dtype=np.float32) if running else None
        self.training = True

    def parameters(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        if self.running_mean is None:
            return [self.gamma.data, self.beta.data]
        return [self.gamma.data, self.beta.data, self.running_mean, self.running_var]

    def __call__(self, x, slope):
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, self.training, slope)


class Sequentialish:
    """Mixin for nets that expose a flat list of layers."""

    layers: list

    def parameters(self):
        out = []
        for lay in self.layers:
            out.extend(lay.parameters())
        return out

    def state_arrays(self):
        out = []
        for lay in self.layers:
            out.extend(lay.state_arrays())
        return out

    def set_training(self, flag: bool):
        for lay in self.layers:
            if isinstance(lay, BatchNorm2d):
                lay.training = flag

    @contextlib.contextmanager
    def frozen(self):
        """No parameter requires grad inside the block, so the net's ops
        record no backward graph and no gradient reaches its weights; the
        flags come back on exit, also when the block raises."""
        params = [p for p in self.parameters() if p.requires_grad]
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p in params:
                p.requires_grad = True
