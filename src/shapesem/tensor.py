"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors store float32 data (row-major numpy arrays) and an optional grad of
the same shape.  Every op records a closure that pushes the incoming gradient
into its parents; ``Tensor.backward`` walks the recorded graph in reverse
topological order.  Reductions accumulate in float64 before casting back.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, GraphError

LOG_EPS = 1e-7  # clamp for log() inside loss terms
# weight of each training batch in the running statistics: one step of
# 1 - 0.9**2 stands for the two steps of 0.1 that a generator forward per
# D and G step would take from the same batch
BN_MOMENTUM = 0.19
BN_EPS = 1e-5  # added to the variance before its square root


class Tensor:
    """Dense n-d float32 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def accum_grad(self, g: np.ndarray, own: bool = False):
        """Add ``g`` to the gradient.  ``own=True`` says ``g`` is a float32
        array the op has just allocated and passes nowhere else, so a first
        gradient takes it as it is; any other ``g`` (the incoming gradient
        itself, or a view of it) is copied."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g if own else np.array(g, dtype=np.float32, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar loss; consumes the recorded graph."""
        if self.data.size != 1:
            raise GraphError("backward() requires a scalar, got shape %s" % (self.shape,))
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # free the graph; leaf grads stay
        for node in topo:
            node._backward = None
            node._parents = ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast to reach g's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.astype(np.float32, copy=False)


# -- elementwise arithmetic ---------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.shape))
        b.accum_grad(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.shape))
        b.accum_grad(_unbroadcast(-g, b.shape), own=True)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        a.accum_grad(_unbroadcast(g * b.data, a.shape), own=True)
        b.accum_grad(_unbroadcast(g * a.data, b.shape), own=True)

    return _make(a.data * b.data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-d operands")

    def bwd(g):
        if a.requires_grad:
            a.accum_grad(g @ b.data.T, own=True)
        if b.requires_grad:
            b.accum_grad(a.data.T @ g, own=True)

    return _make(a.data @ b.data, (a, b), bwd)


def tabs(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        a.accum_grad(g * np.sign(a.data), own=True)

    return _make(np.abs(a.data), (a,), bwd)


def log_clamped(a) -> Tensor:
    """log(max(x, LOG_EPS)); gradient is zero on the clamped region."""
    a = _as_tensor(a)
    u = np.maximum(a.data, LOG_EPS)

    def bwd(g):
        a.accum_grad(np.where(a.data >= LOG_EPS, g / u, 0.0).astype(np.float32),
                     own=True)

    return _make(np.log(u), (a,), bwd)


# -- activations --------------------------------------------------------

def relu(a) -> Tensor:
    return leaky_relu(a, 0.0)


def _check_slope(slope):
    if not 0.0 <= slope <= 1.0:
        raise DimensionError("activation slope must lie in [0, 1], got %r"
                             % (slope,))
    return np.float32(slope)


def _slope_factor(pos, s):
    """The leaky-relu derivative as float32: 1 where ``pos``, else ``s``;
    (1 - s) + s rounds to exactly 1 in float32 for every s in [0, 1]."""
    f = pos.astype(np.float32)
    f *= 1 - s
    f += s
    return f


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """max(x, slope * x), which for a slope in [0, 1] and finite x is x where
    x >= 0 and slope * x elsewhere, -0.0 kept."""
    s = _check_slope(slope)
    a = _as_tensor(a)

    def bwd(g):
        f = _slope_factor(a.data >= 0, s)
        f *= g
        a.accum_grad(f, own=True)

    return _make(np.maximum(a.data, s * a.data), (a,), bwd)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        a.accum_grad(g * (1.0 - out * out), own=True)

    return _make(out, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(-np.abs(a.data, dtype=np.float64))
    out = (np.where(a.data >= 0, 1.0, e) / (1.0 + e)).astype(np.float32)

    def bwd(g):
        a.accum_grad(g * out * (1.0 - out), own=True)

    return _make(out, (a,), bwd)


# -- shape ops ----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def bwd(g):
        a.accum_grad(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t.accum_grad(g[tuple(idx)])

    return _make(np.concatenate([t.data for t in ts], axis=axis), ts, bwd)


# -- reductions (float64 accumulation) ----------------------------------

def tsum(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        a.accum_grad(np.full(a.shape, g.reshape(-1)[0], dtype=np.float32),
                     own=True)

    return _make(np.float32(a.data.sum(dtype=np.float64)), (a,), bwd)


def tmean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size

    def bwd(g):
        a.accum_grad(np.full(a.shape, g.reshape(-1)[0] / n, dtype=np.float32),
                     own=True)

    return _make(np.float32(a.data.mean(dtype=np.float64)), (a,), bwd)


# -- convolution --------------------------------------------------------
# Each conv is plain GEMMs over one im2col matrix (Chellapilla et al. 2006).
# Both _im2col and _col2im pad into a channels-last (N, H, W, C) buffer, and
# conv outputs are NCHW views of channels-last memory.  Windows are laid out
# tap-major, (i, j, c), so every window copy and every tap slab reads runs of
# C contiguous floats.  The kernel matrix is ``kernels`` in the same order,
# ``transpose(0, 2, 3, 1)``: a free view of a kernel stored tap-major behind
# its OIHW shape, as ``nn.Conv2d`` stores it, and a copy of any other.


def _check_stride_pad(stride, pad):
    if stride < 1 or pad < 0:
        raise DimensionError("stride must be >= 1 and pad >= 0, got %d and %d"
                             % (stride, pad))


def _check_conv_geom(h, w, kh, kw, stride, pad):
    """Refuse a geometry the windows do not tile; returns (Ho, Wo)."""
    _check_stride_pad(stride, pad)
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise DimensionError("input smaller than kernel after padding")
    if (h + 2 * pad - kh) % stride or (w + 2 * pad - kw) % stride:
        raise DimensionError("padded size minus kernel not divisible by stride")
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _check_operands(name, x, kernels, kin_axis):
    """DimensionError unless ``x`` is (N, C, H, W) and ``kernels`` 4-d with
    C channels on ``kin_axis``."""
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise DimensionError("%s expects (N, C, H, W) input and 4-d kernels"
                             % name)
    cin, kcin = x.shape[1], kernels.shape[kin_axis]
    if cin != kcin:
        raise DimensionError("input has %d channels, kernels expect %d" % (cin, kcin))


def _kernel_matrix(kernels):
    """The (kernels.shape[0], kh*kw*C) matrix of a 4-d kernel in tap-major
    column order."""
    return kernels.transpose(0, 2, 3, 1).reshape(kernels.shape[0], -1)


def _kernel_grad(mat, shape):
    """A kernel-matrix gradient as an OIHW-shaped view of its tap-major
    memory, the layout ``nn.Conv2d`` stores its kernels in."""
    o, c, kh, kw = shape
    return mat.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)


def _im2col(x, kh, kw, stride, pad):
    """Windows of the zero-padded (N,C,H,W) input as one C-ordered
    (N*Ho*Wo, kh*kw*C) matrix: rows in (n, y, x), columns in (i, j, c) order."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=np.float32)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw, c),
        (sn, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    return win.reshape(n * ho * wo, kh * kw * c)


def _col2im(kmat, g_rows, out_shape, kh, kw, stride, pad):
    """Adjoint of _im2col applied to ``g_rows @ kmat``: ``g_rows`` is the
    (N*Ho*Wo, O) matrix and ``kmat`` the (O, kh*kw*C) kernel matrix.  The
    one GEMM gives the window gradients in _im2col's layout, and each tap's
    (N, Ho, Wo, C) slab is added onto a zeroed, padded canvas.  Returns an
    (N, C, H, W) view."""
    n, c, h, w = out_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    gcols = (g_rows @ kmat).reshape(n, ho, wo, kh, kw, c)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + (ho - 1) * stride + 1 : stride,
               j : j + (wo - 1) * stride + 1 : stride] += gcols[:, :, :, i, j]
    return xp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _conv_input_grad(kernels, g, x_shape, stride, pad):
    """Input gradient of ``conv2d`` as a gather (the sub-pixel phase form of
    Shi et al. 2016; a full correlation with the flipped kernel at stride 1).

    With the kernel zero-padded to ``T*s x U*s`` taps, padded-input pixel
    ``(a*s + r, b*s + q)`` gathers the ``T x U`` gradient window ending at
    ``(a, b)`` against the taps ``(t*s + r, u*s + q)``, tap ``t`` meeting
    window row ``T-1-t``.  So one stride-1 im2col of the gradient, padded
    by ``P = max(T, U) - 1`` on every side, and one GEMM against the kernel
    regrouped as ``(window tap, o) x (phase, c)`` give every phase; one copy
    interleaves the s*s phases and a crop drops the padding.  Returns an
    (N, C, H, W) view."""
    n, c, h, w = x_shape
    o, _, kh, kw = kernels.shape
    s = stride
    t, u = -(-kh // s), -(-kw // s)
    p = max(t, u) - 1
    kp = np.zeros((o, t * s, u * s, c), dtype=np.float32)
    kp[:, :kh, :kw] = kernels.transpose(0, 2, 3, 1)
    kmat = (kp.reshape(o, t, s, u, s, c)[:, ::-1, :, ::-1]
            .transpose(1, 3, 0, 2, 4, 5).reshape(t * u * o, s * s * c))
    cols = _im2col(g, t, u, 1, p)
    a, b = g.shape[2] + 2 * p - t + 1, g.shape[3] + 2 * p - u + 1
    canvas = ((cols @ kmat).reshape(n, a, b, s, s, c).transpose(0, 1, 3, 2, 4, 5)
              .reshape(n, a * s, b * s, c))
    y0, x0 = pad + (p - t + 1) * s, pad + (p - u + 1) * s
    return canvas[:, y0 : y0 + h, x0 : x0 + w].transpose(0, 3, 1, 2)


def _rows(a):
    """(N, C, H, W) -> the (N*H*W, C) matrix."""
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def _nchw(mat, n, h, w):
    """The (N*H*W, C) matrix -> an (N, C, H, W) view."""
    return mat.reshape(n, h, w, -1).transpose(0, 3, 1, 2)


def conv2d(x, kernels, stride: int = 1, pad: int = 0) -> Tensor:
    """Strided cross-correlation.  Input (N,Cin,H,W); kernels
    (Cout,Cin,kh,kw).  Zero padding; no kernel flip."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    _check_operands("conv2d", x, kernels, 1)
    n, _, h, w = x.shape
    _, _, kh, kw = kernels.shape
    ho, wo = _check_conv_geom(h, w, kh, kw, stride, pad)
    kmat = _kernel_matrix(kernels.data)
    cols = _im2col(x.data, kh, kw, stride, pad)
    out = _nchw(cols @ kmat.T, n, ho, wo)
    if not kernels.requires_grad:
        cols = None  # only the kernel gradient reads the windows

    def bwd(g):
        g_rows = _rows(g)
        if kernels.requires_grad:
            kernels.accum_grad(_kernel_grad(g_rows.T @ cols, kernels.shape),
                               own=True)
        if x.requires_grad:
            x.accum_grad(_conv_input_grad(kernels.data, g, x.shape, stride, pad),
                         own=True)

    return _make(out, (x, kernels), bwd)


def conv2d_transpose(x, kernels, stride: int = 1, pad: int = 0) -> Tensor:
    """Transposed convolution, the exact adjoint of ``conv2d``.  Input
    (N,Cin,H,W); kernels (Cin,Cout,kh,kw)."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    _check_operands("conv2d_transpose", x, kernels, 0)
    n, _, h, w = x.shape
    _, cout, kh, kw = kernels.shape
    _check_stride_pad(stride, pad)
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (w - 1) * stride - 2 * pad + kw
    if ho <= 0 or wo <= 0:
        raise DimensionError("non-positive transposed-conv output size")
    kmat = _kernel_matrix(kernels.data)
    x_rows = _rows(x.data)
    out = _col2im(kmat, x_rows, (n, cout, ho, wo), kh, kw, stride, pad)

    def bwd(g):
        cols = _im2col(g, kh, kw, stride, pad)
        if x.requires_grad:
            x.accum_grad(_nchw(cols @ kmat.T, n, h, w), own=True)
        if kernels.requires_grad:
            kernels.accum_grad(_kernel_grad(x_rows.T @ cols, kernels.shape),
                               own=True)

    return _make(out, (x, kernels), bwd)


# -- batch normalization ------------------------------------------------

def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               slope) -> Tensor:
    """Per-channel normalization of an (N, C, H, W) input over (N, H, W),
    followed by ``leaky_relu(., slope)`` in the same node, which keeps a
    boolean mask for the activation's gradient; slope 1 is the plain norm.

    It works on the channels-last (N, H, W, C) view, which is free for a
    conv output.  The mean accumulates in float64, the variance and every
    reduction of the backward in float32 (``einsum``, no BLAS, so the sums
    do not depend on the thread count).  ``running_mean``/``running_var``
    are numpy arrays that training steps in place toward the batch moments
    by ``BN_MOMENTUM`` and eval mode uses verbatim; with both None the
    batch moments are used in either mode and nothing is stepped.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects (N, C, H, W) input")
    s = _check_slope(slope)
    xl = x.data.transpose(0, 2, 3, 1)
    nred = xl.size // xl.shape[-1]
    batch = training or running_mean is None
    if batch:
        mu = np.einsum("nhwc->c", xl, dtype=np.float64) / nred
        xhat = xl - mu.astype(np.float32)
        var = np.einsum("nhwc,nhwc->c", xhat, xhat) / np.float32(nred)
        if running_mean is not None:
            running_mean *= 1.0 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mu
            running_var *= 1.0 - BN_MOMENTUM
            running_var += BN_MOMENTUM * var
    else:
        xhat = xl - running_mean
        var = running_var
    std = np.sqrt(var + BN_EPS)
    xhat /= std
    out = xhat * gamma.data
    out += beta.data
    pos = out >= 0
    np.maximum(out, s * out, out=out)

    def bwd(g):
        gy = _slope_factor(pos, s)
        gy *= g.transpose(0, 2, 3, 1)
        dbeta = np.einsum("nhwc->c", gy)
        dgamma = np.einsum("nhwc,nhwc->c", gy, xhat)
        beta.accum_grad(dbeta, own=True)
        gamma.accum_grad(dgamma, own=True)
        if batch:  # the backward runs once, so xhat may be overwritten
            gy -= dbeta / nred
            gy -= np.multiply(xhat, dgamma / nred, out=xhat)
        gy *= gamma.data / std
        x.accum_grad(gy.transpose(0, 3, 1, 2), own=True)

    return _make(out.transpose(0, 3, 1, 2), (x, gamma, beta), bwd)
