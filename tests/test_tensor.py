import io
import warnings

import numpy as np
import pytest

from shapesem import tensor as T
from shapesem.errors import DimensionError, GraphError, NumericalError
from shapesem.optim import AdamState, adam_update
from shapesem.serial import read_array, write_array
from shapesem.tensor import Tensor


def test_conv2d_scalar_kernel():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    k = Tensor(np.array([[[[2.0]]]], dtype=np.float32))
    out = T.conv2d(x, k, stride=1, pad=0)
    assert np.allclose(out.data, 2.0)
    assert out.shape == (1, 1, 2, 2)


def test_conv2d_sum_kernel():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    out = T.conv2d(x, k, stride=1, pad=0)
    assert out.data.reshape(-1)[0] == pytest.approx(10.0)


def test_conv2d_size_formula():
    x = Tensor(np.zeros((1, 1, 256, 256), dtype=np.float32))
    k = Tensor(np.zeros((3, 1, 4, 4), dtype=np.float32))
    out = T.conv2d(x, k, stride=2, pad=1)
    assert out.shape == (1, 3, 128, 128)


def test_conv2d_channel_mismatch():
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    k = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
    with pytest.raises(DimensionError):
        T.conv2d(x, k, 1, 0)


@pytest.mark.parametrize("op", [T.conv2d, T.conv2d_transpose])
def test_conv_rejects_unbatched_input(op):
    """A (C, H, W) input is refused: the convs take (N, C, H, W) only."""
    x = Tensor(np.ones((1, 4, 4), dtype=np.float32))
    k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(DimensionError, match=r"\(N, C, H, W\)"):
        op(x, k, 1, 0)


def test_conv2d_transpose_scatter():
    x = Tensor(np.array([[[[1.0]]]], dtype=np.float32))
    k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    out = T.conv2d_transpose(x, k, stride=2, pad=0)
    assert out.shape == (1, 1, 2, 2)
    assert np.allclose(out.data, 1.0)


def test_conv2d_transpose_size_formula():
    x = Tensor(np.zeros((1, 1, 128, 128), dtype=np.float32))
    k = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    out = T.conv2d_transpose(x, k, stride=2, pad=1)
    assert out.shape == (1, 2, 256, 256)


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 1)])
def test_conv_adjoint_identity(stride, pad):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    k = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)
    cx = T.conv2d(Tensor(x), Tensor(k), stride, pad).data
    y = rng.standard_normal(cx.shape).astype(np.float32)
    # kernels for the transpose direction: (Cin=4, Cout=3)
    ty = T.conv2d_transpose(Tensor(y), Tensor(k), stride, pad).data
    lhs = float(np.sum(cx.astype(np.float64) * y))
    rhs = float(np.sum(x.astype(np.float64) * ty))
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-5


def test_roundtrip_spatial_dims():
    rng = np.random.default_rng(1)
    for s in (4, 8, 16, 32, 64):
        x = Tensor(rng.standard_normal((1, 1, s, s)).astype(np.float32))
        k = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32))
        down = T.conv2d(x, k, stride=2, pad=1)
        assert down.shape == (1, 2, s // 2, s // 2)
        kt = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32))
        up = T.conv2d_transpose(down, kt, stride=2, pad=1)
        assert up.shape == (1, 1, s, s)


def test_activations_values():
    assert T.leaky_relu(Tensor([1.0]), 0.2).data[0] == pytest.approx(1.0)
    assert T.leaky_relu(Tensor([-1.0]), 0.2).data[0] == pytest.approx(-0.2)
    assert T.tanh(Tensor([0.0])).data[0] == pytest.approx(0.0)
    assert T.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_sigmoid_complement_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100).astype(np.float32)
    s = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
    assert np.allclose(s, 1.0, atol=1e-6)


def test_sigmoid_correctly_rounded_without_warnings():
    """Within half a float32 ulp of a float64 1/(1+exp(-x)) over a million
    values and the extremes, with no overflow, invalid value or other warning
    (underflow to 0 is the right result, and numpy ignores it by default)."""
    special = np.array([np.inf, -np.inf, 1e30, -1e30, 100, -100, 0, -0.0],
                       dtype=np.float32)
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-40, 40, 1 << 20).astype(np.float32),
                        special])
    with np.errstate(over="ignore"):
        ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                 divide="raise"):
        warnings.simplefilter("error")
        out = T.sigmoid(Tensor(x)).data
    assert out.dtype == np.float32
    # the ulp of the float32 interval that holds the reference
    low = ref.astype(np.float32)
    low = np.where(low > ref, np.nextafter(low, np.float32(0)), low)
    ulps = np.abs(out - ref) / np.spacing(low)
    # slack for the float64 rounding of both sides, far below one ulp
    assert ulps.max() <= 0.5 + 1e-6
    assert out[-len(special):].tolist() == [
        1.0, 0.0, 1.0, 0.0, 1.0, np.float32(np.exp(-100.0)), 0.5, 0.5]


def test_backward_linear_case():
    x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    w = Tensor(np.array([0.5, -1.0, 2.0], dtype=np.float32), requires_grad=True)
    loss = T.tsum(T.mul(w, Tensor(x)))
    loss.backward()
    assert np.allclose(w.grad, x)


def test_backward_requires_scalar():
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    out = T.mul(w, 2.0)
    with pytest.raises(GraphError):
        out.backward()


def test_backward_accumulates_over_reuse():
    w = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    loss = T.tsum(T.mul(w, 3.0) + T.mul(w, 5.0))
    loss.backward()
    assert w.grad[0] == pytest.approx(8.0)


def _numeric_grad(f, x, h=1e-3):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize("seed", range(20))
def test_finite_difference_composite(seed):
    # conv -> leaky_relu -> conv_transpose -> tanh/sigmoid mix -> L1 vs target
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32) * 0.5)
    k1 = Tensor(rng.standard_normal((3, 2, 4, 4)).astype(np.float32) * 0.3,
                requires_grad=True)
    k2 = Tensor(rng.standard_normal((3, 1, 4, 4)).astype(np.float32) * 0.3,
                requires_grad=True)
    target = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)

    def forward():
        h = T.leaky_relu(T.conv2d(x, k1, 2, 1), 0.2)
        y = T.tanh(T.conv2d_transpose(h, k2, 2, 1))
        return T.tmean(T.tabs(y - Tensor(target)))

    loss = forward()
    loss.backward()
    for p in (k1, k2):
        fd = _numeric_grad(lambda: float(forward().data), p.data)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(p.grad - fd) / denom) < 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_finite_difference_dense_path(seed):
    rng = np.random.default_rng(100 + seed)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2)).astype(np.float32) * 0.5,
               requires_grad=True)
    b = Tensor(rng.standard_normal(2).astype(np.float32) * 0.1,
               requires_grad=True)

    def forward():
        s = T.sigmoid(T.matmul(x, w) + b)
        return T.tmean(-T.log_clamped(s))

    forward().backward()
    for p in (w, b):
        fd = _numeric_grad(lambda: float(forward().data), p.data)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(p.grad - fd) / denom) < 1e-3


@pytest.mark.parametrize("x_shape, k_shape, stride, pad", [
    ((1, 2, 7, 7), (3, 2, 3, 3), 2, 1),
    ((1, 2, 6, 8), (2, 2, 4, 2), 2, 1),
], ids=["3x3_stride2", "4x2_stride2_h_ne_w"])
def test_conv2d_input_grad_finite_difference(x_shape, k_shape, stride, pad):
    """The gathered conv2d input gradient matches central differences on
    geometries whose kernel is not a multiple of the stride."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32),
               requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape).astype(np.float32) * 0.3)
    ho = (x_shape[2] + 2 * pad - k_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * pad - k_shape[3]) // stride + 1
    w = rng.standard_normal((1, k_shape[0], ho, wo)).astype(np.float32)

    def forward():
        return T.tmean(T.tanh(T.conv2d(x, k, stride, pad)) * Tensor(w))

    forward().backward()
    fd = _numeric_grad(lambda: float(forward().data), x.data)
    denom = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(x.grad - fd) / denom) < 1e-3


def test_batch_norm_finite_difference():
    rng = np.random.default_rng(7)
    from shapesem.nn import BatchNorm2d

    bn = BatchNorm2d(3)
    x = Tensor(rng.standard_normal((4, 3, 2, 2)).astype(np.float32),
               requires_grad=True)
    target = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)

    def forward():
        bn.running_mean[:] = 0
        bn.running_var[:] = 1
        return T.tmean(T.tabs(bn(x, 1.0) - Tensor(target)))

    forward().backward()
    for p in (x, bn.gamma, bn.beta):
        fd = _numeric_grad(lambda: float(forward().data), p.data)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(p.grad - fd) / denom) < 2e-3


def test_adam_zero_grad_keeps_param():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_param(p.data)
    adam_update(p, np.zeros(2), st, lr=0.1)
    assert st.t == 1
    assert np.allclose(p.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    lr = 0.01
    for g in (0.3, -4.0):
        p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        st = AdamState.for_param(p.data)
        adam_update(p, np.array([g]), st, lr=lr)
        assert p.data[0] == pytest.approx(-lr * np.sign(g), abs=lr * 1e-4)


def test_adam_rejects_nonfinite_grad():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_param(p.data)
    with pytest.raises(NumericalError):
        adam_update(p, np.array([np.nan]), st)
    assert p.data[0] == 1.0
    assert st.t == 0


def test_adam_nonfinite_grad_leaves_moments_untouched():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_param(p.data)
    adam_update(p, np.array([0.5, -1.0]), st, lr=0.1)
    before = (p.data.copy(), st.m.copy(), st.v.copy(), st.t)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError):
            adam_update(p, np.array([0.5, bad]), st, lr=0.1)
        assert np.array_equal(p.data, before[0])
        assert np.array_equal(st.m, before[1])
        assert np.array_equal(st.v, before[2])
        assert st.t == before[3]


def _allocating_adam_update(param, grad, state, lr, beta1=0.9, beta2=0.999,
                            eps=1e-8):
    """The textbook form with fresh temporaries, as a bitwise reference."""
    grad = np.asarray(grad, dtype=np.float32)
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    param.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(np.float32)


def test_adam_step_matches_textbook_update():
    """One Adam over parameters of different sizes gives the bytes of a
    per-call adam_update and of the textbook form with fresh temporaries,
    over five steps with a changing learning rate."""
    from shapesem.optim import Adam

    rng = np.random.default_rng(11)
    shapes = [(7, 3, 4, 4), (5,), (40, 9), (1,)]
    init = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads = [[rng.standard_normal(s).astype(np.float32) * 10.0 ** rng.integers(-6, 3)
              for s in shapes] for _ in range(5)]
    shared = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt = Adam(shared, lr=1e-3)
    alone = [Tensor(a.copy(), requires_grad=True) for a in init]
    alone_states = [AdamState.for_param(a) for a in init]
    textbook = [Tensor(a.copy(), requires_grad=True) for a in init]
    textbook_states = [AdamState.for_param(a) for a in init]
    for step, gs in enumerate(grads):
        lr = 1e-3 * (5 - step) / 5
        opt.lr = lr
        for p, g in zip(shared, gs):
            p.grad = g
        opt.step()
        for p, st, g in zip(alone, alone_states, gs):
            adam_update(p, g, st, lr=lr)
        for p, st, g in zip(textbook, textbook_states, gs):
            _allocating_adam_update(p, g, st, lr)
    for i in range(len(init)):
        for other, states in ((alone, alone_states), (textbook, textbook_states)):
            assert np.array_equal(shared[i].data, other[i].data)
            assert np.array_equal(opt.states[i].m, states[i].m)
            assert np.array_equal(opt.states[i].v, states[i].v)
            assert opt.states[i].t == states[i].t == 5


def _frozen_operand_case(op, shapes, frozen, monkeypatch):
    """Grads of op(a, b) with both operands trainable, and with ``frozen``
    (0 or 1) marked as not requiring grad; also whether the backward handed
    the frozen operand a gradient at all."""
    rng = np.random.default_rng(5)
    data = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    weights = None
    grads = []
    handed = []
    accum = Tensor.accum_grad

    def spy(self, g, own=False):
        handed.append(self)
        accum(self, g, own)

    monkeypatch.setattr(Tensor, "accum_grad", spy)
    for freeze in (None, frozen):
        ops = [Tensor(d, requires_grad=i != freeze) for i, d in enumerate(data)]
        out = op(*ops)
        if weights is None:
            weights = rng.standard_normal(out.shape).astype(np.float32)
        handed.clear()
        T.tsum(out * Tensor(weights)).backward()
        grads.append([t.grad for t in ops])
    return grads, any(t is ops[frozen] for t in handed)


@pytest.mark.parametrize("op, shapes", [
    pytest.param(lambda x, k: T.conv2d(x, k, 2, 1), [(2, 3, 8, 8), (4, 3, 4, 4)],
                 id="conv2d"),
    pytest.param(lambda x, k: T.conv2d(x, k, 1, 0), [(1, 3, 5, 5), (2, 3, 3, 3)],
                 id="conv2d_unbatched"),
    pytest.param(lambda x, k: T.conv2d_transpose(x, k, 2, 1),
                 [(2, 4, 4, 4), (4, 3, 4, 4)], id="conv2d_transpose"),
    pytest.param(lambda x, k: T.conv2d_transpose(x, k, 2, 1),
                 [(1, 4, 2, 2), (4, 3, 4, 4)], id="conv2d_transpose_unbatched"),
    pytest.param(T.matmul, [(6, 5), (5, 3)], id="matmul"),
])
@pytest.mark.parametrize("frozen", [0, 1], ids=["input_frozen", "weight_frozen"])
def test_frozen_operand_gets_no_grad(op, shapes, frozen, monkeypatch):
    """With one operand not requiring grad, the other operand's grad is the
    bitwise full-graph one, and the frozen operand's grad is neither
    computed nor stored."""
    (full, partial), computed = _frozen_operand_case(op, shapes, frozen,
                                                     monkeypatch)
    live = 1 - frozen
    assert not computed
    assert partial[frozen] is None
    assert full[frozen] is not None
    assert partial[live].dtype == np.float32
    assert np.array_equal(partial[live], full[live])


def test_tensor_serialization_roundtrip():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
    fh = io.BytesIO()
    write_array(fh, arr)
    fh.seek(0)
    back = read_array(fh)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    raw = fh.getvalue()
    assert raw[:4] == b"TSR1"


def test_serialization_header_layout():
    import struct

    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    fh = io.BytesIO()
    write_array(fh, arr)
    raw = fh.getvalue()
    rank = struct.unpack("<I", raw[4:8])[0]
    dims = struct.unpack("<2I", raw[8:16])
    assert rank == 2 and dims == (2, 3)
    assert np.frombuffer(raw[16:], dtype="<f4").tolist() == arr.reshape(-1).tolist()


@pytest.mark.parametrize("op, stride, pad", [
    (T.conv2d, 0, 1),
    (T.conv2d_transpose, 0, 1),
    (T.conv2d_transpose, 2, -1),
])
def test_bad_conv_geometry_rejected(op, stride, pad):
    x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    k = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(DimensionError, match="stride must be >= 1 and pad >= 0"):
        op(x, k, stride, pad)


# -- the einsum convolutions, kept as the reference the GEMM engine matches --

def _ref_im2col(x, kh, kw, stride, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return v[:, :, ::stride, ::stride, :, :]


def _ref_col2im(gcols, out_shape, stride, pad):
    n, c, ho, wo, kh, kw = gcols.shape
    _, _, h, w = out_shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + (ho - 1) * stride + 1 : stride,
               j : j + (wo - 1) * stride + 1 : stride] += gcols[:, :, :, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def _ref_conv2d(x, k, g, stride, pad):
    """(output, input gradient, kernel gradient) for upstream gradient g."""
    cols = _ref_im2col(x, k.shape[2], k.shape[3], stride, pad)
    out = np.einsum("nchwij,ocij->nohw", cols, k, optimize=True)
    gk = np.einsum("nohw,nchwij->ocij", g, cols, optimize=True)
    gcols = np.einsum("nohw,ocij->nchwij", g, k, optimize=True)
    return out, _ref_col2im(gcols.astype(np.float32), x.shape, stride, pad), gk


def _ref_conv2d_transpose(x, k, g, stride, pad):
    n, _, h, w = x.shape
    _, cout, kh, kw = k.shape
    out_shape = (n, cout, (h - 1) * stride - 2 * pad + kh,
                 (w - 1) * stride - 2 * pad + kw)
    gcols = np.einsum("nohw,ocij->nchwij", x, k, optimize=True)
    out = _ref_col2im(gcols.astype(np.float32), out_shape, stride, pad)
    cols = _ref_im2col(g, kh, kw, stride, pad)
    gx = np.einsum("nchwij,ocij->nohw", cols, k, optimize=True)
    gk = np.einsum("nohw,nchwij->ocij", x, cols, optimize=True)
    return out, gx, gk


def _gan_calls(name, key):
    """The distinct ``key(*args)`` of the calls to ``T.<name>`` in one G and
    D forward of the 32-pixel GAN at base_channels 8 and 16, with and
    without semantics, at batch 10."""
    from shapesem.gan import GanTrainConfig, build_discriminator, build_generator

    calls = []
    real = getattr(T, name)

    def spy(*args):
        calls.append(key(*args))
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, name, spy)
        for base in (8, 16):
            for sem in (0, 64):
                cfg = GanTrainConfig(resolution=32, base_channels=base,
                                     semantic_dim=sem)
                img = Tensor(np.zeros((10, 1, 32, 32), dtype=np.float32))
                s = Tensor(np.zeros((10, sem), dtype=np.float32)) if sem else None
                fake = build_generator(cfg).forward(img, s)
                build_discriminator(cfg).forward(img, fake)
    return list(dict.fromkeys(calls))


def _gan_conv_calls():
    """(op name, input shape, kernel shape, stride, pad) of every G and D
    level of the 32-pixel GAN at base_channels 8 and 16, batch 10."""
    return [call for name in ("conv2d", "conv2d_transpose")
            for call in _gan_calls(name, lambda x, k, stride=1, pad=0:
                                   (name, x.shape, k.shape, stride, pad))]


_TEST_GEOMETRIES = [
    ("conv2d", (10, 3, 5, 5), (4, 3, 1, 1), 1, 0),
    ("conv2d", (10, 3, 5, 5), (4, 3, 2, 2), 1, 0),
    ("conv2d", (10, 3, 5, 5), (4, 3, 3, 3), 1, 0),
    ("conv2d", (10, 3, 8, 8), (4, 3, 2, 2), 2, 0),
    ("conv2d", (10, 3, 8, 8), (4, 3, 4, 4), 2, 1),
    ("conv2d", (10, 3, 7, 7), (4, 3, 4, 4), 1, 1),
    # kernels that are not a multiple of the stride
    ("conv2d", (10, 3, 7, 7), (4, 3, 3, 3), 2, 1),
    ("conv2d", (10, 3, 9, 9), (4, 3, 5, 5), 2, 2),
    # stride 3, with a kernel a multiple of it and one that is not
    ("conv2d", (10, 3, 9, 9), (4, 3, 3, 3), 3, 0),
    ("conv2d", (10, 2, 11, 11), (3, 2, 4, 4), 3, 1),
    # kh != kw, at stride 1 and with a different tap count per axis at 2
    ("conv2d", (10, 3, 6, 7), (4, 3, 2, 3), 1, 0),
    ("conv2d", (10, 3, 8, 8), (4, 3, 4, 2), 2, 1),
    # H != W
    ("conv2d", (10, 3, 6, 10), (4, 3, 4, 4), 2, 1),
    # C = 1 and O = 1
    ("conv2d", (10, 1, 8, 8), (4, 1, 4, 4), 2, 1),
    ("conv2d", (10, 3, 7, 7), (1, 3, 3, 3), 2, 1),
    ("conv2d_transpose", (10, 4, 5, 5), (4, 3, 1, 1), 1, 0),
    ("conv2d_transpose", (10, 4, 5, 5), (4, 3, 3, 3), 1, 0),
    ("conv2d_transpose", (10, 4, 4, 4), (4, 3, 2, 2), 2, 0),
    ("conv2d_transpose", (10, 4, 4, 4), (4, 3, 4, 4), 2, 1),
    ("conv2d_transpose", (10, 4, 6, 6), (4, 3, 4, 4), 1, 1),
]


@pytest.mark.parametrize("batch", [10, 1], ids=["batch10", "batch1"])
def test_conv_matches_einsum_reference(batch):
    """Forward, input gradient and kernel gradient of both convs equal the
    einsum reference to 1e-5 of its largest magnitude, on every GAN level
    (the Cout=1 discriminator head among them) and the test geometries."""
    refs = {"conv2d": _ref_conv2d, "conv2d_transpose": _ref_conv2d_transpose}
    cases = _gan_conv_calls() + _TEST_GEOMETRIES
    assert any(k[0] == 1 and name == "conv2d" for name, _, k, _, _ in cases)
    rng = np.random.default_rng(17)
    for name, x_shape, k_shape, stride, pad in cases:
        xd = rng.standard_normal((batch,) + x_shape[1:]).astype(np.float32)
        k = rng.standard_normal(k_shape).astype(np.float32)
        x = Tensor(xd, requires_grad=True)
        kt = Tensor(k, requires_grad=True)
        out = getattr(T, name)(x, kt, stride, pad)
        g = rng.standard_normal(out.shape).astype(np.float32)
        T.tsum(out * Tensor(g)).backward()
        refs_got = refs[name](xd, k, g, stride, pad)
        for new, ref in zip((out.data, x.grad, kt.grad), refs_got):
            assert new.dtype == np.float32 and new.shape == ref.shape
            err = np.max(np.abs(new - ref))
            assert err <= 1e-5 * np.max(np.abs(ref)), (name, x_shape, k_shape, err)


# -- batch norm then np.where activations, the reference the fused node matches

def _ref_leaky_relu(a, slope):
    def bwd(g):
        a.accum_grad(np.where(a.data >= 0, g, np.float32(slope) * g))

    return T._make(np.where(a.data >= 0, a.data, np.float32(slope) * a.data),
                   (a,), bwd)


def _ref_batch_norm(x, gamma, beta, running_mean, running_var, training):
    """Batch norm with float64 moments over the NCHW view."""
    shape = (1, -1, 1, 1)
    gb = gamma.data.reshape(shape)
    if training:
        mu = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.data.var(axis=(0, 2, 3), dtype=np.float64)
        running_mean *= 1.0 - T.BN_MOMENTUM
        running_mean += T.BN_MOMENTUM * mu
        running_var *= 1.0 - T.BN_MOMENTUM
        running_var += T.BN_MOMENTUM * var
    else:
        mu, var = running_mean, running_var
    std = np.sqrt(var + T.BN_EPS).astype(np.float32).reshape(shape)
    xhat = ((x.data - mu.reshape(shape)) / std).astype(np.float32)
    nred = x.data.size // x.data.shape[1]

    def bwd(g):
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        beta.accum_grad(dbeta)
        gamma.accum_grad(dgamma)
        if training:
            gx = (gb / std / nred) * (nred * g - dbeta.reshape(shape)
                                      - xhat * dgamma.reshape(shape))
        else:
            gx = g * gb / std
        x.accum_grad(gx.astype(np.float32, copy=False))

    return T._make(gb * xhat + beta.data.reshape(shape), (x, gamma, beta), bwd)


@pytest.mark.parametrize("slope", [0.0, 0.2, 0.5, 1.0])
def test_activations_match_where_form_bitwise(slope):
    """max(x, s*x) and its float mask-factor gradient give the bytes of the
    np.where forms for finite x (at slope 0, 0 * inf is nan), signed zeros,
    subnormals and nan among the inputs."""
    rng = np.random.default_rng(31)
    tiny = np.float32(1e-45)
    x = np.concatenate([[0.0, -0.0, tiny, -tiny, np.nan],
                        rng.standard_normal(300)]).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    g[:3] = -0.0
    ops = [lambda t: T.leaky_relu(t, slope), lambda t: _ref_leaky_relu(t, slope)]
    if slope == 0.0:
        ops.append(T.relu)
    got = []
    for op in ops:
        t = Tensor(x, requires_grad=True)
        out = op(t)
        T.tsum(out * Tensor(g)).backward()
        got.append((out.data.tobytes(), t.grad.tobytes()))
        assert np.signbit(out.data[1]) and not np.signbit(out.data[0])
    assert all(pair == got[0] for pair in got)


@pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
def test_activation_slope_outside_unit_interval_rejected(slope):
    """max(x, s*x) is leaky relu only for 0 <= s <= 1."""
    x = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32))
    ones = Tensor(np.ones(2, dtype=np.float32))
    with pytest.raises(DimensionError):
        T.leaky_relu(x, slope)
    with pytest.raises(DimensionError):
        T.batch_norm(x, ones, ones, None, None, True, slope)


def _gan_norm_calls():
    """(input shape, slope) of every G and D norm of the 32-pixel GAN."""
    cases = _gan_calls("batch_norm", lambda x, gamma, beta, rm, rv, training,
                       slope: (x.shape, slope))
    assert {slope for _, slope in cases} == {0.0, 0.2}
    return cases


def _norm_inputs(rng, shape):
    """A conv-like channels-last input, an upstream gradient, and random
    scale, shift and running statistics for an (N, C, H, W) norm."""
    n, c, h, w = shape
    x = rng.standard_normal((n, h, w, c)).astype(np.float32) * 2 + 0.5
    return (x.transpose(0, 3, 1, 2), rng.standard_normal(shape).astype(np.float32),
            rng.uniform(0.5, 1.5, c).astype(np.float32),
            rng.normal(0.0, 0.3, c).astype(np.float32),
            rng.normal(0.0, 0.3, c).astype(np.float32),
            rng.uniform(0.5, 2.0, c).astype(np.float32))


def _norm_run(fused, x, g, gamma, beta, mean, var, training, slope):
    """Output, input/scale/shift gradients and running statistics of the
    fused node, or of the reference chain: the plain reference norm at
    slope 1, else that norm followed by the reference activation."""
    xt = Tensor(x, requires_grad=True)
    gt = Tensor(gamma, requires_grad=True)
    bt = Tensor(beta, requires_grad=True)
    stats = [mean.copy(), var.copy()]
    if fused:
        out = T.batch_norm(xt, gt, bt, *stats, training, slope)
    else:
        out = _ref_batch_norm(xt, gt, bt, *stats, training)
        if slope != 1.0:
            out = _ref_leaky_relu(out, slope)
    T.tsum(out * Tensor(g)).backward()
    return [out.data, xt.grad, gt.grad, bt.grad] + stats


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("batch", [10, 1], ids=["batch10", "batch1"])
def test_fused_norm_matches_chain(batch, training):
    """The fused node matches batch_norm -> np.where activation forward, in
    the stepped running statistics and in every gradient, to 1e-5 of the
    reference's largest magnitude, on every G and D norm level at
    base_channels 8 and 16, with its own slope and with slope 1, the plain
    norm."""
    rng = np.random.default_rng(23)
    for shape, slope in _gan_norm_calls():
        for s in (slope, 1.0):
            args = _norm_inputs(rng, (batch,) + shape[1:])
            new = _norm_run(True, *args, training, s)
            ref = _norm_run(False, *args, training, s)
            for a, b in zip(new, ref):
                assert a.dtype == np.float32 and a.shape == b.shape
                err = np.max(np.abs(a - b))
                assert err <= 1e-5 * np.max(np.abs(b)), (shape, s, err)


@pytest.mark.parametrize("slope", [1.0, 0.0, 0.2])
def test_fused_norm_finite_difference(slope):
    rng = np.random.default_rng(9)
    x, g, gamma, beta, _, _ = _norm_inputs(rng, (4, 3, 2, 2))
    # _numeric_grad perturbs through a flat view, so x must be contiguous
    params = [Tensor(np.ascontiguousarray(a), requires_grad=True)
              for a in (x, gamma, beta)]

    def forward():
        out = T.batch_norm(*params, None, None, True, slope)
        return T.tsum(out * Tensor(g))

    forward().backward()
    for p in params:
        fd = _numeric_grad(lambda: float(forward().data), p.data)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(p.grad - fd) / denom) < 2e-3


def test_parent_gradients_never_alias():
    """An op that hands its incoming gradient, or views of it, to its
    parents gives each parent its own array, and arrays an op allocates
    are owned by one tensor: every gradient is right and none share
    memory."""
    rng = np.random.default_rng(4)
    a, b = (Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32),
                   requires_grad=True) for _ in range(2))
    w = rng.standard_normal((2, 12, 4, 4)).astype(np.float32)
    nodes = [a, b, a + b, a - b]
    nodes.append(T.reshape(nodes[-1], (2, -1)))
    nodes += [T.reshape(nodes[-1], a.shape), a * b, T.leaky_relu(a, 1.0)]
    nodes.append(T.concat([nodes[2]] + nodes[5:], axis=1))
    T.tsum(nodes[-1] * Tensor(w)).backward()
    w1, w2, w3, w4 = np.split(w, 4, axis=1)
    assert np.allclose(a.grad, w1 + w2 + w3 * b.data + w4, atol=1e-6)
    assert np.allclose(b.grad, w1 - w2 + w3 * a.data, atol=1e-6)
    for i, t in enumerate(nodes):
        for u in nodes[i + 1:]:
            assert not np.may_share_memory(t.grad, u.grad)

    from shapesem.gan import (GanTrainConfig, build_discriminator,
                              build_generator, generator_loss)

    cfg = GanTrainConfig(resolution=16, base_channels=2, semantic_dim=3)
    gen, disc = build_generator(cfg), build_discriminator(cfg)
    x = Tensor(rng.random((2, 1, 16, 16)).astype(np.float32), requires_grad=True)
    sem = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    fake = gen.forward(x, sem)
    generator_loss(disc.forward(x, fake), fake, np.zeros(fake.shape), 1.0)[0].backward()
    grads = [p.grad for p in [x, sem] + gen.parameters() + disc.parameters()]
    for i, gi in enumerate(grads):
        assert gi is not None
        for gj in grads[i + 1:]:
            assert not np.may_share_memory(gi, gj)


_THREAD_PROBE = """
import hashlib
import numpy as np
from shapesem import tensor as T
from shapesem.tensor import Tensor
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for shape, slope, training in [((10, 16, 16, 16), 0.0, True),
                               ((10, 32, 8, 8), 0.2, True),
                               ((10, 16, 16, 16), 0.0, False)]:
    n, c, h, w = shape
    x = Tensor(rng.standard_normal((n, h, w, c)).astype(np.float32)
               .transpose(0, 3, 1, 2), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.normal(0, 0.3, c).astype(np.float32), requires_grad=True)
    stats = [np.zeros(c, np.float32), np.ones(c, np.float32)]
    out = T.batch_norm(x, gamma, beta, *stats, training, slope)
    g = rng.standard_normal(shape).astype(np.float32)
    T.tsum(out * Tensor(g)).backward()
    for a in [out.data, x.grad, gamma.grad, beta.grad] + stats:
        digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
"""


def test_fused_norm_bytes_do_not_depend_on_blas_threads():
    """A fused norm forward and backward at G level sizes gives the same
    bytes at one and two OpenBLAS threads: none of its sums go to BLAS."""
    import os
    import subprocess
    import sys

    import shapesem

    src = os.path.dirname(os.path.dirname(os.path.abspath(shapesem.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_CONV_GRAD_THREAD_PROBE = """
import hashlib
import numpy as np
from shapesem import tensor as T
from shapesem.gan import GanTrainConfig, conv_plan
from shapesem.tensor import Tensor
rng = np.random.default_rng(6)
digest = hashlib.sha256()
for base in (8, 16):
    plan = conv_plan(GanTrainConfig(resolution=32, base_channels=base))
    depth = (len(plan) - 4) // 2
    for rows in (plan[:depth], plan[-4:]):  # G's encoder, then D
        size = 32
        for cin, cout, _, k, stride, pad in rows:
            x = Tensor(rng.standard_normal((10, cin, size, size))
                       .astype(np.float32), requires_grad=True)
            kern = Tensor(rng.standard_normal((cout, cin, k, k))
                          .astype(np.float32))
            out = T.conv2d(x, kern, stride, pad)
            g = rng.standard_normal(out.shape).astype(np.float32)
            T.tsum(out * Tensor(g)).backward()
            digest.update(np.ascontiguousarray(x.grad).tobytes())
            size = out.shape[2]
print(digest.hexdigest())
"""


def test_conv2d_input_grad_bytes_do_not_depend_on_blas_threads():
    """The conv2d input gradient of every G and D level of the 32-pixel GAN,
    at base_channels 8 and 16, gives the same bytes at one and two OpenBLAS
    threads: its one GEMM sums each output in the same order."""
    import os
    import subprocess
    import sys

    import shapesem

    src = os.path.dirname(os.path.dirname(os.path.abspath(shapesem.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _CONV_GRAD_THREAD_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("transpose", [False, True], ids=["conv2d",
                                                          "conv2d_transpose"])
def test_conv_kernel_memory_is_tap_major(transpose):
    """A layer's kernel keeps its OIHW shape over tap-major memory; a conv
    on it gives the bytes of a conv on a C-ordered copy, its gradient comes
    back in its layout, and Adam keeps its moments in that layout too."""
    from shapesem.nn import Conv2d, ConvTranspose2d
    from shapesem.optim import Adam

    rng = np.random.default_rng(8)
    layer = (ConvTranspose2d if transpose else Conv2d)(3, 5, 4, 2, 1, rng)
    w = layer.w.data
    assert w.shape == ((3, 5, 4, 4) if transpose else (5, 3, 4, 4))
    assert w.transpose(0, 2, 3, 1).flags.c_contiguous
    op = T.conv2d_transpose if transpose else T.conv2d
    x = rng.standard_normal((2, 3, 4, 4) if transpose else (2, 3, 8, 8))
    g = None
    runs = []
    for kernel in (w, np.ascontiguousarray(w)):
        xt, kt = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
        out = op(xt, kt, 2, 1)
        if g is None:
            g = rng.standard_normal(out.shape).astype(np.float32)
        T.tsum(out * Tensor(g)).backward()
        assert kt.grad.shape == w.shape
        assert kt.grad.transpose(0, 2, 3, 1).flags.c_contiguous
        runs.append([np.ascontiguousarray(a).tobytes()
                     for a in (out.data, xt.grad, kt.grad)])
    assert runs[0] == runs[1]
    state = Adam([layer.w]).states[0]
    assert state.m.strides == state.v.strides == w.strides
