"""The in-place kernels against the plain numpy expressions they replaced.

Each reference below is the expression the kernel used to evaluate, written
out step by step.  The kernels must match them bit for bit, at float32 and
float64, because training output is pinned bitwise.
"""

import numpy as np
import pytest

from colo import kernels
from colo import model as M
from colo import tensor as T

_C = 0.7978845608028654
_A = 0.044715

DTYPES = [np.float32, np.float64]
# odd widths exercise the SIMD tails, wide ones numpy's pairwise summation
SHAPES = [(3, 5), (37, 161), (8, 300)]
SHAPE_IDS = ["3x5", "37x161", "8x300"]


def _data(dtype, shape, seed, scale=3.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(dtype)


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def ref_softmax_fwd(x):
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def ref_softmax_bwd(gy, p):
    dot = (gy * p).sum(axis=1, keepdims=True)
    return p * (gy - dot)


def ref_gelu_fwd(x):
    u = _C * (x + _A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def ref_gelu_bwd(gy, x):
    u = _C * (x + _A * x * x * x)
    t = np.tanh(u)
    du = _C * (1.0 + 3.0 * _A * x * x)
    return gy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def ref_layer_norm_fwd(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * rstd
    out = xhat * gain + bias
    return out, xhat, rstd[:, 0]


def ref_xent(logits, targets, gnll):
    m = logits.max(axis=1, keepdims=True)
    sh = logits - m
    e = np.exp(sh)
    s = e.sum(axis=1, keepdims=True)
    probs = e / s
    rows = np.arange(logits.shape[0])
    nll = np.log(s[:, 0]) - sh[rows, targets]
    dx = probs * gnll[:, None]
    dx[rows, targets] -= gnll
    return nll, dx


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_softmax_matches_reference(dtype, shape):
    x = _data(dtype, shape, 1)
    x[:, -1] = dtype(M.ATTN_MASK_OFF)
    gy = _data(dtype, shape, 2)
    buf = x.copy()
    p = kernels.softmax_fwd(buf)
    assert p is buf
    _same(p, ref_softmax_fwd(x))
    _same(kernels.softmax_bwd(gy, p), ref_softmax_bwd(gy, p))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_gelu_matches_reference(dtype, shape):
    x = _data(dtype, shape, 3)
    gy = _data(dtype, shape, 4)
    _same(kernels.gelu_fwd(x), ref_gelu_fwd(x))
    _same(kernels.gelu_bwd(gy, x), ref_gelu_bwd(gy, x))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_layer_norm_fwd_matches_reference(dtype, shape):
    x = _data(dtype, shape, 5) + dtype(1.5)
    gain = _data(dtype, shape[1:], 6)
    bias = _data(dtype, shape[1:], 7)
    for got, want in zip(kernels.layer_norm_fwd(x, gain, bias, 1e-5), ref_layer_norm_fwd(x, gain, bias, 1e-5)):
        _same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_xent_matches_reference(dtype, shape):
    logits = _data(dtype, shape, 8)
    targets = np.random.default_rng(9).integers(0, shape[1], shape[0])
    gnll = _data(dtype, shape[:1], 10)
    want_nll, want_dx = ref_xent(logits, targets, gnll)
    nll, e, s = kernels.xent_fwd(logits, targets)
    _same(nll, want_nll)
    _same(kernels.xent_bwd(gnll, e, s, targets), want_dx)


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_probs_matches_scale_mask_softmax_chain(dtype):
    """The fused op against matmul(q, kᵀ) on the tape, then scale, mask and row softmax,
    with the softmax gradient times scale fed back through that matmul."""
    b, h, t, dh = 3, 2, 9, 8
    q = T.Tensor(_data(dtype, (b, h, t, dh), 11), requires_grad=True)
    k = T.Tensor(_data(dtype, (b, h, t, dh), 13), requires_grad=True)
    lengths = np.array([9, 5, 7])
    np_dtype = np.dtype(dtype)
    keys = np.arange(t)[None, :] < lengths[:, None]
    mask = M._causal_mask(t, np_dtype) + M._key_mask(keys, np_dtype)
    # the masks were built in float64 and cast per layer
    off = M.ATTN_MASK_OFF
    _same(mask, (np.triu(np.full((t, t), off), k=1)[None, None] + np.where(keys, 0.0, off)[:, None, None, :]).astype(dtype))
    scale = dtype(1.0 / np.sqrt(16))
    g = _data(dtype, (b, h, t, t), 12)

    def grads():
        out = q.grad, k.grad
        q.zero_grad()
        k.zero_grad()
        return out

    with T.Tape():
        scores = T.matmul(q, T.swapaxes(k, -1, -2))
        z = scores.data * scale + mask
        p = ref_softmax_fwd(z.reshape(-1, t)).reshape(z.shape)
        dscores = ref_softmax_bwd(g.reshape(-1, t), p.reshape(-1, t)).reshape(z.shape) * scale
        T.backward(T.sum_(T.mul(scores, T.Tensor(dscores))))
    dq, dk = grads()

    with T.Tape():
        probs = T.attention_probs(q, k, scale, mask)
        T.backward(T.sum_(T.mul(probs, T.Tensor(g))))
    _same(probs.data, p)
    for got, want in zip(grads(), (dq, dk)):
        _same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_dropout_mask_matches_two_pass_expression(dtype):
    rate, shape = 0.1, (4, 3, 17)
    x = T.Tensor(np.ones(shape, dtype=dtype))
    keep = (np.random.default_rng(13).random(shape) >= rate).astype(dtype) / (1.0 - rate)
    _same(M._dropout(x, rate, True, np.random.default_rng(13)).data, keep)
