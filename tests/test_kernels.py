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
    dx, out = kernels.gelu_bwd(gy, x)
    _same(dx, ref_gelu_bwd(gy, x))
    _same(out, ref_gelu_fwd(x))


def ref_ffn(x, w1, b1, w2, b2, g):
    """(out, dx, dw1, db1, dw2, db2) of the chain ``linear`` → gelu → ``linear`` over a
    batched (B, T, n) ``x``, as that chain's tape ops computed them; weight and
    bias gradients sum over the leading axes one at a time."""
    pre = np.matmul(x, w1) + b1
    hidden = ref_gelu_fwd(pre)
    out = np.matmul(hidden, w2) + b2
    gpre = ref_gelu_bwd(np.matmul(g, w2.T), pre)
    dw2 = np.matmul(np.swapaxes(hidden, -1, -2), g).sum(axis=0)
    dw1 = np.matmul(np.swapaxes(x, -1, -2), gpre).sum(axis=0)
    return out, np.matmul(gpre, w1.T), dw1, gpre.sum(axis=0).sum(axis=0), dw2, g.sum(axis=0).sum(axis=0)


@pytest.mark.parametrize("dtype", DTYPES)
def test_ffn_matches_numpy_chain(dtype):
    """The fused feed-forward op against the unfused chain, bit for bit, in value and in every gradient."""
    b, t, n, h, m = 3, 7, 16, 37, 16
    shapes = [(b, t, n), (n, h), (h,), (h, m), (m,)]
    leaves = [T.Tensor(_data(dtype, s, 20 + i, scale=0.5), requires_grad=True) for i, s in enumerate(shapes)]
    g = _data(dtype, (b, t, m), 19)
    want_out, *want_grads = ref_ffn(*(x.data for x in leaves), g)

    with T.Tape():
        out = T.ffn(*leaves)
        grads = T.backward(T.sum_(T.mul(out, T.Tensor(g))))
    _same(out.data, want_out)
    for x, want in zip(leaves, want_grads):
        _same(grads[x], want)


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


def _dropout_float_mask(keep, scale, dtype):
    """The float mask ``keep·scale`` in ``dtype``: kept entries are ``scale``, dropped ones 0."""
    return np.multiply(keep, scale, dtype=dtype)


def ref_attention(q, k, v, h, scale, mask, keep_f, g):
    """(out, dq, dk, dv) of the chain: split of (B, T, H·d) q, k and v into h heads
    → ``matmul(q, kᵀ)`` → scale → mask → row softmax → ``* keep_f`` → ``matmul(·, v)``
    → merge of the heads into (B, Tq, H·dv), as that chain's tape ops computed
    them; ``g`` is the merged output's gradient, and the gradients come back merged.

    Keys and values with a batch axis of 1 broadcast over q's rows; their
    gradients sum back over that axis.
    """

    def split(x):
        n, t, w = x.shape
        return x.reshape(n, t, h, w // h).swapaxes(1, 2)

    def merge(x):
        n, _, t, d = x.shape
        return x.swapaxes(1, 2).reshape(n, t, h * d)

    q, k, v = split(q), split(k), split(v)
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    shape, t = scores.shape, scores.shape[-1]
    z = scores * scale
    if mask is not None:
        z = z + mask
    p = ref_softmax_fwd(z.reshape(-1, t)).reshape(shape)
    pk = p if keep_f is None else p * keep_f
    heads = np.matmul(pk, v)
    out = merge(heads)
    g = split(g)

    def unbroadcast(x, like):
        return x.sum(axis=0, keepdims=True) if like.shape[0] == 1 and x.shape[0] != 1 else x

    gp = np.matmul(g, np.swapaxes(v, -1, -2))
    dv = unbroadcast(np.matmul(np.swapaxes(pk, -1, -2), g), v)
    if keep_f is not None:
        gp = gp * keep_f
    ds = ref_softmax_bwd(gp.reshape(-1, t), p.reshape(-1, t)).reshape(shape) * scale
    dq = np.matmul(ds, k)
    dk = np.swapaxes(unbroadcast(np.matmul(np.swapaxes(q, -1, -2), ds), np.swapaxes(k, -1, -2)), -1, -2)
    return out, merge(dq), merge(dk), merge(dv)


@pytest.mark.parametrize("broadcast", [False, True], ids=["rows", "kv_broadcast"])
@pytest.mark.parametrize("dropped", [False, True], ids=["no_keep", "keep"])
@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_matches_numpy_chain(dtype, masked, dropped, broadcast):
    """The fused op against the unfused chain, bit for bit, in the merged value and in the q, k and v gradients.

    ``broadcast`` gives keys and values one batch row for all of q's rows,
    as cached decoding's cross-attention does.
    """
    b, h, dh, dv = 3, 2, 8, 5
    tq, tk = (4, 9) if broadcast else (9, 9)
    kv_b = 1 if broadcast else b
    q = T.Tensor(_data(dtype, (b, tq, h * dh), 11), requires_grad=True)
    k = T.Tensor(_data(dtype, (kv_b, tk, h * dh), 13), requires_grad=True)
    v = T.Tensor(_data(dtype, (kv_b, tk, h * dv), 14), requires_grad=True)
    np_dtype = np.dtype(dtype)
    keys = np.arange(tk)[None, :] < np.array([9, 5, 7])[:, None]
    mask = None
    if masked and broadcast:
        mask = M.key_mask(keys, np_dtype)
    elif masked:
        mask = M.causal_mask(tk, np_dtype) + M.key_mask(keys, np_dtype)
        # the masks were built in float64 and cast per layer
        off = M.ATTN_MASK_OFF
        want = np.triu(np.full((tk, tk), off), k=1)[None, None] + np.where(keys, 0.0, off)[:, None, None, :]
        _same(mask, want.astype(dtype))
    keep = keep_scale = keep_f = None
    if dropped:
        keep = np.random.default_rng(15).random((b, h, tq, tk)) >= 0.1
        keep_scale = dtype(1.0) / dtype(0.9)
        keep_f = _dropout_float_mask(keep, keep_scale, dtype)
    scale = dtype(1.0 / np.sqrt(dh))
    g = _data(dtype, (b, tq, h * dv), 12)
    want_out, *want_grads = ref_attention(q.data, k.data, v.data, h, scale, mask, keep_f, g)

    with T.Tape():
        out = T.attention(q, k, v, h, mask, keep, keep_scale)
        grads = T.backward(T.sum_(T.mul(out, T.Tensor(g))))
    _same(out.data, want_out)
    for got, want in zip((grads[q], grads[k], grads[v]), want_grads):
        _same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_dropout_mask_matches_two_pass_expression(dtype):
    """The boolean mask is the float64 draw compared with the rate, and the model's feed-forward
    block over it gives the value and gradients of the product of ``T.ffn`` with the float mask ``keep·scale``."""
    rate, (b, t, n, h, m) = 0.1, (4, 3, 16, 17, 16)
    names, shapes = ("w1", "b1", "w2", "b2"), [(n, h), (h,), (h, m), (m,)]
    params = {
        f"f.{k}": T.Tensor(_data(dtype, s, 30 + i, scale=0.5), requires_grad=True)
        for i, (k, s) in enumerate(zip(names, shapes))
    }
    x = T.Tensor(_data(dtype, (b, t, n), 16), requires_grad=True)
    g = _data(dtype, (b, t, m), 17)
    keep = np.random.default_rng(13).random((b, t, m)) >= rate
    keep_f = (np.random.default_rng(13).random((b, t, m)) >= rate).astype(dtype) / (1.0 - rate)
    got_keep, scale = M._keep_mask((b, t, m), rate, np.random.default_rng(13), np.dtype(dtype))
    assert got_keep.dtype == np.bool_
    _same(got_keep, keep)
    _same(_dropout_float_mask(keep, scale, dtype), keep_f)
    cfg = M.ModelConfig(vocab_size=8, d_model=m, d_ff=h, dropout_rate=rate)
    leaves = [x] + list(params.values())
    want_out, *want_grads = ref_ffn(*(v.data for v in leaves), g * keep_f)
    with T.Tape():
        y = M._ffn(params, "f", x, cfg, np.random.default_rng(13))
        grads = T.backward(T.sum_(T.mul(y, T.Tensor(g))))
    _same(y.data, want_out * keep_f)
    for leaf, want in zip(leaves, want_grads):
        _same(grads[leaf], want)
