"""Numeric kernels: the row reductions and elementwise updates behind the tape ops.

One numpy backend.  Callers look each kernel up as ``kernels.<name>`` at call
time, so a profiler can wrap these names from outside.
"""

import numpy as np


# ---------------------------------------------------------------------------
# layer norm


def layer_norm_fwd(x, gain, bias, eps):
    """Row-wise layer norm on a 2-D array.

    Returns (out, xhat, rstd); xhat and rstd are cached for the backward pass.
    """
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * rstd
    out = xhat * gain + bias
    return out.astype(x.dtype, copy=False), xhat.astype(x.dtype, copy=False), rstd[:, 0].astype(x.dtype, copy=False)


def layer_norm_bwd(gy, xhat, rstd, gain):
    gxhat = gy * gain
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    dx = rstd[:, None] * (gxhat - m1 - xhat * m2)
    dgain = (gy * xhat).sum(axis=0)
    dbias = gy.sum(axis=0)
    return dx.astype(xhat.dtype, copy=False), dgain, dbias


# ---------------------------------------------------------------------------
# softmax


def softmax_fwd(x):
    """Row softmax of a 2-D array, stabilized by the row max."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_bwd(gy, p):
    dot = (gy * p).sum(axis=1, keepdims=True)
    return p * (gy - dot)


# ---------------------------------------------------------------------------
# softmax cross entropy over rows


def xent_fwd(logits, targets):
    """Per-row negative log-likelihood with log-sum-exp stabilization.

    Returns (nll, probs); probs are cached for the backward pass.
    """
    m = logits.max(axis=1, keepdims=True)
    sh = logits - m
    e = np.exp(sh)
    s = e.sum(axis=1, keepdims=True)
    probs = e / s
    rows = np.arange(logits.shape[0])
    nll = np.log(s[:, 0]) - sh[rows, targets]
    return nll, probs


def xent_bwd(gnll, probs, targets):
    dx = probs * gnll[:, None]
    rows = np.arange(probs.shape[0])
    dx[rows, targets] -= gnll
    return dx


# ---------------------------------------------------------------------------
# gelu (tanh approximation)

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu_fwd(x):
    u = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_bwd(gy, x):
    u = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(u)
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return gy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


# ---------------------------------------------------------------------------
# Adam update (in place on flat float32/float64 views)


def adam_step(p, g, m, v, lr, beta1, beta2, eps, c1, c2):
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
