"""Numeric kernels: the row reductions and elementwise updates behind the tape ops.

One numpy backend.  Callers look each kernel up as ``kernels.<name>`` at call
time, so a profiler can wrap these names from outside.

Kernels write into the arrays they allocate instead of building a temporary
per arithmetic step; a backward kernel may also overwrite the cache its
forward returned, which the tape hands it once.  Some kernels overwrite an
argument and return it, where the caller made that buffer for them alone:
:func:`softmax_fwd` its input (``tensor.attention`` hands it the score
buffer it has just made, so the probabilities take that buffer's place),
:func:`softmax_bwd` its gradient (the probabilities' gradient that
``tensor.attention``'s backward has just made) and :func:`gelu_bwd` its
pre-activation (which ``tensor.ffn``'s backward remakes), so gelu's output
takes that buffer's place.  None overwrites a gradient the tape hands to a
backward rule.  The order
and association of every floating-point operation is fixed (e.g.
``((A*x)*x)*x``), so each result is bitwise equal to the plain expression
it replaced; changing that order changes training output.
"""

import numpy as np


# ---------------------------------------------------------------------------
# layer norm


def layer_norm_fwd(x, gain, bias, eps):
    """Row-wise layer norm on a 2-D array.

    Returns (out, xhat, rstd); xhat and rstd are cached for the backward pass.
    Mean and variance are ``np.add.reduce(...) / d``, which is what
    ``np.mean`` and ``np.var`` compute.
    """
    d = x.shape[1]
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / d
    rstd = 1.0 / np.sqrt(var + eps)
    xhat *= rstd
    out = xhat * gain
    out += bias
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
    """Row softmax of a 2-D array, stabilized by the row max; overwrites and returns ``x``."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def softmax_bwd(gy, p):
    """Row softmax's input gradient from ``gy``, its output's, and the output ``p``; overwrites and returns ``gy``."""
    dot = (gy * p).sum(axis=1, keepdims=True)
    gy -= dot
    gy *= p
    return gy


# ---------------------------------------------------------------------------
# softmax cross entropy over rows


def xent_fwd(logits, targets):
    """Per-row negative log-likelihood with log-sum-exp stabilization.

    Returns (nll, e, s): the shifted exponentials and their row sums, from
    which :func:`xent_bwd` forms the softmax, so a pass without backward
    never divides.
    """
    e = logits - logits.max(axis=1, keepdims=True)
    picked = e[np.arange(logits.shape[0]), targets]
    np.exp(e, out=e)
    s = e.sum(axis=1, keepdims=True)
    nll = np.log(s[:, 0]) - picked
    return nll, e, s


def xent_bwd(gnll, e, s, targets):
    """Gradient of the nll rows; overwrites ``e``."""
    e /= s
    e *= gnll[:, None]
    e[np.arange(e.shape[0]), targets] -= gnll
    return e


# ---------------------------------------------------------------------------
# gelu (tanh approximation)

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(x):
    """tanh(C * (x + ((A*x)*x)*x)) as a fresh array."""
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu_fwd(x):
    out = 0.5 * x
    t = _gelu_tanh(x)
    t += 1.0
    out *= t
    return out


def gelu_bwd(x):
    """(gelu's derivative at ``x``, gelu(``x``)): the second remade from the tanh the first reads.

    Both are bitwise what the plain expressions give, the second equal to
    :func:`gelu_fwd`, so a caller may drop gelu's output after the forward.
    Overwrites ``x`` with gelu(``x``) and returns that buffer as the second.
    The caller multiplies the derivative by its incoming gradient in place,
    so that gradient need not exist while the derivative is formed.
    """
    t = _gelu_tanh(x)
    du = (3.0 * _GELU_A) * x
    du *= x
    du += 1.0
    du *= _GELU_C
    # 0.5*(1 + t) + ((0.5*x) * (1 - t*t)) * du, and gelu(x) = (0.5*x) * (1 + t)
    half_x = t * t
    np.subtract(1.0, half_x, out=half_x)
    x *= 0.5
    half_x *= x
    half_x *= du
    t += 1.0
    x *= t
    t *= 0.5
    t += half_x
    return t, x


# ---------------------------------------------------------------------------
# Adam update (in place on flat float32/float64 views)


def adam_step(p, g, m, v, lr, beta1, beta2, eps, c1, c2):
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
