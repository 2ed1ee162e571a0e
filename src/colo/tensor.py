"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: operations executed inside a ``with Tape():`` block record
their backward rules onto the active tape; :func:`backward` consumes the tape
in reverse, sums the gradients of each tensor's uses and returns each
leaf's gradient in a dict.  An operand that does not require grad (a mask,
a scale) gets no gradient computed at all.
Tensors are float32 by default; pass ``dtype=np.float64`` at creation for
gradient-check precision.  Ops are plain functions (``add``, ``matmul``,
...), with no operator overloading; pooling and similarity take batched
operands only.  The tape stack is per-thread: a tape or a ``no_grad``
block entered in one thread neither records nor silences the ops another
thread runs, so the shards of a training step record side by side, over
the same leaves.

The tape links ops, not tensors.  A recorded op's output tensor points to
its :class:`_Op`, and each op points to what produced its operands: another
op for an intermediate, the tensor itself for a leaf (a parameter, or a
tensor created with ``requires_grad=True``), nothing for a constant.  An op
holds its backward rule, whose closure keeps only the shapes, dtypes, flags
and arrays that rule reads (``add`` keeps no array, ``matmul`` the other
operand, ``tanh`` its output), and, while backward runs, its output's
gradient.  So an activation no rule reads is freed as soon as the caller
drops its tensor, even while the tape is live.  Only leaves' gradients
outlive backward, in the dict it returns: each op popped in backward
releases its rule, its links and its gradient, whether or not its rule
ran, so a loss tensor kept past backward keeps no activation alive.  No
tensor is written to, so threads may run backward on tapes of their own
over the same leaves.

Gradient ownership: a backward rule never writes into its incoming
gradient, and may return it, or a view of it, as a contribution (``add``
hands the same array to both operands; ``sum_`` returns a read-only
broadcast view).  A rule runs at most once, so it may overwrite the
buffers it makes and what it alone holds (``attention`` overwrites its
probabilities).  So :func:`backward` keeps the first gradient
contribution of an op or a leaf by reference and sums later ones out of
place, never writing into a gradient array.  A leaf's gradient in the
returned dict may therefore be read-only or shared with another
gradient: a caller that scales one in place copies it first.

Some ops fuse a chain into one tape entry and compute exactly what the
chain computes, forward and backward: ``matmul`` (``x @ w + b`` over a 2-D
weight, the model's projections and, with no bias, its LM head), ``ffn``
(two such products with a gelu between them, then dropout: the
feed-forward block), ``attention`` (over the projections' (B, T, d)
outputs: the split into heads, the score product ``q @ kᵀ``, the 1/√dh
scale, additive mask and softmax, all in the one score buffer it
allocates, then dropout on the probabilities, the product with the
values and the merge of the heads) and ``cross_entropy_rows`` (over
logits of any leading shape).  Only ``attention`` knows the head layout.
Dropout happens only inside ``ffn`` and ``attention``, which hold the
boolean keep mask packed eight entries to a byte (:func:`_pack_mask`), not
a float one, and unpack it once in backward.  ``attention`` holds q, k, v
and the probabilities, and remakes the dropped probabilities in place of
the held ones once softmax's backward has read them.  ``ffn`` holds its
input and its weights and biases, nothing of the hidden width: backward
remakes the pre-activation ``x @ w1 + b1`` with the forward's own ops and
the hidden layer from it.  Both write their backward's scratch into the
buffers they make for it.  Where no tape records (no
tape is active, or a ``no_grad`` block is), an op returns right after its
forward without building its backward rule, and a float32/float64 result
is wrapped without conversion, so a no-grad pass over small arrays (one
decoding step) pays little per op beyond numpy itself.

Importing this module pins glibc's malloc thresholds (see
:func:`_pin_malloc_thresholds`), so the heap the activations live on stays
mapped from one training step to the next.
"""

import ctypes
import math
import threading
from contextlib import contextmanager

import numpy as np

from . import kernels

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# the largest mmap threshold glibc takes on 64-bit, where its own adaptive threshold stops
_MMAP_THRESHOLD_BYTES = 32 << 20


def _pin_malloc_thresholds():
    """Serve blocks under 32 MiB from the heap, and never trim the heap's free top.

    By default glibc raises its mmap threshold to the size of each large
    block freed and trims the heap's free top once it exceeds twice that.  A
    training step frees tens of MB of activations, so the next step's
    allocations fault their pages in again: thousands of minor faults and
    milliseconds of system time per step.  Fixing both thresholds turns that
    adaptation off.  Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, -1)  # -1: no trimming


_pin_malloc_thresholds()


class TensorError(Exception):
    """Base class for numeric-core errors."""


class ShapeError(TensorError):
    """Operand shapes are incompatible."""


class RankError(TensorError):
    """Operation requires a scalar (rank-0) tensor."""


class DegenerateVectorError(TensorError):
    """Cosine similarity received a zero-norm vector."""


class EmptyPoolError(TensorError):
    """Masked pooling received an all-false mask."""


class VocabularyError(TensorError):
    """A target token id lies outside the vocabulary."""


COSINE_EPS = 1e-8
LAYER_NORM_EPS = 1e-5
FINITE_DIFF_STEP = 1e-5


class _TapeStack(threading.local):
    """Each thread's stack of active tapes, innermost last; None marks a no_grad block."""

    def __init__(self):
        self.tapes = []


_STACK = _TapeStack()


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.ops = []

    @staticmethod
    def current():
        tapes = _STACK.tapes
        return tapes[-1] if tapes else None

    def __enter__(self):
        _STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _STACK.tapes.pop()
        assert popped is self
        return False


@contextmanager
def no_grad():
    """Suspend recording in this thread: ops inside run as plain numpy forward passes."""
    tapes = _STACK.tapes
    tapes.append(None)
    try:
        yield
    finally:
        tapes.pop()


class Tensor:
    """An array, whether it requires grad, and ``op``, the :class:`_Op` that
    produced it on a tape (None for leaves and constants)."""

    __slots__ = ("data", "requires_grad", "op")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = None

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _Op:
    """One recorded op: where its gradient goes, how to compute it, and what has arrived.

    ``inputs`` has one entry per operand: the producing ``_Op`` of an
    intermediate, the leaf :class:`Tensor` itself, or None for a constant.
    ``bwd`` maps the output's gradient to one contribution per operand (None
    where none is computed); its closure holds only what the rule reads.
    ``grad`` is the output's gradient, summed over its uses during
    :func:`backward`.  No op refers to its output tensor, so an activation
    lives on the tape only where a rule reads it.
    """

    __slots__ = ("inputs", "bwd", "grad")

    def __init__(self, inputs, bwd):
        self.inputs = inputs
        self.bwd = bwd
        self.grad = None


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _wrap(out_data):
    """A Tensor over an op's result: a float32/float64 ndarray as is, anything else through :class:`Tensor`."""
    if type(out_data) is np.ndarray and out_data.dtype in _FLOAT_DTYPES:
        out = Tensor.__new__(Tensor)
        out.data, out.requires_grad, out.op = out_data, False, None
        return out
    return Tensor(out_data)


def _untaped():
    """Whether no tape records ops in this thread (none is active, or a no_grad block is)."""
    tapes = _STACK.tapes
    return not tapes or tapes[-1] is None


def _make(out_data, inputs, bwd):
    """Wrap an op result and, where an input requires grad, record it on the active tape.

    Ops call it only when :func:`_untaped` is False, so a tape is active.
    """
    out = _wrap(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.op = _Op(tuple(t.op or (t if t.requires_grad else None) for t in inputs), bwd)
        _STACK.tapes[-1].ops.append(out.op)
    return out


def _summed(prev, g):
    """A gradient with contribution ``g`` added: ``g`` itself if it is the first, else
    ``prev + g`` out of place, cast back to ``prev``'s dtype (the values an in-place ``+=`` gives)."""
    return g if prev is None else (prev + g).astype(prev.dtype, copy=False)


def backward(loss):
    """``{leaf: gradient}`` for every leaf reachable from ``loss``, emptying the active tape.

    Pops the tape's ops in reverse recording order; gradients from multiple
    uses of the same tensor are summed by :func:`_summed`, for ops and
    leaves alike.  Each popped op lets go of its rule, its inputs and its
    gradient, whether or not its rule ran, so activations and gradients are
    freed while backward runs and nothing stays reachable from ``loss``
    afterwards.  No tensor is written to; a leaf root maps to a ones seed.

    A leaf's gradient may be an array that another gradient shares, or a
    read-only view (see "Gradient ownership" in the module docstring).  An
    intermediate made on a tape that an earlier ``backward`` consumed has
    lost its rule, so using it on this tape raises :class:`TensorError`
    rather than dropping its gradient.
    """
    if loss.data.ndim != 0:
        raise RankError(f"backward needs a scalar root, got shape {loss.shape}")
    tape = Tape.current()
    if tape is None:
        raise TensorError("backward called with no active tape")
    seed = np.ones((), dtype=loss.dtype)
    grads = {}
    if loss.op is not None:
        loss.op.grad = seed
    elif loss.requires_grad:
        grads[loss] = seed
    ops = tape.ops
    while ops:
        op = ops.pop()
        g, bwd, inputs = op.grad, op.bwd, op.inputs
        op.grad = op.bwd = op.inputs = None
        if g is None:
            continue
        for src, gc in zip(inputs, bwd(g)):
            if gc is None or src is None:
                continue
            if type(src) is Tensor:
                grads[src] = _summed(grads.get(src), gc)
            elif src.bwd is None:  # an input's op is recorded before its users, so it is still on this tape
                raise TensorError("an op's input was made on a tape that backward has already consumed")
            else:
                src.grad = _summed(src.grad, gc)
    return grads


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


# Binary ops compute a contribution only for operands that require grad and
# return None for the others (dropout masks, additive masks, scales).  Each
# rule's closure captures shapes, dtypes and flags, never a Tensor, and an
# operand's array only where the other operand's gradient reads it.  Every
# op returns before building its rule when no tape records.


def add(a, b):
    out = a.data + b.data
    if _untaped():
        return _wrap(out)
    sa, sb, ra, rb = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, sa) if ra else None, _unbroadcast(g, sb) if rb else None)

    return _make(out, (a, b), bwd)


def sub(a, b):
    out = a.data - b.data
    if _untaped():
        return _wrap(out)
    sa, sb, ra, rb = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, sa) if ra else None, _unbroadcast(-g, sb) if rb else None)

    return _make(out, (a, b), bwd)


def mul(a, b):
    ad, bd = a.data, b.data
    out = ad * bd
    if _untaped():
        return _wrap(out)
    sa, sb = ad.shape, bd.shape
    # a's gradient reads b and b's reads a: hold an operand only for a gradient that is computed
    rhs, lhs = (bd if a.requires_grad else None), (ad if b.requires_grad else None)

    def bwd(g):
        return (
            None if rhs is None else _unbroadcast(g * rhs, sa),
            None if lhs is None else _unbroadcast(g * lhs, sb),
        )

    return _make(out, (a, b), bwd)


def div(a, b):
    bd = b.data
    out = a.data / bd
    if _untaped():
        return _wrap(out)
    sa, sb, ra = a.data.shape, bd.shape, a.requires_grad
    quotient = out if b.requires_grad else None  # only b's gradient reads the output

    def bwd(g):
        return (
            _unbroadcast(g / bd, sa) if ra else None,
            None if quotient is None else _unbroadcast(-g * quotient / bd, sb),
        )

    return _make(out, (a, b), bwd)


def sqrt(a):
    out = np.sqrt(a.data)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), bwd)


def tanh(a):
    out = np.tanh(a.data)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bwd)


def relu(a):
    x = a.data
    out = np.maximum(x, 0.0)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        return (g * (x > 0.0),)

    return _make(out, (a,), bwd)


def _keep_scaled(x, keep, scale, out=None):
    """``x * keep * scale`` for a boolean ``keep``, into ``out`` (which may be ``x``) or a new array:
    bit for bit ``x`` times the float mask ``keep·scale``."""
    out = np.multiply(x, keep, out=out)
    out *= scale
    return out


def _pack_mask(keep):
    """A boolean mask as a backward rule holds it: (its entries packed eight to a byte, its shape)."""
    return np.packbits(keep, axis=None), keep.shape


def _unpack_mask(bits, shape):
    """The boolean mask :func:`_pack_mask` packed into ``bits``."""
    return np.unpackbits(bits, count=math.prod(shape)).view(np.bool_).reshape(shape)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    out = a.data.reshape(shape)
    if _untaped():
        return _wrap(out)
    sa = a.data.shape

    def bwd(g):
        return (g.reshape(sa),)

    return _make(out, (a,), bwd)


def swapaxes(a, ax1, ax2):
    out = np.swapaxes(a.data, ax1, ax2)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out, (a,), bwd)


def sum_(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if _untaped():
        return _wrap(out)
    sa, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, sa).astype(dtype, copy=False),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, sa).astype(dtype, copy=False),)

    return _make(out, (a,), bwd)


def mean_(a):
    """The mean of every element, as a scalar tensor."""
    return mul(sum_(a), _as_tensor(1.0 / a.size, a.dtype))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(x, w, b=None):
    """``x @ w + b`` as one op: ``x`` is (..., n) with two or more axes, ``w`` (n, m), ``b`` (m,) or None.

    With a bias, forward and backward compute exactly what ``add(matmul(x, w), b)``
    computes, in the same order, with one tape entry instead of two.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"matmul needs (..., n) x (n, m), got {xd.shape} x {wd.shape}")
    if b is not None and b.data.shape != wd.shape[1:]:
        raise ShapeError(f"matmul bias {b.shape} does not match weight {wd.shape}")
    out = np.matmul(xd, wd)
    if b is not None:
        out += b.data
    if _untaped():
        return _wrap(out)
    sx, sw = xd.shape, wd.shape
    rhs, lhs = (wd if x.requires_grad else None), (xd if w.requires_grad else None)
    sb = b.data.shape if b is not None and b.requires_grad else None

    def bwd(g):
        gx = None if rhs is None else _unbroadcast(np.matmul(g, rhs.T), sx)
        gw = None if lhs is None else _unbroadcast(np.matmul(np.swapaxes(lhs, -1, -2), g), sw)
        gb = None if sb is None else _unbroadcast(g, sb)
        return gx, gw, gb

    return _make(out, (x, w) if b is None else (x, w, b), bwd)


def _affine(x, w, b):
    """``x @ w + b``, the bias added into the product's buffer, as ``matmul`` with a bias computes it."""
    out = np.matmul(x, w)
    out += b
    return out


def ffn(x, w1, b1, w2, b2, keep=None, keep_scale=None):
    """``gelu(x @ w1 + b1) @ w2 + b2`` as one op, then dropout: ``x`` is (..., n) with two or more axes,
    ``w1`` (n, h), ``w2`` (h, m).  ``keep``, a boolean mask of the (..., m) output's shape or None,
    zeroes what it marks False and scales the rest by ``keep_scale``.

    Forward and backward compute exactly what ``matmul`` with ``b1``, a
    tanh-approximated gelu, ``matmul`` with ``b2`` and ``mul`` by the float
    mask ``keep·keep_scale`` compute, in that order, with one tape entry.
    The op holds ``x``, the weights and biases and ``keep`` packed eight
    entries to a byte, nothing of width h: backward remakes the
    pre-activation ``x @ w1 + b1`` with the forward's own ops, and gelu's
    backward (:func:`kernels.gelu_bwd`) overwrites it with the hidden layer.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    if xd.ndim < 2 or w1d.ndim != 2 or w2d.ndim != 2 or xd.shape[-1] != w1d.shape[0] or w1d.shape[1] != w2d.shape[0]:
        raise ShapeError(f"ffn needs (..., n) x (n, h) x (h, m), got {xd.shape} x {w1d.shape} x {w2d.shape}")
    if b1.data.shape != w1d.shape[1:] or b2.data.shape != w2d.shape[1:]:
        raise ShapeError(f"ffn biases {b1.shape}, {b2.shape} do not match weights {w1d.shape}, {w2d.shape}")
    b1d = b1.data
    out = _affine(kernels.gelu_fwd(_affine(xd, w1d, b1d)), w2d, b2.data)
    if keep is not None:
        if keep.shape != out.shape:
            raise ShapeError(f"ffn keep mask {keep.shape} does not match output {out.shape}")
        _keep_scaled(out, keep, keep_scale, out=out)
    if _untaped():
        return _wrap(out)
    rx, rw1, rb1, rw2, rb2 = (t.requires_grad for t in (x, w1, b1, w2, b2))
    sx, sw1, sb1, sw2, sb2 = xd.shape, w1d.shape, b1d.shape, w2d.shape, b2.data.shape
    to_pre = rx or rw1 or rb1  # whether a gradient flows back through the hidden layer
    # what remaking the pre-activation reads, where a gradient reads it or the hidden layer
    held = (xd, w1d, b1d, w2d) if to_pre or rw2 else None
    packed = None if keep is None else _pack_mask(keep)

    def bwd(g):
        gx = gw1 = gb1 = gw2 = gb2 = None
        if packed is not None:
            g = _keep_scaled(g, _unpack_mask(*packed), keep_scale)
        if held is not None:
            xh, w1h, b1h, w2h = held
            pre = _affine(xh, w1h, b1h)
            if to_pre:
                gpre, hidden = kernels.gelu_bwd(np.matmul(g, w2h.T), pre)
                if rx:
                    gx = _unbroadcast(np.matmul(gpre, w1h.T), sx)
                if rw1:
                    gw1 = _unbroadcast(np.matmul(np.swapaxes(xh, -1, -2), gpre), sw1)
                if rb1:
                    gb1 = _unbroadcast(gpre, sb1)
            else:
                hidden = kernels.gelu_fwd(pre)
            if rw2:
                gw2 = _unbroadcast(np.matmul(np.swapaxes(hidden, -1, -2), g), sw2)
        if rb2:
            gb2 = _unbroadcast(g, sb2)
        return gx, gw1, gb1, gw2, gb2

    return _make(out, (x, w1, b1, w2, b2), bwd)


def take_rows(table, ids):
    """Gather rows of a 2-D table; the gradient scatter-adds back."""
    if table.data.ndim != 2:
        raise ShapeError("take_rows expects a 2-D table")
    ids = np.asarray(ids)
    out = table.data[ids]
    if _untaped():
        return _wrap(out)
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(out, (table,), bwd)


def slice0(a, start, stop):
    """Contiguous slice along axis 0; the gradient pads back with zeros."""
    out = a.data[start:stop]
    if _untaped():
        return _wrap(out)
    shape, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        ga = np.zeros(shape, dtype)
        ga[start:stop] = g
        return (ga,)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# fused kernel ops


def _heads(x, n_heads):
    """(B, T, H·d) -> (B, H, T, d), a view."""
    b, t, w = x.shape
    return x.reshape(b, t, n_heads, w // n_heads).swapaxes(1, 2)


def attention(q, k, v, n_heads, add_mask=None, keep=None, keep_scale=None):
    """Multi-head ``softmax(q @ kᵀ / √dh + add_mask) @ v`` as one op, with dropout on the probabilities.

    ``q`` is (B, Tq, H·dh), ``k`` (B', Tk, H·dh) and ``v`` (B', Tk, H·dv),
    the layout the projections produce, with H ``n_heads`` and B' either B
    or 1 (one source's keys for every query row).  The op splits them into
    heads as views, scales the scores by 1/√dh and returns the (B, Tq, H·dv)
    context with the heads merged; the gradients come back in the operands'
    layouts.  ``add_mask`` is an additive numpy mask that broadcasts against
    the (B, H, Tq, Tk) scores, or None.  ``keep``, a boolean array of the
    scores' shape or None, zeroes the probabilities it marks False and
    scales the rest by ``keep_scale``.  The op holds q, k, v, the
    probabilities and ``keep`` packed eight entries to a byte.  Backward
    writes the probabilities' gradient, its dropout and softmax's backward
    into one buffer it makes, and then, once softmax's backward has read the
    held probabilities, overwrites them with the dropped ones.  Values and
    gradients are bit for bit those of the separate ops: head split, score
    matmul, scale, mask, softmax, ``mul`` by the float mask
    ``keep·keep_scale``, matmul with ``v`` and head merge.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 3 or kd.ndim != 3 or vd.ndim != 3 or qd.shape[-1] != kd.shape[-1] or kd.shape[:2] != vd.shape[:2]:
        raise ShapeError(f"attention needs (B, Tq, d), (B', Tk, d), (B', Tk, dv), got {qd.shape}, {kd.shape}, {vd.shape}")
    if kd.shape[0] not in (1, qd.shape[0]) or qd.shape[-1] % n_heads or vd.shape[-1] % n_heads:
        raise ShapeError(f"attention over {n_heads} heads cannot take {qd.shape}, {kd.shape} and {vd.shape}")
    qh, kh, vh = _heads(qd, n_heads), _heads(kd, n_heads), _heads(vd, n_heads)
    scale = qd.dtype.type(1.0 / math.sqrt(qh.shape[-1]))
    z = np.matmul(qh, kh.swapaxes(-1, -2))
    shape = z.shape
    if keep is not None and keep.shape != shape:
        raise ShapeError(f"attention keep mask {keep.shape} does not match scores {shape}")
    z *= scale
    if add_mask is not None:
        z += add_mask
    p = kernels.softmax_fwd(z.reshape(-1, shape[-1]))
    pd = p.reshape(shape)
    (b, h, tq, _), dv = shape, vh.shape[-1]
    out = np.empty((b, tq, h * dv), np.result_type(p, vd))
    dropped = pd if keep is None else _keep_scaled(pd, keep, keep_scale)
    np.matmul(dropped, vh, out=out.reshape(b, tq, h, dv).swapaxes(1, 2))  # written with the heads merged
    del dropped
    if _untaped():
        return _wrap(out)
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    sq, sk, sv, skt, svh = qd.shape, kd.shape, vd.shape, kh.swapaxes(-1, -2).shape, vh.shape
    packed = None if keep is None else _pack_mask(keep)

    def bwd(g):
        gq = gk = gv = None
        g = _heads(g, h)
        kept = None if packed is None else _unpack_mask(*packed)
        if rq or rk:
            gp = np.matmul(g, vh.swapaxes(-1, -2))  # (B, H, Tq, Tk) whether or not k and v broadcast
            if kept is not None:
                _keep_scaled(gp, kept, keep_scale, out=gp)
            ds = kernels.softmax_bwd(gp.reshape(-1, shape[-1]), p)
            ds *= scale
            ds = ds.reshape(shape)
            if rq:
                gq = np.matmul(ds, kh).swapaxes(1, 2).reshape(sq)
            if rk:
                gk = _unbroadcast(np.matmul(qh.swapaxes(-1, -2), ds), skt).transpose(0, 3, 1, 2).reshape(sk)
        if rv:
            if kept is not None:  # softmax's backward has read p: drop it in place
                _keep_scaled(pd, kept, keep_scale, out=pd)
            gv = _unbroadcast(np.matmul(pd.swapaxes(-1, -2), g), svh).swapaxes(1, 2).reshape(sv)
        return gq, gk, gv

    return _make(out, (q, k, v), bwd)


def layer_norm(x, gain, bias):
    """Per-row zero-mean/unit-variance normalization (``LAYER_NORM_EPS`` added to the variance), then an affine map."""
    shape = x.data.shape
    d = shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the feature width")
    flat = np.ascontiguousarray(x.data.reshape(-1, d))
    gd = gain.data
    y, xhat, rstd = kernels.layer_norm_fwd(flat, gd, bias.data, LAYER_NORM_EPS)
    out = y.reshape(shape)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        dx, dgain, dbias = kernels.layer_norm_bwd(g.reshape(-1, d), xhat, rstd, gd)
        return dx.reshape(shape), dgain, dbias

    return _make(out, (x, gain, bias), bwd)


def cross_entropy_rows(logits, targets):
    """Softmax NLL of target ids over the last axis, log-sum-exp stabilized: (..., V) logits and
    (...) targets give (...) losses, computed over the logits as one (rows, V) array."""
    shape = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim < 1 or targets.shape != shape[:-1]:
        raise ShapeError(f"cross_entropy_rows needs (..., V) logits and (...) targets, got {shape} and {targets.shape}")
    v = shape[-1]
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise VocabularyError(f"target id outside vocabulary of size {v}")
    rows = targets.reshape(-1)
    nll, e, s = kernels.xent_fwd(np.ascontiguousarray(logits.data.reshape(-1, v)), rows)
    out = nll.astype(logits.dtype, copy=False).reshape(targets.shape)
    if _untaped():
        return _wrap(out)

    def bwd(g):
        return (kernels.xent_bwd(np.ascontiguousarray(g.reshape(-1)), e, s, rows).reshape(shape),)

    return _make(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# pooling / similarity surfaces


def masked_mean_pool(states, mask):
    """Per-sequence mean of the positions a boolean mask selects.

    ``states`` is (B, T, d) and ``mask`` (B, T); masked-out positions
    contribute nothing, and the result is (B, d).
    """
    if states.ndim != 3:
        raise ShapeError(f"masked_mean_pool expects (B, T, d) states, got {states.shape}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != states.shape[:-1]:
        raise ShapeError(f"mask shape {m.shape} does not match states {states.shape}")
    counts = m.sum(axis=-1)
    if np.any(counts == 0):
        raise EmptyPoolError("masked_mean_pool needs at least one unmasked position")
    mf = Tensor(m.astype(states.dtype)[..., None])
    inv = Tensor((1.0 / counts).astype(states.dtype)[:, None])
    return mul(sum_(mul(states, mf), axis=-2), inv)


def cosine_rows(u, v):
    """Row-wise cosine similarity of a (B, d) ``u`` to a (B, d) ``v``, returning (B,).

    A ``v`` of shape (n, B, d) is n such blocks, each compared with ``u``,
    returning (n, B); ``u``'s gradient sums over the blocks.
    """
    if u.ndim != 2 or v.ndim not in (2, 3) or v.shape[-2:] != u.shape:
        raise ShapeError("cosine_rows expects a 2-D u and a v of shape u.shape or (n, *u.shape)")
    dot = sum_(mul(u, v), axis=-1)
    nu = sqrt(sum_(mul(u, u), axis=-1))
    nv = sqrt(sum_(mul(v, v), axis=-1))
    if np.any(nu.data == 0.0) or np.any(nv.data == 0.0):
        raise DegenerateVectorError("cosine similarity of a zero-norm vector")
    eps = _as_tensor(COSINE_EPS, u.dtype)  # max(|u| |v|, eps) as relu(x - eps) + eps
    return div(dot, add(relu(sub(mul(nu, nv), eps)), eps))


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(f, at):
    """Max relative error between analytic gradients and central differences of step ``FINITE_DIFF_STEP``.

    ``f`` maps a tensor to a scalar tensor.  The relative error per
    coordinate is |a - n| / (|a| + |n| + 1e-12); use float64 inputs for
    meaningful thresholds.
    """
    with Tape():
        out = f(at)
        if out.data.ndim != 0:
            raise RankError("finite_diff_check needs a scalar-valued function")
        analytic = backward(out).get(at, np.zeros_like(at.data))

    flat = at.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FINITE_DIFF_STEP
            hi = float(f(at).data)
            flat[i] = orig - FINITE_DIFF_STEP
            lo = float(f(at).data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * FINITE_DIFF_STEP)
    a = analytic.reshape(-1)
    rel = np.abs(a - numeric) / (np.abs(a) + np.abs(numeric) + 1e-12)
    return float(rel.max())
