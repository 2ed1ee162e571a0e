import ast
import platform
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import contrastive as K
from colo import model as M
from colo import tensor as T
from colo.gradcheck import OP_THRESHOLD, op_cases
from colo.rng import derive_rng
from colo.tensor import (
    DegenerateVectorError,
    EmptyPoolError,
    RankError,
    ShapeError,
    Tape,
    Tensor,
    TensorError,
    VocabularyError,
    backward,
    cosine_rows,
    cross_entropy_rows,
    finite_diff_check,
    layer_norm,
    masked_mean_pool,
    matmul,
)
from colo.trainer import TrainConfig


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# finite differences: the case table `colo gradcheck` runs


@pytest.mark.parametrize("f, at", [pytest.param(f, at, id=name) for name, f, at in op_cases()])
def test_op_gradient_matches_finite_differences(f, at):
    assert finite_diff_check(f, at) < OP_THRESHOLD


def _taping_functions():
    """The top-level functions of ``tensor.py`` that record an op on the tape, i.e. call ``_make``."""
    tree = ast.parse(Path(T.__file__).read_text(encoding="utf-8"))
    return [
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_make" for n in ast.walk(fn))
    ]


def test_every_taping_op_has_a_finite_difference_case():
    """A case covers an op when its name is the op's name, or that name (trailing underscore dropped) then ``_``."""
    names = [name for name, _, _ in op_cases()]
    ops = _taping_functions()
    assert {"add", "sum_", "attention"} <= set(ops)
    assert [fn for fn in ops if not any(n == fn or n.startswith(fn.rstrip("_") + "_") for n in names)] == []


# ---------------------------------------------------------------------------
# fused linear and head ops


def _f32_leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("x_shape", [(7, 16), (4, 7, 16)], ids=["2d", "batched"])
def test_linear_is_matmul_then_add_bit_for_bit(bias, x_shape):
    rng = np.random.default_rng(5)
    leaves = [_f32_leaf(rng, *x_shape), _f32_leaf(rng, 16, 24)] + ([_f32_leaf(rng, 24)] if bias else [])
    g = rng.standard_normal(x_shape[:-1] + (24,)).astype(np.float32)

    def run(f):
        with Tape():
            y = f(*leaves)
            grads = backward(T.sum_(T.mul(y, Tensor(g))))
        return [y.data.tobytes()] + [grads[t].tobytes() for t in leaves]

    def unfused(x, w, b=None):
        y = T.matmul(x, w)
        return y if b is None else T.add(y, b)

    assert run(T.linear) == run(unfused)


def test_linear_constant_operands_get_no_gradient():
    x, w, b = t64(np.ones((2, 3, 4)), requires_grad=True), t64(np.ones((4, 5))), t64(np.ones(5))
    with Tape() as tape:
        T.linear(x, w, b)
        assert [g is not None for g in tape.ops[-1].bwd(np.ones((2, 3, 5)))] == [True, False, False]


@pytest.mark.parametrize("w_shape, b_shape", [((5, 2), (2,)), ((4, 2), (3,)), ((4,), None)])
def test_linear_shape_mismatch(w_shape, b_shape):
    b = None if b_shape is None else t64(np.ones(b_shape))
    with pytest.raises(ShapeError):
        T.linear(t64(np.ones((3, 4))), t64(np.ones(w_shape)), b)


def test_attention_under_a_self_only_mask_returns_its_input():
    x = t64(np.arange(2 * 3 * 8.0).reshape(2, 3, 8))
    # a mask that lets each position attend only to itself makes the probabilities the identity
    own = np.where(np.eye(3, dtype=bool), 0.0, M.ATTN_MASK_OFF)
    assert np.array_equal(T.attention(x, x, x, 4, own).data, x.data)
    # head j, columns 2j and 2j + 1, lets position i attend only to position (i + j) % 3
    shifted = np.stack([np.roll(np.eye(3, dtype=bool), j, axis=1) for j in range(4)])
    want = np.concatenate([np.roll(x.data[..., 2 * j : 2 * j + 2], -j, axis=1) for j in range(4)], axis=-1)
    assert np.array_equal(T.attention(x, x, x, 4, np.where(shifted, 0.0, M.ATTN_MASK_OFF)).data, want)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = t64([[3.0, -1.0], [2.0, 5.0]])
    eye = t64(np.eye(2))
    assert np.allclose(matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[1.0], [1.0]])
    assert np.allclose(matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# masked mean pool


def test_masked_mean_pool_all_true():
    s = t64([[[2.0, 2.0], [4.0, 4.0]]])
    assert np.allclose(masked_mean_pool(s, [[True, True]]).data, [[3.0, 3.0]])


def test_masked_mean_pool_excludes_pad():
    s = t64([[[2.0, 2.0], [9.0, 9.0]]])
    assert np.allclose(masked_mean_pool(s, [[True, False]]).data, [[2.0, 2.0]])


def test_masked_mean_pool_empty_mask():
    with pytest.raises(EmptyPoolError):
        masked_mean_pool(t64(np.ones((2, 3, 2))), [[True, False, False], [False, False, False]])


def test_masked_mean_pool_rejects_unbatched_states():
    # a (T, d) input would otherwise come back as a (1, d) pool
    with pytest.raises(ShapeError):
        masked_mean_pool(t64(np.ones((3, 2))), [True, True, False])


def test_masked_mean_pool_batched():
    s = t64(np.stack([[[2.0, 2.0], [4.0, 4.0]], [[1.0, 0.0], [9.0, 9.0]]]))
    mask = np.array([[True, True], [True, False]])
    out = masked_mean_pool(s, mask)
    assert np.allclose(out.data, [[3.0, 3.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_self_is_one():
    v = t64([[1.0, 2.0, -3.0], [0.5, 0.0, 4.0]])
    assert np.allclose(cosine_rows(v, v).data, 1.0)


def test_cosine_negation_is_minus_one():
    v = t64([[0.5, -2.0, 1.0]])
    assert np.allclose(cosine_rows(v, t64(-v.data)).data, -1.0)


def test_cosine_orthogonal_is_zero():
    assert np.allclose(cosine_rows(t64([[1.0, 0.0]]), t64([[0.0, 1.0]])).data, 0.0)


def test_cosine_zero_norm_raises():
    with pytest.raises(DegenerateVectorError):
        cosine_rows(t64([[1.0, 0.0], [0.0, 0.0]]), t64([[1.0, 1.0], [1.0, 1.0]]))


def test_cosine_rows_matches_single():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 5))
    v = rng.standard_normal((3, 5))
    batched = cosine_rows(t64(u), t64(v)).data
    for i in range(3):
        single = u[i] @ v[i] / (np.linalg.norm(u[i]) * np.linalg.norm(v[i]))
        assert batched[i] == pytest.approx(single)


def test_cosine_rows_of_a_stacked_v_are_each_blocks_cosines_bit_for_bit():
    rng = np.random.default_rng(5)
    u, v = t64(rng.standard_normal((3, 5))), rng.standard_normal((4, 3, 5))
    stacked = cosine_rows(u, t64(v)).data
    assert stacked.shape == (4, 3)
    assert np.array_equal(stacked, [cosine_rows(u, t64(block)).data for block in v])


@pytest.mark.parametrize("v_shape", [(3, 4), (2, 5), (2, 2, 5), (2, 1, 3, 5)])
def test_cosine_rows_rejects_a_v_of_another_row_shape(v_shape):
    with pytest.raises(ShapeError):
        cosine_rows(t64(np.ones((3, 5))), t64(np.ones(v_shape)))


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_xent_uniform_logits():
    nll = cross_entropy_rows(t64(np.zeros((1, 4))), [2])
    assert nll.data[0] == pytest.approx(np.log(4.0), abs=1e-9)


def test_xent_huge_logit_no_overflow():
    logits = np.zeros((2, 5))
    logits[:, 3] = 1000.0
    nll = cross_entropy_rows(t64(logits), [3, 0]).data
    assert nll[0] == pytest.approx(0.0, abs=1e-6)
    assert nll[1] == pytest.approx(1000.0)
    assert np.all(np.isfinite(nll))


def test_xent_out_of_range_target():
    with pytest.raises(VocabularyError):
        cross_entropy_rows(t64(np.zeros((2, 4))), [1, 7])


def test_xent_batched_logits_are_their_flattened_rows():
    """(2, 3, V) logits give the (2, 3) losses and the gradient of their six rows, bit for bit."""
    rng = np.random.default_rng(4)
    logits, targets, g = rng.standard_normal((2, 3, 5)), rng.integers(0, 5, (2, 3)), rng.standard_normal((2, 3))

    def run(shape):
        x = t64(logits.reshape(shape), requires_grad=True)
        with Tape():
            nll = cross_entropy_rows(x, targets.reshape(shape[:-1]))
            grads = backward(T.sum_(T.mul(nll, t64(g.reshape(nll.shape)))))
        return nll.data.reshape(2, 3).tobytes(), grads[x].reshape(2, 3, 5).tobytes()

    assert run((2, 3, 5)) == run((6, 5))


@pytest.mark.parametrize("targets", [[1, 2, 3], [[1, 2]], 1])
def test_xent_targets_must_match_the_logits_rows(targets):
    with pytest.raises(ShapeError):
        cross_entropy_rows(t64(np.zeros((2, 4))), targets)


def test_xent_mask_excludes_rows():
    # rows are independent, so masking a padded row after the op (as
    # model.nll_per_example does) removes it entirely
    logits = np.zeros((2, 4))
    logits[1, 0] = 50.0
    nll = cross_entropy_rows(t64(logits), [1, 1]).data
    mask = np.array([True, False])
    assert (nll * mask).sum() / mask.sum() == pytest.approx(np.log(4.0), abs=1e-9)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_is_zero():
    x = t64([[5.0, 5.0, 5.0, 5.0]])
    out = layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    x = t64([[-1.0, 1.0]])
    out = layer_norm(x, t64(np.ones(2)), t64(np.zeros(2)))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_statistics():
    rng = np.random.default_rng(6)
    x = t64(rng.standard_normal((3, 16)) * 4.0 + 2.0)
    out = layer_norm(x, t64(np.ones(16)), t64(np.zeros(16))).data
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# softmax


@pytest.mark.parametrize("q_shape, k_shape", [((1, 5, 6), (1, 7, 4)), ((1, 2, 5, 3), (1, 2, 7, 3))])
def test_attention_probs_shape_mismatch(q_shape, k_shape):
    """q and k must be 3-D and equally wide: the head-split (B, H, T, dh) layout is refused."""
    with pytest.raises(ShapeError):
        T.attention(t64(np.ones(q_shape)), t64(np.ones(k_shape)), t64(np.ones((1, 7, 4))), 2)


@pytest.mark.parametrize("v_shape, keep_shape", [
    ((1, 6, 4), None), ((1, 2, 7, 2), None), ((1, 7, 4), (1, 2, 5, 6)), ((1, 7, 4), (1, 2, 7, 5)),
], ids=["v_rows", "v_rank", "keep_cols", "keep_rows"])
def test_attention_value_and_keep_shape_mismatch(v_shape, keep_shape):
    keep = None if keep_shape is None else np.ones(keep_shape, dtype=bool)
    q, k = t64(np.ones((1, 5, 6))), t64(np.ones((1, 7, 6)))
    with pytest.raises(ShapeError):
        T.attention(q, k, t64(np.ones(v_shape)), 2, None, keep, 1.25)


@pytest.mark.parametrize("qk_width, v_width, kv_batch", [(6, 8, 1), (8, 6, 1), (8, 8, 2)], ids=["qk", "v", "kv_batch"])
def test_attention_needs_widths_n_heads_divides_and_a_kv_batch_of_1_or_b(qk_width, v_width, kv_batch):
    q, k = t64(np.ones((3, 5, qk_width))), t64(np.ones((kv_batch, 7, qk_width)))
    with pytest.raises(ShapeError):
        T.attention(q, k, t64(np.ones((kv_batch, 7, v_width))), 4)


def test_dropout_keep_shape_mismatch():
    """``ffn``'s keep mask must have its (3, 2) output's shape."""
    w1, b1, w2, b2 = t64(np.ones((4, 5))), t64(np.ones(5)), t64(np.ones((5, 2))), t64(np.ones(2))
    for keep_shape in ((2, 3), (3,), (3, 2, 1)):
        with pytest.raises(ShapeError):
            T.ffn(t64(np.ones((3, 4))), w1, b1, w2, b2, np.ones(keep_shape, dtype=bool), 1.25)


def test_attention_and_dropout_hold_boolean_masks(tape_nbytes):
    """``attention`` holds q, k, v, the float32 probabilities and the boolean keep mask, and
    ``ffn`` its input, its weights, the pre-activation and the boolean mask: no float mask, no dropped product."""
    rng = np.random.default_rng(9)
    q, k, v = (Tensor(rng.standard_normal(s), True, np.float32) for s in ((2, 5, 12), (2, 6, 12), (2, 6, 12)))
    mask, keep = np.zeros((2, 1, 1, 6), dtype=np.float32), rng.random((2, 3, 5, 6)) >= 0.1
    with T.Tape() as tape:
        T.attention(q, k, v, 3, mask, keep, np.float32(1.25))
        assert tape_nbytes(tape) == q.data.nbytes + k.data.nbytes + v.data.nbytes + 5 * keep.size
    x, w1, b1, w2, b2 = (Tensor(rng.standard_normal(s), True, np.float32) for s in ((4, 7), (7, 9), (9,), (9, 7), (7,)))
    keep = rng.random((4, 7)) >= 0.1
    with T.Tape() as tape:
        T.ffn(x, w1, b1, w2, b2, keep, np.float32(1.25))
        held = x.data.nbytes + w1.data.nbytes + b1.data.nbytes + w2.data.nbytes + b2.data.nbytes
        pre = np.zeros((4, 9), np.float32)
        assert tape_nbytes(tape) == held + pre.nbytes + keep.size


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    q, k = t64(rng.standard_normal((1, 5, 3))), t64(rng.standard_normal((1, 7, 3)))
    # against identity values the output is the probabilities themselves
    p = T.attention(q, k, t64(np.eye(7)[None]), 1, np.zeros((1, 7))).data[0]
    assert p.shape == (5, 7)
    assert np.all(p > 0.0)
    assert np.allclose(p.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        grads = backward(T.sum_(x))
    assert np.allclose(grads[x], 1.0)


def test_backward_square_gives_two_x():
    x = t64([1.0, -2.0, 3.0], requires_grad=True)
    with Tape():
        grads = backward(T.sum_(T.mul(x, x)))
    assert np.allclose(grads[x], 2.0 * x.data)


def test_backward_additive_accumulation():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape():
        grads = backward(T.add(T.sum_(x), T.sum_(x)))
    assert np.allclose(grads[x], 2.0)


def test_backward_nonscalar_root_raises():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape():
        with pytest.raises(RankError):
            backward(T.mul(x, x))


def test_backward_empties_the_tape():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        grads = backward(T.sum_(T.mul(x, x)))
        assert tape.ops == []
    assert np.allclose(grads[x], 2.0 * x.data)


def _tanh_sum(x):
    h = T.tanh(x)
    return T.sum_(h), weakref.ref(h.data)


def test_backward_frees_intermediates():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        loss, hidden = _tanh_sum(x)
        assert hidden() is not None
        grads = backward(loss)
        assert hidden() is None
    assert list(grads) == [x]


def _captured_tensors(obj, seen):
    """Tensors reachable from ``obj`` through closure cells, nested functions, tuples and lists."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [t for x in obj for t in _captured_tensors(x, seen)]
    if callable(obj) and hasattr(obj, "__closure__"):
        return [t for cell in obj.__closure__ or () for t in _captured_tensors(cell.cell_contents, seen)]
    return []


@pytest.mark.parametrize("f, at", [pytest.param(f, at, id=name) for name, f, at in op_cases()])
def test_no_backward_rule_captures_a_tensor(f, at):
    """Rules hold arrays, shapes and flags: a captured Tensor would keep an activation
    (and, through its ``op``, the rest of the graph) alive for as long as the rule."""
    with Tape() as tape:
        f(at)
        assert tape.ops
        seen = set()
        assert [t for op in tape.ops for t in _captured_tensors(op.bwd, seen)] == []


def test_tape_does_not_keep_an_activation_no_rule_reads():
    """``layer_norm`` reads its own statistics, not its input: the sum it normalizes
    dies with the caller's tensor while the tape is live."""
    x, y = t64(np.linspace(-1.0, 1.0, 32).reshape(4, 8), True), t64(np.linspace(2.0, 0.5, 32).reshape(4, 8), True)
    gain, bias = t64(np.ones(8), True), t64(np.zeros(8), True)
    with Tape() as tape:
        s = T.add(x, y)
        summed = weakref.ref(s.data)
        out = layer_norm(s, gain, bias)
        del s
        assert summed() is None
        grads = backward(T.sum_(out))
        assert tape.ops == []
    assert x in grads and gain in grads


def test_backward_releases_what_rules_captured_while_the_loss_lives():
    """After backward, ``loss`` and a tensor off the loss's path stay alive, but what their
    ops' rules held does not: popped ops drop their rule whether or not it ran."""
    x, c = t64(np.arange(6.0).reshape(2, 3) / 7.0, True), t64(np.full((2, 3), 0.5))
    with Tape():
        h = T.tanh(x)  # tanh's rule holds its output
        r = T.mul(x, c)  # the relu below, never run, holds its input
        held = weakref.ref(h.data), weakref.ref(r.data)
        loss, unused = T.sum_(T.mul(h, c)), T.relu(r)
        del h, r
        assert all(ref() is not None for ref in held)
        grads = backward(loss)
        assert all(ref() is None for ref in held)
    assert loss.op.bwd is None and unused.op.bwd is None and x in grads


def test_an_intermediate_of_a_consumed_tape_is_rejected_not_dropped():
    """Its op lost its rule in the first backward: the second cannot pass its gradient on to ``x``."""
    x = t64([0.5, -1.0], requires_grad=True)
    with Tape():
        h = T.tanh(x)
        backward(T.sum_(h))
    with Tape():
        with pytest.raises(TensorError, match="already consumed"):
            backward(T.sum_(T.mul(h, h)))


@pytest.mark.parametrize("op", [T.mul, T.matmul], ids=["mul", "matmul"])
def test_constant_operand_gets_no_gradient(op):
    x = t64(np.ones((3, 3)), requires_grad=True)
    c = t64(np.eye(3))
    with Tape() as tape:
        for operands, grad_given in (((x, c), [True, False]), ((c, x), [False, True])):
            y = op(*operands)
            grads = tape.ops[-1].bwd(np.ones_like(y.data))
            assert [g is not None for g in grads] == grad_given


def test_no_grad_suppresses_recording():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        with T.no_grad():
            y = T.sum_(T.mul(x, x))
        assert not y.requires_grad
        assert tape.ops == []


def _in_thread(target):
    """Run ``target`` on a new thread and wait for it."""
    th = threading.Thread(target=target)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()


def test_no_grad_in_another_thread_leaves_this_tape_recording():
    x = t64([1.0, 2.0], requires_grad=True)
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with T.no_grad():
            entered.set()
            release.wait(timeout=60)

    th = threading.Thread(target=hold_no_grad)
    with Tape() as tape:  # entered first, so a shared stack would hold the other thread's block above it
        th.start()
        try:
            assert entered.wait(timeout=60)
            y = T.tanh(x)
        finally:
            release.set()
            th.join(timeout=60)
    assert not th.is_alive()
    assert y.requires_grad and len(tape.ops) == 1


def test_an_op_in_another_thread_records_nothing_on_this_tape():
    x = t64([1.0, 2.0], requires_grad=True)
    out = []
    with Tape() as tape:
        _in_thread(lambda: out.append(T.tanh(x)))
    (y,) = out
    assert tape.ops == [] and y.op is None and not y.requires_grad


def test_threads_record_on_their_own_tapes():
    """More threads than cores, switching often: each tape holds exactly the ops its own thread recorded."""
    counts = {}

    def record(n):
        x = t64([0.5, 1.5], requires_grad=True)
        with Tape() as tape:
            for i in range(n):
                y = T.tanh(x)
                with T.no_grad():
                    T.mul(y, y)
        counts[n] = len(tape.ops)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=record, args=(200 + i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert counts == {200 + i: 200 + i for i in range(8)}


def test_take_rows_scatter_gradient():
    table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([0, 2, 2])
    with Tape():
        grads = backward(T.sum_(T.take_rows(table, ids)))
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0
    assert np.allclose(grads[table], expected)


def test_finite_diff_check_linear_is_exact():
    x = t64(np.arange(5.0), requires_grad=True)
    assert finite_diff_check(T.sum_, x) < 1e-10


def test_forward_determinism():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 16)).astype(np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))

    def run():
        with Tape():
            loss = T.sum_(T.ffn(x, w, b, w, b))
            grads = backward(loss)
        return loss.data.copy(), grads[x].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# gradient ownership: backward keeps an op output's first gradient by reference


def _toy_step_leaf_grads(toy):
    corpus, vocab, cfg = toy
    batch = corpus.train[:4]
    csets = [K.build_contrastive_set(ex.tuple, corpus.lexicon, derive_rng(3, i)) for i, ex in enumerate(batch)]
    params = M.init_params(cfg, 3)
    with Tape():
        bd = K.total_loss_batch(params, cfg, batch, csets, corpus.lexicon, vocab, TrainConfig(), derive_rng(1))
        grads = backward(bd.total)
    return {n: (grads[t].dtype, grads[t].tobytes()) for n, t in params.items()}


def test_no_backward_rule_writes_into_its_incoming_gradient(toy, monkeypatch):
    """One CE+CD training step with dropout, every op's incoming gradient made a read-only view.

    A backward rule that writes into ``g`` raises here; one that keeps to
    the rule leaves every parameter gradient bit for bit as it was.
    """
    want = _toy_step_leaf_grads(toy)

    wrapped, recorded = [], []
    make = T._make

    def read_only_make(out_data, inputs, bwd):
        def guarded(g):
            wrapped.append(1)
            if isinstance(g, np.ndarray):
                g = g.view()
                g.flags.writeable = False
            return bwd(g)

        out = make(out_data, inputs, guarded)
        if out.op is not None:
            recorded.append(1)
        return out

    monkeypatch.setattr(T, "_make", read_only_make)
    assert _toy_step_leaf_grads(toy) == want
    # every op the step's tape recorded ran its rule under the guard
    assert len(wrapped) == len(recorded) > 0


def _copying_backward(loss):
    """Reference accumulator: every op and leaf copies its first contribution and adds later ones in place.

    Returns ``{leaf: gradient}``, as :func:`backward` does.
    """
    ops = Tape.current().ops
    loss.op.grad = np.ones((), dtype=loss.dtype)
    leaf_grads = {}
    while ops:
        op = ops.pop()
        if op.grad is None:
            continue
        for src, gc in zip(op.inputs, op.bwd(op.grad)):
            if gc is None or src is None:
                continue
            if type(src) is Tensor:
                if src in leaf_grads:
                    leaf_grads[src] += gc
                else:
                    leaf_grads[src] = gc.copy()
            elif src.grad is None:
                src.grad = gc.copy()
            else:
                src.grad += gc
    return leaf_grads


_SHAPE = (2, 3, 4)
_C64 = Tensor(np.linspace(-1.5, 2.0, 24).reshape(_SHAPE), dtype=np.float64)

# each maps two (2, 3, 4) tensors to one; shared operands give fan-out
_FANOUT_OPS = {
    "add": T.add,
    "add_self": lambda a, b: T.add(a, a),
    "sub": T.sub,
    "mul": T.mul,
    "tanh": lambda a, b: T.tanh(a),
    # add unbroadcasts into sum_'s output, whose backward hands b a read-only broadcast view
    "sum_broadcast": lambda a, b: T.add(a, T.sum_(b, axis=1, keepdims=True)),
    "mean_broadcast": lambda a, b: T.mul(a, T.mean_(b)),
    "reshape": lambda a, b: T.reshape(T.mul(T.reshape(a, (6, 4)), T.reshape(b, (6, 4))), _SHAPE),
    # tanh bounds the queries, so the scores stay finite wherever b is
    "heads": lambda a, b: T.attention(T.tanh(a), b, b, 2),
    # a float64 result: a float32 operand gets a float64 contribution
    "to_float64": lambda a, b: T.mul(a, _C64),
}


def _fanout_loss(steps, leaves, weights):
    """Each step applies an op to two tensors a few places back in the pool; the loss weights the unused ones.

    So an intermediate's gradient comes only from the ops that use it, and
    the first of them may hand it an array or a view that other tensors share.
    """
    pool, used = list(leaves), set()
    for kind, i, j in steps:
        i, j = len(pool) - 1 - i % len(pool), len(pool) - 1 - j % len(pool)
        used.update((i, j))
        pool.append(_FANOUT_OPS[kind](pool[i], pool[j]))
    loss = None
    for n, w in zip(range(len(leaves), len(pool)), weights):
        if n not in used:
            term = T.sum_(T.mul(pool[n], w))
            loss = term if loss is None else T.add(loss, term)
    return loss


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(_FANOUT_OPS)), st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_copy_free_backward_matches_copying_accumulator(steps, seed):
    """Leaf gradients, value and dtype, equal those of copy-on-first-touch in-place accumulation."""
    rng = np.random.default_rng(seed)
    data = [rng.standard_normal(_SHAPE).astype(dt) for dt in (np.float32, np.float32, np.float64)]
    weights = [Tensor(rng.standard_normal(_SHAPE).astype(np.float32)) for _ in steps]

    def run(accumulate):
        leaves = [Tensor(d.copy(), requires_grad=True) for d in data]
        with Tape():
            grads = accumulate(_fanout_loss(steps, leaves, weights))
        return [(grads[t].dtype, grads[t].tobytes()) if t in grads else None for t in leaves]

    assert run(backward) == run(_copying_backward)


def test_threads_backward_over_shared_leaves_as_a_serial_run_does():
    """Two threads, each with a tape of its own over the same leaves, switching every microsecond:
    each round gives each thread the dict its loss gives when run alone, since backward writes to no tensor."""
    rng = np.random.default_rng(25)  # a seed whose two plans each reach all three leaves
    leaves = [Tensor(rng.standard_normal(_SHAPE).astype(dt), requires_grad=True) for dt in (np.float32, np.float32, np.float64)]
    weights = [Tensor(rng.standard_normal(_SHAPE).astype(np.float32)) for _ in range(12)]
    kinds = sorted(_FANOUT_OPS)
    plans = [
        [(kinds[k], i, j) for k, i, j in zip(rng.integers(0, len(kinds), 12), rng.integers(0, 5, 12), rng.integers(0, 5, 12))]
        for _ in range(2)
    ]
    rounds = 20

    def run(plan):
        with Tape():
            grads = backward(_fanout_loss(plan, leaves, weights))
        assert set(grads) <= set(leaves)
        return [(grads[t].dtype, grads[t].tobytes()) if t in grads else None for t in leaves]

    want = [run(plan) for plan in plans]
    assert want[0] != want[1] and all(g is not None for w in want for g in w)
    got = [[] for _ in plans]
    start = threading.Barrier(len(plans))

    def worker(p):
        start.wait(timeout=60)
        for _ in range(rounds):
            got[p].append(run(plans[p]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(p,)) for p in range(len(plans))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[w] * rounds for w in want]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the pinned thresholds are glibc's")
def test_freed_blocks_stay_mapped_for_the_next_allocations():
    """Importing colo.tensor pins malloc's thresholds: 64 MiB of 1 MiB blocks, freed and
    allocated again, come back from pages already mapped (glibc's default adaptive
    thresholds unmap them and fault them in again, about 16K faults)."""
    import resource

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    blocks = [np.ones(1 << 18, dtype=np.float32) for _ in range(64)]
    del blocks
    before = faults()
    blocks = [np.ones(1 << 18, dtype=np.float32) for _ in range(64)]
    assert faults() - before < 500
