"""Finite-difference verification suite for every differentiable op and the
composite losses, run at float64.  Backs the ``colo gradcheck`` command."""

import functools
from dataclasses import dataclass

import numpy as np

from . import contrastive as K
from . import model as M
from . import tensor as T
from .corpus import Corpus, CorpusConfig, Vocab, generate_corpus
from .rng import derive_rng
from .tensor import Tensor, finite_diff_check
from .trainer import TrainConfig

OP_THRESHOLD = 1e-5
COMPOSITE_THRESHOLD = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    threshold: float

    @property
    def passed(self):
        return self.max_rel_err < self.threshold


def _t(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad, dtype=np.float64)


def _pos(rng, *shape, requires_grad=True):
    """Entries bounded away from zero, for div and sqrt."""
    return Tensor(np.abs(rng.standard_normal(shape)) + 0.5, requires_grad=requires_grad, dtype=np.float64)


def _wsum(y, w):
    """Scalar that weights every output coordinate differently."""
    return T.sum_(T.mul(y, w))


def op_cases():
    """(name, f, at) per primitive op, at float64: ``f`` maps the leaf ``at`` to a scalar.

    Built fresh on each call from a fixed seed, so a check, which perturbs ``at.data`` in place
    while it differences ``f``, shares no leaf with another caller's check.
    """
    rng = np.random.default_rng(2024)
    leaf = functools.partial(_t, rng)
    c = functools.partial(_t, rng, requires_grad=False)
    # the constant operands, drawn first; each case's leaf is drawn after them, in list order
    w34, c34, b4, pos34 = c(3, 4), c(3, 4), c(4), _pos(rng, 3, 4, requires_grad=False)
    b42, b2, w32, w232, a54, w52, a234 = c(4, 2), c(2), c(3, 2), c(2, 3, 2), c(5, 4), c(5, 2), c(2, 3, 4)
    f1, fb1, f2, fb2 = c(4, 5), c(5), c(5, 2), c(2)
    w3, w43, w44 = c(3), c(4, 3), c(4, 4)
    q2412, k2412, v2412, w2412 = c(2, 4, 12), c(2, 4, 12), c(2, 4, 12), c(2, 4, 12)
    gain, bias, wln, x48 = c(8), c(8), c(4, 8), c(4, 8)
    w6, w23, w28, v36, v236 = c(6), c(2, 3), c(2, 8), c(3, 6), c(2, 3, 6)
    targets = np.array([3, 0, 7, 2, 9, 5])
    t23 = targets.reshape(2, 3)
    pmask = np.array([[True, False, True, True, False], [False, True, False, False, False]])
    # decoder self-attention mask, (B, 1, T, T): causal, and the second example's last key is padding
    f64 = np.dtype(np.float64)
    amask = M.causal_mask(4, f64) + M.key_mask(np.array([[True] * 4, [True] * 3 + [False]]), f64)
    # fixed boolean dropout masks of attention's probabilities and of ffn's output
    keep = np.arange(2 * 3 * 4 * 4).reshape(2, 3, 4, 4) % 5 != 0
    drop = np.arange(6).reshape(3, 2) % 3 != 0
    return [
        ("add_broadcast", lambda x: _wsum(T.add(x, b4), w34), leaf(3, 4)),
        ("sub", lambda x: _wsum(T.sub(x, c34), w34), leaf(3, 4)),
        ("mul", lambda x: _wsum(T.mul(x, c34), w34), leaf(3, 4)),
        ("div", lambda x: _wsum(T.div(c34, x), w34), _pos(rng, 3, 4)),
        ("div_numerator", lambda x: _wsum(T.div(x, pos34), w34), leaf(3, 4)),
        ("sqrt", lambda x: _wsum(T.sqrt(x), w34), _pos(rng, 3, 4)),
        ("tanh", lambda x: _wsum(T.tanh(x), w34), leaf(3, 4)),
        ("relu", lambda x: _wsum(T.relu(x), w34), leaf(3, 4)),
        ("matmul_2d", lambda x: _wsum(T.matmul(x, b42), w32), leaf(3, 4)),
        ("matmul_batched", lambda x: _wsum(T.matmul(x, b42), w232), leaf(2, 3, 4)),
        ("matmul_2d_bias", lambda x: _wsum(T.matmul(x, b42, b2), w32), leaf(3, 4)),
        ("matmul_batched_bias", lambda x: _wsum(T.matmul(x, b42, b2), w232), leaf(2, 3, 4)),
        ("matmul_rhs", lambda w: _wsum(T.matmul(a54, w), w52), leaf(4, 2)),
        # under a batched left operand, the weight's and the bias's gradients sum over the batch
        ("matmul_rhs_broadcast", lambda w: _wsum(T.matmul(a234, w), w232), leaf(4, 2)),
        ("matmul_rhs_broadcast_bias", lambda w: _wsum(T.matmul(a234, w, b2), w232), leaf(4, 2)),
        ("matmul_bias", lambda b: _wsum(T.matmul(a234, b42, b), w232), leaf(2)),
        ("ffn_x", lambda x: _wsum(T.ffn(x, f1, fb1, f2, fb2), w32), leaf(3, 4)),
        ("ffn_x_keep", lambda x: _wsum(T.ffn(x, f1, fb1, f2, fb2, drop, 1.5), w32), leaf(3, 4)),
        # the weights' and biases' gradients sum over the batched input
        ("ffn_w1", lambda w: _wsum(T.ffn(a234, w, fb1, f2, fb2), w232), leaf(4, 5)),
        ("ffn_b1", lambda b: _wsum(T.ffn(a234, f1, b, f2, fb2), w232), leaf(5)),
        ("ffn_w2", lambda w: _wsum(T.ffn(a234, f1, fb1, w, fb2), w232), leaf(5, 2)),
        ("ffn_b2", lambda b: _wsum(T.ffn(a234, f1, fb1, f2, b), w232), leaf(2)),
        ("sum_axis", lambda x: _wsum(T.sum_(x, axis=1), w3), leaf(3, 4)),
        ("reshape", lambda x: _wsum(T.reshape(x, (4, 3)), w43), leaf(3, 4)),
        ("swapaxes", lambda x: _wsum(T.swapaxes(x, 0, 1), w43), leaf(3, 4)),
        ("slice0", lambda x: _wsum(T.slice0(x, 1, 4), w34), leaf(5, 4)),
        ("take_rows", lambda x: _wsum(T.take_rows(x, np.array([0, 2, 2, 5])), w44), leaf(6, 4)),
        # (B, Tq, H·dh) operands over 3 heads; the k and v cases also drop the probabilities ``keep`` marks False
        ("attention_q", lambda q: _wsum(T.attention(q, k2412, v2412, 3, amask), w2412), leaf(2, 4, 12)),
        ("attention_k", lambda k: _wsum(T.attention(q2412, k, v2412, 3, amask, keep, 1.25), w2412), leaf(2, 4, 12)),
        ("attention_v", lambda v: _wsum(T.attention(q2412, k2412, v, 3, amask, keep, 1.25), w2412), leaf(2, 4, 12)),
        ("layer_norm_x", lambda x: _wsum(T.layer_norm(x, gain, bias), wln), leaf(4, 8)),
        ("layer_norm_gain", lambda g: _wsum(T.layer_norm(x48, g, bias), wln), leaf(8)),
        ("layer_norm_bias", lambda b: _wsum(T.layer_norm(x48, gain, b), wln), leaf(8)),
        ("cross_entropy_rows", lambda x: _wsum(T.cross_entropy_rows(x, targets), w6), leaf(6, 11)),
        ("cross_entropy_rows_batched", lambda x: _wsum(T.cross_entropy_rows(x, t23), w23), leaf(2, 3, 11)),
        ("masked_mean_pool", lambda x: _wsum(T.masked_mean_pool(x, pmask), w28), leaf(2, 5, 8)),
        ("cosine_rows", lambda u: _wsum(T.cosine_rows(u, v36), w3), leaf(3, 6)),
        # cosines to a (2, 3, 6) block, whose gradient sums over its first axis
        ("cosine_rows_stacked", lambda u: _wsum(T.cosine_rows(u, v236), w23), leaf(3, 6)),
    ]


def op_checks():
    """(name, max relative error) for each case of :func:`op_cases`."""
    return [(name, finite_diff_check(f, at)) for name, f, at in op_cases()]


def _micro_fixture():
    cfg = CorpusConfig(
        n_entities=3,
        n_aspects=2,
        n_opinions=2,
        n_aliases_per_item=1,
        n_attrs_per_category=2,
        n_examples=4,
        split_ratio=(0.5, 0.25, 0.25),
        distractor_range=(0, 1),
        profile_attrs_range=(1, 1),
        ref_len_bounds=(12, 26),
        seed=99,
    )
    lexicon, examples = generate_corpus(cfg)
    vocab = Vocab.build(lexicon)
    mcfg = M.ModelConfig(
        vocab_size=len(vocab),
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        max_src_len=16,
        max_tgt_len=26,
        dropout_rate=0.0,
        proj_hidden=8,
    )
    params = M.init_params(mcfg, seed=5, dtype=np.float64)
    # scaled-normal init keeps attention near-symmetric, which drives many
    # gradient coordinates toward zero and lets finite-difference roundoff
    # dominate the relative error; a fixed bump makes every path substantive
    bump = derive_rng(17)
    for name in params:
        params[name].data += bump.standard_normal(params[name].shape) * 0.1
    return Corpus(lexicon, examples), vocab, mcfg, params


def composite_checks():
    """Check the default ``TrainConfig`` objective's lm/ce/cd/total gradients for every micro-model parameter."""
    corpus, vocab, mcfg, params = _micro_fixture()
    examples = corpus.examples[:2]
    csets = [
        K.build_contrastive_set(ex.tuple, corpus.lexicon, derive_rng(31, i))
        for i, ex in enumerate(examples)
    ]

    def loss_fn(component):
        def f(_):
            bd = K.total_loss_batch(params, mcfg, examples, csets, corpus.lexicon, vocab, TrainConfig())
            return getattr(bd, component)

        return f

    results = []
    for component in ("lm", "ce", "cd", "total"):
        worst = 0.0
        f = loss_fn(component)
        for name in params:
            err = finite_diff_check(f, params[name])
            worst = max(worst, err)
        results.append((f"composite_{component}", worst))
    return results


def run_all():
    results = [CheckResult(name, err, OP_THRESHOLD) for name, err in op_checks()]
    results += [CheckResult(name, err, COMPOSITE_THRESHOLD) for name, err in composite_checks()]
    return results
