import numpy as np
import pytest

from colo import model as M
from colo import tensor as T
from colo import tokens as tok
from colo.rng import derive_rng
from colo.tensor import Tape, Tensor, backward


@pytest.fixture(scope="module")
def tiny_cfg():
    return M.ModelConfig(
        vocab_size=32,
        d_model=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=24,
        max_src_len=12,
        max_tgt_len=16,
        dropout_rate=0.0,
        proj_hidden=12,
    )


@pytest.fixture(scope="module")
def tiny_params(tiny_cfg):
    return M.init_params(tiny_cfg, seed=1)


def ids(*xs):
    return np.array(xs, dtype=np.int32)


def enc1(params, cfg, *src):
    """encode_batch on a batch of one unpadded source: ((1, T, d) states, (1, T) mask)."""
    mask = np.ones((1, len(src)), dtype=bool)
    return M.encode_batch(params, cfg, ids(*src)[None, :], mask), mask


def logits1(params, cfg, enc, tgt):
    """Teacher-forced (1, T, V) logits of one target prefix over ``enc`` = enc1(...)."""
    states = M.decode_states_batch(params, cfg, *enc, tgt[None, :], np.ones((1, len(tgt)), dtype=bool))
    return M.lm_head(params, states)


# ---------------------------------------------------------------------------
# init


def test_init_deterministic(tiny_cfg):
    a = M.init_params(tiny_cfg, seed=5)
    b = M.init_params(tiny_cfg, seed=5)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes()


def test_init_different_seed_differs(tiny_cfg):
    a = M.init_params(tiny_cfg, seed=5)
    b = M.init_params(tiny_cfg, seed=6)
    assert a["emb.tok"].data.tobytes() != b["emb.tok"].data.tobytes()


def test_param_count_matches_formula():
    cfg = M.ModelConfig(vocab_size=256)
    params = M.init_params(cfg, seed=0)
    d, dff, ph, v = 64, 256, 128, 256
    attn = 4 * d * d + 3 * d  # q/v/o biases only; a key bias cancels in softmax
    ffn = d * dff + dff + dff * d + d
    ln = 2 * d
    enc_layer = attn + ffn + 2 * ln
    dec_layer = 2 * attn + ffn + 3 * ln
    expected = (
        v * d
        + 48 * d
        + 161 * d
        + 2 * enc_layer
        + 2 * dec_layer
        + 2 * ln
        + 2 * (d * ph + ph + ph * d + d)
    )
    assert sum(t.size for t in params.values()) == expected


def test_biases_zero_gains_one(tiny_params):
    for name, t in tiny_params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b"):
            assert np.all(t.data == 0.0), name
        if leaf == "g":
            assert np.all(t.data == 1.0), name


# ---------------------------------------------------------------------------
# encoder


def test_encode_shape(tiny_params, tiny_cfg):
    out, _ = enc1(tiny_params, tiny_cfg, 4, 5, 6)
    assert out.shape == (1, 3, tiny_cfg.d_model)


def test_encode_overlong_raises(tiny_params, tiny_cfg):
    with pytest.raises(M.LengthError):
        enc1(tiny_params, tiny_cfg, *(np.arange(20) % 8))


def test_encode_deterministic_without_dropout(tiny_params, tiny_cfg):
    a = enc1(tiny_params, tiny_cfg, 4, 5, 6)[0].data
    b = enc1(tiny_params, tiny_cfg, 4, 5, 6)[0].data
    assert a.tobytes() == b.tobytes()


def test_encode_padding_invariance(tiny_params, tiny_cfg):
    seq = [4, 5, 6, 7]
    short = np.array([seq + [tok.PAD_ID] * 2], dtype=np.int32)
    long = np.array([seq + [tok.PAD_ID] * 6], dtype=np.int32)
    mask_s = np.array([[True] * 4 + [False] * 2])
    mask_l = np.array([[True] * 4 + [False] * 6])
    out_s = M.encode_batch(tiny_params, tiny_cfg, short, mask_s).data[0, :4]
    out_l = M.encode_batch(tiny_params, tiny_cfg, long, mask_l).data[0, :4]
    assert np.allclose(out_s, out_l, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# decoder


def test_decode_shape(tiny_params, tiny_cfg):
    enc = enc1(tiny_params, tiny_cfg, 4, 5, 6)
    logits = logits1(tiny_params, tiny_cfg, enc, ids(tok.BOS_ID, 8, 9, 10))
    assert logits.shape == (1, 4, tiny_cfg.vocab_size)


def test_decode_requires_bos(tiny_params, tiny_cfg):
    enc = enc1(tiny_params, tiny_cfg, 4, 5, 6)
    with pytest.raises(ValueError):
        logits1(tiny_params, tiny_cfg, enc, ids(8, 9))


def test_decode_causality(tiny_params, tiny_cfg):
    enc = enc1(tiny_params, tiny_cfg, 4, 5, 6)
    base = logits1(tiny_params, tiny_cfg, enc, ids(tok.BOS_ID, 8, 9, 10)).data[0]
    for t in range(3):
        mutated = [tok.BOS_ID, 8, 9, 10]
        mutated[t + 1] = 21
        got = logits1(tiny_params, tiny_cfg, enc, ids(*mutated)).data[0]
        assert np.allclose(base[: t + 1], got[: t + 1], atol=1e-6), f"position {t}"


def test_decode_overlong_raises(tiny_params, tiny_cfg):
    enc = enc1(tiny_params, tiny_cfg, 4, 5)
    tgt = np.full(tiny_cfg.max_tgt_len + 2, 4, dtype=np.int32)
    tgt[0] = tok.BOS_ID
    with pytest.raises(M.LengthError):
        logits1(tiny_params, tiny_cfg, enc, tgt)


def test_zero_layer_decoder_reduces_to_embedding_head(tiny_cfg):
    cfg = M.ModelConfig(
        vocab_size=tiny_cfg.vocab_size,
        d_model=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=0,
        d_ff=24,
        max_src_len=12,
        max_tgt_len=16,
        dropout_rate=0.0,
        proj_hidden=12,
    )
    params = M.init_params(cfg, seed=3)
    tgt = ids(tok.BOS_ID, 7, 9)
    logits = logits1(params, cfg, enc1(params, cfg, 4, 5), tgt).data[0]

    emb = params["emb.tok"].data
    pos = params["emb.pos_dec"].data
    x = emb[np.asarray(tgt)] + pos[: len(tgt)]
    mu = x.mean(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    states = xhat * params["dec.ln_f.g"].data + params["dec.ln_f.b"].data
    expected = states @ emb.T
    assert np.allclose(logits, expected, atol=1e-5)


# ---------------------------------------------------------------------------
# embedding tying


def test_embedding_tying_single_storage(tiny_cfg):
    params = M.init_params(tiny_cfg, seed=2)
    tgt = ids(tok.BOS_ID, 6)
    enc_before = enc1(params, tiny_cfg, 4, 5)
    logits_before = logits1(params, tiny_cfg, enc_before, tgt).data.copy()
    # non-uniform bump (a constant row shift would cancel in layer norm)
    params["emb.tok"].data[4, 0] += 0.5
    params["emb.tok"].data[6, 1] -= 0.5
    enc_after = enc1(params, tiny_cfg, 4, 5)
    logits_after = logits1(params, tiny_cfg, enc_after, tgt).data
    assert not np.allclose(enc_before[0].data, enc_after[0].data)
    assert not np.allclose(logits_before, logits_after)


def test_tied_embedding_accumulates_all_paths(tiny_cfg):
    params = M.init_params(tiny_cfg, seed=4)
    tgt_in, labels, lmask = M.make_target_arrays([ids(8, 9)])
    with Tape():
        enc, smask = enc1(params, tiny_cfg, 4, 5, 6)
        nll, _ = M.nll_per_example(params, tiny_cfg, enc, smask, tgt_in, labels, lmask)
        backward(T.mean_(nll))
    assert params["emb.tok"].grad is not None
    # rows used by encoder input, decoder input, and every row via the head
    assert np.abs(params["emb.tok"].grad).sum() > 0


# ---------------------------------------------------------------------------
# projections


def test_projections_differ_and_shapes(tiny_params, tiny_cfg):
    v = Tensor(np.random.default_rng(0).standard_normal((3, tiny_cfg.d_model)).astype(np.float32))
    pe = M.project(tiny_params, "enc", v)
    pd = M.project(tiny_params, "dec", v)
    assert pe.shape == (3, tiny_cfg.d_model)
    assert pd.shape == (3, tiny_cfg.d_model)
    assert not np.allclose(pe.data, pd.data)


def test_projection_gradient(tiny_cfg):
    params = M.init_params(tiny_cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, tiny_cfg.d_model)), requires_grad=True, dtype=np.float64)

    def f(v):
        return T.sum_(M.project(params, "enc", v))

    assert T.finite_diff_check(f, x) < 1e-4


def test_relation_embedding_is_masked_pool(tiny_params, tiny_cfg):
    # the pooled relation embedding the losses score: a mean over unpadded encoder states
    src, mask = M.pad_sources([ids(4, 5, 6), ids(7, 8, 9, 10)])
    states = M.encode_batch(tiny_params, tiny_cfg, src, mask)
    pooled = T.masked_mean_pool(states, mask)
    assert np.allclose(pooled.data[0], states.data[0, :3].mean(axis=0), atol=1e-6)
    assert np.allclose(pooled.data[1], states.data[1].mean(axis=0), atol=1e-6)


# ---------------------------------------------------------------------------
# lm loss


def test_lm_loss_near_uniform_at_init():
    cfg = M.ModelConfig(vocab_size=256)
    params = M.init_params(cfg, seed=0)
    rng = np.random.default_rng(3)
    tgt_in, labels, lmask = M.make_target_arrays([rng.integers(8, 256, size=12).astype(np.int32)])
    enc, smask = enc1(params, cfg, *rng.integers(8, 256, size=10))
    nll, _ = M.nll_per_example(params, cfg, enc, smask, tgt_in, labels, lmask)
    assert abs(nll.data[0] - np.log(256)) < 0.5


def test_lm_loss_pad_invariant(tiny_params, tiny_cfg):
    src = [ids(4, 5, 6)]
    refs = [ids(8, 9, 10)]
    src_arr, smask = M.pad_sources(src)
    tgt_in, labels, lmask = M.make_target_arrays(refs)
    enc = M.encode_batch(tiny_params, tiny_cfg, src_arr, smask)
    base, _ = M.nll_per_example(tiny_params, tiny_cfg, enc, smask, tgt_in, labels, lmask)

    pad_n = 4
    tgt_in2 = np.concatenate([tgt_in, np.full((1, pad_n), tok.PAD_ID, dtype=np.int32)], axis=1)
    labels2 = np.concatenate([labels, np.full((1, pad_n), tok.PAD_ID, dtype=np.int32)], axis=1)
    lmask2 = np.concatenate([lmask, np.zeros((1, pad_n), dtype=bool)], axis=1)
    padded, _ = M.nll_per_example(tiny_params, tiny_cfg, enc, smask, tgt_in2, labels2, lmask2)
    assert np.allclose(base.data, padded.data, atol=1e-6)


def test_dropout_changes_output_and_eval_is_deterministic(tiny_cfg):
    cfg = M.ModelConfig(
        vocab_size=32, d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=24, max_src_len=12, max_tgt_len=16, dropout_rate=0.5, proj_hidden=12,
    )
    params = M.init_params(cfg, seed=9)
    src = np.array([[4, 5, 6]], dtype=np.int32)
    mask = np.ones((1, 3), dtype=bool)
    t1 = M.encode_batch(params, cfg, src, mask, rng=derive_rng(0)).data
    t2 = M.encode_batch(params, cfg, src, mask, rng=derive_rng(1)).data
    assert not np.allclose(t1, t2)
    e1 = M.encode_batch(params, cfg, src, mask).data
    e2 = M.encode_batch(params, cfg, src, mask).data
    assert e1.tobytes() == e2.tobytes()


def test_forward_counters(tiny_params, tiny_cfg, pass_rows):
    src = np.array([[4, 5, 6], [7, 8, 9]], dtype=np.int32)
    mask = np.ones((2, 3), dtype=bool)
    enc = M.encode_batch(tiny_params, tiny_cfg, src, mask)
    tgt_in, labels, lmask = M.make_target_arrays([ids(8, 9), ids(10,)])
    M.nll_per_example(tiny_params, tiny_cfg, enc, mask, tgt_in, labels, lmask)
    assert pass_rows == {"encode": 2, "decode": 2}
