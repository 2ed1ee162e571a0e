"""Small transformer encoder-decoder with pooled relation embeddings.

Pre-LN layers, learned absolute positions, embeddings tied three ways
(encoder input, decoder input, LM head).  Every forward function takes a padded
(B, T) id batch plus its mask and returns tape tensors; a single sequence is a
batch of one.  A pass uses dropout when it is given a generator ``rng``, and
only then: it draws each boolean keep mask just before the fused attention or
feed-forward op that applies it.  Two feed-forward projection heads (one per
side) map (B, d) pooled representations before similarity scoring.

Generation runs the same decoder layers a position at a time: :func:`decode_step`
takes a token per row and a :class:`DecoderCache` of the rows' earlier
self-attention keys and values and the source's cross-attention ones.
Queries, keys and values stay in the (B, T, d) layout their projections
produce, and the cache stores them so; ``T.attention`` splits the heads.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import tensor as T
from . import tokens as tok
from .corpus import SOURCE_TUPLE_LEN
from .errors import ConfigError
from .tensor import Tensor

ATTN_MASK_OFF = -1e9
INIT_STD = 0.02

class LengthError(Exception):
    """Input sequence exceeds the configured maximum length."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    max_src_len: int = 48
    max_tgt_len: int = 160
    dropout_rate: float = 0.1
    proj_hidden: int = 128

    def __post_init__(self):
        for name in ("d_model", "n_heads", "d_ff", "proj_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("n_enc_layers", "n_dec_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.max_src_len < SOURCE_TUPLE_LEN:  # a shorter source would cut the tuple itself
            raise ConfigError(f"max_src_len must be >= {SOURCE_TUPLE_LEN}, got {self.max_src_len}")
        if self.max_tgt_len < 2:
            raise ConfigError(f"max_tgt_len must be >= 2, got {self.max_tgt_len}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")


def param_shapes(cfg: ModelConfig):
    d, dff, ph = cfg.d_model, cfg.d_ff, cfg.proj_hidden
    shapes = {
        "emb.tok": (cfg.vocab_size, d),
        "emb.pos_enc": (cfg.max_src_len, d),
        "emb.pos_dec": (cfg.max_tgt_len + 1, d),  # room for the BOS prefix
        "enc.ln_f.g": (d,),
        "enc.ln_f.b": (d,),
        "dec.ln_f.g": (d,),
        "dec.ln_f.b": (d,),
    }

    def attn(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{w}"] = (d, d)
        # no key bias: a constant added to every key shifts each score row
        # uniformly and cancels in softmax, leaving a zero-gradient parameter
        for b in ("bq", "bv", "bo"):
            shapes[f"{prefix}.{b}"] = (d,)

    def ffn(prefix):
        shapes[f"{prefix}.w1"] = (d, dff)
        shapes[f"{prefix}.b1"] = (dff,)
        shapes[f"{prefix}.w2"] = (dff, d)
        shapes[f"{prefix}.b2"] = (d,)

    def ln(prefix):
        shapes[f"{prefix}.g"] = (d,)
        shapes[f"{prefix}.b"] = (d,)

    for i in range(cfg.n_enc_layers):
        attn(f"enc.{i}.attn")
        ffn(f"enc.{i}.ffn")
        ln(f"enc.{i}.ln1")
        ln(f"enc.{i}.ln2")
    for i in range(cfg.n_dec_layers):
        attn(f"dec.{i}.self")
        attn(f"dec.{i}.cross")
        ffn(f"dec.{i}.ffn")
        ln(f"dec.{i}.ln1")
        ln(f"dec.{i}.ln2")
        ln(f"dec.{i}.ln3")
    for side in ("enc", "dec"):
        shapes[f"proj.{side}.w1"] = (d, ph)
        shapes[f"proj.{side}.b1"] = (ph,)
        shapes[f"proj.{side}.w2"] = (ph, d)
        shapes[f"proj.{side}.b2"] = (d,)
    return shapes


def init_params(cfg: ModelConfig, seed, dtype=np.float32):
    """Parameter tensors by name, sorted: scaled-normal weights (std 0.02), zero biases, unit layer-norm gains."""
    tensors = {}
    for idx, (name, shape) in enumerate(sorted(param_shapes(cfg).items())):
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b") or name.endswith(".b"):
            data = np.zeros(shape, dtype=dtype)
        elif name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        else:
            r = rngmod.derive_rng(seed, rngmod.INIT, idx)
            data = (r.standard_normal(shape) * INIT_STD).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return dict(sorted(tensors.items()))


# ---------------------------------------------------------------------------
# forward pieces


def _keep_mask(shape, rate, rng, dtype):
    """Inverted dropout over ``shape``: (boolean keep mask, scale of the kept entries), or (None, None) when off."""
    if rng is None or rate <= 0.0:  # a pass uses dropout when it is given a generator, and only then
        return None, None
    # the float64 draw fixes the RNG stream; the mask stays boolean, and the
    # ops that take it multiply kept entries by 1/(1-rate) in the tensor's dtype
    dt = dtype.type
    return rng.random(shape) >= rate, dt(1.0) / dt(1.0 - rate)


def _queries(params, prefix, q_in):
    return T.matmul(q_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"])


def _keys_values(params, prefix, kv_in):
    """The (B, T, d) keys and values of ``kv_in``."""
    return T.matmul(kv_in, params[f"{prefix}.wk"]), T.matmul(kv_in, params[f"{prefix}.wv"], params[f"{prefix}.bv"])


def _attend(params, prefix, q, k, v, add_mask, cfg, rng):
    """Multi-head attention over (B, T, d) q, k, v.

    ``add_mask`` is an additive mask in the params' dtype, or None.

    Callers project q before k and v, so the tape records those projections
    in that order and their shared input's gradient always sums in one order.
    """
    probs_shape = (q.shape[0], cfg.n_heads, q.shape[1], k.shape[1])
    keep, keep_scale = _keep_mask(probs_shape, cfg.dropout_rate, rng, q.data.dtype)
    ctx = T.attention(q, k, v, cfg.n_heads, add_mask, keep, keep_scale)
    return T.matmul(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _ffn(params, prefix, x, cfg, rng):
    w1, b1, w2, b2 = (params[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2"))
    keep, keep_scale = _keep_mask(x.data.shape[:-1] + b2.data.shape, cfg.dropout_rate, rng, x.data.dtype)
    return T.ffn(x, w1, b1, w2, b2, keep, keep_scale)


def _ln(params, prefix, x):
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def key_mask(mask_bool, dtype):
    # (B, Tk) boolean -> additive (B, 1, 1, Tk)
    m = np.where(np.asarray(mask_bool, dtype=bool), dtype.type(0.0), dtype.type(ATTN_MASK_OFF))
    return m[:, None, None, :]


def causal_mask(t, dtype):
    m = np.triu(np.full((t, t), ATTN_MASK_OFF, dtype=dtype), k=1)
    return m[None, None, :, :]


def _embed(params, ids, pos_table, start=0):
    ids = np.asarray(ids)
    tok_emb = T.take_rows(params["emb.tok"], ids)
    pos_emb = T.take_rows(params[pos_table], np.arange(start, start + ids.shape[1]))
    return T.add(tok_emb, pos_emb)


# ---------------------------------------------------------------------------
# encoder / decoder


def encode_batch(params, cfg, src_ids, src_mask, rng=None):
    """Contextual states for a (B, T) id batch; returns a (B, T, d) tensor."""
    src_ids = np.asarray(src_ids)
    if src_ids.ndim != 2:
        raise LengthError("encode_batch expects a (B, T) id array")
    if src_ids.shape[1] > cfg.max_src_len:
        raise LengthError(f"source length {src_ids.shape[1]} > max_src_len {cfg.max_src_len}")
    mask = key_mask(src_mask, params["emb.tok"].dtype)
    x = _embed(params, src_ids, "emb.pos_enc")
    for i in range(cfg.n_enc_layers):
        h, p = _ln(params, f"enc.{i}.ln1", x), f"enc.{i}.attn"
        q = _queries(params, p, h)
        x = T.add(x, _attend(params, p, q, *_keys_values(params, p, h), mask, cfg, rng))
        x = T.add(x, _ffn(params, f"enc.{i}.ffn", _ln(params, f"enc.{i}.ln2", x), cfg, rng))
    return _ln(params, "enc.ln_f", x)


def decode_states_batch(params, cfg, enc_states, enc_mask, tgt_in, tgt_mask, rng=None):
    """Decoder hidden states (pre-logits) for teacher forcing."""
    tgt_in = np.asarray(tgt_in)
    if tgt_in.ndim != 2:
        raise LengthError("decode expects a (B, T) id array")
    if tgt_in.shape[1] > cfg.max_tgt_len + 1:
        raise LengthError(f"target length {tgt_in.shape[1]} > max_tgt_len+1 {cfg.max_tgt_len + 1}")
    if not np.all(tgt_in[:, 0] == tok.BOS_ID):
        raise ValueError("decoder input must begin with BOS")
    t = tgt_in.shape[1]
    dtype = params["emb.tok"].dtype
    self_mask = causal_mask(t, dtype) + key_mask(tgt_mask, dtype)
    cross_mask = key_mask(enc_mask, dtype)
    x = _embed(params, tgt_in, "emb.pos_dec")
    return _decoder_layers(
        params, cfg, x, lambda i, h: _keys_values(params, f"dec.{i}.self", h),
        lambda i: _keys_values(params, f"dec.{i}.cross", enc_states), self_mask, cross_mask, rng,
    )


def _decoder_layers(params, cfg, x, self_kv, cross_kv, self_mask, cross_mask, rng):
    """Decoder layers and final norm over embedded targets ``x``.

    ``self_kv(i, h)`` and ``cross_kv(i)`` give layer i's keys and
    values: the one thing teacher forcing and cached decoding do differently.
    """
    for i in range(cfg.n_dec_layers):
        h, p = _ln(params, f"dec.{i}.ln1", x), f"dec.{i}.self"
        x = T.add(x, _attend(params, p, _queries(params, p, h), *self_kv(i, h), self_mask, cfg, rng))
        h, p = _ln(params, f"dec.{i}.ln2", x), f"dec.{i}.cross"
        x = T.add(x, _attend(params, p, _queries(params, p, h), *cross_kv(i), cross_mask, cfg, rng))
        x = T.add(x, _ffn(params, f"dec.{i}.ffn", _ln(params, f"dec.{i}.ln3", x), cfg, rng))
    return _ln(params, "dec.ln_f", x)


def lm_head(params, states):
    """Logits through the tied embedding matrix."""
    return T.matmul(states, T.swapaxes(params["emb.tok"], 0, 1))


# ---------------------------------------------------------------------------
# cached incremental decoding


def source_keys_values(params, cfg, src_ids):
    """Each decoder layer's (1, S, d) cross-attention (keys, values) for one source sequence."""
    src = np.asarray(src_ids, dtype=np.int32)[None, :]
    with T.no_grad():
        enc = encode_batch(params, cfg, src, np.ones(src.shape, dtype=bool))
        return [_keys_values(params, f"dec.{i}.cross", enc) for i in range(cfg.n_dec_layers)]


class DecoderCache:
    """``cross`` from :func:`source_keys_values`, and the self-attention keys and values
    of the ``t`` positions decoded so far, in a
    (layers, 2, rows, max_tgt_len + 1, d_model) buffer written in place.
    A search starts from one row; :meth:`select` adds rows.
    """

    def __init__(self, cfg, cross):
        self.cross, self.t = cross, 0
        self.kv = np.zeros((cfg.n_dec_layers, 2, 1, cfg.max_tgt_len + 1, cfg.d_model), dtype=cross[0][0].dtype)

    def write(self, i, k, v):
        """Store layer i's (n, 1, d) keys and values at position t; return those of positions 0..t."""
        kv = self.kv[i, :, : k.shape[0]]
        kv[0, :, self.t], kv[1, :, self.t] = k.data[:, 0], v.data[:, 0]
        return Tensor(kv[0, :, : self.t + 1]), Tensor(kv[1, :, : self.t + 1])

    def select(self, idx):
        """Row j takes over row ``idx[j]``; rows may repeat, move or drop.

        Only rows whose parent is another row are copied, so a row that keeps
        its own parent (every greedy step) costs nothing.
        """
        idx = np.asarray(idx, dtype=np.intp)
        n, t = len(idx), self.t
        if n > self.kv.shape[2]:
            grown = np.zeros(self.kv.shape[:2] + (n,) + self.kv.shape[3:], dtype=self.kv.dtype)
            grown[:, :, :, :t] = self.kv[:, :, idx, :t]
            self.kv = grown
            return
        moved = np.flatnonzero(idx != np.arange(n))
        if moved.size:
            self.kv[:, :, moved, :t] = self.kv[:, :, idx[moved], :t]


def decode_step(params, cfg, cache, tokens):
    """Next-token logits (n, V) for one token per row at position ``cache.t``, which then advances.

    A no-grad pass of the teacher-forced decoder layers over one position,
    with no masks: each row sees all of its own cached positions.
    """
    if cache.t > cfg.max_tgt_len:
        raise ValueError("decoder ran past max_tgt_len")
    with T.no_grad():
        x = _embed(params, np.asarray(tokens)[:, None], "emb.pos_dec", start=cache.t)
        states = _decoder_layers(
            params, cfg, x, lambda i, h: cache.write(i, *_keys_values(params, f"dec.{i}.self", h)),
            cache.cross.__getitem__, None, None, None,
        )
        cache.t += 1
        return lm_head(params, states).data[:, 0]


# ---------------------------------------------------------------------------
# projections


def project(params, side, x):
    """Side-specific two-layer tanh head over (..., d) pooled representations; ``side`` is "enc" or "dec"."""
    h = T.tanh(T.matmul(x, params[f"proj.{side}.w1"], params[f"proj.{side}.b1"]))
    return T.matmul(h, params[f"proj.{side}.w2"], params[f"proj.{side}.b2"])


# ---------------------------------------------------------------------------
# teacher-forced language modeling


def make_target_arrays(ref_ids_list):
    """Pad refs into int32 (tgt_in, labels) and boolean label_mask arrays, with BOS/EOS."""
    b = len(ref_ids_list)
    t = max(len(r) for r in ref_ids_list) + 1
    tgt_in = np.full((b, t), tok.PAD_ID, dtype=np.int32)
    labels = np.full((b, t), tok.PAD_ID, dtype=np.int32)
    mask = np.zeros((b, t), dtype=bool)
    for i, ref in enumerate(ref_ids_list):
        n = len(ref)
        tgt_in[i, 0] = tok.BOS_ID
        tgt_in[i, 1 : n + 1] = ref
        labels[i, :n] = ref
        labels[i, n] = tok.EOS_ID
        mask[i, : n + 1] = True
    return tgt_in, labels, mask


def pad_sources(src_ids_list):
    """Pad sources into an int32 id array and its boolean mask."""
    b = len(src_ids_list)
    t = max(len(s) for s in src_ids_list)
    src = np.full((b, t), tok.PAD_ID, dtype=np.int32)
    mask = np.zeros((b, t), dtype=bool)
    for i, s in enumerate(src_ids_list):
        src[i, : len(s)] = s
        mask[i, : len(s)] = True
    return src, mask


def nll_per_example(params, cfg, enc_states, enc_mask, tgt_in, labels, label_mask, rng=None):
    """Per-example mean NLL (B,) plus the decoder states used to compute it."""
    states = decode_states_batch(params, cfg, enc_states, enc_mask, tgt_in, label_mask, rng)
    nll = T.cross_entropy_rows(lm_head(params, states), labels)
    mf = Tensor(label_mask.astype(nll.data.dtype))
    counts = Tensor(label_mask.sum(axis=1).astype(nll.data.dtype))
    per_example = T.div(T.sum_(T.mul(nll, mf), axis=1), counts)
    return per_example, states

