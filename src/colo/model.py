"""Small transformer encoder-decoder with pooled relation embeddings.

Pre-LN layers, learned absolute positions, embeddings tied three ways
(encoder input, decoder input, LM head).  Every forward function takes a
padded (B, T) id batch plus its mask and returns tape tensors; a single
sequence is a batch of one.  Two feed-forward projection heads (one per
side) map (B, d) pooled representations before similarity scoring.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import tensor as T
from . import tokens as tok
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
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_src_len < 2 or self.max_tgt_len < 2:
            raise ValueError("max lengths must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class ParameterSet:
    """Named, order-stable mapping of parameter tensors (all require grad)."""

    def __init__(self, tensors):
        self._tensors = dict(sorted(tensors.items()))
        for name, t in self._tensors.items():
            if not t.requires_grad:
                raise ValueError(f"parameter {name} must require grad")

    def __getitem__(self, name):
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def __len__(self):
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def values(self):
        return self._tensors.values()

    def n_values(self):
        return sum(t.size for t in self._tensors.values())

    def zero_grads(self):
        for t in self._tensors.values():
            t.zero_grad()


def _param_shapes(cfg: ModelConfig):
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


def expected_param_count(cfg: ModelConfig):
    return sum(int(np.prod(s)) for s in _param_shapes(cfg).values())


def init_params(cfg: ModelConfig, seed, dtype=np.float32) -> ParameterSet:
    """Scaled-normal weights (std 0.02), zero biases, unit layer-norm gains."""
    tensors = {}
    for idx, (name, shape) in enumerate(sorted(_param_shapes(cfg).items())):
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b") or name.endswith(".b"):
            data = np.zeros(shape, dtype=dtype)
        elif name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        else:
            r = rngmod.derive_rng(seed, rngmod.INIT, idx)
            data = (r.standard_normal(shape) * INIT_STD).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return ParameterSet(tensors)


# ---------------------------------------------------------------------------
# forward pieces


def _dropout(x, rate, train, rng):
    if not train or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return T.mul(x, Tensor(keep))


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return T.swapaxes(T.reshape(x, (b, t, n_heads, d // n_heads)), 1, 2)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return T.reshape(T.swapaxes(x, 1, 2), (b, t, h * dh))


def _attention(params, prefix, q_in, kv_in, add_mask, cfg, train, rng):
    """Multi-head attention; ``add_mask`` is an additive numpy mask."""
    q = T.add(T.matmul(q_in, params[f"{prefix}.wq"]), params[f"{prefix}.bq"])
    k = T.matmul(kv_in, params[f"{prefix}.wk"])
    v = T.add(T.matmul(kv_in, params[f"{prefix}.wv"]), params[f"{prefix}.bv"])
    qh = _split_heads(q, cfg.n_heads)
    kh = _split_heads(k, cfg.n_heads)
    vh = _split_heads(v, cfg.n_heads)
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    scores = T.mul(T.matmul(qh, T.swapaxes(kh, -1, -2)), Tensor(np.asarray(scale, dtype=q.dtype)))
    scores = T.add(scores, Tensor(add_mask.astype(scores.data.dtype)))
    probs = T.softmax_last(scores)
    probs = _dropout(probs, cfg.dropout_rate, train, rng)
    ctx = _merge_heads(T.matmul(probs, vh))
    return T.add(T.matmul(ctx, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _ffn(params, prefix, x, cfg, train, rng):
    h = T.gelu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    out = T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])
    return _dropout(out, cfg.dropout_rate, train, rng)


def _ln(params, prefix, x):
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _key_mask(mask_bool):
    # (B, Tk) boolean -> additive (B, 1, 1, Tk)
    m = np.where(np.asarray(mask_bool, dtype=bool), 0.0, ATTN_MASK_OFF)
    return m[:, None, None, :]


def _causal_mask(t):
    m = np.triu(np.full((t, t), ATTN_MASK_OFF), k=1)
    return m[None, None, :, :]


def _embed(params, ids, pos_table):
    ids = np.asarray(ids)
    tok_emb = T.take_rows(params["emb.tok"], ids)
    pos_emb = T.take_rows(params[pos_table], np.arange(ids.shape[1]))
    return T.add(tok_emb, pos_emb)


# ---------------------------------------------------------------------------
# encoder / decoder


def encode_batch(params, cfg, src_ids, src_mask, train=False, rng=None):
    """Contextual states for a (B, T) id batch; returns a (B, T, d) tensor."""
    src_ids = np.asarray(src_ids)
    if src_ids.ndim != 2:
        raise LengthError("encode_batch expects a (B, T) id array")
    if src_ids.shape[1] > cfg.max_src_len:
        raise LengthError(f"source length {src_ids.shape[1]} > max_src_len {cfg.max_src_len}")
    mask = _key_mask(src_mask)
    x = _embed(params, src_ids, "emb.pos_enc")
    for i in range(cfg.n_enc_layers):
        ln1 = _ln(params, f"enc.{i}.ln1", x)
        x = T.add(x, _attention(params, f"enc.{i}.attn", ln1, ln1, mask, cfg, train, rng))
        x = T.add(x, _ffn(params, f"enc.{i}.ffn", _ln(params, f"enc.{i}.ln2", x), cfg, train, rng))
    return _ln(params, "enc.ln_f", x)


def decode_states_batch(params, cfg, enc_states, enc_mask, tgt_in, tgt_mask, train=False, rng=None):
    """Decoder hidden states (pre-logits) for teacher forcing."""
    tgt_in = np.asarray(tgt_in)
    if tgt_in.ndim != 2:
        raise LengthError("decode expects a (B, T) id array")
    if tgt_in.shape[1] > cfg.max_tgt_len + 1:
        raise LengthError(f"target length {tgt_in.shape[1]} > max_tgt_len+1 {cfg.max_tgt_len + 1}")
    if not np.all(tgt_in[:, 0] == tok.BOS_ID):
        raise ValueError("decoder input must begin with BOS")
    t = tgt_in.shape[1]
    self_mask = _causal_mask(t) + _key_mask(tgt_mask)
    cross_mask = _key_mask(enc_mask)
    x = _embed(params, tgt_in, "emb.pos_dec")
    for i in range(cfg.n_dec_layers):
        ln1 = _ln(params, f"dec.{i}.ln1", x)
        x = T.add(x, _attention(params, f"dec.{i}.self", ln1, ln1, self_mask, cfg, train, rng))
        x = T.add(x, _attention(params, f"dec.{i}.cross", _ln(params, f"dec.{i}.ln2", x), enc_states, cross_mask, cfg, train, rng))
        x = T.add(x, _ffn(params, f"dec.{i}.ffn", _ln(params, f"dec.{i}.ln3", x), cfg, train, rng))
    return _ln(params, "dec.ln_f", x)


def lm_head(params, states):
    """Logits through the tied embedding matrix."""
    return T.matmul(states, T.swapaxes(params["emb.tok"], 0, 1))


# ---------------------------------------------------------------------------
# projections


def _project(params, side, x):
    """Side-specific two-layer tanh head over (B, d) pooled representations."""
    h = T.tanh(T.add(T.matmul(x, params[f"proj.{side}.w1"]), params[f"proj.{side}.b1"]))
    return T.add(T.matmul(h, params[f"proj.{side}.w2"]), params[f"proj.{side}.b2"])


def project_enc(params, e):
    return _project(params, "enc", e)


def project_dec(params, e):
    return _project(params, "dec", e)


# ---------------------------------------------------------------------------
# teacher-forced language modeling


def make_target_arrays(ref_ids_list, dtype=np.int32):
    """Pad refs into (tgt_in, labels, label_mask) arrays with BOS/EOS."""
    b = len(ref_ids_list)
    t = max(len(r) for r in ref_ids_list) + 1
    tgt_in = np.full((b, t), tok.PAD_ID, dtype=dtype)
    labels = np.full((b, t), tok.PAD_ID, dtype=dtype)
    mask = np.zeros((b, t), dtype=bool)
    for i, ref in enumerate(ref_ids_list):
        n = len(ref)
        tgt_in[i, 0] = tok.BOS_ID
        tgt_in[i, 1 : n + 1] = ref
        labels[i, :n] = ref
        labels[i, n] = tok.EOS_ID
        mask[i, : n + 1] = True
    return tgt_in, labels, mask


def pad_sources(src_ids_list, dtype=np.int32):
    b = len(src_ids_list)
    t = max(len(s) for s in src_ids_list)
    src = np.full((b, t), tok.PAD_ID, dtype=dtype)
    mask = np.zeros((b, t), dtype=bool)
    for i, s in enumerate(src_ids_list):
        src[i, : len(s)] = s
        mask[i, : len(s)] = True
    return src, mask


def nll_per_example(params, cfg, enc_states, enc_mask, tgt_in, labels, label_mask, train=False, rng=None):
    """Per-example mean NLL (B,) plus the decoder states used to compute it."""
    states = decode_states_batch(params, cfg, enc_states, enc_mask, tgt_in, label_mask, train, rng)
    logits = lm_head(params, states)
    b, t, v = logits.shape
    nll = T.cross_entropy_rows(T.reshape(logits, (b * t, v)), labels.reshape(-1))
    nll = T.reshape(nll, (b, t))
    mf = Tensor(label_mask.astype(nll.data.dtype))
    counts = Tensor(label_mask.sum(axis=1).astype(nll.data.dtype))
    per_example = T.div(T.sum_(T.mul(nll, mf), axis=1), counts)
    return per_example, states

