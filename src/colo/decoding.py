"""Inference-time generation: greedy and beam search.

Decoding runs on a tape-free numpy path with per-layer key/value caches, so
each step costs one row of attention instead of re-running the whole prefix.
That stepper repeats the decoder forward of ``model.decode_states_batch``;
a test pins its logits against the teacher-forced training path.  The search
routines are written against a small stepper protocol (``start`` / ``step``
/ ``select``) so unit tests can swap in hand-set probability tables and
brute-force enumerate optima.  ``greedy_decode`` and ``beam_search`` are the
model-facing entry points; both decode one source sequence.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from . import tokens as tok
from .tensor import no_grad


@dataclass
class Hypothesis:
    ids: list  # BOS-prefixed token ids
    logprob: float  # cumulative log-probability of generated tokens
    finished: bool

    def generated(self):
        return self.ids[1:]

    def token_count(self):
        return max(1, len(self.ids) - 1)

    def normalized(self, length_norm=1.0):
        return self.logprob / (self.token_count() ** length_norm)


def _log_softmax(x):
    m = x.max(axis=-1, keepdims=True)
    sh = x - m
    return sh - np.log(np.exp(sh).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# transformer stepper with KV cache


class TransformerStepper:
    """Incremental decoder over fixed encoder states for one source sequence."""

    def __init__(self, params, cfg, src_ids):
        from . import model as M  # deferred to avoid import cycle at module load

        self.cfg = cfg
        self.vocab_size = cfg.vocab_size
        self._p = {name: t.data for name, t in params.items()}
        d, h = cfg.d_model, cfg.n_heads
        self.dh = d // h
        self.scale = 1.0 / np.sqrt(self.dh)

        src = np.asarray(src_ids, dtype=np.int32)[None, :]
        mask = np.ones_like(src, dtype=bool)
        with no_grad():
            enc = M.encode_batch(params, cfg, src, mask).data[0]  # (Ts, d)
        self.cross_kv = []
        for i in range(cfg.n_dec_layers):
            k = enc @ self._p[f"dec.{i}.cross.wk"]
            v = enc @ self._p[f"dec.{i}.cross.wv"] + self._p[f"dec.{i}.cross.bv"]
            ts = enc.shape[0]
            self.cross_kv.append(
                (
                    np.ascontiguousarray(k.reshape(ts, h, self.dh).transpose(1, 0, 2)),
                    np.ascontiguousarray(v.reshape(ts, h, self.dh).transpose(1, 0, 2)),
                )
            )

    def start(self):
        # per layer: growing (n, t, d) self-attention K and V
        return {"t": 0, "kv": [[None, None] for _ in range(self.cfg.n_dec_layers)]}

    def _ln(self, name, x):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * self._p[f"{name}.g"] + self._p[f"{name}.b"]

    def step(self, state, tokens):
        """Process one token per hypothesis; return (n, V) next-token log-probs."""
        p, cfg = self._p, self.cfg
        n = len(tokens)
        h, dh = cfg.n_heads, self.dh
        pos = state["t"]
        if pos > cfg.max_tgt_len:
            raise ValueError("decoder ran past max_tgt_len")
        x = p["emb.tok"][np.asarray(tokens)] + p["emb.pos_dec"][pos]  # (n, d)
        for i in range(cfg.n_dec_layers):
            ln1 = self._ln(f"dec.{i}.ln1", x)
            q = ln1 @ p[f"dec.{i}.self.wq"] + p[f"dec.{i}.self.bq"]
            k = ln1 @ p[f"dec.{i}.self.wk"]
            v = ln1 @ p[f"dec.{i}.self.wv"] + p[f"dec.{i}.self.bv"]
            ks, vs = state["kv"][i]
            ks = k[:, None, :] if ks is None else np.concatenate([ks, k[:, None, :]], axis=1)
            vs = v[:, None, :] if vs is None else np.concatenate([vs, v[:, None, :]], axis=1)
            state["kv"][i] = [ks, vs]
            t = ks.shape[1]
            kh = ks.reshape(n, t, h, dh).transpose(0, 2, 1, 3)  # (n, h, t, dh)
            vh = vs.reshape(n, t, h, dh).transpose(0, 2, 1, 3)
            qh = q.reshape(n, h, 1, dh)
            scores = (qh @ kh.transpose(0, 1, 3, 2)) * self.scale  # (n, h, 1, t)
            probs = kernels.softmax_fwd(scores.reshape(-1, t)).reshape(n, h, 1, t)
            ctx = (probs @ vh).reshape(n, h * dh)
            x = x + ctx @ p[f"dec.{i}.self.wo"] + p[f"dec.{i}.self.bo"]

            ln2 = self._ln(f"dec.{i}.ln2", x)
            qc = (ln2 @ p[f"dec.{i}.cross.wq"] + p[f"dec.{i}.cross.bq"]).reshape(n, h, 1, dh)
            kc, vc = self.cross_kv[i]
            scores = (qc @ kc.transpose(0, 2, 1)) * self.scale  # (n, h, 1, Ts)
            ts = kc.shape[1]
            probs = kernels.softmax_fwd(scores.reshape(-1, ts)).reshape(n, h, 1, ts)
            ctx = (probs @ vc).reshape(n, h * dh)
            x = x + ctx @ p[f"dec.{i}.cross.wo"] + p[f"dec.{i}.cross.bo"]

            ln3 = self._ln(f"dec.{i}.ln3", x)
            hid = kernels.gelu_fwd(ln3 @ p[f"dec.{i}.ffn.w1"] + p[f"dec.{i}.ffn.b1"])
            x = x + hid @ p[f"dec.{i}.ffn.w2"] + p[f"dec.{i}.ffn.b2"]
        out = self._ln("dec.ln_f", x)
        logits = out @ p["emb.tok"].T
        state["t"] = pos + 1
        return _log_softmax(logits), state

    def select(self, state, idx):
        idx = np.asarray(idx)
        kv = [
            [None if ks is None else ks[idx], None if vs is None else vs[idx]]
            for ks, vs in state["kv"]
        ]
        return {"t": state["t"], "kv": kv}


# ---------------------------------------------------------------------------
# search over a stepper


def greedy_steps(stepper, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID):
    """Argmax decoding; ties resolve to the smallest token id."""
    state = stepper.start()
    hyp = Hypothesis([bos], 0.0, False)
    for _ in range(max_len):
        logprobs, state = stepper.step(state, [hyp.ids[-1]])
        nxt = int(np.argmax(logprobs[0]))
        hyp.ids.append(nxt)
        hyp.logprob += float(logprobs[0, nxt])
        if nxt == eos:
            break
    hyp.finished = True
    return hyp


def beam_pool(stepper, beam_size, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID, length_norm=1.0):
    """All finished hypotheses the beam discovered, ranked best first.

    Candidates are ranked by cumulative log-probability with ties broken
    lexicographically by token ids; hypotheses that emit EOS (or hit the
    length cap) retire to the pool and the final ranking is by normalized
    score (sum log-prob / token count ** length_norm).
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    live = [Hypothesis([bos], 0.0, False)]
    state = stepper.start()
    pool = []
    for _ in range(max_len):
        if not live:
            break
        logprobs, state = stepper.step(state, [h.ids[-1] for h in live])
        selected = _top_candidates(live, logprobs, beam_size)
        next_live, parent_idx = [], []
        for parent, token, score in selected:
            h = Hypothesis(live[parent].ids + [token], score, False)
            if token == eos:
                h.finished = True
                pool.append(h)
            else:
                next_live.append(h)
                parent_idx.append(parent)
        live = next_live
        if live:
            state = stepper.select(state, parent_idx)
    for h in live:  # length cap reached
        h.finished = True
        pool.append(h)
    pool.sort(key=lambda h: (-h.normalized(length_norm), tuple(h.ids)))
    return pool


def beam_steps(stepper, beam_size, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID, length_norm=1.0):
    """Top beam_size finished hypotheses by normalized score."""
    return beam_pool(stepper, beam_size, max_len, bos, eos, length_norm)[:beam_size]


def _top_candidates(live, logprobs, beam_size):
    """Top beam_size (parent, token, score) with exact lexicographic tie-breaks."""
    n, v = logprobs.shape
    scores = np.asarray([h.logprob for h in live])[:, None] + logprobs
    flat = scores.reshape(-1)
    k = min(beam_size, flat.size)
    if flat.size > k:
        thresh = np.partition(flat, -k)[-k]
        cand_idx = np.nonzero(flat >= thresh)[0]
    else:
        cand_idx = np.arange(flat.size)
    cands = []
    for ci in cand_idx:
        parent, token = divmod(int(ci), v)
        cands.append((parent, token, float(flat[ci])))
    cands.sort(key=lambda c: (-c[2], tuple(live[c[0]].ids + [c[1]])))
    return cands[:k]


# ---------------------------------------------------------------------------
# model-facing surfaces


def greedy_decode(params, cfg, src_ids):
    """Generated token ids (EOS-terminated or max_tgt_len long), no BOS."""
    stepper = TransformerStepper(params, cfg, src_ids)
    return greedy_steps(stepper, cfg.max_tgt_len).generated()


def beam_search(params, cfg, src_ids, beam_size=5, length_norm=1.0):
    """Ranked generated-token sequences (best first)."""
    stepper = TransformerStepper(params, cfg, src_ids)
    return [h.generated() for h in beam_steps(stepper, beam_size, cfg.max_tgt_len, length_norm=length_norm)]
