"""Inference-time generation: greedy and beam search.

The search routines are written against a small stepper protocol
(``start`` / ``step`` / ``select``), so unit tests can swap in hand-set
probability tables and brute-force enumerate optima.  The model's stepper,
:class:`TransformerStepper`, adapts that protocol to ``model.decode_step``,
the key/value-cached pass through the same decoder layers teacher forcing
runs.  Greedy decoding is beam search of width 1.  The search holds its
live beam as arrays and makes a :class:`Hypothesis` only of a row that
retires.  ``greedy_decode`` and ``beam_search`` are the model-facing entry
points; both decode one source sequence.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from . import tokens as tok
from .errors import ConfigError


@dataclass
class Hypothesis:
    """A finished search result: it ends in EOS or has reached the length cap."""

    ids: list  # BOS-prefixed token ids
    logprob: float  # cumulative log-probability of generated tokens

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
# the model as a stepper


class TransformerStepper:
    """Incremental decoder for one source sequence; its state is a ``model.DecoderCache``."""

    def __init__(self, params, cfg, src_ids):
        self.params, self.cfg = params, cfg
        self.cross = model.source_keys_values(params, cfg, src_ids)

    def start(self):
        return model.DecoderCache(self.cfg, self.cross)

    def step(self, state, tokens):
        """Process one token per hypothesis; return (n, V) next-token log-probs."""
        return _log_softmax(model.decode_step(self.params, self.cfg, state, tokens)), state

    def select(self, state, idx):
        state.select(idx)
        return state


# ---------------------------------------------------------------------------
# search over a stepper


def greedy_steps(stepper, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID):
    """Argmax decoding: beam search of width 1, so ties resolve to the smallest token id."""
    return beam_pool(stepper, 1, max_len, bos, eos)[0]


def beam_pool(stepper, beam_size, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID, length_norm=1.0):
    """All finished hypotheses the beam discovered, ranked best first.

    Candidates are ranked by cumulative log-probability with ties broken
    lexicographically by token ids; hypotheses that emit EOS (or hit the
    length cap) retire to the pool and the final ranking is by normalized
    score (sum log-prob / token count ** length_norm).  The live beam is
    held as arrays: its (n, t) BOS-prefixed ids, their cumulative log-probs
    and each row's rank in the lexicographic order of the live ids, which
    all have the same length, so ties compare ranks instead of id lists.
    """
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if not np.isfinite(length_norm):
        raise ConfigError(f"length_norm must be finite, got {length_norm}")
    ids, logprob, rank = np.full((1, 1), bos), np.zeros(1), np.zeros(1, dtype=np.intp)
    state = stepper.start()
    pool = []
    for _ in range(max_len):
        if not len(ids):
            break
        logprobs, state = stepper.step(state, ids[:, -1])
        parents, tokens, scores = _top_candidates(logprob, rank, logprobs, beam_size)
        done = tokens == eos
        pool += [Hypothesis(ids[p].tolist() + [eos], s) for p, s in zip(parents[done], scores[done].tolist())]
        keep = ~done
        parents, tokens, logprob = parents[keep], tokens[keep], scores[keep]
        ids = np.concatenate((ids[parents], tokens[:, None]), axis=1)
        rank = _lexicographic_ranks(rank[parents], tokens)
        if len(ids):
            state = stepper.select(state, parents)
    pool += map(Hypothesis, ids.tolist(), logprob.tolist())  # length cap reached
    pool.sort(key=lambda h: (-h.normalized(length_norm), tuple(h.ids)))
    return pool


def _top_candidates(logprob, rank, logprobs, beam_size):
    """Top beam_size candidates as (parents, tokens, scores) arrays, best first.

    ``logprob`` and ``rank`` hold each live hypothesis's cumulative log-prob
    and its rank in the lexicographic order of the live ids.  Ties in score
    order by (parent rank, token): the lexicographic order of the candidates'
    ids, since the live hypotheses all have the same length.
    """
    v = logprobs.shape[1]
    flat = (logprob[:, None] + logprobs).reshape(-1)
    k = min(beam_size, flat.size)
    if flat.size > k:
        cand = np.flatnonzero(flat >= np.partition(flat, -k)[-k])
    else:
        cand = np.arange(flat.size)
    parents, tokens = np.divmod(cand, v)
    scores = flat[cand]
    order = np.lexsort((tokens, rank[parents], -scores))[:k]
    return parents[order], tokens[order], scores[order]


def _lexicographic_ranks(parent_rank, tokens):
    """Each extended hypothesis's rank in the lexicographic order of the extended ids."""
    rank = np.empty(len(tokens), dtype=np.intp)
    rank[np.lexsort((tokens, parent_rank))] = np.arange(len(tokens))
    return rank


# ---------------------------------------------------------------------------
# model-facing surfaces


def greedy_decode(params, cfg, src_ids):
    """Generated token ids (EOS-terminated or max_tgt_len long), no BOS."""
    stepper = TransformerStepper(params, cfg, src_ids)
    return greedy_steps(stepper, cfg.max_tgt_len).generated()


def beam_search(params, cfg, src_ids, beam_size=5, length_norm=1.0):
    """The top beam_size generated-token sequences by normalized score, best first."""
    pool = beam_pool(TransformerStepper(params, cfg, src_ids), beam_size, cfg.max_tgt_len, length_norm=length_norm)
    return [h.generated() for h in pool[:beam_size]]
