"""Contrastive sample construction and the batched CoLo objective.

One training example yields five tuple serializations: the original, a
synonym-surface positive (the original's ids under other surface forms),
and three negatives (entity swap, aspect substitution, opinion
substitution), keyed by kind in ``NEG_ORDER``.  The encoding loss pulls the
pooled encoder representation of the original toward the positive and away
from the negatives with per-negative margins; the decoding loss does the
same between the pooled decoder output and the encoder-side
representations, through two side-specific projection networks.

Margins are dynamic: each negative's teacher-forced LM loss for the
original reference is ranked descending, and the margin is gamma times the
rank, so the negative that most easily still produces the reference gets
the largest margin.  Those LM losses are detached; margins are constants.
Negatives lie on one axis in kind order throughout: the detached losses
form a (B, n) array, the margins ``xi`` are gamma times their row ranks in
the same shape, and the pooled negatives are one kind-major (n, B, d) block
from pooling to hinge: one projection, one cosine and one hinge expression
over all kinds, with no loop over kinds.
The detached pass runs once per example, at that example's own target and
source length, so it computes no padding and an example's margins depend
on that example alone.  It runs on one worker thread, made on first use,
concurrently with the gradient LM pass in the calling thread: it reads
only the encoder states' arrays, the parameters and the target arrays,
draws no randomness and records on no tape (tapes are per-thread), so the
overlap changes no value.

There is one loss path, :func:`total_loss_batch` (the LM loss plus both
hinges, each the batch mean; one example is a batch of one), and one
encoder path, :func:`encode_variants`, through which evaluation's
perplexity and ES similarity encode too.  The objective's settings come
from the run's ``trainer.TrainConfig``, which this module reads but does
not import (the trainer imports it).
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import TUPLE_SLOTS, ClrTuple, build_source
from .errors import DataError
from .tensor import Tensor, no_grad

NEG_ORDER = ("ES", "AS", "OS")


class InfeasibleNegativeError(DataError):
    """The lexicon is too small to build a required negative."""


class InvalidLossError(Exception):
    """A loss value fed to the rank function is NaN."""


# ---------------------------------------------------------------------------
# sample construction


def make_positive(t: ClrTuple, lexicon, rng):
    """Surface form per slot for the positive, which keeps the original's ids: an alias where one exists."""
    surfaces = {}
    for slot, kind, _ in TUPLE_SLOTS:
        forms = lexicon.surfaces(kind, getattr(t, slot))
        canonical = forms[0]
        alts = [s for s in forms if s != canonical]
        if alts:
            surfaces[slot] = alts[int(rng.integers(len(alts)))]
        else:
            surfaces[slot] = canonical
    return surfaces


def swap_entities(t: ClrTuple) -> ClrTuple:
    return ClrTuple(t.entity_b, t.entity_a, t.aspect, t.opinion)


def substitute_aspect(t: ClrTuple, lexicon, rng) -> ClrTuple:
    others = [a for a in sorted(lexicon.aspects) if a != t.aspect]
    if not others:
        raise InfeasibleNegativeError("need at least 2 aspects for aspect substitution")
    return ClrTuple(t.entity_a, t.entity_b, others[int(rng.integers(len(others)))], t.opinion)


def substitute_opinion(t: ClrTuple, lexicon, rng) -> ClrTuple:
    antonym = lexicon.antonyms.get(t.opinion)
    if antonym is not None:
        return ClrTuple(t.entity_a, t.entity_b, t.aspect, antonym)
    others = [o for o in sorted(lexicon.opinions) if o != t.opinion]
    if not others:
        raise InfeasibleNegativeError("need at least 2 opinions for opinion substitution")
    return ClrTuple(t.entity_a, t.entity_b, t.aspect, others[int(rng.integers(len(others)))])


@dataclass(frozen=True)
class ContrastiveSet:
    """An original tuple, its positive's surface forms (same ids) and its negatives by kind, in ``NEG_ORDER``."""

    original: ClrTuple
    positive_surfaces: dict
    negatives: dict

    def __post_init__(self):
        o, neg = self.original, self.negatives
        if tuple(neg) != NEG_ORDER:
            raise ValueError(f"negatives must be keyed {list(NEG_ORDER)}, in that order")
        if neg["ES"] != swap_entities(o):
            raise ValueError("the ES negative must be the entity swap of the original")
        for kind, slot in (("AS", "aspect"), ("OS", "opinion")):
            if getattr(neg[kind], slot) == getattr(o, slot) or replace(neg[kind], **{slot: getattr(o, slot)}) != o:
                raise ValueError(f"the {kind} negative must differ from the original only in {slot}")


def build_contrastive_set(t: ClrTuple, lexicon, rng) -> ContrastiveSet:
    """Positive plus the three negatives; draw order is fixed for determinism."""
    surfaces = make_positive(t, lexicon, rng)
    neg_as = substitute_aspect(t, lexicon, rng)
    neg_os = substitute_opinion(t, lexicon, rng)
    return ContrastiveSet(t, surfaces, {"ES": swap_entities(t), "AS": neg_as, "OS": neg_os})


# ---------------------------------------------------------------------------
# rank margins


def margin_schedule(gamma, losses):
    """Margins: gamma times each loss's descending rank along the last axis.

    The largest loss ranks 1 and ties rank by column, so the smallest loss
    (the negative that most easily still generates the reference) gets the
    largest margin.  The result has the shape of ``losses``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    losses = np.asarray(losses, dtype=np.float64)
    if np.isnan(losses).any():
        raise InvalidLossError("NaN loss fed to rank function")
    # the inverse of the stable descending order is each column's 0-based rank
    ranks = np.argsort(np.argsort(-losses, axis=-1, kind="stable"), axis=-1) + 1
    return gamma * ranks


# ---------------------------------------------------------------------------
# batched loss machinery


@dataclass
class LossBreakdown:
    lm: Tensor
    ce: Tensor
    cd: Tensor
    total: Tensor

    def values(self):
        return {k: float(getattr(self, k).data) for k in ("lm", "ce", "cd", "total")}


def encode_variants(params, cfg, tuples, examples, lexicon, vocab, alias_choices=None, rng=None):
    """Encoder states of tuple variants in one padded pass; return (states, mask).

    Row i is ``tuples[i]`` with the profiles of ``examples[i]`` and the surfaces ``alias_choices[i]`` picks (default:
    canonical).  A row's masked mean pool is its relation vector, which the hinges and the ES similarity compare.
    The pass uses dropout when given the generator ``rng``.
    """
    aliases = [None] * len(tuples) if alias_choices is None else alias_choices
    sources = []
    for t, ex, alias in zip(tuples, examples, aliases):
        src = build_source(t, ex.profiles, lexicon, cfg.max_src_len, alias)
        sources.append(vocab.tokenize(src))
    src_arr, mask = M.pad_sources(sources)
    states = M.encode_batch(params, cfg, src_arr, mask, rng)
    return states, mask


def total_loss_batch(params, cfg, examples, csets, lexicon, vocab, tcfg, rng=None):
    """LossBreakdown for a batch; each component is the batch mean.

    The objective's settings are those of ``tcfg``, the run's
    ``trainer.TrainConfig``, which checks them: ``gamma``, ``use_ce``,
    ``use_cd``, ``neg_types`` (taken in ``NEG_ORDER``) and ``project_in_ce``.
    The gradient passes use dropout when given the generator ``rng``; the
    detached margin pass never does.

    With both losses active, each example is five encoder rows (original,
    positive, three negatives) in one padded pass, and four teacher-forced
    decoder rows: the original, with gradient, in one padded pass over the
    batch, and the three negatives, detached, in a pass of its own at the
    example's length that only sets the margin ranks.  The detached passes
    run on the margin worker while this thread runs the gradient pass; the
    call waits for them whether or not the gradient pass raises, and an
    error of theirs is raised here with its own type.
    """
    b = len(examples)
    neg_types = tuple(k for k in NEG_ORDER if k in tcfg.neg_types)
    hinged = tcfg.use_ce or tcfg.use_cd

    tgt_in, labels, label_mask = M.make_target_arrays([vocab.tokenize(ex.reference) for ex in examples])

    # one encoder pass over every variant: originals (+ positives) (+ negatives by
    # kind); variants of one example serialize to the same length, so shared
    # padding changes nothing
    variants = [(c.original, None) for c in csets]
    if tcfg.use_ce:
        variants += [(c.original, c.positive_surfaces) for c in csets]
    if hinged:
        variants += [(c.negatives[kind], None) for kind in neg_types for c in csets]
    tuples, aliases = zip(*variants)
    states, mask = encode_variants(params, cfg, tuples, examples * (len(variants) // b), lexicon, vocab, aliases, rng)
    enc_orig = states
    if hinged:  # pooled before the LM pass, so the backward sums into states in a fixed order
        pooled = T.masked_mean_pool(states, mask)
        lo = len(variants) - len(neg_types) * b  # the negatives' first row
        z = T.slice0(pooled, 0, b)
        negs = T.reshape(T.slice0(pooled, lo, len(variants)), (len(neg_types), b, pooled.shape[-1]))
        enc_orig = T.slice0(states, 0, b)
        # detached (B, n) negative LM losses, on the worker while this thread runs the LM pass
        margin = _margin_worker().submit(
            _margin_losses, params, cfg, states.data[lo:], mask[lo:], tgt_in, labels, label_mask
        )

    # original teacher-forced pass (with gradient): LM loss and pooled z_y
    try:
        nll, dec_states = M.nll_per_example(params, cfg, enc_orig, mask[:b], tgt_in, labels, label_mask, rng)
    finally:
        if hinged:
            margin.exception()  # waits, so no margin pass outlives this call; result() raises its error
    lm = T.mean_(nll)

    if hinged:  # (B, n) margin constants
        xi = margin_schedule(tcfg.gamma, margin.result())

    ce = cd = Tensor(np.zeros((), dtype=params["emb.tok"].dtype))  # an inactive term
    if tcfg.use_ce:
        q, k_pos, k_neg = z, T.slice0(pooled, b, 2 * b), negs
        if tcfg.project_in_ce:
            q, k_pos, k_neg = (M.project(params, "enc", v) for v in (q, k_pos, k_neg))
        ce = T.mean_(_hinge_rows(*_cosines(q, k_pos, k_neg), xi))

    if tcfg.use_cd:
        z_y = M.project(params, "dec", T.masked_mean_pool(dec_states, label_mask))
        if tcfg.use_ce and tcfg.project_in_ce:  # both hinges compare the same projections
            pz, p_neg = q, k_neg
        else:
            pz, p_neg = M.project(params, "enc", z), M.project(params, "enc", negs)
        cd = T.mean_(_hinge_rows(*_cosines(z_y, pz, p_neg), xi))

    total = T.add(T.add(lm, ce), cd)
    return LossBreakdown(lm, ce, cd, total)


_WORKER = None  # (pid, executor) of the margin worker


def _margin_worker():
    """The one thread the detached margin pass runs on, made on first use.

    A process forked after it was made inherits the executor but not its
    thread, so a child makes its own.
    """
    global _WORKER
    if _WORKER is None or _WORKER[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _WORKER = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="colo-margin"))
    return _WORKER[1]


def _cosines(anchor, positive, negatives):
    """Row cosines of the (B, d) anchor to its positive, (B,), and to the (n, B, d) negatives, (n, B)."""
    return T.cosine_rows(anchor, positive), T.cosine_rows(anchor, negatives)


def _hinge_rows(s_pos, s_neg, xi):
    """Per-example hinge totals, (B,): sum over kinds of max(0, s- - s+ + margin).

    ``s_pos`` is the (B,) positive cosine, ``s_neg`` the (n, B) negative
    cosines, one row per kind, and ``xi`` the (B, n) array of margin
    constants, one column per kind; gradient flows only through the
    similarities.
    """
    return T.sum_(T.relu(T.add(T.sub(s_neg, s_pos), Tensor(xi.T.astype(s_pos.dtype)))), axis=0)


def _margin_losses(params, cfg, neg_state_data, neg_mask, tgt_in, labels, label_mask):
    """Detached teacher-forced LM losses of each example's negatives, (B, n) float64.

    The n negatives' encoder rows are kind-major: row ``j * B + i`` holds
    example i's negative of the j-th kind.  Each example's negatives run as
    their own no-grad decoder pass, cut to that example's target and source
    lengths, so no padded cell is computed and an example's losses do not
    depend on the rest of the batch.  The losses match a padded batched
    pass only up to float rounding: dropping the trailing masked zeros
    reassociates the softmax and per-example sums.  Margins are ranks, so
    they differ from the padded pass only where two of an example's
    negative losses lie within a few 1e-7 relative of each other.
    """
    b = tgt_in.shape[0]
    n = len(neg_mask) // b
    losses = np.empty((b, n), dtype=np.float64)
    for i in range(b):
        rows = np.arange(n) * b + i
        t = int(label_mask[i].sum())
        s = int(neg_mask[rows].sum(axis=1).max())
        with no_grad():
            nll, _ = M.nll_per_example(
                params, cfg,
                Tensor(neg_state_data[rows, :s]), neg_mask[rows, :s],
                np.tile(tgt_in[i, :t], (n, 1)), np.tile(labels[i, :t], (n, 1)), np.tile(label_mask[i, :t], (n, 1)),
            )
        losses[i] = nll.data
    return losses
