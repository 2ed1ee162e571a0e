"""Contrastive sample construction and the batched CoLo objective.

One training example yields five tuple serializations: the original, a
synonym-surface positive, and three negatives (entity swap, aspect
substitution, opinion substitution).  The encoding loss pulls the pooled
encoder representation of the original toward the positive and away from
the negatives with per-negative margins; the decoding loss does the same
between the pooled decoder output and the encoder-side representations,
through two side-specific projection networks.

Margins are dynamic: each negative's teacher-forced LM loss for the
original reference is ranked descending, and the margin is gamma times the
rank, so the negative that most easily still produces the reference gets
the largest margin.  Those LM losses are detached; margins are constants.

There is one loss path, :func:`total_loss_batch`: the LM loss plus both
hinges for a batch, each the batch mean.  A single example is a batch of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import ClrTuple, build_source
from .tensor import Tensor, no_grad

NEG_ORDER = ("ES", "AS", "OS")


class InfeasibleNegativeError(Exception):
    """The lexicon is too small to build a required negative."""


class InvalidLossError(Exception):
    """A loss value fed to the rank function is NaN."""


# ---------------------------------------------------------------------------
# sample construction


def make_positive(t: ClrTuple, lexicon, rng):
    """Same ids, different surface form per slot where an alias exists."""
    surfaces = {}
    for slot, kind, item_id in (
        ("entity_a", "entity", t.entity_a),
        ("entity_b", "entity", t.entity_b),
        ("aspect", "aspect", t.aspect),
        ("opinion", "opinion", t.opinion),
    ):
        forms = lexicon.surfaces(kind, item_id)
        canonical = forms[0]
        alts = [s for s in forms if s != canonical]
        if alts:
            surfaces[slot] = alts[int(rng.integers(len(alts)))]
        else:
            surfaces[slot] = canonical
    return t, surfaces


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
    original: ClrTuple
    positive: ClrTuple
    positive_surfaces: dict
    neg_es: ClrTuple
    neg_as: ClrTuple
    neg_os: ClrTuple

    def __post_init__(self):
        o = self.original
        if self.positive != o:
            raise ValueError("positive must keep the original ids")
        if self.neg_es != swap_entities(o):
            raise ValueError("neg_es must be the entity swap of the original")
        if (self.neg_as.entity_a, self.neg_as.entity_b, self.neg_as.opinion) != (o.entity_a, o.entity_b, o.opinion) or self.neg_as.aspect == o.aspect:
            raise ValueError("neg_as must differ from the original only in aspect")
        if (self.neg_os.entity_a, self.neg_os.entity_b, self.neg_os.aspect) != (o.entity_a, o.entity_b, o.aspect) or self.neg_os.opinion == o.opinion:
            raise ValueError("neg_os must differ from the original only in opinion")

    def negative(self, kind):
        return {"ES": self.neg_es, "AS": self.neg_as, "OS": self.neg_os}[kind]


def build_contrastive_set(t: ClrTuple, lexicon, rng) -> ContrastiveSet:
    """Positive plus the three negatives; draw order is fixed for determinism."""
    positive, surfaces = make_positive(t, lexicon, rng)
    neg_as = substitute_aspect(t, lexicon, rng)
    neg_os = substitute_opinion(t, lexicon, rng)
    return ContrastiveSet(t, positive, surfaces, swap_entities(t), neg_as, neg_os)


# ---------------------------------------------------------------------------
# rank margins


def rank_descending(values):
    """Rank positions by value, largest first; ties keep position order."""
    vals = [float(v) for v in values]
    if not vals:
        raise InvalidLossError("rank_descending needs at least one value")
    if any(math.isnan(v) for v in vals):
        raise InvalidLossError("NaN loss fed to rank function")
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    ranks = [0] * len(vals)
    for pos, idx in enumerate(order, start=1):
        ranks[idx] = pos
    return ranks


@dataclass(frozen=True)
class MarginSchedule:
    gamma: float
    margins: dict  # neg kind -> margin value

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def margin_schedule(gamma, lm_losses) -> MarginSchedule:
    """gamma times the descending rank of each negative's LM loss.

    The smallest loss (the negative that most easily still generates the
    reference) ranks last and therefore gets the largest margin.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    order = [k for k in NEG_ORDER if k in lm_losses]
    if set(lm_losses) - set(NEG_ORDER):
        raise ValueError(f"unknown negative kinds: {set(lm_losses) - set(NEG_ORDER)}")
    ranks = rank_descending([lm_losses[k] for k in order])
    return MarginSchedule(gamma, {k: gamma * r for k, r in zip(order, ranks)})


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


def _zero_scalar(dtype):
    return Tensor(np.zeros((), dtype=dtype))


def _profiles_map(example):
    return {p.entity_id: p for p in example.profiles}


def _encode_variant(params, cfg, tuples, examples, lexicon, vocab, alias_choices, train, rng):
    """Encode one serialization variant for the whole batch; return (states, mask)."""
    sources = []
    for t, ex, alias in zip(tuples, examples, alias_choices):
        src = build_source(t, _profiles_map(ex), lexicon, cfg.max_src_len, alias)
        sources.append(vocab.tokenize(src))
    src_arr, mask = M.pad_sources(sources)
    states = M.encode_batch(params, cfg, src_arr, mask, train=train, rng=rng)
    return states, mask


def _pool(states, mask):
    return T.masked_mean_pool(states, mask)


def total_loss_batch(
    params,
    cfg,
    examples,
    csets,
    lexicon,
    vocab,
    gamma=0.01,
    use_ce=True,
    use_cd=True,
    neg_types=NEG_ORDER,
    project_in_ce=False,
    train=True,
    rng=None,
):
    """LossBreakdown for a batch; each component is the batch mean.

    Five encoder passes (original, positive, three negatives) and four
    teacher-forced decoder passes (original with gradient, one detached
    pass per negative for the margin ranks) happen per example when both
    losses are active.
    """
    b = len(examples)
    dtype = params["emb.tok"].dtype
    neg_types = tuple(k for k in NEG_ORDER if k in neg_types)
    if (use_ce or use_cd) and not neg_types:
        raise ValueError("contrastive losses need at least one negative type")

    tgt_in, labels, label_mask = M.make_target_arrays([vocab.tokenize(ex.reference) for ex in examples])

    if not (use_ce or use_cd):
        enc_orig, src_mask = _encode_variant(
            params, cfg, [c.original for c in csets], examples, lexicon, vocab, [None] * b, train, rng
        )
        nll, _ = M.nll_per_example(
            params, cfg, enc_orig, src_mask, tgt_in, labels, label_mask, train=train, rng=rng
        )
        lm = T.mean_(nll)
        zero = _zero_scalar(dtype)
        return LossBreakdown(lm, zero, zero, T.add(T.add(lm, zero), zero))

    # one encoder pass over every variant: [original] (+ positive) + negatives;
    # variants of one example serialize to the same length, so shared padding
    # changes nothing
    groups = ["orig"] + (["pos"] if use_ce else []) + list(neg_types)
    tuples, aliases = [], []
    for group in groups:
        for c in csets:
            if group == "orig":
                tuples.append(c.original)
                aliases.append(None)
            elif group == "pos":
                tuples.append(c.positive)
                aliases.append(c.positive_surfaces)
            else:
                tuples.append(c.negative(group))
                aliases.append(None)
    states, mask = _encode_variant(
        params, cfg, tuples, examples * len(groups), lexicon, vocab, aliases, train, rng
    )
    pooled = _pool(states, mask)
    block = {g: T.slice0(pooled, i * b, (i + 1) * b) for i, g in enumerate(groups)}
    z = block["orig"]
    src_mask = mask[:b]

    # original teacher-forced pass (with gradient): LM loss and pooled z_y
    nll, dec_states = M.nll_per_example(
        params, cfg, T.slice0(states, 0, b), src_mask, tgt_in, labels, label_mask, train=train, rng=rng
    )
    lm = T.mean_(nll)

    # detached per-negative LM losses -> per-example margin constants
    neg_lo = groups.index(neg_types[0])
    xi = _margin_constants(
        params, cfg,
        states.data[neg_lo * b :], mask[neg_lo * b :],
        tgt_in, labels, label_mask, gamma, neg_types,
    )

    ce = _zero_scalar(dtype)
    if use_ce:
        if project_in_ce:
            q, k_pos = M.project_enc(params, z), M.project_enc(params, block["pos"])
            k_neg = {kind: M.project_enc(params, block[kind]) for kind in neg_types}
        else:
            q, k_pos = z, block["pos"]
            k_neg = {kind: block[kind] for kind in neg_types}
        ce = T.mean_(_hinge_rows(*_cosines(q, k_pos, k_neg), xi))

    cd = _zero_scalar(dtype)
    if use_cd:
        z_y = M.project_dec(params, _pool(dec_states, label_mask))
        pz = M.project_enc(params, z)
        pn = {kind: M.project_enc(params, block[kind]) for kind in neg_types}
        cd = T.mean_(_hinge_rows(*_cosines(z_y, pz, pn), xi))

    total = T.add(T.add(lm, ce), cd)
    return LossBreakdown(lm, ce, cd, total)


def _cosines(anchor, positive, negatives):
    """Row cosines of the (B, d) anchor to its positive and to each negative kind."""
    return T.cosine_rows(anchor, positive), {kind: T.cosine_rows(anchor, n) for kind, n in negatives.items()}


def _hinge_rows(s_pos, s_neg, xi):
    """Per-example hinge totals, (B,): sum over kinds of max(0, s- - s+ + margin).

    ``s_pos`` is the (B,) positive cosine, ``s_neg`` maps each negative kind
    to its (B,) cosine and ``xi`` maps it to (B,) margin constants; gradient
    flows only through the similarities.
    """
    per_ex = None
    for kind, s in s_neg.items():
        term = T.relu(T.add(T.sub(s, s_pos), Tensor(xi[kind].astype(s_pos.dtype))))
        per_ex = term if per_ex is None else T.add(per_ex, term)
    return per_ex


def _margin_constants(params, cfg, neg_state_data, neg_mask, tgt_in, labels, label_mask, gamma, neg_types):
    """Per-example margins from detached teacher-forced negative LM losses.

    All negative groups run as one batched decoder pass on detached states.
    """
    n = len(neg_types)
    b = tgt_in.shape[0]
    with no_grad():
        nll, _ = M.nll_per_example(
            params, cfg,
            Tensor(neg_state_data), neg_mask,
            np.tile(tgt_in, (n, 1)), np.tile(labels, (n, 1)), np.tile(label_mask, (n, 1)),
        )
        losses = nll.data.reshape(n, b)
    xi = {kind: np.empty(b, dtype=np.float64) for kind in neg_types}
    for i in range(b):
        schedule = margin_schedule(gamma, {kind: float(losses[j][i]) for j, kind in enumerate(neg_types)})
        for kind in neg_types:
            xi[kind][i] = schedule.margins[kind]
    return xi
