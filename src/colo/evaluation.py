"""Automatic metrics: BLEU, ROUGE-L, Distinct-4, coverage, entailment, PPL.

Coverage checks that a surface form of each tuple component appears in the
candidate; a surface form is one token.  The entailment check is exact on the
synthetic grammar: it scans the candidate for comparative-template
instantiations, normalizes inverted templates through the antonym map, and
accepts only extractions that match the tuple (any contradicting extraction
fails the candidate).  It replaces a learned NLI judge, it does not approximate
one.  Perplexity is the trained model's own held-out teacher-forced PPL, not a
pretrained-LM score.  Perplexity and the ES similarity encode through
``contrastive.encode_variants``, as the hinges do, in no-grad passes that
:func:`score_passes` cuts to at most :data:`SCORE_TOKENS` padded tokens: the
padded pass, not the example count, sets their attention buffers and so the
process's peak memory.
"""

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import model as M
from . import tensor as T
from . import tokens as tok
from .contrastive import encode_variants, swap_entities
from .corpus import ASP, LOS, MASTER_TEMPLATES, OPN, SLOT_KINDS, TUPLE_SLOTS, WIN, build_source, encode_example
from .decoding import beam_search
from .errors import DataError
from .fileio import write_json


# rows x longest row of one no-grad pass of the model-dependent metrics.  1024 keeps at least 32 of the
# reference config's targets (at most 24 tokens + EOS) in a pass, and at most 6 of the default's 161-token
# targets, whose (rows, heads, 161, 161) attention buffers set the process's peak memory
SCORE_TOKENS = 1024


class EvalError(DataError):
    """Misaligned candidate/reference inputs."""


# ---------------------------------------------------------------------------
# n-gram metrics


def _ngrams(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def bleu(candidates, references, max_n=4):
    """Corpus-level BLEU with brevity penalty.

    Modified n-gram precisions are clip-counted against the single reference;
    when any precision of order >= 2 has zero matches, every order >= 2 gets
    +1 smoothing on numerator and denominator.
    """
    if len(candidates) != len(references):
        raise EvalError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise EvalError("empty corpus")
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = Counter(_ngrams(cand, n))
            ref_counts = Counter(_ngrams(ref, n))
            matches[n] += sum(min(c, ref_counts[g]) for g, c in counts.items())
            totals[n] += max(0, len(cand) - n + 1)
    if totals[1] == 0 or matches[1] == 0:
        return 0.0
    smooth = any(matches[n] == 0 for n in range(2, max_n + 1))
    log_p = math.log(matches[1] / totals[1])
    for n in range(2, max_n + 1):
        num, den = matches[n], totals[n]
        if smooth:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_p += math.log(num / den)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(1, cand_len))
    return bp * math.exp(log_p / max_n)


def _lcs_len(a, b):
    """Length of the longest common subsequence, bit-parallel over ``b``.

    Hyyrö's form of the Allison-Dix recurrence on a ``len(b)``-bit int
    ``v``: after each element of ``a``, the count of clear bits in ``v`` is
    the LCS length of ``b`` and the prefix of ``a`` read so far.  Each
    element costs one and, one add, one subtract and one or over all of
    ``b`` at once; the result equals the quadratic dynamic program's.
    """
    full = (1 << len(b)) - 1
    match = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | (1 << j)
    v = full
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidates, references):
    """Mean per-example LCS F-measure."""
    if len(candidates) != len(references):
        raise EvalError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise EvalError("empty corpus")
    scores = []
    for cand, ref in zip(candidates, references):
        lcs = _lcs_len(cand, ref)
        p = lcs / len(cand) if cand else 0.0
        r = lcs / len(ref) if ref else 0.0
        scores.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    return float(np.mean(scores))


def distinct_n(candidates, n=4):
    """Unique n-grams across all candidates over total n-gram slots."""
    total = 0
    unique = set()
    for cand in candidates:
        grams = _ngrams(cand, n)
        total += len(grams)
        unique.update(grams)
    return len(unique) / total if total else 0.0


# ---------------------------------------------------------------------------
# coverage


def coverage(candidate, t, lexicon):
    """Fraction of the tuple's slots with any surface form among the candidate's tokens; a surface is one token."""
    tokens = set(candidate)
    hits = sum(
        any(s in tokens for s in lexicon.surfaces(kind, getattr(t, slot))) for slot, kind, _ in TUPLE_SLOTS
    )
    return hits / len(TUPLE_SLOTS)


# ---------------------------------------------------------------------------
# grammar-based entailment


def _match_template(candidate, start, template, by_surface, antonyms):
    """Extraction (winner, loser, aspect, opinion) or None at one position."""
    if start + len(template.tokens) > len(candidate):
        return None
    fill = {}
    for pos, token in enumerate(template.tokens, start):
        kind = SLOT_KINDS.get(token)
        if kind is None:
            if candidate[pos] != token:
                return None
        else:
            hit = by_surface.get(candidate[pos])
            if hit is None or hit[0] != kind:
                return None
            fill[token] = hit[1]
    opinion = fill[OPN]
    if template.opinion_inverted:
        opinion = antonyms.get(opinion)
        if opinion is None:
            return None
    if fill[WIN] == fill[LOS]:
        return None
    return (fill[WIN], fill[LOS], fill[ASP], opinion)


def extract_relations(candidate, lexicon):
    """All template instantiations found in the candidate, in scan order."""
    by_surface = lexicon.surface_to_id()
    candidate = list(candidate)
    found = []
    for template in MASTER_TEMPLATES:
        for start in range(len(candidate)):
            got = _match_template(candidate, start, template, by_surface, lexicon.antonyms)
            if got is not None:
                found.append(got)
    return found


def entail_oracle(candidate, t, lexicon):
    """1 iff some extraction matches the tuple and none contradicts it."""
    extractions = extract_relations(candidate, lexicon)
    if not extractions:
        return 0
    want = (t.entity_a, t.entity_b, t.aspect, t.opinion)
    return int(all(e == want for e in extractions))


# ---------------------------------------------------------------------------
# model-dependent metrics


def score_passes(lengths, budget=SCORE_TOKENS):
    """Slices that cut examples of row ``lengths``, in order, into consecutive passes of rows x longest row <= ``budget``.

    A pass takes the next example while it stays within the budget; an
    example longer than the budget is a pass of its own.
    """
    passes, start, longest = [], 0, 0
    for i, n in enumerate(lengths):
        if i > start and (i - start + 1) * max(longest, n) > budget:
            passes.append(slice(start, i))
            start, longest = i, 0
        longest = max(longest, n)
    if start < len(lengths):
        passes.append(slice(start, len(lengths)))
    return passes


def perplexity(params, cfg, examples, lexicon, vocab):
    """exp of the token-mean teacher-forced NLL of the model itself.

    A pass runs its sources through the encoder and its targets through the
    decoder, so a row is as long as the longer of its target (reference + 1)
    and its source.
    """
    refs = [vocab.tokenize(ex.reference) for ex in examples]
    lengths = [
        max(len(r) + 1, len(build_source(ex.tuple, ex.profiles, lexicon, cfg.max_src_len)))
        for r, ex in zip(refs, examples)
    ]
    total_nll = 0.0
    total_tokens = 0
    with T.no_grad():
        for part in score_passes(lengths):
            chunk = examples[part]
            enc_states, smask = encode_variants(params, cfg, [ex.tuple for ex in chunk], chunk, lexicon, vocab)
            tgt_in, labels, lmask = M.make_target_arrays(refs[part])
            nll, _ = M.nll_per_example(params, cfg, enc_states, smask, tgt_in, labels, lmask)
            counts = lmask.sum(axis=1)
            total_nll += float((nll.data * counts).sum())
            total_tokens += int(counts.sum())
    return math.exp(total_nll / total_tokens)


def mean_entity_swap_similarity(params, cfg, examples, lexicon, vocab):
    """Mean cosine between pooled encodings of each tuple and its entity swap.

    A swap serializes to its original's length, so both passes of a chunk
    have the chunk's source lengths.
    """
    lengths = [len(build_source(ex.tuple, ex.profiles, lexicon, cfg.max_src_len)) for ex in examples]
    sims = []
    with T.no_grad():
        for part in score_passes(lengths):
            chunk = examples[part]
            pooled = []
            for tuples in ([ex.tuple for ex in chunk], [swap_entities(ex.tuple) for ex in chunk]):
                states, mask = encode_variants(params, cfg, tuples, chunk, lexicon, vocab)
                pooled.append(T.masked_mean_pool(states, mask))
            sims.extend(T.cosine_rows(*pooled).data.tolist())
    return float(np.mean(sims))


# ---------------------------------------------------------------------------
# corpus evaluation


@dataclass
class EvalReport:
    b1: float
    b4: float
    r_l: float
    dist4: float
    cover: float
    entail: float
    ppl: float  # None when no model is available to score predictions
    n_examples: int

    def to_dict(self):
        return asdict(self)

    def scaled(self):
        """Metric values in the conventional x100 reporting scale."""
        d = {k: round(v * 100.0, 2) for k, v in self.to_dict().items() if k not in ("ppl", "n_examples")}
        d["ppl"] = None if self.ppl is None else round(self.ppl, 3)
        d["n_examples"] = self.n_examples
        return d


def metrics_report(predictions, examples, lexicon, ppl=None):
    """EvalReport from token-string predictions aligned with examples."""
    if len(predictions) != len(examples):
        raise EvalError(f"{len(predictions)} predictions vs {len(examples)} examples")
    references = [ex.reference for ex in examples]
    covers = [coverage(p, ex.tuple, lexicon) for p, ex in zip(predictions, examples)]
    entails = [entail_oracle(p, ex.tuple, lexicon) for p, ex in zip(predictions, examples)]
    return EvalReport(
        b1=bleu(predictions, references, max_n=1),
        b4=bleu(predictions, references, max_n=4),
        r_l=rouge_l(predictions, references),
        dist4=distinct_n(predictions, 4),
        cover=float(np.mean(covers)),
        entail=float(np.mean(entails)),
        ppl=ppl,
        n_examples=len(examples),
    )


def decode_corpus(params, cfg, examples, lexicon, vocab, beam_size, length_norm=1.0):
    """Beam-decode every example; returns token-string predictions."""
    preds = []
    for ex in examples:
        enc = encode_example(ex, lexicon, vocab, cfg.max_src_len)
        ranked = beam_search(params, cfg, enc.src_ids, beam_size=beam_size, length_norm=length_norm)
        ids = [i for i in ranked[0] if i != tok.EOS_ID]
        preds.append(vocab.detokenize(ids))
    return preds


def write_report(path, report: EvalReport, extra=None):
    doc = dict(report.to_dict())
    doc["scaled"] = report.scaled()
    if extra:
        doc.update(extra)
    write_json(path, doc)
