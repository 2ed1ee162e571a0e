import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import evaluation as E
from colo.contrastive import swap_entities
from colo.corpus import MASTER_TEMPLATES, ClrTuple, build_lexicon, CorpusConfig, realize_comparative
from colo.rng import derive_rng


def toks(s):
    return s.split()


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identical_is_one():
    cand = [toks("a b c d e")]
    assert E.bleu(cand, cand, max_n=4) == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert E.bleu([toks("a b c")], [toks("x y z")], max_n=1) == 0.0
    assert E.bleu([toks("a b c d")], [toks("x y z w")], max_n=4) == 0.0


def test_bleu_hand_case():
    cand = [toks("a b c d")]
    ref = [toks("a b c e")]
    assert E.bleu(cand, ref, max_n=1) == pytest.approx(0.75)
    # p1=3/4 unsmoothed; p4=0 triggers +1 smoothing for n>=2:
    # p2=(2+1)/(3+1), p3=(1+1)/(2+1), p4=(0+1)/(1+1); BP=1
    expected = (0.75 * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
    assert E.bleu(cand, ref, max_n=4) == pytest.approx(expected)


def test_bleu_mismatched_lengths_raise():
    with pytest.raises(E.EvalError):
        E.bleu([toks("a")], [toks("a"), toks("b")])


def _bleu_oracle(cands, refs, max_n):
    """Independent clip-count implementation used to freeze the 10-case table."""
    from collections import Counter

    def ng(seq, n):
        return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))

    match = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    clen = rlen = 0
    for c, r in zip(cands, refs):
        clen += len(c)
        rlen += len(r)
        for n in range(1, max_n + 1):
            cc, rc = ng(c, n), ng(r, n)
            match[n] += sum(min(v, rc[g]) for g, v in cc.items())
            total[n] += max(0, len(c) - n + 1)
    if total[1] == 0 or match[1] == 0:
        return 0.0
    smooth = any(match[n] == 0 for n in range(2, max_n + 1))
    import math

    lp = math.log(match[1] / total[1])
    for n in range(2, max_n + 1):
        num = match[n] + (1 if smooth else 0)
        den = total[n] + (1 if smooth else 0)
        if num == 0 or den == 0:
            return 0.0
        lp += math.log(num / den)
    bp = 1.0 if clen >= rlen else math.exp(1 - rlen / clen)
    return bp * math.exp(lp / max_n)


# ten frozen cases: (candidate, reference, B-1, B-4); values computed once
# with the oracle above and pinned (brevity penalty applies to B-1 too)
BLEU_TABLE = [
    ("a b c d", "a b c d", 1.0, 1.0),
    ("a b c d", "a b c e", 0.75, 0.6580370064762462),
    ("a a a a a", "a b c d a", 0.4, 0.28574404296988),
    ("the cat sat", "the cat sat down", 0.7165313105737893, 0.7165313105737893),
    ("x y", "x y z w", 0.36787944117144233, 0.36787944117144233),
    ("a b c d e f", "f e d c b a", 1.0, 0.3021375397356768),
    ("q", "q", 1.0, 1.0),
    ("a b a b", "a b", 0.5, 0.4518010018049224),
    ("m n o p q r s", "m n o p q r s t u", 0.7514772930752859, 0.7514772930752859),
    ("z z z y", "y z", 0.5, 0.37991784282579627),
]


@pytest.mark.parametrize("cand,ref,b1,b4", BLEU_TABLE)
def test_bleu_frozen_table(cand, ref, b1, b4):
    assert E.bleu([toks(cand)], [toks(ref)], max_n=1) == pytest.approx(b1, abs=1e-6)
    assert E.bleu([toks(cand)], [toks(ref)], max_n=4) == pytest.approx(b4, abs=1e-6)
    assert _bleu_oracle([toks(cand)], [toks(ref)], 1) == pytest.approx(b1, abs=1e-9)
    assert _bleu_oracle([toks(cand)], [toks(ref)], 4) == pytest.approx(b4, abs=1e-9)


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_identical():
    c = [toks("a b c")]
    assert E.rouge_l(c, c) == pytest.approx(1.0)


def test_rouge_disjoint():
    assert E.rouge_l([toks("a b")], [toks("x y")]) == 0.0


def test_rouge_hand_case():
    assert E.rouge_l([toks("a b c d")], [toks("a c b d")]) == pytest.approx(0.75)


def _lcs_brute(a, b):
    best = 0
    for r in range(len(a) + 1):
        for sub in itertools.combinations(range(len(a)), r):
            seq = [a[i] for i in sub]
            it = iter(b)
            if all(x in it for x in seq):
                best = max(best, r)
    return best


def test_rouge_lcs_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 9))]
        b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 9))]
        assert E._lcs_len(a, b) == _lcs_brute(a, b)


def _lcs_dp(a, b):
    """Reference LCS length: the quadratic dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


# small alphabets force repeats; lengths past 64 cross machine-word boundaries
_SEQ = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=150)


@settings(max_examples=300, deadline=None)
@given(a=_SEQ, b=_SEQ)
def test_bit_parallel_lcs_equals_the_dynamic_program(a, b):
    assert E._lcs_len(a, b) == _lcs_dp(a, b) == E._lcs_len(b, a)


# ---------------------------------------------------------------------------
# distinct-n


def test_distinct_all_unique():
    assert E.distinct_n([toks("a b c d e")], 1) == 1.0


def test_distinct_repeated_token():
    assert E.distinct_n([toks("a a a a a")], 4) == pytest.approx(0.5)


def test_distinct_duplicate_candidates_halve():
    one = E.distinct_n([toks("a b c d e")], 4)
    two = E.distinct_n([toks("a b c d e"), toks("a b c d e")], 4)
    assert two == pytest.approx(one / 2)


def test_distinct_no_ngrams():
    assert E.distinct_n([toks("a b")], 4) == 0.0


# ---------------------------------------------------------------------------
# coverage and entailment on the real grammar


@pytest.fixture(scope="module")
def lex():
    return build_lexicon(CorpusConfig(n_entities=6, n_aspects=3, n_opinions=4, n_aliases_per_item=2))


@pytest.fixture(scope="module")
def tup():
    return ClrTuple("ENT_000", "ENT_001", "ASP_000", "OPN_P000")


def test_coverage_full_sentence(lex, tup):
    sent = realize_comparative(tup, lex, MASTER_TEMPLATES[0], derive_rng(0))
    assert E.coverage(sent, tup, lex) == 1.0


def test_coverage_empty(lex, tup):
    assert E.coverage([], tup, lex) == 0.0


def test_coverage_antonym_does_not_count(lex, tup):
    cand = ["ENT_000_ALT1", "x", "ENT_001", "y", "ASP_000", "z", "OPN_N000"]
    assert E.coverage(cand, tup, lex) == 0.75


def test_coverage_counts_aliases(lex, tup):
    cand = ["ENT_000_ALT2", "ENT_001_ALT1", "ASP_000_ALT1", "OPN_P000_ALT2"]
    assert E.coverage(cand, tup, lex) == 1.0


def test_entail_own_reference(lex, tup):
    for i, template in enumerate(MASTER_TEMPLATES):
        if template.opinion_inverted and lex.antonyms.get(tup.opinion) is None:
            continue
        sent = realize_comparative(tup, lex, template, derive_rng(i))
        assert E.entail_oracle(sent, tup, lex) == 1, template.name


def test_entail_rejects_swapped_tuple(lex, tup):
    sent = realize_comparative(tup, lex, MASTER_TEMPLATES[0], derive_rng(1))
    assert E.entail_oracle(sent, swap_entities(tup), lex) == 0


def test_entail_inverted_template_still_entails_original(lex, tup):
    inv = next(t for t in MASTER_TEMPLATES if t.opinion_inverted)
    sent = realize_comparative(tup, lex, inv, derive_rng(2))
    assert E.entail_oracle(sent, tup, lex) == 1
    assert E.entail_oracle(sent, swap_entities(tup), lex) == 0


def test_entail_no_template_match(lex, tup):
    assert E.entail_oracle(toks("ENT_000 has brand:BRD_000 ."), tup, lex) == 0


def test_entail_wrong_aspect_or_opinion(lex, tup):
    sent = realize_comparative(tup, lex, MASTER_TEMPLATES[0], derive_rng(3))
    wrong_aspect = ClrTuple(tup.entity_a, tup.entity_b, "ASP_001", tup.opinion)
    wrong_opinion = ClrTuple(tup.entity_a, tup.entity_b, tup.aspect, "OPN_N000")
    assert E.entail_oracle(sent, wrong_aspect, lex) == 0
    assert E.entail_oracle(sent, wrong_opinion, lex) == 0


def test_entail_contradiction_wins(lex, tup):
    good = realize_comparative(tup, lex, MASTER_TEMPLATES[0], derive_rng(4))
    bad = realize_comparative(swap_entities(tup), lex, MASTER_TEMPLATES[1], derive_rng(5))
    assert E.entail_oracle(good + ["."] + bad, tup, lex) == 0


def test_entail_implies_cover_at_least_three_quarters(lex):
    rng = np.random.default_rng(1)
    ents = sorted(lex.entities)
    asps = sorted(lex.aspects)
    opns = sorted(lex.opinions)
    checked = 0
    for seed in range(300):
        ea, eb = rng.choice(len(ents), size=2, replace=False)
        t = ClrTuple(ents[ea], ents[eb], asps[rng.integers(len(asps))], opns[rng.integers(len(opns))])
        template = MASTER_TEMPLATES[rng.integers(len(MASTER_TEMPLATES))]
        if template.opinion_inverted and lex.antonyms.get(t.opinion) is None:
            continue
        cand = realize_comparative(t, lex, template, derive_rng(seed))
        if E.entail_oracle(cand, t, lex) == 1:
            assert E.coverage(cand, t, lex) >= 0.75
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# generator/oracle consistency on a generated corpus


def test_generator_oracle_consistency(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    for ex in examples:
        assert E.entail_oracle(ex.reference, ex.tuple, lexicon) == 1
        assert E.entail_oracle(ex.reference, swap_entities(ex.tuple), lexicon) == 0
        assert E.coverage(ex.reference, ex.tuple, lexicon) == 1.0


# ---------------------------------------------------------------------------
# model-dependent metrics


def test_perplexity_near_vocab_size_at_init(tiny_bundle, tiny_model_cfg, tiny_model_params):
    lexicon, examples, vocab = tiny_bundle
    ppl = E.perplexity(tiny_model_params, tiny_model_cfg, examples[:6], lexicon, vocab)
    assert ppl >= 1.0
    assert abs(ppl - len(vocab)) < 0.3 * len(vocab)


def test_metrics_report_reference_as_prediction(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    preds = [ex.reference for ex in examples[:8]]
    report = E.metrics_report(preds, examples[:8], lexicon)
    assert report.b1 == pytest.approx(1.0)
    assert report.b4 == pytest.approx(1.0)
    assert report.r_l == pytest.approx(1.0)
    assert report.cover == pytest.approx(1.0)
    assert report.entail == pytest.approx(1.0)


def test_metrics_report_empty_predictions(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    preds = [[] for _ in examples[:5]]
    report = E.metrics_report(preds, examples[:5], lexicon)
    assert report.b1 == 0.0 and report.b4 == 0.0 and report.r_l == 0.0
    assert report.cover == 0.0 and report.entail == 0.0 and report.dist4 == 0.0


def test_metrics_report_alignment_error(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    with pytest.raises(E.EvalError):
        E.metrics_report([[]], examples[:2], lexicon)


def test_decode_and_report_are_deterministic(tiny_bundle, tiny_model_cfg, tiny_model_params):
    # what cmd_evaluate runs: beam decoding, perplexity, then the report
    lexicon, examples, vocab = tiny_bundle
    test_split = [e for e in examples if e.split == "test"][:3]

    def run():
        preds = E.decode_corpus(tiny_model_params, tiny_model_cfg, test_split, lexicon, vocab, beam_size=2)
        ppl = E.perplexity(tiny_model_params, tiny_model_cfg, test_split, lexicon, vocab)
        return E.metrics_report(preds, test_split, lexicon, ppl=ppl), preds

    r1, p1 = run()
    r2, p2 = run()
    assert p1 == p2
    assert r1.to_dict() == r2.to_dict()
    assert 0.0 <= r1.cover <= 1.0 and 0.0 <= r1.entail <= 1.0
