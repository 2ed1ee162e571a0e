import numpy as np
import pytest

from colo import contrastive as K
from colo import tensor as T
from colo.corpus import ClrTuple, build_lexicon, CorpusConfig
from colo.rng import derive_rng
from colo.tensor import Tape, Tensor, backward


@pytest.fixture(scope="module")
def lex():
    return build_lexicon(CorpusConfig(n_entities=6, n_aspects=3, n_opinions=4, n_aliases_per_item=2))


@pytest.fixture
def tup():
    return ClrTuple("ENT_000", "ENT_001", "ASP_000", "OPN_P000")


# ---------------------------------------------------------------------------
# perturbations


def test_swap_entities_paper_example():
    t = ClrTuple("Innisfree", "EsteeLauder", "cost-performance", "higher")
    assert K.swap_entities(t) == ClrTuple("EsteeLauder", "Innisfree", "cost-performance", "higher")


def test_swap_is_involution(tup):
    assert K.swap_entities(K.swap_entities(tup)) == tup


def test_swap_keeps_aspect_opinion(tup):
    s = K.swap_entities(tup)
    assert s.aspect == tup.aspect and s.opinion == tup.opinion


def test_substitute_aspect_never_identity(lex, tup):
    rng = derive_rng(0)
    for _ in range(1000):
        got = K.substitute_aspect(tup, lex, rng)
        assert got.aspect != tup.aspect
        assert (got.entity_a, got.entity_b, got.opinion) == (tup.entity_a, tup.entity_b, tup.opinion)


def test_substitute_aspect_two_aspect_lexicon_deterministic(tup):
    lex2 = build_lexicon(CorpusConfig(n_entities=4, n_aspects=2, n_opinions=4))
    got = K.substitute_aspect(tup, lex2, derive_rng(1))
    assert got.aspect == "ASP_001"


def test_substitute_aspect_infeasible(tup, lex):
    lex_one = build_lexicon(CorpusConfig(n_entities=4, n_aspects=2, n_opinions=4))
    lex_one.aspects = {"ASP_000": lex_one.aspects["ASP_000"]}
    with pytest.raises(K.InfeasibleNegativeError):
        K.substitute_aspect(tup, lex_one, derive_rng(2))


def test_substitute_opinion_prefers_antonym(lex, tup):
    for seed in range(20):
        got = K.substitute_opinion(tup, lex, derive_rng(seed))
        assert got.opinion == "OPN_N000"


def test_substitute_opinion_without_antonym_random(lex, tup):
    lex.antonyms = dict(lex.antonyms)
    lex.antonyms["OPN_P000"] = None
    seen = set()
    for seed in range(50):
        got = K.substitute_opinion(tup, lex, derive_rng(seed))
        assert got.opinion != "OPN_P000"
        seen.add(got.opinion)
    assert len(seen) > 1
    lex.antonyms["OPN_P000"] = "OPN_N000"


def test_make_positive_prefers_alias(lex, tup):
    _, surfaces = K.make_positive(tup, lex, derive_rng(3))
    assert surfaces["entity_a"] != "ENT_000"
    assert surfaces["entity_a"] in lex.entities["ENT_000"]


def test_make_positive_degenerate_single_surface(tup):
    lex1 = build_lexicon(CorpusConfig(n_entities=6, n_aspects=3, n_opinions=4, n_aliases_per_item=0))
    pos, surfaces = K.make_positive(tup, lex1, derive_rng(4))
    assert pos == tup
    assert surfaces == {
        "entity_a": "ENT_000",
        "entity_b": "ENT_001",
        "aspect": "ASP_000",
        "opinion": "OPN_P000",
    }


def test_contrastive_set_invariants(lex, tup):
    for seed in range(200):
        cs = K.build_contrastive_set(tup, lex, derive_rng(seed))
        assert cs.positive == tup
        assert cs.neg_es == K.swap_entities(tup)
        assert cs.neg_as.aspect != tup.aspect
        assert cs.neg_os.opinion == "OPN_N000"


def test_contrastive_set_validation(tup):
    with pytest.raises(ValueError):
        K.ContrastiveSet(tup, tup, {}, tup, tup, tup)


# ---------------------------------------------------------------------------
# ranking and margins


def test_rank_descending_paper_example():
    assert K.rank_descending([0.56, 0.87, 0.24]) == [2, 1, 3]


def test_rank_descending_single():
    assert K.rank_descending([5.0]) == [1]


def test_rank_descending_tie_break_by_position():
    assert K.rank_descending([0.5, 0.5, 0.3]) == [1, 2, 3]


def test_rank_descending_rejects_nan():
    with pytest.raises(K.InvalidLossError):
        K.rank_descending([0.1, float("nan")])


def test_rank_descending_is_permutation():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        vals = rng.standard_normal(n)
        ranks = K.rank_descending(vals)
        assert sorted(ranks) == list(range(1, n + 1))
        for i in range(n):
            for j in range(n):
                if vals[i] > vals[j]:
                    assert ranks[i] < ranks[j]


def test_margin_schedule_paper_values():
    sched = K.margin_schedule(0.01, {"ES": 0.56, "AS": 0.87, "OS": 0.24})
    assert sched.margins == pytest.approx({"ES": 0.02, "AS": 0.01, "OS": 0.03})


def test_margin_schedule_ties():
    sched = K.margin_schedule(0.01, {"ES": 1.0, "AS": 1.0, "OS": 1.0})
    assert sched.margins == pytest.approx({"ES": 0.01, "AS": 0.02, "OS": 0.03})


def test_margin_schedule_smallest_loss_largest_margin():
    rng = np.random.default_rng(1)
    for _ in range(300):
        losses = {k: float(v) for k, v in zip(K.NEG_ORDER, rng.random(3))}
        sched = K.margin_schedule(0.01, losses)
        assert set(np.round(sorted(sched.margins.values()), 6)) == {0.01, 0.02, 0.03}
        easiest = min(K.NEG_ORDER, key=lambda k: (losses[k], K.NEG_ORDER.index(k)))
        assert sched.margins[easiest] == pytest.approx(0.03)


def test_margin_schedule_order_invariance():
    losses = {"ES": 0.9, "AS": 0.5, "OS": 0.7}
    a = K.margin_schedule(0.01, losses)
    b = K.margin_schedule(0.01, {k: v * 10 for k, v in losses.items()})
    assert a.margins == pytest.approx(b.margins)


def test_margins_are_plain_floats():
    sched = K.margin_schedule(0.01, {"ES": 0.3, "AS": 0.2, "OS": 0.1})
    assert all(isinstance(v, float) for v in sched.margins.values())


# ---------------------------------------------------------------------------
# hinge loss: the per-row hinge training runs, fed hand-set cosines


def rows(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def hinge(s_pos, negs):
    """K._hinge_rows over rows of cosines; ``negs`` maps kind -> (negative cosines, margins)."""
    xi = {kind: np.asarray(m, dtype=np.float64) for kind, (_, m) in negs.items()}
    return K._hinge_rows(rows(s_pos), {kind: rows(s) for kind, (s, _) in negs.items()}, xi)


def test_hinge_inactive():
    loss = hinge([0.9], {"ES": ([0.1], [0.01])})
    assert loss.data.tolist() == [0.0]


def test_hinge_active_arithmetic():
    loss = hinge([0.2], {"ES": ([0.5], [0.03])})
    assert loss.data == pytest.approx([0.33])


def test_hinge_triple_hand_oracle():
    s_pos = [0.5, 0.9]
    negs = {"ES": ([0.49, 0.1], [0.02, 0.02]), "AS": ([0.6, 0.2], [0.01, 0.01]), "OS": ([0.1, 0.3], [0.03, 0.03])}
    expected = [sum(max(0.0, s[r] - s_pos[r] + m[r]) for s, m in negs.values()) for r in range(2)]
    assert expected == pytest.approx([0.12, 0.0])
    assert hinge(s_pos, negs).data == pytest.approx(expected)


def test_hinge_zero_iff_all_margins_satisfied():
    rng = np.random.default_rng(2)
    n = 300
    s_pos = rng.uniform(-1, 1, size=n)
    negs = {kind: (rng.uniform(-1, 1, size=n), rng.uniform(0.0, 0.1, size=n)) for kind in K.NEG_ORDER}
    loss = hinge(s_pos, negs).data
    satisfied = np.all([s_pos - s >= m for s, m in negs.values()], axis=0)
    assert np.array_equal(loss == 0.0, satisfied)
    assert 0 < satisfied.sum() < n


def test_hinge_monotone_in_negative_similarity():
    base = hinge([0.4], {"ES": ([0.3], [0.02])}).data[0]
    higher = hinge([0.4], {"ES": ([0.45], [0.02])}).data[0]
    assert higher >= base


def test_hinge_empty_sets_rejected(tiny_bundle, tiny_model_cfg, tiny_model_params):
    with pytest.raises(ValueError, match="at least one negative"):
        loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 0, 0, neg_types=())


def test_hinge_gradient_flows_through_similarities():
    sp = Tensor(np.asarray([0.2]), requires_grad=True, dtype=np.float64)
    sn = Tensor(np.asarray([0.5]), requires_grad=True, dtype=np.float64)
    with Tape():
        loss = K._hinge_rows(sp, {"ES": sn}, {"ES": np.asarray([0.03])})
        backward(T.sum_(loss))
    assert sp.grad == pytest.approx([-1.0])
    assert sn.grad == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# geometry fixtures for the encoding loss (controlled vectors)


def test_ce_geometry_orthogonal_negatives_zero_loss():
    z = rows([[1.0, 0.0, 0.0]])
    negs = {"ES": rows([[0.0, 1.0, 0.0]]), "AS": rows([[0.0, 0.0, 1.0]])}
    xi = {"ES": np.asarray([0.01]), "AS": np.asarray([0.03])}
    assert K._hinge_rows(*K._cosines(z, rows([[1.0, 0.0, 0.0]]), negs), xi).data == pytest.approx([0.0])


def test_ce_geometry_negative_equal_to_anchor():
    z = rows([[1.0, 0.0]])
    s_pos, s_neg = K._cosines(z, rows([[0.0, 1.0]]), {"ES": rows([[1.0, 0.0]])})
    assert K._hinge_rows(s_pos, s_neg, {"ES": np.asarray([0.02])}).data == pytest.approx([1.02])


# ---------------------------------------------------------------------------
# end-to-end losses on the tiny corpus


def loss1(params, cfg, bundle, i, seed, **kwargs):
    """total_loss_batch on a batch of one: example ``i`` with its contrastive set drawn from ``seed``."""
    lexicon, examples, vocab = bundle
    cset = K.build_contrastive_set(examples[i].tuple, lexicon, derive_rng(seed))
    return K.total_loss_batch(params, cfg, [examples[i]], [cset], lexicon, vocab, train=False, **kwargs)


def test_total_loss_lm_only(tiny_bundle, tiny_model_cfg, tiny_model_params):
    breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 0, 0, use_ce=False, use_cd=False)
    vals = breakdown.values()
    assert vals["ce"] == 0.0 and vals["cd"] == 0.0
    assert vals["total"] == pytest.approx(vals["lm"])


def test_total_loss_components_add_exactly(tiny_bundle, tiny_model_cfg, tiny_model_params):
    breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 1, 1)
    lm, ce, cd, total = (breakdown.lm.data, breakdown.ce.data, breakdown.cd.data, breakdown.total.data)
    assert total == (lm + ce) + cd
    assert lm >= 0 and ce >= 0 and cd >= 0


def test_total_loss_forward_counts(tiny_bundle, tiny_model_cfg, tiny_model_params, pass_rows):
    loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 2, 2)
    assert pass_rows == {"encode": 5, "decode": 4}

    pass_rows.update(encode=0, decode=0)
    loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 2, 2, use_ce=False, use_cd=False)
    assert pass_rows == {"encode": 1, "decode": 1}


def test_cd_off_is_exact_zero_with_no_gradient(tiny_bundle, tiny_model_cfg, tiny_model_params):
    tiny_model_params.zero_grads()
    with Tape():
        breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 3, 3, use_ce=False, use_cd=False)
        backward(breakdown.total)
    # projection nets sit on no LM path: no gradient when both losses are off
    assert tiny_model_params["proj.dec.w1"].grad is None
    assert tiny_model_params["proj.enc.w1"].grad is None
    assert float(breakdown.cd.data) == 0.0


def test_cd_gradient_reaches_projections_and_decoder(tiny_bundle, tiny_model_cfg, tiny_model_params):
    tiny_model_params.zero_grads()
    with Tape():
        breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 4, 7, use_ce=False, use_cd=True)
        backward(breakdown.total)
    if float(breakdown.cd.data) > 0:
        assert np.abs(tiny_model_params["proj.dec.w1"].grad).sum() > 0
        assert np.abs(tiny_model_params["proj.enc.w1"].grad).sum() > 0
    assert np.abs(tiny_model_params["dec.0.self.wq"].grad).sum() > 0


def test_ce_loss_gradient_matches_finite_differences(tiny_bundle, tiny_model_cfg, tiny_model_params64):
    wq = tiny_model_params64["enc.0.attn.wq"]

    def f(_):
        return loss1(tiny_model_params64, tiny_model_cfg, tiny_bundle, 5, 9, use_cd=False).ce

    assert float(f(wq).data) > 0
    err = T.finite_diff_check(f, wq, eps=1e-5)
    assert err < 1e-3


def test_batched_matches_sum_of_singles(tiny_bundle, tiny_model_cfg, tiny_model_params):
    lexicon, examples, vocab = tiny_bundle
    batch = examples[:3]
    csets = [K.build_contrastive_set(ex.tuple, lexicon, derive_rng(100 + i)) for i, ex in enumerate(batch)]
    got = K.total_loss_batch(
        tiny_model_params, tiny_model_cfg, batch, csets, lexicon, vocab, train=False
    )
    singles = [
        K.total_loss_batch(tiny_model_params, tiny_model_cfg, [ex], [cs], lexicon, vocab, train=False)
        for ex, cs in zip(batch, csets)
    ]
    for field in ("lm", "ce", "cd", "total"):
        mean_single = np.mean([float(getattr(s, field).data) for s in singles])
        assert float(getattr(got, field).data) == pytest.approx(mean_single, rel=1e-4, abs=1e-6)
