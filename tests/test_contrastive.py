import functools
import multiprocessing
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import rankdata

from colo import contrastive as K
from colo import evaluation as E
from colo import model as M
from colo import tensor as T
from colo import trainer as TR
from colo.corpus import ClrTuple, Corpus, build_lexicon, build_source, CorpusConfig
from colo.rng import derive_rng
from colo.tensor import Tape, Tensor, backward, no_grad
from colo.trainer import TrainConfig

TCFG = TrainConfig()


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
    surfaces = K.make_positive(tup, lex, derive_rng(3))
    assert surfaces["entity_a"] != "ENT_000"
    assert surfaces["entity_a"] in lex.entities["ENT_000"]


def test_make_positive_degenerate_single_surface(tup):
    lex1 = build_lexicon(CorpusConfig(n_entities=6, n_aspects=3, n_opinions=4, n_aliases_per_item=0))
    surfaces = K.make_positive(tup, lex1, derive_rng(4))
    assert surfaces == {
        "entity_a": "ENT_000",
        "entity_b": "ENT_001",
        "aspect": "ASP_000",
        "opinion": "OPN_P000",
    }


def test_contrastive_set_invariants(lex, tup):
    for seed in range(200):
        cs = K.build_contrastive_set(tup, lex, derive_rng(seed))
        assert cs.original == tup
        assert tuple(cs.negatives) == K.NEG_ORDER
        assert cs.negatives["ES"] == K.swap_entities(tup)
        assert cs.negatives["AS"].aspect != tup.aspect
        assert cs.negatives["OS"].opinion == "OPN_N000"


def test_contrastive_set_validation(tup):
    es, as_, os_ = K.swap_entities(tup), replace(tup, aspect="ASP_001"), replace(tup, opinion="OPN_N000")
    K.ContrastiveSet(tup, {}, {"ES": es, "AS": as_, "OS": os_})
    for negatives in (
        {"ES": tup, "AS": tup, "OS": tup},
        {"ES": es, "AS": os_, "OS": os_},
        {"ES": es, "AS": as_, "OS": replace(os_, aspect="ASP_001")},
        {"AS": as_, "ES": es, "OS": os_},
        {"ES": es, "AS": as_},
    ):
        with pytest.raises(ValueError):
            K.ContrastiveSet(tup, {}, negatives)


# ---------------------------------------------------------------------------
# ranking and margins: at gamma 1, margin_schedule returns the descending ranks themselves


def test_rank_descending_paper_example():
    assert K.margin_schedule(1, [0.56, 0.87, 0.24]).tolist() == [2, 1, 3]


def test_rank_descending_single():
    assert K.margin_schedule(1, [5.0]).tolist() == [1]


def test_rank_descending_tie_break_by_position():
    assert K.margin_schedule(1, [0.5, 0.5, 0.3]).tolist() == [1, 2, 3]
    assert K.margin_schedule(1, [[0.3, 0.5, 0.5], [0.5, 0.3, 0.5]]).tolist() == [[3, 1, 2], [1, 3, 2]]


def test_rank_descending_rejects_nan():
    with pytest.raises(K.InvalidLossError):
        K.margin_schedule(0.01, [0.1, float("nan")])
    with pytest.raises(K.InvalidLossError):
        K.margin_schedule(0.01, [[0.1, 0.2, 0.3], [0.3, float("nan"), 0.2]])


@given(st.data())
def test_rank_descending_is_permutation(data):
    # values from a small set, so rows often tie; ordinal ranks break ties by position
    b, n = data.draw(st.integers(1, 6), "rows"), data.draw(st.integers(1, 5), "kinds")
    values = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 7.5]), min_size=b * n, max_size=b * n))
    losses = np.array(values).reshape(b, n)
    ranks = K.margin_schedule(1, losses)
    assert ranks.shape == (b, n)
    assert np.array_equal(ranks, rankdata(-losses, method="ordinal", axis=1))
    for row, vals in zip(ranks, losses):
        assert sorted(row) == list(range(1, n + 1))
        assert all(row[i] < row[j] for i in range(n) for j in range(n) if vals[i] > vals[j])


def test_margin_schedule_paper_values():
    assert K.margin_schedule(0.01, [0.56, 0.87, 0.24]) == pytest.approx([0.02, 0.01, 0.03])


def test_margin_schedule_ties():
    assert K.margin_schedule(0.01, [1.0, 1.0, 1.0]) == pytest.approx([0.01, 0.02, 0.03])


def test_margin_schedule_smallest_loss_largest_margin():
    losses = np.random.default_rng(1).random((300, 3))
    sched = K.margin_schedule(0.01, losses)
    assert np.array_equal(np.sort(sched, axis=1), np.tile(0.01 * np.arange(1, 4), (300, 1)))
    assert np.all(sched[np.arange(300), losses.argmin(axis=1)] == 0.01 * 3)


def test_margin_schedule_order_invariance():
    losses = np.array([0.9, 0.5, 0.7])
    assert np.array_equal(K.margin_schedule(0.01, losses), K.margin_schedule(0.01, losses * 10))


@given(st.data())
def test_margin_schedule_permutation_equivariant(data):
    # distinct losses: with ties the position tie-break is not permutation-equivariant
    n = data.draw(st.integers(1, 3))
    values = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n, unique=True)))
    perm = np.array(data.draw(st.permutations(range(n))))
    gamma = data.draw(st.floats(1e-4, 1.0))
    assert np.array_equal(K.margin_schedule(gamma, values[perm]), K.margin_schedule(gamma, values)[perm])


def test_margins_are_plain_floats():
    sched = K.margin_schedule(0.01, [[0.3, 0.2, 0.1]])
    assert sched.dtype == np.float64
    assert all(isinstance(v, float) for v in sched.ravel())


# ---------------------------------------------------------------------------
# hinge loss: the per-row hinge training runs, fed hand-set cosines


def rows(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def hinge(s_pos, negs):
    """K._hinge_rows over rows of cosines; ``negs`` maps kind -> (negative cosines, margins), in kind order."""
    xi = np.stack([np.asarray(m, dtype=np.float64) for _, m in negs.values()], axis=1)
    return K._hinge_rows(rows(s_pos), rows([s for s, _ in negs.values()]), xi)


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
    sn = Tensor(np.asarray([[0.5]]), requires_grad=True, dtype=np.float64)
    with Tape():
        loss = K._hinge_rows(sp, sn, np.asarray([[0.03]]))
        backward(T.sum_(loss))
    assert sp.grad == pytest.approx([-1.0])
    assert sn.grad == pytest.approx(np.asarray([[1.0]]))


# ---------------------------------------------------------------------------
# geometry fixtures for the encoding loss (controlled vectors)


def test_ce_geometry_orthogonal_negatives_zero_loss():
    z = rows([[1.0, 0.0, 0.0]])
    negs = rows([[[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]])
    xi = np.asarray([[0.01, 0.03]])
    assert K._hinge_rows(*K._cosines(z, rows([[1.0, 0.0, 0.0]]), negs), xi).data == pytest.approx([0.0])


def test_ce_geometry_negative_equal_to_anchor():
    z = rows([[1.0, 0.0]])
    s_pos, s_neg = K._cosines(z, rows([[0.0, 1.0]]), rows([[[1.0, 0.0]]]))
    assert K._hinge_rows(s_pos, s_neg, np.asarray([[0.02]])).data == pytest.approx([1.02])


# ---------------------------------------------------------------------------
# end-to-end losses on the tiny corpus


def _clear_grads(params):
    for t in params.values():
        t.grad = None


def loss1(params, cfg, bundle, i, seed, **kwargs):
    """total_loss_batch on a batch of one: example ``i`` with its contrastive set drawn from ``seed``.

    ``kwargs`` set the ``TrainConfig`` fields the loss reads.
    """
    lexicon, examples, vocab = bundle
    cset = K.build_contrastive_set(examples[i].tuple, lexicon, derive_rng(seed))
    return K.total_loss_batch(params, cfg, [examples[i]], [cset], lexicon, vocab, TrainConfig(**kwargs))


def test_total_loss_lm_only(tiny_bundle, tiny_model_cfg, tiny_model_params):
    breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 0, 0, use_ce=False, use_cd=False)
    vals = breakdown.values()
    assert vals["ce"] == 0.0 and vals["cd"] == 0.0
    assert vals["total"] == pytest.approx(vals["lm"])


def test_total_loss_without_a_generator_uses_no_dropout(tiny_bundle, tiny_model_cfg, tiny_model_params):
    """The loss's defaults on a model with a dropout rate give the values of the same model at rate 0."""
    lexicon, examples, vocab = tiny_bundle
    batch = examples[:2]
    csets = [K.build_contrastive_set(ex.tuple, lexicon, derive_rng(i)) for i, ex in enumerate(batch)]
    with_rate = replace(tiny_model_cfg, dropout_rate=0.1)
    got = K.total_loss_batch(tiny_model_params, with_rate, batch, csets, lexicon, vocab, TCFG).values()
    assert got == K.total_loss_batch(tiny_model_params, tiny_model_cfg, batch, csets, lexicon, vocab, TCFG).values()


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
    _clear_grads(tiny_model_params)
    with Tape():
        breakdown = loss1(tiny_model_params, tiny_model_cfg, tiny_bundle, 3, 3, use_ce=False, use_cd=False)
        backward(breakdown.total)
    # projection nets sit on no LM path: no gradient when both losses are off
    assert tiny_model_params["proj.dec.w1"].grad is None
    assert tiny_model_params["proj.enc.w1"].grad is None
    assert float(breakdown.cd.data) == 0.0


def test_cd_gradient_reaches_projections_and_decoder(tiny_bundle, tiny_model_cfg, tiny_model_params):
    _clear_grads(tiny_model_params)
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
    err = T.finite_diff_check(f, wq)
    assert err < 1e-3


def test_batched_matches_sum_of_singles(tiny_bundle, tiny_model_cfg, tiny_model_params):
    lexicon, examples, vocab = tiny_bundle
    batch = examples[:3]
    csets = [K.build_contrastive_set(ex.tuple, lexicon, derive_rng(100 + i)) for i, ex in enumerate(batch)]
    got = K.total_loss_batch(tiny_model_params, tiny_model_cfg, batch, csets, lexicon, vocab, TCFG)
    singles = [
        K.total_loss_batch(tiny_model_params, tiny_model_cfg, [ex], [cs], lexicon, vocab, TCFG)
        for ex, cs in zip(batch, csets)
    ]
    for field in ("lm", "ce", "cd", "total"):
        mean_single = np.mean([float(getattr(s, field).data) for s in singles])
        assert float(getattr(got, field).data) == pytest.approx(mean_single, rel=1e-4, abs=1e-6)


def test_ce_entity_swap_cosines_are_evaluations_es_similarity(tiny_bundle, tiny_model_cfg, tiny_model_params, monkeypatch):
    """The CE hinge and evaluate's ES similarity compare one relation vector: their ES cosines agree."""
    lexicon, examples, vocab = tiny_bundle
    seen = []
    cosines = K._cosines

    def record(anchor, positive, negatives):
        seen.append(cosines(anchor, positive, negatives))
        return seen[-1]

    monkeypatch.setattr(K, "_cosines", record)
    _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, range(len(examples)), use_cd=False)
    (_, s_neg), = seen
    es = float(np.mean(s_neg.data[K.NEG_ORDER.index("ES")]))
    want = E.mean_entity_swap_similarity(tiny_model_params, tiny_model_cfg, examples, lexicon, vocab)
    assert es == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# the detached margin pass


def _batch_loss(params, cfg, bundle, indices, **kwargs):
    lexicon, examples, vocab = bundle
    batch = [examples[i] for i in indices]
    csets = [K.build_contrastive_set(examples[i].tuple, lexicon, derive_rng(200 + i)) for i in indices]
    return K.total_loss_batch(params, cfg, batch, csets, lexicon, vocab, TrainConfig(**kwargs))


@pytest.fixture
def margin_calls(monkeypatch):
    """(losses, margins) of every ``margin_schedule`` call, in call order."""
    seen = []
    schedule = K.margin_schedule

    def record(gamma, losses):
        margins = schedule(gamma, losses)
        seen.append((np.array(losses), margins))
        return margins

    monkeypatch.setattr(K, "margin_schedule", record)
    return seen


def test_margin_losses_do_not_depend_on_batch_mates(tiny_bundle, tiny_model_cfg, tiny_model_params, margin_calls):
    lexicon, examples, vocab = tiny_bundle

    def ref_len(i):
        return len(vocab.tokenize(examples[i].reference))

    def src_len(i):
        ex = examples[i]
        return len(build_source(ex.tuple, ex.profiles, lexicon, tiny_model_cfg.max_src_len))

    # example 14 has the shortest reference and the longest source of its batch,
    # so only the target length pads it
    alone, batch = [14], [2, 14, 17, 8]
    assert all(ref_len(j) > ref_len(14) and src_len(j) <= src_len(14) for j in batch if j != 14)

    _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, alone)
    _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, batch)
    (solo, _), (batched, _) = margin_calls
    assert solo.shape == (1, len(K.NEG_ORDER)) and batched.shape == (len(batch), len(K.NEG_ORDER))
    assert np.array_equal(solo[0], batched[batch.index(14)])


def _padded_oracle(params, cfg, neg_state_data, neg_mask, tgt_in, labels, label_mask):
    """Per-example negative losses, (B, n), from one padded pass over all n*B rows."""
    n = len(neg_mask) // len(tgt_in)
    with no_grad():
        nll, _ = M.nll_per_example(
            params, cfg,
            Tensor(neg_state_data), neg_mask,
            np.tile(tgt_in, (n, 1)), np.tile(labels, (n, 1)), np.tile(label_mask, (n, 1)),
        )
    return nll.data.reshape(n, -1).T.astype(np.float64)


@pytest.mark.parametrize("dtype, rtol", [("float32", 1e-6), ("float64", 1e-12)])
def test_margin_pass_matches_padded_oracle(
    tiny_bundle, tiny_model_cfg, tiny_model_params, tiny_model_params64, margin_calls, monkeypatch, dtype, rtol
):
    params = tiny_model_params if dtype == "float32" else tiny_model_params64
    calls = []
    margin_losses = K._margin_losses

    def record(*args):
        losses = margin_losses(*args)
        calls.append((args, losses))
        return losses

    monkeypatch.setattr(K, "_margin_losses", record)
    _batch_loss(params, tiny_model_cfg, tiny_bundle, list(range(12)))

    (args, got), = calls
    (scheduled, xi), = margin_calls
    assert got.dtype == np.float64 and np.array_equal(scheduled, got)
    oracle = _padded_oracle(*args)
    np.testing.assert_allclose(got, oracle, rtol=rtol, atol=0)
    # margins are ranks: equal wherever the oracle's losses are well apart
    apart = [i for i, row in enumerate(oracle) if np.all(np.diff(np.sort(row)) > 1e-5 * np.sort(row)[1:])]
    assert apart
    assert np.array_equal(xi[apart], 0.01 * rankdata(-oracle[apart], method="ordinal", axis=1))


def _record_call(fn, calls, *args, **kwargs):
    calls.append((T.Tape.current(), args))
    return fn(*args, **kwargs)


def test_margin_pass_computes_no_padding(tiny_bundle, tiny_model_cfg, tiny_model_params, monkeypatch):
    calls = []
    monkeypatch.setattr(M, "nll_per_example", functools.partial(_record_call, M.nll_per_example, calls))
    batch = list(range(10))
    with Tape():
        _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, batch)
    margin_calls = [args for tape, args in calls if tape is None]
    assert len(calls) == 1 + len(margin_calls)
    for _, _, _, enc_mask, _, _, label_mask in margin_calls:
        assert enc_mask.all() and label_mask.all()
    assert sum(len(args[4]) for args in margin_calls) == len(K.NEG_ORDER) * len(batch)


# ---------------------------------------------------------------------------
# shard threads: a training step runs its second shard on a thread of its own


class _PassError(Exception):
    pass


def _train_within(seconds, train):
    """``train(caller)``'s result, or its error raised here, where ``caller`` is the thread ``train`` runs in.

    It runs on a thread of its own, so a step that hangs fails the test after ``seconds``.
    """
    out = {}

    def target():
        try:
            out["value"] = train(threading.get_ident())
        except BaseException as e:
            out["error"] = e

    thread = threading.Thread(target=target, daemon=True)  # a hung step must not hold up the test process's exit
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"the step did not end within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _one_step(tiny_bundle, tiny_model_cfg, monkeypatch, failing_shard=None):
    """A function running one 4-example (2 + 2) training step; shard ``failing_shard`` raises ``_PassError`` in its loss."""
    lexicon, examples, _ = tiny_bundle
    loss, caller = K.total_loss_batch, []

    def loss_or_fail(*args, **kwargs):
        if failing_shard is not None and (threading.get_ident() != caller[-1]) == failing_shard:
            raise _PassError
        return loss(*args, **kwargs)

    monkeypatch.setattr(K, "total_loss_batch", loss_or_fail)

    def train(ident):
        caller.append(ident)
        tcfg = TrainConfig(batch_size=4, epochs=1, seed=3, eval_every=0, max_steps=1)
        return TR.train(tcfg, Corpus(lexicon, examples), tiny_model_cfg)[1]

    return train


@pytest.mark.parametrize("shard", [0, 1])
def test_a_shard_error_reaches_the_train_caller_with_its_type(tiny_bundle, tiny_model_cfg, monkeypatch, shard):
    with pytest.raises(_PassError):
        _train_within(60, _one_step(tiny_bundle, tiny_model_cfg, monkeypatch, failing_shard=shard))


@pytest.mark.parametrize("failing_shard", [None, 0, 1], ids=["ok", "shard-0-fails", "shard-1-fails"])
def test_no_shard_thread_outlives_a_step(tiny_bundle, tiny_model_cfg, monkeypatch, failing_shard):
    before = threading.enumerate()
    try:
        _train_within(60, _one_step(tiny_bundle, tiny_model_cfg, monkeypatch, failing_shard))
    except _PassError:
        assert failing_shard is not None
    assert threading.enumerate() == before


def test_a_forked_child_runs_a_step(tiny_bundle, tiny_model_cfg, monkeypatch):
    """A child forked after a step inherits no shard thread; its own step must not wait on one."""
    step = _one_step(tiny_bundle, tiny_model_cfg, monkeypatch)
    want = step(threading.get_ident())
    ctx = multiprocessing.get_context("fork")
    got = ctx.Queue()

    def child():
        got.put(step(threading.get_ident()))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert got.get(timeout=60) == want
    finally:
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0


def test_the_loss_takes_gamma_from_its_train_config(tiny_bundle, tiny_model_cfg, tiny_model_params):
    """Doubling the config's gamma doubles the margins, so an active CE hinge grows."""
    indices = list(range(6))
    ce = _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, indices).values()["ce"]
    wider = _batch_loss(tiny_model_params, tiny_model_cfg, tiny_bundle, indices, gamma=0.02).values()["ce"]
    assert 0 < ce < wider


# ---------------------------------------------------------------------------
# project_in_ce: the CE and CD hinges share the encoder-side projections


def _double_projection_loss(params, cfg, bundle, indices, gamma=0.01):
    """The CE+CD objective with ``project_in_ce``, each hinge projecting z and the negatives itself."""
    lexicon, examples, vocab = bundle
    batch = [examples[i] for i in indices]
    csets = [K.build_contrastive_set(examples[i].tuple, lexicon, derive_rng(200 + i)) for i in indices]
    b, n = len(batch), len(K.NEG_ORDER)
    tgt_in, labels, label_mask = M.make_target_arrays([vocab.tokenize(ex.reference) for ex in batch])
    variants = [(c.original, None) for c in csets] + [(c.original, c.positive_surfaces) for c in csets]
    variants += [(c.negatives[kind], None) for kind in K.NEG_ORDER for c in csets]
    tuples, aliases = zip(*variants)
    states, mask = K.encode_variants(params, cfg, tuples, batch * (2 + n), lexicon, vocab, aliases)
    pooled = T.masked_mean_pool(states, mask)
    z, pos = T.slice0(pooled, 0, b), T.slice0(pooled, b, 2 * b)
    negs = T.reshape(T.slice0(pooled, 2 * b, (2 + n) * b), (n, b, cfg.d_model))
    nll, dec_states = M.nll_per_example(params, cfg, T.slice0(states, 0, b), mask[:b], tgt_in, labels, label_mask)
    lm = T.mean_(nll)
    xi = K.margin_schedule(gamma, K._margin_losses(params, cfg, states.data[2 * b:], mask[2 * b:], tgt_in, labels, label_mask))

    def enc(v):
        return M.project(params, "enc", v)

    ce = T.mean_(K._hinge_rows(*K._cosines(enc(z), enc(pos), enc(negs)), xi))
    z_y = M.project(params, "dec", T.masked_mean_pool(dec_states, label_mask))
    cd = T.mean_(K._hinge_rows(*K._cosines(z_y, enc(z), enc(negs)), xi))
    return K.LossBreakdown(lm, ce, cd, T.add(T.add(lm, ce), cd))


def _values_and_grads(params, loss_fn):
    _clear_grads(params)
    with Tape():
        breakdown = loss_fn()
        backward(breakdown.total)
    return breakdown.values(), {k: t.grad.copy() for k, t in params.items() if t.grad is not None}


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-4), ("float64", 1e-12)])
def test_project_in_ce_projects_each_vector_once(
    tiny_bundle, tiny_model_cfg, tiny_model_params, tiny_model_params64, monkeypatch, dtype, tol
):
    """Loss values are unchanged; gradients differ by rounding only, since shared projections sum their uses first."""
    indices = list(range(6))
    params = tiny_model_params if dtype == "float32" else tiny_model_params64
    want, want_grads = _values_and_grads(
        params, lambda: _double_projection_loss(params, tiny_model_cfg, tiny_bundle, indices)
    )
    sides = []
    project = M.project
    monkeypatch.setattr(M, "project", lambda p, side, x: sides.append(side) or project(p, side, x))
    got, grads = _values_and_grads(
        params, lambda: _batch_loss(params, tiny_model_cfg, tiny_bundle, indices, project_in_ce=True)
    )
    # z, the positive and the (n, B, d) block of negatives on the encoder side, z_y on the decoder side
    assert sorted(sides) == ["dec"] + ["enc"] * 3
    assert got == want and want["ce"] > 0 and want["cd"] > 0
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        want_g = want_grads[name]
        np.testing.assert_allclose(g, want_g, rtol=0, atol=tol * np.abs(want_g).max(), err_msg=name)


# ---------------------------------------------------------------------------
# the one negative axis against a per-kind reference


def _per_kind_cosines(anchor, positive, negatives):
    """Reference: one (B,) cosine chain per negative kind, ``negatives`` a list of (B, d) tensors."""
    return T.cosine_rows(anchor, positive), [T.cosine_rows(anchor, n) for n in negatives]


def _per_kind_hinge_rows(s_pos, s_neg, xi):
    """Reference: the kinds' hinges added one term at a time, ``s_neg`` a list of (B,) cosines."""
    per_ex = None
    for j, s in enumerate(s_neg):
        term = T.relu(T.add(T.sub(s, s_pos), Tensor(xi[:, j].astype(s_pos.dtype))))
        per_ex = term if per_ex is None else T.add(per_ex, term)
    return per_ex


def _per_kind_loss(params, cfg, bundle, indices, tcfg):
    """Reference objective that holds each negative kind's pooled rows, projections and cosines apart."""
    lexicon, examples, vocab = bundle
    batch = [examples[i] for i in indices]
    csets = [K.build_contrastive_set(examples[i].tuple, lexicon, derive_rng(200 + i)) for i in indices]
    b = len(batch)
    neg_types = tuple(k for k in K.NEG_ORDER if k in tcfg.neg_types)
    hinged = tcfg.use_ce or tcfg.use_cd
    tgt_in, labels, label_mask = M.make_target_arrays([vocab.tokenize(ex.reference) for ex in batch])
    variants = [(c.original, None) for c in csets]
    if tcfg.use_ce:
        variants += [(c.original, c.positive_surfaces) for c in csets]
    if hinged:
        variants += [(c.negatives[kind], None) for kind in neg_types for c in csets]
    tuples, aliases = zip(*variants)
    groups = len(variants) // b
    states, mask = K.encode_variants(params, cfg, tuples, batch * groups, lexicon, vocab, aliases)
    enc_orig = states
    if hinged:
        pooled = T.masked_mean_pool(states, mask)
        z, *blocks = [T.slice0(pooled, i * b, (i + 1) * b) for i in range(groups)]
        negs = blocks[-len(neg_types):]
        enc_orig = T.slice0(states, 0, b)
        lo = (groups - len(neg_types)) * b
        xi = K.margin_schedule(
            tcfg.gamma, K._margin_losses(params, cfg, states.data[lo:], mask[lo:], tgt_in, labels, label_mask)
        )
    nll, dec_states = M.nll_per_example(params, cfg, enc_orig, mask[:b], tgt_in, labels, label_mask)
    lm = T.mean_(nll)

    def enc(v):
        return M.project(params, "enc", v)

    ce = cd = Tensor(np.zeros((), dtype=params["emb.tok"].dtype))
    if tcfg.use_ce:
        q, k_pos, k_neg = z, blocks[0], negs
        if tcfg.project_in_ce:
            q, k_pos, k_neg = enc(z), enc(k_pos), [enc(k) for k in negs]
        ce = T.mean_(_per_kind_hinge_rows(*_per_kind_cosines(q, k_pos, k_neg), xi))
    if tcfg.use_cd:
        z_y = M.project(params, "dec", T.masked_mean_pool(dec_states, label_mask))
        if tcfg.use_ce and tcfg.project_in_ce:
            pz, p_neg = q, k_neg
        else:
            pz, p_neg = enc(z), [enc(k) for k in negs]
        cd = T.mean_(_per_kind_hinge_rows(*_per_kind_cosines(z_y, pz, p_neg), xi))
    return K.LossBreakdown(lm, ce, cd, T.add(T.add(lm, ce), cd))


PER_KIND_ARMS = {
    "full": {},
    "no_ce": {"use_ce": False},
    "no_cd": {"use_cd": False},
    "es_only": {"neg_types": ("ES",)},
    "as_os": {"neg_types": ("AS", "OS")},
    "project_in_ce": {"project_in_ce": True},
}


@pytest.mark.parametrize("arm", sorted(PER_KIND_ARMS))
@pytest.mark.parametrize("dtype, tol", [("float32", 1e-4), ("float64", 1e-12)])
def test_one_negative_axis_matches_the_per_kind_reference(
    tiny_bundle, tiny_model_cfg, tiny_model_params, tiny_model_params64, arm, dtype, tol
):
    """Loss values are bitwise the per-kind code's; gradients differ by rounding only.

    Broadcasting sums the kinds' contributions before adding them to the rest.
    """
    indices = list(range(6))
    params = tiny_model_params if dtype == "float32" else tiny_model_params64
    kwargs = PER_KIND_ARMS[arm]
    tcfg = TrainConfig(**kwargs)
    want, want_grads = _values_and_grads(
        params, lambda: _per_kind_loss(params, tiny_model_cfg, tiny_bundle, indices, tcfg)
    )
    got, grads = _values_and_grads(params, lambda: _batch_loss(params, tiny_model_cfg, tiny_bundle, indices, **kwargs))
    assert np.array_equal([got[k] for k in sorted(got)], [want[k] for k in sorted(want)])
    assert (want["ce"] > 0) == tcfg.use_ce and (want["cd"] > 0) == tcfg.use_cd
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        want_g = want_grads[name]
        np.testing.assert_allclose(g, want_g, rtol=0, atol=tol * np.abs(want_g).max(), err_msg=name)
