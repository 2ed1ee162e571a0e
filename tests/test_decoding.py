import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import decoding as D
from colo import model as M
from colo import tokens as tok
from colo.rng import derive_rng
from colo.tensor import no_grad


class TableStepper:
    """Hand-settable probability model: log-probs keyed by the full prefix."""

    def __init__(self, vocab_size, seed):
        self.vocab_size = vocab_size
        self.seed = seed

    def _row(self, prefix):
        logits = derive_rng(self.seed, *prefix).standard_normal(self.vocab_size) * 2.0
        m = logits.max()
        return logits - m - np.log(np.exp(logits - m).sum())

    def start(self):
        return [()]

    def step(self, state, tokens):
        new = [p + (int(t),) for p, t in zip(state, tokens)]
        return np.stack([self._row(p) for p in new]), new

    def select(self, state, idx):
        return [state[i] for i in idx]


def enumerate_best(stepper, max_len, bos=tok.BOS_ID, eos=tok.EOS_ID):
    """Brute-force max cumulative log-prob over all complete sequences."""
    best = [-np.inf]

    def rec(prefix, score, depth):
        if depth == max_len:
            best[0] = max(best[0], score)
            return
        row = stepper._row(prefix)
        for v in range(stepper.vocab_size):
            s = score + row[v]
            if v == eos:
                best[0] = max(best[0], s)
            else:
                rec(prefix + (v,), s, depth + 1)

    rec((bos,), 0.0, 0)
    return best[0]


@pytest.fixture(scope="module")
def decoder_fixture(tiny_bundle, tiny_model_cfg, tiny_model_params):
    lexicon, examples, vocab = tiny_bundle
    from colo.corpus import encode_example

    enc = encode_example(examples[0], lexicon, vocab, tiny_model_cfg.max_src_len)
    return tiny_model_params, tiny_model_cfg, enc.src_ids


# ---------------------------------------------------------------------------
# incremental path equals the teacher-forced path


def test_stepper_matches_teacher_forced_logits(decoder_fixture):
    params, cfg, src = decoder_fixture
    prefix = [tok.BOS_ID, 10, 11, 12, 13]
    smask = np.ones((1, len(src)), dtype=bool)
    with no_grad():
        enc = M.encode_batch(params, cfg, np.asarray(src)[None, :], smask)
        tgt = np.asarray(prefix, dtype=np.int32)[None, :]
        full = M.lm_head(params, M.decode_states_batch(params, cfg, enc, smask, tgt, np.ones(tgt.shape, dtype=bool))).data[0]
    full_lp = full - full.max(axis=-1, keepdims=True)
    full_lp = full_lp - np.log(np.exp(full_lp).sum(axis=-1, keepdims=True))

    stepper = D.TransformerStepper(params, cfg, src)
    state = stepper.start()
    for t, token in enumerate(prefix):
        lp, state = stepper.step(state, [token])
        assert np.allclose(lp[0], full_lp[t], atol=2e-4), f"position {t}"


def _parent_lists(rows):
    """Parent index lists over ``rows`` live rows: identity, a kept prefix (dropped rows),
    one parent repeated, a permutation, and anything else of length 1-5."""
    return st.one_of(
        st.just(list(range(rows))),
        st.integers(1, rows).map(lambda m: list(range(m))),
        st.tuples(st.integers(0, rows - 1), st.integers(1, 5)).map(lambda pm: [pm[0]] * pm[1]),
        st.permutations(list(range(rows))),
        st.lists(st.integers(0, rows - 1), min_size=1, max_size=5),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_select_reorders_the_cache_like_fresh_prefixes(decoder_fixture, data):
    """Rounds of select-then-step, starting from a search's one row, against fresh prefixes."""
    params, cfg, src = decoder_fixture
    token = st.integers(0, cfg.vocab_size - 1)
    stepper = D.TransformerStepper(params, cfg, src)
    _, state = stepper.step(stepper.start(), [tok.BOS_ID])
    prefixes = [[tok.BOS_ID]]
    for _ in range(data.draw(st.integers(1, 4), "rounds")):
        parents = data.draw(_parent_lists(len(prefixes)), "parents")
        # distinct tokens keep every row's prefix distinct, so a row left unmoved shows
        n = len(parents)
        nxt = data.draw(st.lists(token, min_size=n, max_size=n, unique=True), "next tokens")
        state = stepper.select(state, parents)
        got, state = stepper.step(state, nxt)
        prefixes = [prefixes[p] + [t] for p, t in zip(parents, nxt)]

    for row, prefix in enumerate(prefixes):
        fresh = D.TransformerStepper(params, cfg, src)
        fstate = fresh.start()
        for t in prefix:
            want, fstate = fresh.step(fstate, [t])
        np.testing.assert_allclose(got[row], want[0], atol=1e-5, rtol=0)


def test_rows_stepped_together_decode_bit_for_bit_as_each_row_alone():
    """5 rows, 30 positions, at the default model width: a row's logits do not depend on the other rows."""
    cfg = M.ModelConfig(vocab_size=200)
    params = M.init_params(cfg, seed=4)
    rng = np.random.default_rng(27)
    cross = M.source_keys_values(params, cfg, rng.integers(len(tok.RESERVED), cfg.vocab_size, 20))
    tokens = rng.integers(len(tok.RESERVED), cfg.vocab_size, (30, 5))
    tokens[0] = tok.BOS_ID

    def logits(rows):
        """(len(rows), 30, V) logits of those columns of ``tokens``, stepped as one batch."""
        cache = M.DecoderCache(cfg, cross)
        cache.select(np.zeros(len(rows), dtype=np.intp))
        return np.stack([M.decode_step(params, cfg, cache, step[rows]) for step in tokens], axis=1)

    together = logits(np.arange(5))
    for r in range(5):
        assert np.array_equal(together[r], logits(np.array([r]))[0])


# ---------------------------------------------------------------------------
# greedy


def test_greedy_terminates_with_eos_or_cap(decoder_fixture):
    params, cfg, src = decoder_fixture
    out = D.greedy_decode(params, cfg, src)
    assert out[-1] == tok.EOS_ID or len(out) == cfg.max_tgt_len


def test_greedy_deterministic(decoder_fixture):
    params, cfg, src = decoder_fixture
    assert D.greedy_decode(params, cfg, src) == D.greedy_decode(params, cfg, src)


def test_greedy_argmax_tie_breaks_to_smallest_id():
    class TieStepper:
        vocab_size = 4

        def start(self):
            return None

        def step(self, state, tokens):
            row = np.log(np.full((1, 4), 0.25))
            return row, state

        def select(self, state, idx):
            return state

    hyp = D.greedy_steps(TieStepper(), max_len=3)
    assert hyp.ids[1] == 0  # all-equal row: argmax picks id 0


# ---------------------------------------------------------------------------
# beam search


def test_beam_one_equals_greedy(decoder_fixture):
    params, cfg, src = decoder_fixture
    greedy = D.greedy_decode(params, cfg, src)
    beam = D.beam_search(params, cfg, src, beam_size=1)
    assert beam[0] == greedy


def test_beam_one_equals_greedy_on_fake_models():
    for seed in range(25):
        stepper = TableStepper(vocab_size=6, seed=seed)
        greedy = D.greedy_steps(stepper, max_len=6).generated()
        beam = D.beam_pool(stepper, 1, max_len=6)
        assert beam[0].generated() == greedy


def test_beam_recovers_enumeration_optimum():
    for seed in range(10):
        stepper = TableStepper(vocab_size=5, seed=100 + seed)
        best = enumerate_best(stepper, max_len=3)
        hyps = D.beam_pool(stepper, beam_size=5, max_len=3, length_norm=0.0)
        assert hyps[0].logprob == pytest.approx(best, abs=1e-9), seed


def test_beam_monotone_in_width():
    for seed in range(100):
        stepper = TableStepper(vocab_size=5, seed=1000 + seed)
        prev = -np.inf
        for beam in (1, 2, 3, 4):
            pool = D.beam_pool(stepper, beam, max_len=5)
            best_raw = max(h.logprob for h in pool)
            assert best_raw >= prev - 1e-12, (seed, beam)
            prev = max(prev, best_raw)


def test_beam_never_extends_past_eos():
    for seed in range(20):
        stepper = TableStepper(vocab_size=5, seed=seed)
        for h in D.beam_pool(stepper, 3, max_len=6):
            body = h.generated()[:-1]
            assert tok.EOS_ID not in body
            assert h.ids[-1] == tok.EOS_ID or len(h.generated()) == 6


def test_beam_top_unnormalized_at_least_greedy(decoder_fixture):
    params, cfg, src = decoder_fixture
    greedy_hyp = D.greedy_steps(D.TransformerStepper(params, cfg, src), cfg.max_tgt_len)
    pool = D.beam_pool(D.TransformerStepper(params, cfg, src), 5, cfg.max_tgt_len)
    best_raw = max(h.logprob for h in pool)
    assert best_raw >= greedy_hyp.logprob - 1e-9


def test_beam_deterministic(decoder_fixture):
    params, cfg, src = decoder_fixture
    a = D.beam_search(params, cfg, src, beam_size=5)
    b = D.beam_search(params, cfg, src, beam_size=5)
    assert a == b
    pool = D.beam_pool(D.TransformerStepper(params, cfg, src), 5, cfg.max_tgt_len)
    assert a == [h.generated() for h in pool[:5]]


def _reference_top_candidates(live_ids, logprob, logprobs, beam_size):
    """Brute force: every (parent, token, score), sorted by (-score, ids)."""
    cands = [(p, t, logprob[p] + logprobs[p, t]) for p in range(len(live_ids)) for t in range(logprobs.shape[1])]
    cands.sort(key=lambda c: (-c[2], tuple(live_ids[c[0]]) + (c[1],)))
    return cands[:beam_size]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_keyed_candidates_equal_brute_force_sort(data):
    """Live ids of one length, scores drawn from a few values so that ties are common."""
    length = data.draw(st.integers(0, 3), "length")
    ids = st.lists(st.integers(0, 3), min_size=length, max_size=length).map(tuple)
    live_ids = data.draw(st.lists(ids, min_size=1, max_size=6, unique=True), "live ids")
    n, v = len(live_ids), data.draw(st.integers(1, 5), "vocab")
    logprob = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.5, -1.0]), min_size=n, max_size=n)))
    step = st.sampled_from([-0.25, -0.5, -0.75, -1.0])
    logprobs = np.array(data.draw(st.lists(step, min_size=n * v, max_size=n * v)), dtype=np.float32).reshape(n, v)
    beam_size = data.draw(st.integers(1, 6), "beam")
    order = sorted(range(n), key=live_ids.__getitem__)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)

    parents, tokens, scores = D._top_candidates(logprob, rank, logprobs, beam_size)
    got = list(zip(parents.tolist(), tokens.tolist(), scores.tolist()))
    assert got == _reference_top_candidates(live_ids, logprob, logprobs, beam_size)


def _reference_beam_pool(stepper, beam_size, max_len, length_norm, bos=tok.BOS_ID, eos=tok.EOS_ID):
    """Beam search over (ids, logprob) lists that breaks ties by sorting on whole id tuples."""
    live, state, pool = [([bos], 0.0)], stepper.start(), []
    for _ in range(max_len):
        if not live:
            break
        logprobs, state = stepper.step(state, [ids[-1] for ids, _ in live])
        selected = _reference_top_candidates([ids for ids, _ in live], [lp for _, lp in live], logprobs, beam_size)
        nxt, parents = [], []
        for parent, token, score in selected:
            hyp = (live[parent][0] + [token], float(score))
            if token == eos:
                pool.append(hyp)
            else:
                nxt.append(hyp)
                parents.append(parent)
        live = nxt
        if live:
            state = stepper.select(state, parents)
    pool += live
    pool.sort(key=lambda h: (-h[1] / max(1, len(h[0]) - 1) ** length_norm, tuple(h[0])))
    return pool


class TiedTableStepper(TableStepper):
    """Log-probs rounded to multiples of 0.5, so many candidates tie exactly."""

    def _row(self, prefix):
        return np.round(derive_rng(self.seed, *prefix).standard_normal(self.vocab_size) * 2.0) * 0.5 - 3.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    vocab=st.integers(3, 6),  # EOS is id 2
    beam=st.integers(1, 5),
    max_len=st.integers(1, 5),
    length_norm=st.sampled_from([0.0, 1.0]),
)
def test_beam_pool_equals_tuple_sorted_search_under_ties(seed, vocab, beam, max_len, length_norm):
    stepper = TiedTableStepper(vocab, seed)
    got = D.beam_pool(stepper, beam, max_len, length_norm=length_norm)
    want = _reference_beam_pool(stepper, beam, max_len, length_norm)
    assert [(h.ids, h.logprob) for h in got] == want


def test_beam_length_norm_flag():
    stepper = TableStepper(vocab_size=5, seed=77)
    raw = D.beam_pool(stepper, 4, max_len=5, length_norm=0.0)[:4]
    normed = D.beam_pool(stepper, 4, max_len=5, length_norm=1.0)[:4]
    assert raw[0].logprob == max(h.logprob for h in raw)
    assert normed[0].normalized() == pytest.approx(max(h.normalized() for h in normed))


def test_hypothesis_invariants():
    for seed in range(10):
        stepper = TableStepper(vocab_size=5, seed=seed)
        for h in D.beam_pool(stepper, 3, max_len=5):
            assert h.ids[0] == tok.BOS_ID
            assert h.logprob <= 1e-12  # log-probs of generated tokens are <= 0
            assert h.ids[-1] == tok.EOS_ID or len(h.generated()) == 5
