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


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_select_reorders_the_cache_like_fresh_prefixes(decoder_fixture, data):
    params, cfg, src = decoder_fixture
    token = st.integers(0, cfg.vocab_size - 1)
    rows = data.draw(st.integers(1, 5), "rows")
    length = data.draw(st.integers(0, 6), "length")
    prefixes = data.draw(st.lists(st.lists(token, min_size=length, max_size=length), min_size=rows, max_size=rows))
    parents = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=5), "parents")
    nxt = data.draw(st.lists(token, min_size=len(parents), max_size=len(parents)), "next tokens")

    stepper = D.TransformerStepper(params, cfg, src)
    _, state = stepper.step(stepper.start(), [tok.BOS_ID])  # a search starts from one row
    state = stepper.select(state, [0] * rows)
    for t in range(length):
        _, state = stepper.step(state, [p[t] for p in prefixes])
    state = stepper.select(state, parents)
    got, _ = stepper.step(state, nxt)

    for row, (parent, token_id) in enumerate(zip(parents, nxt)):
        fresh = D.TransformerStepper(params, cfg, src)
        fstate = fresh.start()
        for t in [tok.BOS_ID] + prefixes[parent] + [token_id]:
            want, fstate = fresh.step(fstate, [t])
        np.testing.assert_allclose(got[row], want[0], atol=1e-5, rtol=0)


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

    hyp = D.greedy_steps(TieStepper(), max_len=3, eos=tok.EOS_ID)
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
        beam = D.beam_steps(stepper, 1, max_len=6)
        assert beam[0].generated() == greedy


def test_beam_recovers_enumeration_optimum():
    for seed in range(10):
        stepper = TableStepper(vocab_size=5, seed=100 + seed)
        best = enumerate_best(stepper, max_len=3)
        hyps = D.beam_steps(stepper, beam_size=5, max_len=3, length_norm=0.0)
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
        for h in D.beam_steps(stepper, 3, max_len=6):
            body = h.generated()[:-1]
            assert tok.EOS_ID not in body
            assert h.finished


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


def test_beam_length_norm_flag():
    stepper = TableStepper(vocab_size=5, seed=77)
    raw = D.beam_steps(stepper, 4, max_len=5, length_norm=0.0)
    normed = D.beam_steps(stepper, 4, max_len=5, length_norm=1.0)
    assert raw[0].logprob == max(h.logprob for h in raw)
    assert normed[0].normalized() == pytest.approx(max(h.normalized() for h in normed))


def test_hypothesis_invariants():
    for seed in range(10):
        stepper = TableStepper(vocab_size=5, seed=seed)
        for h in D.beam_steps(stepper, 3, max_len=5):
            assert h.ids[0] == tok.BOS_ID
            assert h.logprob <= 1e-12  # log-probs of generated tokens are <= 0
            assert h.finished == (h.ids[-1] == tok.EOS_ID or len(h.generated()) == 5)
