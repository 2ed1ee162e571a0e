"""Pinned fingerprints of the toy model.

One training step's tape length and the bytes its ops hold, the parameters
after a 3-step run and the beam-5 and greedy ids of three test sources.  A
refactor of the numeric core, the decoder or the search that claims to be
bitwise leaves the digests equal.  The tape bytes of one step at the default
model config are pinned too: at the toy model's width a regression in the
(B, H, T, T) attention buffers stays small.
"""

import hashlib

import numpy as np
import pytest

from colo import contrastive as K
from colo import corpus as C
from colo import decoding as D
from colo import model as M
from colo import trainer as TR
from colo.corpus import encode_example
from colo.rng import derive_rng
from colo.tensor import Tape

TCFG = TR.TrainConfig(batch_size=4, epochs=1, seed=3, eval_every=0, max_steps=3)

TAPE_OPS = 129  # moves when ops are fused or split; the digests below must not
# distinct array bytes the step's tape holds (parameters included).  Of the
# fused ops, attention holds q, k, v, the probabilities and its keep mask at
# one bit an entry, and ffn its input and its keep mask at one bit an entry,
# remaking the (..., d_ff) pre-activation in backward.  A change that keeps
# more for backward raises it
TAPE_BYTES = 1375125
# the same at the default corpus and model config, seed 7, batch 16
DEFAULT_TAPE_BYTES = 62763668
PARAMS_SHA256 = "fa64546fdbb587150685e58b69419271e60ad445b69ab1744c3d8547d2d68312"
BEAM5_SHA256 = "5df38913bfc0a4b7dbe69cb222122c61d8fcbe0ffe1b77849d530f63c96e1ae0"
GREEDY_SHA256 = "17085c1c4f193ef9ac21c677cec0f242a02cce335c180953f6b3d7a8418da1f5"


def _sha256(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _ids_sha256(seqs):
    return _sha256(np.asarray(s, dtype=np.int64).tobytes() + b"|" for s in seqs)


def _one_step_tape(corpus, vocab, cfg, seed, batch_size):
    """The tape of one CE+CD training step on the first ``batch_size`` train examples, before backward."""
    batch = corpus.train[:batch_size]
    csets = [K.build_contrastive_set(ex.tuple, corpus.lexicon, derive_rng(seed, i)) for i, ex in enumerate(batch)]
    with Tape() as tape:
        K.total_loss_batch(
            M.init_params(cfg, seed), cfg, batch, csets, corpus.lexicon, vocab, TR.TrainConfig(), derive_rng(1)
        )
    return tape


def test_one_training_step_records_the_pinned_tape(toy, tape_nbytes):
    corpus, vocab, cfg = toy
    tape = _one_step_tape(corpus, vocab, cfg, TCFG.seed, TCFG.batch_size)
    assert len(tape.ops) == TAPE_OPS
    assert tape_nbytes(tape) == TAPE_BYTES


@pytest.fixture(scope="module")
def default_step():
    """(tape, model config) of one step at the default corpus and model config, seed 7, batch 16."""
    lexicon, examples = C.generate_corpus(C.CorpusConfig(seed=7))
    vocab = C.Vocab.build(lexicon)
    cfg = M.ModelConfig(vocab_size=len(vocab))
    return _one_step_tape(C.Corpus(lexicon, examples), vocab, cfg, 7, 16), cfg


def test_one_default_config_step_holds_the_pinned_tape_bytes(default_step, tape_nbytes):
    assert tape_nbytes(default_step[0]) == DEFAULT_TAPE_BYTES


def test_one_default_config_step_holds_no_hidden_layer_and_no_boolean_array(default_step, tape_breakdown):
    """No op holds a float array of the feed-forward width (parameters aside) or a mask at a byte an entry."""
    tape, cfg = default_step
    held = tape_breakdown(tape)
    assert not [key for key in held if key[1] == "bool"]
    wide = [
        (kind, a.shape)
        for (kind, _), arrays in held.items()
        if kind != "leaf"
        for a in arrays
        if a.dtype.kind == "f" and a.shape[-1:] == (cfg.d_ff,)
    ]
    assert not wide


@pytest.fixture(scope="module")
def trained(toy):
    corpus, _, cfg = toy
    return TR.train(TCFG, corpus, cfg)[0].params


def test_three_step_run_lands_on_the_pinned_parameters(trained):
    assert _sha256(n.encode() + t.data.tobytes() for n, t in trained.items()) == PARAMS_SHA256


def test_beam_and_greedy_decode_the_pinned_ids(toy, trained):
    corpus, vocab, cfg = toy
    srcs = [encode_example(ex, corpus.lexicon, vocab, cfg.max_src_len).src_ids for ex in corpus.test[:3]]
    beams = [D.beam_search(trained, cfg, s, beam_size=5) for s in srcs]
    assert _ids_sha256(h for ranked in beams for h in ranked) == BEAM5_SHA256
    assert _ids_sha256(D.greedy_decode(trained, cfg, s) for s in srcs) == GREEDY_SHA256
