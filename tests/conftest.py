import functools

import numpy as np
import pytest

from colo import corpus as C
from colo import model as M


@pytest.fixture(scope="session")
def tiny_corpus_config():
    return C.CorpusConfig(
        n_entities=6,
        n_aspects=3,
        n_opinions=4,
        n_aliases_per_item=1,
        n_attrs_per_category=4,
        n_examples=20,
        split_ratio=(0.6, 0.2, 0.2),
        distractor_range=(1, 2),
        ref_len_bounds=(18, 40),
        seed=11,
    )


@pytest.fixture(scope="session")
def tiny_bundle(tiny_corpus_config):
    """(lexicon, examples, vocab) for a 20-example toy corpus."""
    lexicon, examples = C.generate_corpus(tiny_corpus_config)
    vocab = C.Vocab.build(lexicon)
    return lexicon, examples, vocab


@pytest.fixture(scope="session")
def tiny_model_cfg(tiny_bundle):
    _, _, vocab = tiny_bundle
    return M.ModelConfig(
        vocab_size=len(vocab),
        d_model=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=32,
        max_src_len=48,
        max_tgt_len=48,
        dropout_rate=0.0,
        proj_hidden=16,
    )


@pytest.fixture(scope="session")
def tiny_model_params(tiny_model_cfg):
    return M.init_params(tiny_model_cfg, seed=0)


@pytest.fixture(scope="session")
def tiny_model_params64(tiny_model_cfg):
    return M.init_params(tiny_model_cfg, seed=0, dtype=np.float64)


def _counted(fn, rows, kind, arg, *args, **kwargs):
    rows[kind] += len(args[arg])
    return fn(*args, **kwargs)


@pytest.fixture
def pass_rows(monkeypatch):
    """Sequences run through each model pass, counted by wrapping the functions the benchmark tracer wraps."""
    rows = {"encode": 0, "decode": 0}
    for kind, name, arg in (("encode", "encode_batch", 2), ("decode", "decode_states_batch", 4)):
        monkeypatch.setattr(M, name, functools.partial(_counted, getattr(M, name), rows, kind, arg))
    return rows
