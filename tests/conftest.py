import dataclasses
import functools
import json
import struct
import threading
import types

import numpy as np
import pytest

from colo import corpus as C
from colo import model as M
from colo.tensor import Tensor


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
def toy(tiny_bundle, tiny_model_cfg):
    """(corpus, vocab, config) of the toy model with dropout on, so bitwise guards cover the dropout masks."""
    lexicon, examples, vocab = tiny_bundle
    return C.Corpus(lexicon, examples), vocab, dataclasses.replace(tiny_model_cfg, dropout_rate=0.1)


@pytest.fixture(scope="session")
def tiny_model_params(tiny_model_cfg):
    return M.init_params(tiny_model_cfg, seed=0)


@pytest.fixture(scope="session")
def tiny_model_params64(tiny_model_cfg):
    return M.init_params(tiny_model_cfg, seed=0, dtype=np.float64)


_COUNT_LOCK = threading.Lock()  # a training step runs its shards' passes on two threads


def _counted(fn, rows, kind, arg, *args, **kwargs):
    with _COUNT_LOCK:
        rows[kind] += len(args[arg])
    return fn(*args, **kwargs)


@pytest.fixture
def pass_rows(monkeypatch):
    """Sequences run through each model pass, counted by wrapping the functions the benchmark tracer wraps."""
    rows = {"encode": 0, "decode": 0}
    for kind, name, arg in (("encode", "encode_batch", 2), ("decode", "decode_states_batch", 4)):
        monkeypatch.setattr(M, name, functools.partial(_counted, getattr(M, name), rows, kind, arg))
    return rows


def _rewrite_header(src, dst, edit):
    raw = src.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    blob = json.dumps(edit(json.loads(raw[16 : 16 + n]))).encode("ascii")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :])
    return dst


@pytest.fixture
def rewrite_header():
    """``rewrite_header(src, dst, edit)`` copies a checkpoint with ``edit`` applied to its parsed header."""
    return _rewrite_header


def _held_arrays(obj, seen, roots):
    """Collect into ``roots`` the base arrays of every ndarray reachable from ``obj``."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        roots[id(obj)] = obj
    elif isinstance(obj, Tensor):
        _held_arrays(obj.data, seen, roots)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            _held_arrays(x, seen, roots)
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            _held_arrays(cell.cell_contents, seen, roots)


def _tape_breakdown(tape):
    """``{(kind, dtype name): [arrays]}``: the distinct base arrays a tape holds, by who holds them.

    Arrays a leaf input of some op holds (the parameters) are of kind
    ``"leaf"``; every other array is of the kind of the first op, in
    recording order, whose backward rule holds it (``"ffn"``, ``"attention"``,
    ...: the function that built the rule).  An op's other inputs are ops,
    which hold no array of their own.  Views count as the array they view,
    once, however many ops share it.
    """
    seen, roots, held = set(), {}, {}

    def collect(obj, kind):
        known = len(roots)  # roots keeps insertion order, so what obj adds comes last
        _held_arrays(obj, seen, roots)
        for a in list(roots.values())[known:]:
            held.setdefault((kind, a.dtype.name), []).append(a)

    for op in tape.ops:
        for t in op.inputs:
            if isinstance(t, Tensor):
                collect(t, "leaf")
    for op in tape.ops:
        collect(op.bwd, op.bwd.__qualname__.split(".")[0])
    return held


@pytest.fixture
def tape_breakdown():
    """``tape_breakdown(tape)``: the distinct arrays ``tape`` holds, by op kind and dtype."""
    return _tape_breakdown


def _tape_nbytes(tape):
    """Bytes of the distinct arrays a tape holds through its ops' leaf inputs and backward closures."""
    return sum(a.nbytes for arrays in _tape_breakdown(tape).values() for a in arrays)


@pytest.fixture
def tape_nbytes():
    """``tape_nbytes(tape)``: the bytes of the distinct arrays ``tape`` holds."""
    return _tape_nbytes
