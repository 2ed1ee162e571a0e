import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import corpus as C
from colo import tokens as tok
from colo.rng import derive_rng


@pytest.fixture(scope="module")
def small_config():
    return C.CorpusConfig(
        n_entities=8,
        n_aspects=4,
        n_opinions=4,
        n_examples=60,
        ref_len_bounds=(30, 80),
        distractor_range=(1, 3),
        seed=7,
    )


@pytest.fixture(scope="module")
def small_corpus(small_config):
    lexicon, examples = C.generate_corpus(small_config)
    return lexicon, examples


# ---------------------------------------------------------------------------
# lexicon


def test_lexicon_antonym_pairs_balanced():
    lex = C.build_lexicon(C.CorpusConfig(n_opinions=4))
    pairs = {(o, a) for o, a in lex.antonyms.items() if a is not None}
    assert len(pairs) == 4  # both directions of 2 pairs
    pols = [lex.opinion_polarity[o] for o in lex.opinions]
    assert pols.count("+") == pols.count("-") == 2


def test_lexicon_deterministic():
    a = C.build_lexicon(C.CorpusConfig(seed=3))
    b = C.build_lexicon(C.CorpusConfig(seed=3))
    assert a.entities == b.entities and a.opinions == b.opinions and a.attributes == b.attributes


def test_lexicon_alias_sets_disjoint():
    lex = C.build_lexicon(C.CorpusConfig())
    seen = set()
    for table in (lex.entities, lex.aspects, lex.opinions):
        for surfaces in table.values():
            for s in surfaces:
                assert s not in seen
                seen.add(s)


def test_lexicon_validate_rejects_asymmetric_antonyms():
    lex = C.build_lexicon(C.CorpusConfig(n_opinions=4))
    lex.antonyms["OPN_P000"] = "OPN_N001"
    with pytest.raises(C.LexiconError):
        lex.validate()


# ---------------------------------------------------------------------------
# tuple serialization


def test_serialize_round_trip(small_corpus):
    lexicon, examples = small_corpus
    for ex in examples[:20]:
        t = ex.tuple
        assert C.serialize_tuple(t, lexicon) == [
            tok.EA_TAG, lexicon.canonical("entity", t.entity_a),
            tok.EB_TAG, lexicon.canonical("entity", t.entity_b),
            tok.ASP_TAG, lexicon.canonical("aspect", t.aspect),
            tok.OPN_TAG, lexicon.canonical("opinion", t.opinion),
        ]


def test_serialize_swap_differs_only_in_entity_slots(small_corpus):
    lexicon, examples = small_corpus
    t = examples[0].tuple
    swapped = C.ClrTuple(t.entity_b, t.entity_a, t.aspect, t.opinion)
    a = C.serialize_tuple(t, lexicon)
    b = C.serialize_tuple(swapped, lexicon)
    diff = [i for i in range(8) if a[i] != b[i]]
    assert diff == [1, 3]


def test_serialize_length_bounded(small_corpus):
    lexicon, examples = small_corpus
    assert all(len(C.serialize_tuple(ex.tuple, lexicon)) == 8 for ex in examples)


def test_serialize_unknown_id(small_corpus):
    lexicon, _ = small_corpus
    with pytest.raises(C.LexiconError):
        C.serialize_tuple(C.ClrTuple("ENT_000", "NOPE", "ASP_000", "OPN_P000"), lexicon)


def test_serialize_respects_alias_choice(small_corpus):
    lexicon, examples = small_corpus
    t = examples[0].tuple
    alias = lexicon.entities[t.entity_a][1]
    seq = C.serialize_tuple(t, lexicon, {"entity_a": alias})
    assert seq[1] == alias
    with pytest.raises(C.LexiconError):
        C.serialize_tuple(t, lexicon, {"entity_a": "ENT_999"})


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_round_trip(small_corpus):
    lexicon, _ = small_corpus
    vocab = C.Vocab.build(lexicon)
    for word in vocab.id_to_token:
        assert vocab.detokenize(vocab.tokenize([word])) == [word]


def test_tokenize_unknown_is_unk(small_corpus):
    lexicon, _ = small_corpus
    vocab = C.Vocab.build(lexicon)
    assert vocab.tokenize(["never-seen-token"]).tolist() == [tok.UNK_ID]


def test_vocab_size_is_reserved_plus_grammar(small_corpus):
    lexicon, examples = small_corpus
    vocab = C.Vocab.build(lexicon)
    assert len(vocab) == len(tok.RESERVED) + len(C.grammar_tokens(lexicon))
    # every corpus token is in-vocabulary (no UNK anywhere)
    for ex in examples:
        assert tok.UNK_ID not in vocab.tokenize(ex.reference)


def test_reserved_ids_fixed(small_corpus):
    lexicon, _ = small_corpus
    vocab = C.Vocab.build(lexicon)
    assert vocab.token_to_id[tok.PAD] == 0
    assert vocab.token_to_id[tok.BOS] == 1
    assert vocab.token_to_id[tok.EOS] == 2
    assert vocab.token_to_id[tok.UNK] == 3
    assert vocab.token_to_id[tok.EA_TAG] == 4


# ---------------------------------------------------------------------------
# generation


def test_split_sizes(small_corpus):
    _, examples = small_corpus
    counts = {s: sum(e.split == s for e in examples) for s in ("train", "valid", "test")}
    assert counts == {"train": 48, "valid": 6, "test": 6}


def test_reference_lengths_within_bounds(small_config, small_corpus):
    _, examples = small_corpus
    lo, hi = small_config.ref_len_bounds
    lengths = [len(e.reference) for e in examples]
    assert min(lengths) >= lo and max(lengths) <= hi


def test_references_unique_across_splits(small_corpus):
    _, examples = small_corpus
    refs = [tuple(e.reference) for e in examples]
    assert len(set(refs)) == len(refs)


def test_tuples_unique(small_corpus):
    _, examples = small_corpus
    ts = [tuple(e.tuple.as_list()) for e in examples]
    assert len(set(ts)) == len(ts)


def test_generation_deterministic(small_config):
    lex_a, ex_a = C.generate_corpus(small_config)
    lex_b, ex_b = C.generate_corpus(small_config)
    assert [e.reference for e in ex_a] == [e.reference for e in ex_b]
    assert [e.tuple for e in ex_a] == [e.tuple for e in ex_b]


def test_a_generated_corpus_holds_one_string_per_distinct_reference_token():
    _, examples = C.generate_corpus(C.CorpusConfig(n_examples=200, seed=3))
    tokens = [t for ex in examples for t in ex.reference]
    assert len({id(t) for t in tokens}) == len(set(tokens))


def test_capacity_error():
    cfg = C.CorpusConfig(n_entities=2, n_aspects=2, n_opinions=2, n_examples=100)
    with pytest.raises(C.CapacityError):
        C.generate_corpus(cfg)


def test_reference_contains_all_component_surfaces(small_corpus):
    lexicon, examples = small_corpus
    for ex in examples:
        ref = set(ex.reference)
        for kind, item in (
            ("entity", ex.tuple.entity_a),
            ("entity", ex.tuple.entity_b),
            ("aspect", ex.tuple.aspect),
            ("opinion", ex.tuple.opinion),
        ):
            assert ref & set(lexicon.surfaces(kind, item)), (kind, item)


def test_profiles_fully_populated(small_corpus):
    _, examples = small_corpus
    for ex in examples:
        for prof in ex.profiles:
            prof.validate()


def test_tuple_slots_name_every_tuple_field_in_order():
    assert [slot for slot, _, _ in C.TUPLE_SLOTS] == [f.name for f in fields(C.ClrTuple)]


def test_corpus_validate_names_the_example_the_lexicon_does_not_cover(small_corpus):
    lexicon, examples = small_corpus
    C.Corpus(lexicon, examples).validate()
    ex = examples[5]
    prof = ex.profiles[1]
    for bad, message in (
        (replace(ex, tuple=replace(ex.tuple, aspect="ASP_999")), "unknown aspect id 'ASP_999'"),
        (
            replace(ex, profiles=(ex.profiles[0], C.EntityProfile(prof.entity_id, {**prof.attrs, "texture": ["TEX_999"]}))),
            f"unknown texture attribute 'TEX_999' of {prof.entity_id}",
        ),
    ):
        with pytest.raises(C.LexiconError) as err:
            C.Corpus(lexicon, examples[:5] + [bad] + examples[6:]).validate()
        assert str(err.value) == f"corpus example 5 ({ex.split} split): {message}"


# ---------------------------------------------------------------------------
# the reference sampler against numpy's Generator

# small ranges as the grammar draws them, and two near 2**32 whose Lemire draws are often rejected and redrawn
SAMPLER_RANGES = [1, 2, 3, 6, 12, 2**31 + 5, 2**32 - 3]

_sampler_call = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from(SAMPLER_RANGES)),
    st.tuples(st.just("range"), st.integers(-50, 50), st.sampled_from(SAMPLER_RANGES)),
    st.integers(1, 64).flatmap(lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, n))),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), calls=st.lists(_sampler_call, max_size=80))
def test_the_reference_sampler_draws_what_numpy_draws(seed, calls):
    sampler, twin = C._WordSampler(np.random.default_rng(seed)), np.random.default_rng(seed)
    for call in calls:
        if call[0] == "integers":
            got, want = sampler.integers(call[1]), twin.integers(call[1])
        elif call[0] == "range":
            lo, n = call[1:]
            got, want = sampler.integers(lo, lo + n), twin.integers(lo, lo + n)
        else:
            n, k = call[1:]
            got, want = sampler.choice(n, size=k, replace=False), twin.choice(n, size=k, replace=False).tolist()
        assert got == want, call


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.choice(6, size=2),
        lambda s: s.choice(6, size=2, replace=True),
        lambda s: s.choice(6, size=7, replace=False),
        lambda s: s.choice(C._FLOYD_MAX + 1, size=2, replace=False),
        lambda s: s.integers(2**32),
        lambda s: s.integers(-1, 2**32),
        lambda s: s.integers(0),
        lambda s: s.integers(5, 5),
    ],
    ids=["replace-default", "replace-true", "size-over-n", "n-over-floyd", "n-2**32", "span-2**32", "empty", "empty-range"],
)
def test_the_reference_sampler_rejects_a_range_it_does_not_replicate(call):
    with pytest.raises(ValueError):
        call(C._WordSampler(np.random.default_rng(0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.integers(np.array([3, 4])),
        lambda s: s.integers(0, np.array([3, 4])),
        lambda s: s.choice(np.array([3, 4]), size=1, replace=False),
        lambda s: s.integers(6, size=3),
    ],
    ids=["array-bound", "array-high", "array-population", "size"],
)
def test_the_reference_sampler_rejects_array_bounds_and_sizes(call):
    with pytest.raises(TypeError):
        call(C._WordSampler(np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# file round trips


def test_corpus_file_round_trip(tmp_path, small_corpus):
    _, examples = small_corpus
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples)
    back = C.read_corpus(path)
    assert len(back) == len(examples)
    for a, b in zip(examples, back):
        assert a.tuple == b.tuple
        assert a.reference == b.reference
        assert a.split == b.split
        assert a.profiles[0].attrs == b.profiles[0].attrs
    assert len(path.read_text(encoding="ascii").splitlines()) == len(examples)


def test_corpus_read_reports_bad_line(tmp_path, small_corpus):
    _, examples = small_corpus
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples[:5])
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:20]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.ParseError, match="line 4"):
        C.read_corpus(path)


@pytest.mark.parametrize("profile", [["x"], "x", 3], ids=["list", "string", "number"])
def test_corpus_read_rejects_a_profile_that_is_not_an_object(tmp_path, small_corpus, profile):
    _, examples = small_corpus
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples[:5])
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["profiles"][0] = profile
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.ParseError) as err:
        C.read_corpus(path)
    assert str(err.value) == f"corpus file {path}, line 3: a profile is not a JSON object"


@pytest.mark.parametrize("split", [7, "dev", None, ""], ids=["number", "unknown", "null", "empty"])
def test_corpus_read_rejects_a_split_outside_train_valid_test(tmp_path, small_corpus, split):
    _, examples = small_corpus
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples[:5])
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["split"] = split
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.ParseError) as err:
        C.read_corpus(path)
    assert str(err.value) == f"corpus file {path}, line 2: split {split!r} is not one of ['train', 'valid', 'test']"


def test_lexicon_file_round_trip(tmp_path, small_corpus):
    lexicon, _ = small_corpus
    path = tmp_path / "lexicon.json"
    C.write_lexicon(path, lexicon)
    back = C.read_lexicon(path)
    assert back.entities == lexicon.entities
    assert back.opinions == lexicon.opinions
    assert back.antonyms == lexicon.antonyms
    assert back.attributes == lexicon.attributes


@pytest.mark.parametrize("surface", ["ENT 000", " ENT_000", "ENT_000\n", ""])
def test_lexicon_read_rejects_a_surface_that_is_not_one_token(tmp_path, small_corpus, surface):
    lexicon, _ = small_corpus
    path = tmp_path / "lexicon.json"
    C.write_lexicon(path, lexicon)
    doc = json.loads(path.read_text())
    doc["entities"]["ENT_000"][0] = surface
    path.write_text(json.dumps(doc))
    with pytest.raises(C.LexiconError, match=f"surface {re.escape(repr(surface))} of ENT_000 is not a single"):
        C.read_lexicon(path)


def test_corpus_file_byte_identical_for_same_seed(tmp_path, small_config):
    _, ex_a = C.generate_corpus(small_config)
    _, ex_b = C.generate_corpus(small_config)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    C.write_corpus(pa, ex_a)
    C.write_corpus(pb, ex_b)
    assert pa.read_bytes() == pb.read_bytes()


# corpus.jsonl of CorpusConfig(seed=1): the 2000 examples at the default config the benchmark trains and decodes on
DEFAULT_CORPUS_SHA256 = "7eb92d3c636f0fd32ee13880b2dea90c59c25293e7f0a4b6b0c7c40bf2028ce3"


def test_the_default_config_corpus_keeps_its_bytes(tmp_path):
    _, examples = C.generate_corpus(C.CorpusConfig(seed=1))
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples)
    assert len(examples) == 2000
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CORPUS_SHA256


def test_corpus_file_is_ascii_json(tmp_path, small_corpus):
    _, examples = small_corpus
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples[:3])
    for line in path.read_text(encoding="ascii").splitlines():
        rec = json.loads(line)
        assert set(rec) == {"tuple", "profiles", "reference", "split"}


# ---------------------------------------------------------------------------
# encoding


def test_encode_example_shapes(small_corpus):
    lexicon, examples = small_corpus
    vocab = C.Vocab.build(lexicon)
    enc = C.encode_example(examples[0], lexicon, vocab, max_src_len=48)
    assert enc.src_ids.dtype == np.int32
    assert len(enc.src_ids) <= 48
    assert enc.src_ids[0] == tok.EA_TAG_ID
    assert len(enc.ref_ids) == len(examples[0].reference)


def test_build_source_truncates(small_corpus):
    lexicon, examples = small_corpus
    ex = examples[0]
    src = C.build_source(ex.tuple, ex.profiles, lexicon, max_src_len=10)
    assert len(src) == 10
    # the shortest source a model config allows is the whole serialized tuple
    assert C.build_source(ex.tuple, ex.profiles, lexicon, C.SOURCE_TUPLE_LEN) == C.serialize_tuple(ex.tuple, lexicon)


def test_realize_comparative_inverted_uses_antonym(small_corpus):
    lexicon, _ = small_corpus
    t = C.ClrTuple("ENT_000", "ENT_001", "ASP_000", "OPN_P000")
    inv = next(tp for tp in C.MASTER_TEMPLATES if tp.opinion_inverted)
    sent = C.realize_comparative(t, lexicon, inv, derive_rng(0))
    ant_surfaces = set(lexicon.surfaces("opinion", "OPN_N000"))
    assert ant_surfaces & set(sent)
    own_surfaces = set(lexicon.surfaces("opinion", "OPN_P000"))
    assert not (own_surfaces & set(sent))
