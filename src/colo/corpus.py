"""Synthetic comparative-relation corpus: lexicon, grammar, generator, tokenizer.

The corpus imitates a product-review dataset at token level: each example is
a tuple (entity_a, entity_b, aspect, opinion) plus attribute profiles for the
two entities, and a long reference text that asserts entity_a beats entity_b
in that aspect.  References are built from a fixed template grammar, so an
exact rule-based entailment check is possible; the grammar lives here and the
checker in :mod:`colo.evaluation` shares it.

All text is ASCII and token-level; "words" are synthetic ids like ENT_007 or
efficacy:EFF_004.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import tokens as tok
from .errors import ConfigError, DataError
from .fileio import atomic_write


class CorpusError(DataError):
    """Base class for corpus construction / parsing errors."""


class CapacityError(ConfigError):
    """A corpus setting is out of range, or asks for more than the lexicon can produce."""


class LexiconError(CorpusError):
    """Unknown id or surface form."""


class ParseError(CorpusError):
    """A corpus or lexicon file is malformed."""


CATEGORIES = ("brand", "ingredient", "efficacy", "texture", "appearance", "fragrance")

_CATEGORY_PREFIX = {
    "brand": "BRD",
    "ingredient": "ING",
    "efficacy": "EFF",
    "texture": "TEX",
    "appearance": "APP",
    "fragrance": "FRG",
}

ATTR_TAG = "[ATTR]"
SPLITS = ("train", "valid", "test")

_DISTRACTOR_VERBS = ("has", "features", "offers", "shows")
_ECHO_TOKENS = (",", "overall")
_PERIOD = "."


# ---------------------------------------------------------------------------
# template grammar

WIN, LOS, ASP, OPN = "{WIN}", "{LOS}", "{ASP}", "{OPN}"
SLOT_KINDS = {WIN: "entity", LOS: "entity", ASP: "aspect", OPN: "opinion"}  # slot -> lexicon kind it takes


@dataclass(frozen=True)
class Template:
    """One comparative sentence pattern.

    ``tokens`` mixes literal words with the four slot markers.  When
    ``opinion_inverted`` is set the surface order puts the losing entity
    first and the opinion slot realizes the *antonym* of the tuple's
    opinion, leaving the meaning unchanged ("B trails A ... with lower"
    still asserts A wins with "higher").
    """

    name: str
    tokens: tuple
    opinion_inverted: bool = False

    def literals(self):
        return [t for t in self.tokens if t not in SLOT_KINDS]


MASTER_TEMPLATES = (
    Template("fwd_surpass", (WIN, "surpasses", LOS, "in", ASP, "with", OPN)),
    Template("fwd_beat", (WIN, "beats", LOS, "on", ASP, "being", OPN)),
    Template("fwd_outshine", (WIN, "outshines", LOS, "for", ASP, "rated", OPN)),
    Template("fwd_top", (WIN, "tops", LOS, "regarding", ASP, "as", OPN)),
    Template("inv_trail", (LOS, "trails", WIN, "in", ASP, "with", OPN), opinion_inverted=True),
    Template("inv_lag", (LOS, "lags", WIN, "on", ASP, "being", OPN), opinion_inverted=True),
)


def template_pool(size):
    if not 1 <= size <= len(MASTER_TEMPLATES):
        raise CapacityError(f"template pool size must be in 1..{len(MASTER_TEMPLATES)}")
    return MASTER_TEMPLATES[:size]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ClrTuple:
    entity_a: str
    entity_b: str
    aspect: str
    opinion: str

    def __post_init__(self):
        if self.entity_a == self.entity_b:
            raise CorpusError("tuple entities must differ")

    def as_list(self):
        return [self.entity_a, self.entity_b, self.aspect, self.opinion]


# each ClrTuple field in order, with the lexicon kind it names and the source tag before it
TUPLE_SLOTS = (
    ("entity_a", "entity", tok.EA_TAG),
    ("entity_b", "entity", tok.EB_TAG),
    ("aspect", "aspect", tok.ASP_TAG),
    ("opinion", "opinion", tok.OPN_TAG),
)


@dataclass
class Lexicon:
    entities: dict  # id -> [canonical, alias, ...]
    aspects: dict
    opinions: dict
    opinion_polarity: dict  # id -> "+" | "-"
    antonyms: dict  # id -> id | None
    attributes: dict  # category -> [token, ...]

    def surfaces(self, kind, item_id):
        table = {"entity": self.entities, "aspect": self.aspects, "opinion": self.opinions}[kind]
        try:
            return table[item_id]
        except KeyError:
            raise LexiconError(f"unknown {kind} id {item_id!r}") from None

    def canonical(self, kind, item_id):
        return self.surfaces(kind, item_id)[0]

    def validate(self):
        for item_id, ant in self.antonyms.items():
            if ant is None:
                continue
            if ant == item_id:
                raise LexiconError(f"antonym of {item_id} is itself")
            if self.antonyms.get(ant) != item_id:
                raise LexiconError(f"antonym relation not symmetric for {item_id}")
            if self.opinion_polarity[ant] == self.opinion_polarity[item_id]:
                raise LexiconError(f"antonym pair {item_id}/{ant} shares polarity")
        seen = {}
        for table in (self.entities, self.aspects, self.opinions):
            for item_id, surfaces in table.items():
                if not surfaces:
                    raise LexiconError(f"{item_id} has no surface forms")
                if len(set(surfaces)) != len(surfaces):
                    raise LexiconError(f"{item_id} has duplicate surface forms")
                for s in surfaces:
                    if s.split() != [s]:  # the generator, vocabulary and metrics all read a surface as one token
                        raise LexiconError(f"surface {s!r} of {item_id} is not a single whitespace-free token")
                    if s in seen:
                        raise LexiconError(f"surface {s!r} maps to both {seen[s]} and {item_id}")
                    seen[s] = item_id
        for cat in CATEGORIES:
            if not self.attributes.get(cat):
                raise LexiconError(f"attribute category {cat!r} is empty")

    def surface_to_id(self):
        """token -> (kind, id) over all surface forms; surfaces are unique."""
        out = {}
        for kind, table in (("entity", self.entities), ("aspect", self.aspects), ("opinion", self.opinions)):
            for item_id, surfaces in table.items():
                for s in surfaces:
                    out[s] = (kind, item_id)
        return out


def _is_strings(value):
    """Whether a value read from a file is a list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class EntityProfile:
    entity_id: str
    attrs: dict  # category -> [token, ...]; every category populated, and no other key

    def validate(self):
        unknown = sorted(set(self.attrs) - set(CATEGORIES))
        if unknown:
            raise CorpusError(f"profile of {self.entity_id} has unknown categories {unknown}")
        for cat in CATEGORIES:
            if not self.attrs.get(cat):
                raise CorpusError(f"profile of {self.entity_id} missing category {cat!r}")
            if not _is_strings(self.attrs[cat]):
                raise CorpusError(f"profile of {self.entity_id}: category {cat!r} is not a list of string tokens")


@dataclass
class Example:
    tuple: ClrTuple
    profiles: tuple  # (EntityProfile for entity_a, EntityProfile for entity_b)
    reference: list  # token strings
    split: str  # one of SPLITS


@dataclass(frozen=True)
class CorpusConfig:
    n_entities: int = 24
    n_aspects: int = 8
    n_opinions: int = 8
    n_aliases_per_item: int = 2
    n_attrs_per_category: int = 12
    n_examples: int = 2000
    split_ratio: tuple = (0.8, 0.1, 0.1)
    template_pool_size: int = 6
    distractor_range: tuple = (2, 6)
    profile_attrs_range: tuple = (1, 2)
    ref_len_bounds: tuple = (60, 160)
    seed: int = 0

    def __post_init__(self):
        if min(self.n_entities, self.n_aspects, self.n_opinions, self.n_attrs_per_category) < 2:
            raise CapacityError("lexicon item counts must be >= 2")
        for name, least in (("n_examples", 1), ("n_aliases_per_item", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise CapacityError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name, size in (("split_ratio", 3), ("distractor_range", 2), ("profile_attrs_range", 2), ("ref_len_bounds", 2)):
            if len(getattr(self, name)) != size:
                raise CapacityError(f"{name} must have {size} values, got {list(getattr(self, name))}")
        if not all(0 <= r <= 1 for r in self.split_ratio):
            raise CapacityError(f"split_ratio values must each be in [0, 1], got {list(self.split_ratio)}")
        if abs(sum(self.split_ratio) - 1.0) > 1e-9:
            raise CapacityError("split ratio must sum to 1")
        lo, hi = self.distractor_range
        if not 0 <= lo <= hi:
            raise CapacityError("bad distractor range")
        lo, hi = self.ref_len_bounds
        if not 1 <= lo < hi:
            raise CapacityError("bad reference length bounds")
        lo, hi = self.profile_attrs_range
        if not 1 <= lo <= hi:
            raise CapacityError(f"profile_attrs_range must satisfy 1 <= lo <= hi, got {[lo, hi]}")


# ---------------------------------------------------------------------------
# lexicon and profiles


def _item_surfaces(base, n_aliases):
    return [base] + [f"{base}_ALT{j}" for j in range(1, n_aliases + 1)]


def build_lexicon(config: CorpusConfig) -> Lexicon:
    """Deterministic synthetic lexicon; opinions come in antonym pairs."""
    na = config.n_aliases_per_item
    entities = {f"ENT_{i:03d}": _item_surfaces(f"ENT_{i:03d}", na) for i in range(config.n_entities)}
    aspects = {f"ASP_{i:03d}": _item_surfaces(f"ASP_{i:03d}", na) for i in range(config.n_aspects)}

    opinions, polarity, antonyms = {}, {}, {}
    n_pairs = config.n_opinions // 2
    for k in range(n_pairs):
        pos, neg = f"OPN_P{k:03d}", f"OPN_N{k:03d}"
        opinions[pos] = _item_surfaces(pos, na)
        opinions[neg] = _item_surfaces(neg, na)
        polarity[pos], polarity[neg] = "+", "-"
        antonyms[pos], antonyms[neg] = neg, pos
    if config.n_opinions % 2:
        solo = f"OPN_P{n_pairs:03d}"
        opinions[solo] = _item_surfaces(solo, na)
        polarity[solo] = "+"
        antonyms[solo] = None

    attributes = {
        cat: [f"{_CATEGORY_PREFIX[cat]}_{i:03d}" for i in range(config.n_attrs_per_category)]
        for cat in CATEGORIES
    }
    lex = Lexicon(entities, aspects, opinions, polarity, antonyms, attributes)
    lex.validate()
    return lex


def build_profiles(config: CorpusConfig, lexicon: Lexicon) -> dict:
    """entity id -> EntityProfile with 1+ attributes in every category."""
    lo, hi = config.profile_attrs_range
    profiles = {}
    for idx, ent in enumerate(sorted(lexicon.entities)):
        rng = rngmod.derive_rng(config.seed, rngmod.PROFILES, idx)
        attrs = {}
        for cat in CATEGORIES:
            k = int(rng.integers(lo, hi + 1))
            pool = lexicon.attributes[cat]
            picked = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
            attrs[cat] = [pool[i] for i in sorted(picked)]
        profiles[ent] = EntityProfile(ent, attrs)
    return profiles


# ---------------------------------------------------------------------------
# serialization and tokenization


def _resolve_surface(lexicon, kind, item_id, alias_choice, slot):
    if alias_choice and slot in alias_choice:
        surface = alias_choice[slot]
        if surface not in lexicon.surfaces(kind, item_id):
            raise LexiconError(f"{surface!r} is not a surface of {item_id}")
        return surface
    return lexicon.canonical(kind, item_id)


# tokens of a serialized tuple, a tag and a surface per slot: the shortest source that keeps the whole tuple
SOURCE_TUPLE_LEN = 2 * len(TUPLE_SLOTS)


def serialize_tuple(t: ClrTuple, lexicon: Lexicon, alias_choice=None):
    """Tagged flat token sequence; round-trips to ids unambiguously."""
    seq = []
    for slot, kind, tag in TUPLE_SLOTS:
        seq += [tag, _resolve_surface(lexicon, kind, getattr(t, slot), alias_choice, slot)]
    return seq


def attr_token(category, attr):
    return f"{category}:{attr}"


def build_source(t: ClrTuple, profiles, lexicon: Lexicon, max_src_len, alias_choice=None):
    """Encoder input: serialized tuple plus both profiles' attribute tokens.

    ``profiles`` is the example's EntityProfile pair, matched to ``t``'s entities
    by id (so an entity swap keeps them); truncated to ``max_src_len`` tokens,
    which a model config keeps at least :data:`SOURCE_TUPLE_LEN`.
    """
    by_id = {p.entity_id: p for p in profiles}
    seq = serialize_tuple(t, lexicon, alias_choice)
    for ent in (t.entity_a, t.entity_b):
        prof = by_id[ent]
        for cat in CATEGORIES:
            for attr in prof.attrs[cat]:
                seq.extend((ATTR_TAG, attr_token(cat, attr)))
    return seq[:max_src_len]


def grammar_tokens(lexicon: Lexicon):
    """Every non-reserved token the grammar can emit, sorted."""
    toks = set()
    for table in (lexicon.entities, lexicon.aspects, lexicon.opinions):
        for surfaces in table.values():
            toks.update(surfaces)
    for cat in CATEGORIES:
        toks.update(attr_token(cat, a) for a in lexicon.attributes[cat])
    for template in MASTER_TEMPLATES:
        toks.update(template.literals())
    toks.update(_DISTRACTOR_VERBS)
    toks.update(("and", "plus", _PERIOD))
    toks.update(_ECHO_TOKENS)
    toks.add(ATTR_TAG)
    return sorted(toks)


class Vocab:
    """Bijective token <-> id map over reserved plus grammar tokens."""

    def __init__(self, id_to_token):
        self.id_to_token = list(id_to_token)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("duplicate token in vocabulary")

    @classmethod
    def build(cls, lexicon: Lexicon):
        return cls(list(tok.RESERVED) + grammar_tokens(lexicon))

    def __len__(self):
        return len(self.id_to_token)

    def tokenize(self, tokens_seq):
        return np.array([self.token_to_id.get(t, tok.UNK_ID) for t in tokens_seq], dtype=np.int32)

    def detokenize(self, ids):
        return [self.id_to_token[int(i)] for i in ids]


@dataclass
class EncodedExample:
    """Token-id view of an example, ready for the model."""

    src_ids: np.ndarray
    ref_ids: np.ndarray


def encode_example(example: Example, lexicon: Lexicon, vocab: Vocab, max_src_len) -> EncodedExample:
    src = build_source(example.tuple, example.profiles, lexicon, max_src_len)
    return EncodedExample(vocab.tokenize(src), vocab.tokenize(example.reference))


# ---------------------------------------------------------------------------
# reference realization


def realize_comparative(t: ClrTuple, lexicon: Lexicon, template: Template, rng):
    """Instantiate one comparative template with randomly chosen surfaces.

    For inverted templates the opinion slot uses the antonym's surface; the
    tuple's opinion must have one.
    """
    opinion_id = t.opinion
    if template.opinion_inverted:
        opinion_id = lexicon.antonyms.get(t.opinion)
        if opinion_id is None:
            raise CorpusError(f"template {template.name} needs an antonym for {t.opinion}")

    def pick(kind, item_id):
        surfaces = lexicon.surfaces(kind, item_id)
        return surfaces[int(rng.integers(len(surfaces)))]

    ids = (t.entity_a, t.entity_b, t.aspect, opinion_id)
    fill = {slot: pick(kind, item_id) for (slot, kind), item_id in zip(SLOT_KINDS.items(), ids)}
    return [fill.get(token, token) for token in template.tokens]


def _comparative_sentence(t, lexicon, template, rng):
    sent = realize_comparative(t, lexicon, template, rng)
    if template.opinion_inverted:
        # echo the tuple's own opinion surface so every component is covered
        surfaces = lexicon.surfaces("opinion", t.opinion)
        sent += list(_ECHO_TOKENS) + [surfaces[int(rng.integers(len(surfaces)))]]
    return sent + [_PERIOD]


def _distractor_sentence(entity_id, profile, lexicon, rng):
    surfaces = lexicon.surfaces("entity", entity_id)
    sent = [surfaces[int(rng.integers(len(surfaces)))], _DISTRACTOR_VERBS[int(rng.integers(len(_DISTRACTOR_VERBS)))]]
    n_attrs = int(rng.integers(1, 4))
    cats = rng.choice(len(CATEGORIES), size=n_attrs, replace=False)
    for j, ci in enumerate(cats):
        cat = CATEGORIES[int(ci)]
        attrs = profile.attrs[cat]
        if j:
            sent.append("and")
        sent.append(attr_token(cat, attrs[int(rng.integers(len(attrs)))]))
    sent.append(_PERIOD)
    return sent


def _extend_sentence(sent, profile, rng):
    """Lengthen a distractor by two tokens: 'and <category:attr>' before the period."""
    cat = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
    attrs = profile.attrs[cat]
    sent.insert(-1, "and")
    sent.insert(-1, attr_token(cat, attrs[int(rng.integers(len(attrs)))]))


def build_reference(t: ClrTuple, profiles, lexicon: Lexicon, config: CorpusConfig, rng):
    """Comparative sentence wrapped in profile distractors, length within bounds."""
    pool = template_pool(config.template_pool_size)
    usable = [tp for tp in pool if not tp.opinion_inverted or lexicon.antonyms.get(t.opinion)]
    template = usable[int(rng.integers(len(usable)))]
    comp = _comparative_sentence(t, lexicon, template, rng)

    lo, hi = config.distractor_range
    n_dist = int(rng.integers(lo, hi + 1))
    ents = [t.entity_a, t.entity_b]
    dists = []
    for j in range(n_dist):
        ent = ents[j % 2]
        dists.append(_distractor_sentence(ent, profiles[ent], lexicon, rng))
    n_pre = int(rng.integers(0, n_dist + 1))
    sentences = dists[:n_pre] + [comp] + dists[n_pre:]

    min_len, max_len = config.ref_len_bounds
    # extensions add 2 tokens, so cap the target at max_len - 1
    target = int(rng.integers(min_len, max_len))
    total = sum(len(s) for s in sentences)
    if total < target and not dists:
        ent = t.entity_a
        dists = [_distractor_sentence(ent, profiles[ent], lexicon, rng)]
        sentences.append(dists[0])
        total = sum(len(s) for s in sentences)
    k = 0
    while total < target:
        j = k % len(dists)
        _extend_sentence(dists[j], profiles[ents[j % 2]], rng)
        total += 2
        k += 1
    reference = [token for sent in sentences for token in sent]
    if not min_len <= len(reference) <= max_len:
        raise CapacityError(
            f"reference length {len(reference)} escapes bounds {config.ref_len_bounds}; "
            "loosen ref_len_bounds or distractor_range"
        )
    return reference


# ---------------------------------------------------------------------------
# corpus generation


def _split_sizes(n, ratio):
    raw = [n * r for r in ratio]
    sizes = [int(x) for x in raw]
    rema = sorted(range(len(ratio)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in range(n - sum(sizes)):
        sizes[rema[i % len(sizes)]] += 1
    return sizes


def generate_corpus(config: CorpusConfig):
    """Build (lexicon, examples); examples carry train/valid/test split tags."""
    lexicon = build_lexicon(config)
    profiles = build_profiles(config, lexicon)

    ents = sorted(lexicon.entities)
    asps = sorted(lexicon.aspects)
    opns = sorted(lexicon.opinions)
    n_pairs = len(ents) * (len(ents) - 1)
    capacity = n_pairs * len(asps) * len(opns)
    if config.n_examples > capacity:
        raise CapacityError(
            f"{config.n_examples} examples requested but only {capacity} distinct tuples exist"
        )

    tuple_rng = rngmod.derive_rng(config.seed, rngmod.TUPLES)
    combo_ids = tuple_rng.choice(capacity, size=config.n_examples, replace=False)

    def decode(ix):
        ix, o = divmod(int(ix), len(opns))
        pair, a = divmod(ix, len(asps))
        ea, eb = divmod(pair, len(ents) - 1)
        # eb indexes the entity list with ea removed
        eb = eb if eb < ea else eb + 1
        return ClrTuple(ents[ea], ents[eb], asps[a], opns[o])

    sizes = _split_sizes(config.n_examples, config.split_ratio)
    split_of = ["train"] * sizes[0] + ["valid"] * sizes[1] + ["test"] * sizes[2]

    examples = []
    seen_refs = set()
    for i, combo in enumerate(combo_ids):
        t = decode(combo)
        for retry in range(20):
            ex_rng = rngmod.derive_rng(config.seed, rngmod.EXAMPLE, i, retry)
            reference = build_reference(t, profiles, lexicon, config, ex_rng)
            key = tuple(reference)
            if key not in seen_refs:
                seen_refs.add(key)
                break
        else:
            raise CapacityError(f"could not build a unique reference for example {i}")
        examples.append(
            Example(t, (profiles[t.entity_a], profiles[t.entity_b]), reference, split_of[i])
        )
    return lexicon, examples


@dataclass
class Corpus:
    """Lexicon plus examples, with split views."""

    lexicon: Lexicon
    examples: list

    def split(self, name):
        return [e for e in self.examples if e.split == name]

    def validate(self):
        """Every example's tuple ids, profile attributes and reference tokens must be in the lexicon."""
        known = set(grammar_tokens(self.lexicon))
        for i, ex in enumerate(self.examples):
            try:
                for slot, kind, _ in TUPLE_SLOTS:
                    self.lexicon.surfaces(kind, getattr(ex.tuple, slot))
                for prof in ex.profiles:
                    for cat in CATEGORIES:
                        for attr in prof.attrs[cat]:
                            if attr not in self.lexicon.attributes[cat]:
                                raise LexiconError(f"unknown {cat} attribute {attr!r} of {prof.entity_id}")
                for token in ex.reference:
                    if token not in known:  # the vocabulary would read it as UNK
                        raise LexiconError(f"reference token {token!r} is not in the lexicon's vocabulary")
            except LexiconError as e:
                raise LexiconError(f"corpus example {i} ({ex.split} split): {e}") from None

    @property
    def train(self):
        return self.split("train")

    @property
    def valid(self):
        return self.split("valid")

    @property
    def test(self):
        return self.split("test")


# ---------------------------------------------------------------------------
# file formats (JSON / JSON Lines, ASCII)


def write_lexicon(path, lexicon: Lexicon):
    doc = {
        "entities": lexicon.entities,
        "aspects": lexicon.aspects,
        "opinions": {
            oid: {
                "surfaces": lexicon.opinions[oid],
                "polarity": lexicon.opinion_polarity[oid],
                "antonym": lexicon.antonyms.get(oid),
            }
            for oid in lexicon.opinions
        },
        "attributes": lexicon.attributes,
    }
    with atomic_write(path) as f:
        json.dump(doc, f, ensure_ascii=True, sort_keys=True)
        f.write("\n")


def read_lexicon(path) -> Lexicon:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw.decode("ascii"))
        opinions = {oid: rec["surfaces"] for oid, rec in doc["opinions"].items()}
        polarity = {oid: rec["polarity"] for oid, rec in doc["opinions"].items()}
        antonyms = {oid: rec["antonym"] for oid, rec in doc["opinions"].items()}
        lex = Lexicon(doc["entities"], doc["aspects"], opinions, polarity, antonyms, doc["attributes"])
        lex.validate()
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, AttributeError, TypeError) as e:
        raise ParseError(f"lexicon file {path}: {e!r}") from None
    return lex


def write_corpus(path, examples):
    with atomic_write(path) as f:
        for ex in examples:
            rec = {
                "tuple": ex.tuple.as_list(),
                "profiles": [ex.profiles[0].attrs, ex.profiles[1].attrs],
                "reference": ex.reference,
                "split": ex.split,
            }
            f.write(json.dumps(rec, ensure_ascii=True, sort_keys=True))
            f.write("\n")


def read_corpus(path):
    examples = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("ascii"))
                if not (_is_strings(rec["tuple"]) and len(rec["tuple"]) == len(TUPLE_SLOTS)):
                    raise CorpusError(f"tuple must be a list of {len(TUPLE_SLOTS)} string ids")
                if not _is_strings(rec["reference"]):
                    raise CorpusError("reference must be a list of string tokens")
                t = ClrTuple(*rec["tuple"])
                if not (isinstance(rec["profiles"], list) and len(rec["profiles"]) == 2):
                    raise CorpusError("profiles must be a list of 2 JSON objects")
                if not all(isinstance(attrs, dict) for attrs in rec["profiles"]):
                    raise CorpusError("a profile is not a JSON object")
                profiles = (
                    EntityProfile(t.entity_a, rec["profiles"][0]),
                    EntityProfile(t.entity_b, rec["profiles"][1]),
                )
                for prof in profiles:
                    prof.validate()
                if rec["split"] not in SPLITS:
                    raise CorpusError(f"split {rec['split']!r} is not one of {list(SPLITS)}")
                ex = Example(t, profiles, rec["reference"], rec["split"])
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError, TypeError, CorpusError) as e:
                raise ParseError(f"corpus file {path}, line {lineno}: {e}") from None
            examples.append(ex)
    return examples
