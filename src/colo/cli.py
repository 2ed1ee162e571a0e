"""Command-line entry point: gen-data, train, generate, evaluate, ablate, gradcheck.

Every command resolves its configuration as defaults < config file < flags,
runs deterministically from its seed, and writes a manifest (resolved config,
input/output content digests, timestamps) next to its artifacts.  Flags bind
to config fields by name: a gen-data or train flag that sets a field stores
under it (``--lr`` as ``learning_rate``).  Exit codes: 0 success, 2
configuration error, 3 data error, 4 numeric abort, 1 a failed ablate
child.  An error's exit code follows its base class in :mod:`colo.errors`,
and a missing input path is a data error.  Any other exception is a
programming error and propagates (exit 1 with a traceback).  Options that
several commands share (``--corpus``; generate's and evaluate's
``--split``, ``--beam``, ``--length-norm`` and ``--limit``) are declared
once, in parent parsers.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from . import gradcheck
from .corpus import (
    SPLITS, Corpus, CorpusConfig, Vocab, generate_corpus, read_corpus, read_lexicon, write_corpus, write_lexicon,
)
from .errors import ConfigError, DataError, NumericError, fits
from .evaluation import EvalError, decode_corpus, mean_entity_swap_similarity, metrics_report, perplexity, write_report
from .fileio import atomic_write, write_json
from .model import ModelConfig
from .trainer import (
    CheckpointError, TrainConfig, load_checkpoint, save_checkpoint, total_steps, train, training_splits,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ABLATION_ARMS = {
    "full": [],
    "no_ce": ["--no-ce"],
    "no_cd": ["--no-cd"],
    "lm_only": ["--no-ce", "--no-cd"],
    "es_only": ["--neg-types", "ES"],
    "as_only": ["--neg-types", "AS"],
    "os_only": ["--neg-types", "OS"],
}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_of(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _digests(paths):
    return {str(p): _sha256(p) for p in paths}


def write_manifest(path, command, config, seed, inputs, outputs, started):
    """``inputs`` maps each input path to its digest, taken before the command could change it.

    The manifest's ``ended_at`` is the time of this call.
    """
    doc = {
        "command": command,
        "config": config,
        "config_digest": _digest_of(config),
        "seed": seed,
        "inputs": inputs,
        "outputs": _digests(outputs),
        "artifacts": [str(p) for p in outputs],
        "started_at": started,
        "ended_at": _now(),
    }
    write_json(path, doc)
    return doc


def parse_config_file(path):
    """Flat ``key = value`` format; values parse as JSON with string fallback.  A key may appear once."""
    try:
        with open(path, encoding="ascii") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not an ASCII file: {e}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _resolve(defaults, args):
    """(settings, keys set explicitly): defaults < config file < the flags named in ``defaults``.

    A file key that is unknown, or whose value the field cannot take, is a config error.
    """
    file_cfg = parse_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    merged = dict(defaults)
    for key, value in file_cfg.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if not fits(value, merged[key]):
            raise ConfigError(f"config key {key!r} cannot be {value!r}")
        merged[key] = tuple(value) if isinstance(value, list) else value
    merged.update(flags)
    return merged, set(file_cfg) | set(flags)


def _default_out(seed):
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-s{seed}"


def _out_path(out, default, is_file=False):
    """``--out`` (``default`` when unset) as a Path the command can write, checked before any work.

    The command makes ``out``, or for an output file its parent, so the
    nearest existing ancestor of that directory must be a directory, and an
    output file must not be an existing directory.
    """
    out = Path(out) if out else default
    if is_file and out.is_dir():
        raise ConfigError(f"--out {out} is a directory, not a file")
    ancestor = out.parent if is_file else out
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise ConfigError(f"--out {out} cannot be made: {ancestor} is not a directory")
    return out


def _load_bundle(corpus_dir):
    corpus_dir = Path(corpus_dir)
    corpus_path = corpus_dir / "corpus.jsonl"
    lexicon_path = corpus_dir / "lexicon.json"
    if not corpus_path.exists() or not lexicon_path.exists():
        raise FileNotFoundError(f"{corpus_dir}: expected corpus.jsonl and lexicon.json")
    corpus = Corpus(read_lexicon(lexicon_path), read_corpus(corpus_path))
    corpus.validate()
    return corpus, Vocab.build(corpus.lexicon), corpus_path, lexicon_path


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args):
    started = _now()
    resolved, _ = _resolve(dataclasses.asdict(CorpusConfig()), args)
    cfg = CorpusConfig(**resolved)

    out = _out_path(args.out, _default_out(cfg.seed))
    corpus_path = out / "corpus.jsonl"
    lexicon_path = out / "lexicon.json"
    for p in (corpus_path, lexicon_path):
        if p.exists() and not args.force:
            raise DataError(f"refusing to overwrite {p} (use --force)")

    lexicon, examples = generate_corpus(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_lexicon(lexicon_path, lexicon)
    write_corpus(corpus_path, examples)
    outputs = [corpus_path, lexicon_path]
    write_manifest(out / "gen-data.manifest.json", "gen-data", resolved, cfg.seed, {}, outputs, started)
    counts = {s: sum(1 for e in examples if e.split == s) for s in SPLITS}
    print(f"wrote {len(examples)} examples {counts} to {corpus_path}")
    return 0


# ---------------------------------------------------------------------------
# train


# a resume may change how long it runs and how often it evaluates; every other
# TrainConfig field shapes the trajectory and is taken from the checkpoint
RESUME_FREE_FIELDS = ("epochs", "max_steps", "eval_every")


def _resumed_configs(ckpt, resolved, explicit):
    """(TrainConfig, ModelConfig) for a resume; an explicit value the checkpoint contradicts raises.

    A free field keeps its checkpoint value unless a flag or the config file sets it.
    """
    saved = {**dataclasses.asdict(ckpt.train_config), **dataclasses.asdict(ckpt.model_config)}
    for key in sorted(explicit - set(RESUME_FREE_FIELDS)):
        if resolved[key] != saved[key]:
            raise CheckpointError(f"resume: {key} is {saved[key]!r} in the checkpoint, not {resolved[key]!r}")
    tcfg = dataclasses.replace(ckpt.train_config, **{k: resolved[k] for k in RESUME_FREE_FIELDS if k in explicit})
    return tcfg, ckpt.model_config


def _load_checkpoint(path, vocab):
    """The checkpoint at ``path``; it only reads the corpus vocabulary its embeddings were trained on."""
    ckpt = load_checkpoint(path)
    if ckpt.model_config.vocab_size != len(vocab):
        raise CheckpointError(f"checkpoint vocabulary has {ckpt.model_config.vocab_size} tokens, corpus {len(vocab)}")
    return ckpt


def _check_target_length(examples, vocab, mcfg, splits):
    """The model must fit every reference it reads teacher-forced: ``splits`` names where ``examples`` come from."""
    longest = max((len(vocab.tokenize(ex.reference)) for ex in examples), default=0)
    if longest > mcfg.max_tgt_len:
        raise ConfigError(f"max_tgt_len is {mcfg.max_tgt_len}, but the corpus has a {splits} reference of {longest} tokens")


def _log_offset(path, step):
    """Where the log at ``path`` has its first record at or past ``step``, or a crash-cut last line, in bytes.

    A complete line before that offset that is not a record raises.
    """
    offset = 0
    with open(path, "rb") as f:
        for line in f:
            if not line.endswith(b"\n"):
                break
            try:
                if json.loads(line)["step"] >= step:
                    break
            except (ValueError, KeyError, TypeError) as e:
                raise CheckpointError(f"resume: malformed line in {path}: {e!r}") from None
            offset += len(line)
    return offset


def cmd_train(args):
    started = _now()
    train_defaults = dataclasses.asdict(TrainConfig())
    model_defaults = {k: f.default for k, f in ModelConfig.__dataclass_fields__.items() if k != "vocab_size"}
    resolved, explicit = _resolve({**train_defaults, **model_defaults}, args)

    corpus, vocab, corpus_path, lexicon_path = _load_bundle(args.corpus)
    training_splits(corpus)  # before any write: a failed run leaves --out and its log as they were
    params = adam = None
    start_step = 0
    inputs = [corpus_path, lexicon_path]
    if args.resume:
        loaded = _load_checkpoint(args.resume, vocab)
        tcfg, mcfg = _resumed_configs(loaded, resolved, explicit)
        params, adam, start_step = loaded.params, loaded.adam, loaded.step
        inputs.append(Path(args.resume))
    else:
        tcfg = TrainConfig(**{k: resolved[k] for k in train_defaults})
        mcfg = ModelConfig(vocab_size=len(vocab), **{k: resolved[k] for k in model_defaults})
    _check_target_length(corpus.train + corpus.valid, vocab, mcfg, "train/valid")
    total_steps(tcfg, len(corpus.train), start_step)  # a budget that ends before the checkpoint raises here
    input_digests = _digests(inputs)

    out = _out_path(args.out, _default_out(tcfg.seed))
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "model.ckpt"
    log_path = out / "train_log.jsonl"

    if args.resume and log_path.exists():  # the records from before the checkpoint stay where they lie
        os.truncate(log_path, _log_offset(log_path, start_step))
    # line-buffered: each record reaches the file as its step ends
    with open(log_path, "a" if args.resume else "w", encoding="ascii", buffering=1) as log_file:
        ckpt, _ = train(tcfg, corpus, mcfg, params=params, adam=adam, start_step=start_step, log_file=log_file)
    save_checkpoint(ckpt_path, ckpt)

    manifest_cfg = {
        "train": dataclasses.asdict(tcfg),
        "model": dataclasses.asdict(mcfg),
        "corpus_digest": input_digests[str(corpus_path)],
    }
    outputs = [ckpt_path, log_path]
    write_manifest(out / "train.manifest.json", "train", manifest_cfg, tcfg.seed, input_digests, outputs, started)
    print(f"trained {ckpt.step} steps -> {ckpt_path}")
    return 0


# ---------------------------------------------------------------------------
# generate


def _examples(corpus, split, limit):
    """The examples of ``split`` ("" for every split), the first ``limit`` of them (0 for all); none is an error."""
    if limit < 0:
        raise ConfigError(f"--limit must be >= 0 (0 means all examples), got {limit}")
    examples = corpus.split(split) if split else corpus.examples
    if not examples:
        raise ConfigError(f"split {split!r} is empty")
    return examples[:limit] if limit else examples


def _input_digests(inputs, out):
    """The inputs' digests, taken before the command writes ``out``, which must not be one of them."""
    if out.resolve() in {p.resolve() for p in inputs}:
        raise ConfigError(f"--out {out} is one of the command's inputs")
    return _digests(inputs)


def cmd_generate(args):
    started = _now()
    corpus, vocab, corpus_path, lexicon_path = _load_bundle(args.corpus)
    examples = _examples(corpus, args.split, args.limit)
    ckpt = _load_checkpoint(args.ckpt, vocab)
    out = _out_path(args.out, _default_out(ckpt.train_config.seed) / "predictions.jsonl", is_file=True)
    input_digests = _input_digests([Path(args.ckpt), corpus_path, lexicon_path], out)

    preds = decode_corpus(
        ckpt.params, ckpt.model_config, examples, corpus.lexicon, vocab,
        beam_size=args.beam, length_norm=args.length_norm,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out) as f:
        for i, pred in enumerate(preds):
            f.write(json.dumps({"example_id": i, "prediction": pred}, sort_keys=True) + "\n")
    config = {"beam": args.beam, "length_norm": args.length_norm, "split": args.split, "limit": args.limit}
    seed = ckpt.train_config.seed
    write_manifest(Path(str(out) + ".manifest.json"), "generate", config, seed, input_digests, [out], started)
    print(f"wrote {len(examples)} predictions -> {out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _read_predictions(path, n_expected):
    """Token lists by example_id from a JSONL file; a malformed line or a repeated example_id raises EvalError."""
    preds = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                example_id, prediction = rec["example_id"], rec["prediction"]
            except (ValueError, KeyError, TypeError) as e:
                raise EvalError(f"{path}:{lineno}: malformed prediction line: {e!r}") from None
            if type(example_id) is not int or example_id < 0:  # a JSON true loads as bool, whose type is not int
                raise EvalError(f"{path}:{lineno}: example_id must be an integer >= 0, got {example_id!r}")
            if example_id in preds:
                raise EvalError(f"{path}:{lineno}: example_id {example_id} appears twice")
            if not isinstance(prediction, list) or not all(isinstance(t, str) for t in prediction):
                raise EvalError(f"{path}:{lineno}: prediction must be a list of string tokens")
            preds[example_id] = prediction
    missing = [i for i in range(n_expected) if i not in preds]
    if missing:
        raise EvalError(f"predictions file {path} is missing example_id {missing[0]}")
    return [preds[i] for i in range(n_expected)]


def cmd_evaluate(args):
    started = _now()
    if not args.ckpt and not args.predictions:
        raise ConfigError("evaluate needs --ckpt or --predictions")
    corpus, vocab, corpus_path, lexicon_path = _load_bundle(args.corpus)
    examples = _examples(corpus, args.split, args.limit)

    ckpt = None
    if args.ckpt:
        ckpt = _load_checkpoint(args.ckpt, vocab)
        _check_target_length(examples, vocab, ckpt.model_config, args.split or "/".join(SPLITS))
    out = _out_path(args.out, Path("report.json"), is_file=True)
    inputs = [Path(p) for p in (corpus_path, lexicon_path, args.ckpt, args.predictions) if p]
    input_digests = _input_digests(inputs, out)

    if args.predictions:
        preds = _read_predictions(args.predictions, len(examples))
    else:
        preds = decode_corpus(
            ckpt.params, ckpt.model_config, examples, corpus.lexicon, vocab,
            beam_size=args.beam, length_norm=args.length_norm,
        )

    ppl = es_sim = None
    if ckpt is not None:
        ppl = perplexity(ckpt.params, ckpt.model_config, examples, corpus.lexicon, vocab)
        es_sim = mean_entity_swap_similarity(
            ckpt.params, ckpt.model_config, examples, corpus.lexicon, vocab
        )
    report = metrics_report(preds, examples, corpus.lexicon, ppl=ppl)

    config = {
        "split": args.split,
        "beam": args.beam,
        "length_norm": args.length_norm,
        "limit": args.limit,
        "corpus_digest": input_digests[str(corpus_path)],
        "ckpt_digest": input_digests[str(Path(args.ckpt))] if args.ckpt else None,
        "predictions": bool(args.predictions),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    extra = {"es_similarity": es_sim, "config_digest": _digest_of(config)}
    write_report(out, report, extra=extra)
    seed = ckpt.train_config.seed if ckpt else 0
    write_manifest(Path(str(out) + ".manifest.json"), "evaluate", config, seed, input_digests, [out], started)
    print(json.dumps(report.scaled(), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# ablate


CHILD_POLL_S = 0.05

# TrainConfig field -> ablate's dest; each run's train child gets it as the flag argparse makes of that dest
ABLATE_TRAIN_OPTIONS = {
    "epochs": "epochs", "batch_size": "batch", "learning_rate": "lr", "gamma": "gamma", "eval_every": "eval_every",
}


def _run_children(cmds, jobs):
    """Run command lines with at most ``jobs`` concurrent subprocesses.

    Whichever child exits first is noticed first.  On a non-zero exit, which
    raises :class:`subprocess.CalledProcessError`, or an interrupt, the children
    still running are terminated and waited on before the error propagates.
    """
    pending = list(cmds)
    running = {}
    try:
        while pending or running:
            while pending and len(running) < jobs:
                cmd = pending.pop(0)
                running[subprocess.Popen(cmd)] = cmd
            done = [p for p in running if p.poll() is not None]
            if not done:
                time.sleep(CHILD_POLL_S)
            for proc in done:
                cmd = running.pop(proc)
                if proc.returncode != 0:
                    raise subprocess.CalledProcessError(proc.returncode, cmd)
    finally:
        for proc in running:
            proc.terminate()
        for proc in running:
            proc.wait()


def cmd_ablate(args):
    started = _now()
    for flag, value in (("--seeds", args.seeds), ("--jobs", args.jobs), ("--beam", args.beam)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    # what every child reads is checked once here, not in each child after others have run
    TrainConfig(seed=args.seed0, **{field: getattr(args, dest) for field, dest in ABLATE_TRAIN_OPTIONS.items()})
    arms = list(ABLATION_ARMS) if not args.arms else [a.strip() for a in args.arms.split(",")]
    for arm in arms:
        if arm not in ABLATION_ARMS:
            raise ConfigError(f"unknown ablation arm {arm!r}; choose from {sorted(ABLATION_ARMS)}")
    if len(set(arms)) != len(arms):
        raise ConfigError(f"duplicate ablation arms in {arms}")
    _load_bundle(args.corpus)
    out = _out_path(args.out, _default_out(args.seed0))
    out.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed0 + i for i in range(args.seeds)]

    base = [sys.executable, "-m", "colo"]
    forwarded = []
    for dest in ABLATE_TRAIN_OPTIONS.values():
        forwarded += ["--" + dest.replace("_", "-"), str(getattr(args, dest))]
    train_cmds, eval_cmds = [], []
    for arm in arms:
        for seed in seeds:
            run_dir = out / f"{arm}-s{seed}"
            train_cmds.append(
                base + ["train", "--corpus", str(args.corpus), "--out", str(run_dir), "--seed", str(seed)]
                + forwarded + ABLATION_ARMS[arm]
            )
            eval_cmds.append(base + [
                "evaluate", "--corpus", str(args.corpus), "--ckpt", str(run_dir / "model.ckpt"), "--split", "test",
                "--beam", str(args.beam), "--out", str(run_dir / "report.json"),
            ])

    _run_children(train_cmds, args.jobs)
    _run_children(eval_cmds, args.jobs)

    table = {}
    for arm in arms:
        rows = []
        for seed in seeds:
            with open(out / f"{arm}-s{seed}" / "report.json", encoding="ascii") as f:
                rows.append(json.load(f))
        table[arm] = {"seeds": seeds}
        for key in ("cover", "entail", "b4", "es_similarity"):
            vals = [r[key] for r in rows]
            mean = sum(vals) / len(vals)
            sd = (sum((v - mean) ** 2 for v in vals) / len(vals)) ** 0.5
            table[arm][key] = {"mean": mean, "sd": sd, "values": vals}

    doc = {"arms": table, "config": {
        "seeds": seeds, "epochs": args.epochs, "batch": args.batch, "lr": args.lr,
        "gamma": args.gamma, "beam": args.beam, "corpus": str(args.corpus),
    }}
    ablation_path = out / "ablation.json"
    write_json(ablation_path, doc)

    header = f"{'arm':10s} {'Cover':>14s} {'Entail':>14s} {'B-4':>14s} {'ES-sim':>14s}"
    print(header)
    for arm in arms:
        row = table[arm]

        def ms(key):
            return f"{row[key]['mean'] * 100:6.2f}±{row[key]['sd'] * 100:5.2f}"

        print(f"{arm:10s} {ms('cover'):>14s} {ms('entail'):>14s} {ms('b4'):>14s} {ms('es_similarity'):>14s}")
    write_manifest(out / "ablate.manifest.json", "ablate", doc["config"], args.seed0, {}, [ablation_path], started)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args):
    results = gradcheck.run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:28s} max_rel_err={r.max_rel_err:.3e}  threshold={r.threshold:g}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _neg_types(text):
    """Negative kinds from a comma list, upper-cased; an empty value keeps the default."""
    return tuple(t.strip().upper() for t in text.split(",") if t.strip()) if text else None


def build_parser():
    p = argparse.ArgumentParser(prog="colo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True, help="directory with corpus.jsonl and lexicon.json")
    decode = argparse.ArgumentParser(add_help=False)  # generate's and evaluate's choice of examples and search
    decode.add_argument("--split", default="test", help="split to read; an empty value means all (default %(default)s)")
    decode.add_argument("--beam", type=int, default=5, help="beam size when decoding; 1 decodes greedily (default %(default)s)")
    decode.add_argument(
        "--length-norm", type=float, default=1.0,
        help="beams rank by log-prob / length ** this; 0 ranks by raw log-prob (default %(default)s)",
    )
    decode.add_argument("--limit", type=int, default=0, help="read only the split's first N examples; 0 means all")

    g = sub.add_parser("gen-data", help="generate the synthetic corpus and lexicon")
    g.add_argument("--out", help="output directory (default runs/<ts>-s<seed>)")
    g.add_argument("--config", help="flat key = value config file of CorpusConfig fields")
    g.add_argument("--seed", type=int, help="corpus seed: the same seed and settings write the same files")
    g.add_argument("--n-examples", type=int, help="number of examples over all three splits")
    g.add_argument("--entities", type=int, dest="n_entities", help="number of entities in the lexicon")
    g.add_argument("--aspects", type=int, dest="n_aspects", help="number of aspects in the lexicon")
    g.add_argument("--opinions", type=int, dest="n_opinions", help="number of opinions in the lexicon, in antonym pairs")
    g.add_argument("--aliases", type=int, dest="n_aliases_per_item", help="alias surfaces per lexicon item; 0 gives none")
    g.add_argument("--template-pool", type=int, dest="template_pool_size", help="number of reference templates drawn from")
    g.add_argument("--force", action="store_true", help="overwrite existing files")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", parents=[corpus], help="train a model on a generated corpus")
    t.add_argument("--out", help="run directory (default runs/<ts>-s<seed>)")
    t.add_argument("--config", help="flat key = value config file of TrainConfig and ModelConfig fields")
    t.add_argument("--lr", type=float, dest="learning_rate", help="Adam learning rate")
    t.add_argument(
        "--gamma", type=float,
        help="margin scale: each negative's hinge margin is gamma times the rank of its LM loss, largest first",
    )
    t.add_argument("--batch", type=int, dest="batch_size", help="examples per training step")
    t.add_argument("--epochs", type=int, help="passes over the train split")
    t.add_argument("--seed", type=int, help="seed of the initial parameters, example order, contrastive sets and dropout")
    t.add_argument("--eval-every", type=int, help="steps between quick evals on the valid split; 0 disables them")
    t.add_argument("--max-steps", type=int, help="stop after this many steps in all; 0 means run all epochs")
    t.add_argument("--grad-clip", type=float, dest="grad_clip_norm", help="global L2 norm the gradients are clipped to")
    t.add_argument("--d-model", type=int, help="model width; must be divisible by n_heads")
    t.add_argument("--no-ce", action="store_false", dest="use_ce", default=None, help="drop the contrastive encoding loss")
    t.add_argument("--no-cd", action="store_false", dest="use_cd", default=None, help="drop the contrastive decoding loss")
    t.add_argument("--neg-types", type=_neg_types, help="comma list from ES,AS,OS (default all)")
    t.add_argument(
        "--project-in-ce", action="store_true", default=None,
        help="compare projected encodings in the contrastive encoding loss, not the pooled ones",
    )
    t.add_argument("--resume", help="checkpoint to resume from; its model and training settings are kept")
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("generate", parents=[corpus, decode], help="decode tuples from a corpus file")
    d.add_argument("--ckpt", required=True, help="checkpoint to decode with")
    d.add_argument("--out", help="predictions JSONL file (default runs/<ts>-s<seed>/predictions.jsonl)")
    d.set_defaults(func=cmd_generate)

    e = sub.add_parser("evaluate", parents=[corpus, decode], help="compute the metric report for a split")
    e.add_argument("--ckpt", help="checkpoint to decode with and to score perplexity and ES similarity of")
    e.add_argument("--predictions", help="JSONL predictions instead of decoding")
    e.add_argument("--out", help="report JSON file (default report.json)")
    e.set_defaults(func=cmd_evaluate)

    a = sub.add_parser("ablate", parents=[corpus], help="train and evaluate the ablation arms")
    a.add_argument("--out", help="directory of the arms' runs and ablation.json (default runs/<ts>-s<seed0>)")
    a.add_argument("--seeds", type=int, default=3, help="runs per arm, seeded seed0, seed0 + 1, ... (default %(default)s)")
    a.add_argument("--seed0", type=int, default=0, help="seed of each arm's first run (default %(default)s)")
    a.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="each run's --epochs (default %(default)s)")
    a.add_argument("--batch", type=int, default=TrainConfig.batch_size, help="each run's --batch (default %(default)s)")
    a.add_argument("--lr", type=float, default=TrainConfig.learning_rate, help="each run's --lr (default %(default)s)")
    a.add_argument("--gamma", type=float, default=TrainConfig.gamma, help="each run's --gamma (default %(default)s)")
    a.add_argument("--beam", type=int, default=5, help="each run's evaluate --beam (default %(default)s)")
    a.add_argument("--eval-every", type=int, default=0, help="each run's --eval-every; 0 disables quick evals")
    a.add_argument("--jobs", type=int, default=1, help="child processes run at once (default %(default)s)")
    a.add_argument("--arms", help="comma list (default all seven)")
    a.set_defaults(func=cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference check of all ops and losses")
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except subprocess.CalledProcessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
