#!/usr/bin/env python3
"""CoLo benchmark: train-colo, train-lm and decode-eval through colo's public API.

Run from the repository root:

    python3 benchmarks/run.py --workload train-colo --seed 1 --seconds 30 --trace 0

One process and one client in a closed loop: each operation (a training
step, or one decoded example) starts when the previous one has finished, and
BLAS runs on one thread.  The workload seed fixes the corpus, the parameter
init and every random draw, so a seed's outputs repeat bit for bit.

``--seconds`` is the time the run measures.  Work comes in chunks of a
fixed size (a training window of so many steps, or a slice of so many test
examples), set from the nominal per-operation cost in ``WORKLOADS``; chunks
repeat until the time is used.  Each operation is timed between two runs
of a fixed reference loop and reported at reference host speed (see
``hostspeed.py``), so that the load other guests put on a shared host
mostly cancels.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` it holds per-layer metrics from a run in which half of the
operations are traced by wrappers this file puts around colo's functions
(see ``spans.py``); the other half, untraced, gives the tracing overhead.
A full record (environment, checks, every timing) goes to
``.bench_out/results/``.
"""

import os

# pinned before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if (SRC / "colo" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import hostspeed as H  # noqa: E402
from spans import Tracer  # noqa: E402

try:
    from colo import contrastive as K
    from colo import corpus as C
    from colo import decoding as D
    from colo import evaluation as E
    from colo import kernels
    from colo import model as M
    from colo import tensor as T
    from colo import tokens as tok
    from colo import trainer as TR
except ImportError as exc:  # checked in main(), which exits 2 without a result
    COLO_IMPORT_ERROR = exc
else:
    COLO_IMPORT_ERROR = None


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Size:
    """Corpus, model and trainer settings (overrides of colo's defaults)."""

    corpus: dict = field(default_factory=dict)  # CorpusConfig fields except seed
    model: dict = field(default_factory=dict)  # ModelConfig fields except vocab_size
    train: dict = field(default_factory=dict)  # TrainConfig fields except seed/losses/steps


# default CorpusConfig / ModelConfig, batch 16: the configuration `ablate` trains
DEFAULT = Size(train={"batch_size": 16})

# the tests/conftest.py toy corpus and model, for the smoke test
TOY = Size(
    corpus=dict(
        n_entities=6, n_aspects=3, n_opinions=4, n_aliases_per_item=1, n_attrs_per_category=4,
        n_examples=20, split_ratio=(0.6, 0.2, 0.2), distractor_range=(1, 2), ref_len_bounds=(18, 40),
    ),
    model=dict(
        d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
        max_src_len=48, max_tgt_len=48, dropout_rate=0.0, proj_hidden=16,
    ),
    train={"batch_size": 4, "learning_rate": 3e-3},
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "train": operations are training steps; "decode": decoded test examples
    # per-operation cost (decode-eval: beam-5 plus greedy) at the parent commit
    # on a 2-vCPU x86-64 KVM guest with one BLAS thread, at the slow end of what
    # that machine shows; sets the chunk size from --seconds
    nominal_ms: float
    use_ce: bool = True
    use_cd: bool = True


WORKLOADS = {
    # BENCHMARK.json says why each workload is there
    "train-colo": Workload("train", 850.0),
    "train-lm": Workload("train", 350.0, use_ce=False, use_cd=False),
    "decode-eval": Workload("decode", 340.0),
}

CHUNKS = 2  # a chunk is sized to 1/CHUNKS of --seconds at the nominal cost
MIN_CHUNKS = 2  # windows are checked against the first, and a traced run needs an untraced chunk
MIN_PER_CHUNK = 4
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
BEAM = 5
REPEAT_EXAMPLES = 2  # examples decoded a second time to check that outputs repeat
SETUP_REPS = 3  # setup_s is the median of this many set-ups

# Gated end-to-end metrics, printed by every workload.  Times and rates are at
# reference host speed (see hostspeed.py); wall times are in INFO.
E2E = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("op_tok_per_s", "1/s"),
]

# reported with every untraced run, not gated; greedy_tok_per_s and eval_s are
# decode-eval only.  generate_corpus runs for a second of plain Python with no
# reference run inside it, so gendata_ex_per_s stays too noisy to gate.
INFO = [
    ("gendata_ex_per_s", "1/s"),
    ("greedy_tok_per_s", "1/s"),
    ("eval_s", "s"),
    ("wall_op_ms.p50", "ms"),
    ("wall_op_ms.tail", "ms"),
    ("host_speed", "ratio"),
]

KERNELS = (
    "softmax_fwd", "softmax_bwd", "gelu_fwd", "gelu_bwd", "layer_norm_fwd", "layer_norm_bwd",
    "xent_fwd", "xent_bwd", "adam_step",
)
EVAL_FNS = ("perplexity", "mean_entity_swap_similarity", "metrics_report", "bleu", "rouge_l", "entail_oracle")

PER_LAYER = (
    [
        ("corpus.generate_corpus.s", "s"),
        ("contrastive.margin_pass.ms", "ms"),
        ("contrastive.margin_pass.rows", "count"),
        ("contrastive.total_loss_batch.self_ms", "ms"),
        ("contrastive.build_contrastive_set.ms", "ms"),
        ("model.encode_batch.ms", "ms"),
        ("model.encode_batch.rows", "count"),
        ("model.decode_states_batch.grad_ms", "ms"),
        ("model.lm_head.ms", "ms"),
        ("tensor.cross_entropy_rows.ms", "ms"),
        ("tensor.backward.ms", "ms"),
        ("tensor.backward.self_ms", "ms"),
        ("tensor.backward.tape_ops", "count"),
        ("tensor.matmul.fwd_ms", "ms"),
        ("tensor.matmul.calls", "count"),
    ]
    + [(f"kernels.{k}.{m}", u) for k in KERNELS for m, u in (("ms", "ms"), ("calls", "count"))]
    + [
        ("trainer.clip_gradients.ms", "ms"),
        ("trainer.adam_update.ms", "ms"),
        ("pad.tgt_tok_util", "ratio"),
        ("pad.dec_attn_cell_util", "ratio"),
        ("pad.src_tok_util", "ratio"),
        ("decoding.stepper_init.ms", "ms"),
        ("decoding.stepper_step.ms", "ms"),
        ("decoding.stepper_step.calls", "count"),
        ("decoding.stepper_step.rows_per_call", "count"),
        ("decoding.stepper_select.ms", "ms"),
        ("decoding.beam_pool.ms", "ms"),
        ("decoding.beam_pool.self_ms", "ms"),
        ("decoding.greedy_steps.ms", "ms"),
        ("trainer.load_checkpoint.ms", "ms"),
    ]
    + [(f"evaluation.{f}.s", "s") for f in EVAL_FNS]
    + [
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
)


# ---------------------------------------------------------------------------
# bookkeeping


class Outcome:
    """Operations attempted, the checks run on their outputs, and which failed."""

    def __init__(self):
        self.attempted = set()
        self.failed = set()
        self.checks = []

    def ops(self, keys):
        self.attempted.update(keys)

    def check(self, name, ok, ops, detail=None):
        """Record a check; when it fails, every operation in ``ops`` fails."""
        ok = bool(ok)
        self.checks.append({"check": name, "ok": ok, "ops": len(ops), "detail": detail})
        if not ok:
            self.failed.update(ops)
        return ok


class StepClock:
    """File-like sink for ``colo.trainer.train``'s log: one write per finished step.

    Each write also runs the host-speed reference, so every step is
    bracketed by two reference runs, and a step's time leaves them out.
    """

    def __init__(self, clock):
        self.clock = clock
        self.refs = [clock.mark()]
        self.wall_s = []
        self.start = perf_counter()

    def write(self, _line):
        self.wall_s.append(perf_counter() - self.start)
        self.refs.append(self.clock.mark())
        self.start = perf_counter()

    def step_ms(self):
        """(wall ms, ms at reference speed) of each finished step."""
        wall = [1000.0 * w for w in self.wall_s]
        return wall, [w * H.scale(a, b) for w, a, b in zip(wall, self.refs, self.refs[1:])]


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile): the highest percentile with ``beyond`` samples above it."""
    xs = sorted(values)
    if not xs:
        return 0.0, 0.0
    if len(xs) <= beyond:
        return xs[-1], 100.0
    k = len(xs) - beyond - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def param_digest(params):
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def ids_digest(seqs):
    h = hashlib.sha256()
    for ids in seqs:
        h.update(np.asarray(ids, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def ids_ok(ids, vocab_size, max_len):
    """Decoder output is non-empty, within max_tgt_len, and every id is in the vocabulary."""
    return 0 < len(ids) <= max_len and all(0 <= int(i) < vocab_size for i in ids)


def _div(a, b):
    return a / b if b else 0.0


def _median(xs):
    """Median, or 0 when every operation of the kind failed before it was timed."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# tracing: wrappers around colo's functions, installed from this file


def _count_targets(tracer, out, args, kwargs):
    """Non-pad target tokens (label mask, EOS included) of the batch being trained on."""
    if T.Tape.current() is not None:
        tracer.count("tgt_tokens", int(out[2].sum()))


def _count_target_padding(tracer, out, args, kwargs):
    mask = out[2]
    lens = mask.sum(axis=1).astype(np.int64)
    tracer.count("tgt_useful", int(lens.sum()))
    tracer.count("tgt_padded", mask.size)
    tracer.count("attn_useful", int((lens * lens).sum()))
    tracer.count("attn_padded", mask.shape[0] * mask.shape[1] ** 2)


def _count_source_padding(tracer, out, args, kwargs):
    mask = out[1]
    tracer.count("src_useful", int(mask.sum()))
    tracer.count("src_padded", mask.size)


def token_counter():
    tracer = Tracer()
    tracer.observe(M, "make_target_arrays", _count_targets)
    return tracer


def layer_tracer():
    """Spans at every layer boundary the per-layer metrics name."""
    tr = Tracer()
    tr.observe(M, "make_target_arrays", _count_targets)
    tr.observe(M, "make_target_arrays", _count_target_padding)
    tr.observe(M, "pad_sources", _count_source_padding)

    tr.span(K, "total_loss_batch", "contrastive.total_loss_batch")
    tr.span(K, "build_contrastive_set", "contrastive.build_contrastive_set")

    def nll_name(args, kwargs):
        if T.Tape.current() is None and tr.inside("contrastive.total_loss_batch"):
            return "contrastive.margin_pass"
        return "model.nll_per_example"

    tr.span(M, "nll_per_example", nll_name, rows=lambda a, k: np.shape(a[4])[0])
    tr.span(M, "encode_batch", "model.encode_batch", rows=lambda a, k: np.shape(a[2])[0])
    tr.span(
        M, "decode_states_batch",
        lambda a, k: "model.decode_states_batch." + ("nograd" if T.Tape.current() is None else "grad"),
    )
    tr.span(M, "lm_head", "model.lm_head")
    tr.span(T, "cross_entropy_rows", "tensor.cross_entropy_rows")
    tr.span(T, "matmul", "tensor.matmul")
    for k in KERNELS:
        tr.span(kernels, k, f"kernels.{k}")
    # trainer binds `from .tensor import backward`, so patch the trainer's name
    tr.span(TR, "backward", "tensor.backward", rows=lambda a, k: len(T.Tape.current().ops))
    tr.span(TR, "clip_gradients", "trainer.clip_gradients")
    tr.span(TR, "adam_update", "trainer.adam_update")
    tr.span(TR, "load_checkpoint", "trainer.load_checkpoint")

    tr.span(D.TransformerStepper, "__init__", "decoding.stepper_init")
    tr.span(D.TransformerStepper, "step", "decoding.stepper_step", rows=lambda a, k: len(a[2]))
    tr.span(D.TransformerStepper, "select", "decoding.stepper_select")
    tr.span(D, "beam_pool", "decoding.beam_pool")
    tr.span(D, "greedy_steps", "decoding.greedy_steps")
    for f in EVAL_FNS:
        tr.span(E, f, f"evaluation.{f}")
    return tr


def layer_metrics(tr, kind, n_ops, n_eval, gen_s, op_s, traced_p50, untraced_p50):
    """Per-layer metrics: times per operation (step or example) unless named .s per eval pass."""
    phases = {"train"} if kind == "train" else {"beam5", "greedy"}
    s = tr.summary(phases)
    ev = tr.summary({"eval"})
    every = phases | {"eval"}

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    def ms(name, key="total_s"):
        return 1000.0 * _div(get(s, name, key), n_ops)

    def per_op(name, key):
        return _div(get(s, name, key), n_ops)

    out = {
        "corpus.generate_corpus.s": gen_s,
        "contrastive.margin_pass.ms": ms("contrastive.margin_pass"),
        "contrastive.margin_pass.rows": per_op("contrastive.margin_pass", "rows"),
        "contrastive.total_loss_batch.self_ms": ms("contrastive.total_loss_batch", "self_s"),
        "contrastive.build_contrastive_set.ms": ms("contrastive.build_contrastive_set"),
        "model.encode_batch.ms": ms("model.encode_batch"),
        "model.encode_batch.rows": per_op("model.encode_batch", "rows"),
        "model.decode_states_batch.grad_ms": ms("model.decode_states_batch.grad"),
        "model.lm_head.ms": ms("model.lm_head"),
        "tensor.cross_entropy_rows.ms": ms("tensor.cross_entropy_rows"),
        "tensor.backward.ms": ms("tensor.backward"),
        # backward's only traced children are the kernel backward calls
        "tensor.backward.self_ms": ms("tensor.backward", "self_s"),
        "tensor.backward.tape_ops": per_op("tensor.backward", "rows"),
        "tensor.matmul.fwd_ms": ms("tensor.matmul"),
        "tensor.matmul.calls": per_op("tensor.matmul", "calls"),
    }
    for k in KERNELS:
        out[f"kernels.{k}.ms"] = ms(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = per_op(f"kernels.{k}", "calls")
    step_calls = get(s, "decoding.stepper_step", "calls")
    out.update(
        {
            "trainer.clip_gradients.ms": ms("trainer.clip_gradients"),
            "trainer.adam_update.ms": ms("trainer.adam_update"),
            "pad.tgt_tok_util": _div(tr.counted("tgt_useful", every), tr.counted("tgt_padded", every)),
            "pad.dec_attn_cell_util": _div(tr.counted("attn_useful", every), tr.counted("attn_padded", every)),
            "pad.src_tok_util": _div(tr.counted("src_useful", every), tr.counted("src_padded", every)),
            "decoding.stepper_init.ms": ms("decoding.stepper_init"),
            "decoding.stepper_step.ms": ms("decoding.stepper_step"),
            "decoding.stepper_step.calls": per_op("decoding.stepper_step", "calls"),
            "decoding.stepper_step.rows_per_call": _div(get(s, "decoding.stepper_step", "rows"), step_calls),
            "decoding.stepper_select.ms": ms("decoding.stepper_select"),
            "decoding.beam_pool.ms": ms("decoding.beam_pool"),
            "decoding.beam_pool.self_ms": ms("decoding.beam_pool", "self_s"),
            "decoding.greedy_steps.ms": ms("decoding.greedy_steps"),
            "trainer.load_checkpoint.ms": 1000.0 * _div(get(ev, "trainer.load_checkpoint", "total_s"), n_eval),
        }
    )
    for f in EVAL_FNS:
        out[f"evaluation.{f}.s"] = _div(get(ev, f"evaluation.{f}", "total_s"), n_eval)
    out["trace.unattributed_pct"] = 100.0 * _div(op_s - tr.top_level_s(phases), op_s)
    out["trace.overhead_pct"] = 100.0 * (_div(traced_p50, untraced_p50) - 1.0)
    return out


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Bundle:
    corpus: object
    vocab: object
    mcfg: object
    tcfg: object = None


def set_up(wl, size, seed, ckpt_path):
    """Corpus, vocabulary, config, checkpoint (decode-eval) and one warm-up operation.

    Returns (bundle, total seconds, generate_corpus seconds).
    """
    t0 = perf_counter()
    lexicon, examples = C.generate_corpus(C.CorpusConfig(seed=seed, **size.corpus))
    gen_s = perf_counter() - t0
    corpus = C.Corpus(lexicon, examples)
    vocab = C.Vocab.build(lexicon)
    mcfg = M.ModelConfig(vocab_size=len(vocab), **size.model)
    b = Bundle(corpus, vocab, mcfg)
    if wl.kind == "train":
        b.tcfg = TR.TrainConfig(seed=seed, use_ce=wl.use_ce, use_cd=wl.use_cd, eval_every=0, **size.train)
        try:
            TR.train(replace(b.tcfg, max_steps=1), corpus, mcfg)
        except TR.NumericError:
            pass  # the timed windows hit it again and count their steps as failed
    else:
        params = M.init_params(mcfg, seed)
        tcfg = TR.TrainConfig(seed=seed)
        TR.save_checkpoint(
            ckpt_path, TR.Checkpoint(mcfg, params, TR.AdamState.init(params), tcfg, {"seed": seed, "step": 0}, 0)
        )
        ex = corpus.test[0]
        D.greedy_decode(params, mcfg, C.encode_example(ex, lexicon, vocab, mcfg.max_src_len).src_ids)
    return b, perf_counter() - t0, gen_s


# ---------------------------------------------------------------------------
# one chunk of each kind of work


def train_window(b, seed, steps, traced, out, tracer, key, clock):
    """Train ``steps`` steps from the seed's init; returns the window record."""
    active = tracer if traced else token_counter()
    active.phase = "train"
    params = M.init_params(b.mcfg, seed)
    keys = [("step", key, i) for i in range(steps)]
    out.ops(keys)
    recs, err = [], None
    with active.installed():
        steps_clock = StepClock(clock)
        try:
            _, recs = TR.train(replace(b.tcfg, max_steps=steps), b.corpus, b.mcfg, params=params, log_file=steps_clock)
        except TR.NumericError as e:
            err = str(e)
    wall_ms, step_ms = steps_clock.step_ms()
    totals = [r["total"] for r in recs]
    win = {
        "traced": traced,
        "step_ms": step_ms,
        "wall_ms": wall_ms,
        "tgt_tokens": active.counted("tgt_tokens", {"train"}),
        "first_loss": totals[0] if totals else None,
        "final_loss": totals[-1] if totals else None,
        "digest": param_digest(params),
        "error": err,
        "keys": keys,
    }
    finite = err is None and len(totals) == steps and all(map(math.isfinite, totals))
    out.check("train.finite_loss", finite, keys, err)
    out.check("train.loss_decreases", finite and totals[-1] < totals[0], keys, [win["first_loss"], win["final_loss"]])
    return win


def decode(search, params, b, ex):
    src = C.encode_example(ex, b.corpus.lexicon, b.vocab, b.mcfg.max_src_len).src_ids
    if search == "beam5":
        return D.beam_search(params, b.mcfg, src, beam_size=BEAM)[0]
    return D.greedy_decode(params, b.mcfg, src)


def decode_examples(out, search, params, b, examples, first, tracer, trace, clock):
    """Decode each example, as evaluate and the trainer's quick eval do.

    ``first`` is the slice index of ``examples[0]``; in trace mode every
    odd-indexed example is traced.  Returns one dict per example.
    """
    rows = []
    clock.mark()
    for i, ex in enumerate(examples, start=first):
        traced = trace and i % 2 == 1
        tracer.phase = search
        with tracer.installed() if traced else nullcontext():
            ids, wall, secs = clock.time(decode, search, params, b, ex)
        key = (search, i)
        out.ops([key])
        ok = out.check(f"{search}.ids_in_range", ids_ok(ids, b.mcfg.vocab_size, b.mcfg.max_tgt_len), [key])
        pred = b.vocab.detokenize([t for t in ids if t != tok.EOS_ID]) if ok else []
        rows.append({
            "ids": list(map(int, ids)), "pred": pred, "ms": 1000.0 * secs, "wall_ms": 1000.0 * wall,
            "tokens": len(ids), "traced": traced,
        })
    return rows


def score(ckpt_path, b, examples, preds):
    """What evaluate --ckpt computes after decoding: PPL, ES similarity and the metric report."""
    ckpt = TR.load_checkpoint(ckpt_path)
    lexicon, vocab = b.corpus.lexicon, b.vocab
    ppl = E.perplexity(ckpt.params, ckpt.model_config, examples, lexicon, vocab)
    es = E.mean_entity_swap_similarity(ckpt.params, ckpt.model_config, examples, lexicon, vocab)
    report = E.metrics_report(preds, examples, lexicon, ppl=ppl)
    return dict(report.to_dict(), es_similarity=es)


def score_chunk(out, ckpt_path, b, examples, preds, tracer, traced, key, clock):
    tracer.phase = "eval"
    clock.mark()
    with tracer.installed() if traced else nullcontext():
        doc, _, secs = clock.time(score, ckpt_path, b, examples, preds)
    op = ("eval", key)
    out.ops([op])
    out.check("eval.ppl_finite", math.isfinite(doc["ppl"]), [op], doc["ppl"])
    return {"s": secs, "doc": doc, "traced": traced}


def repeat_checks(out, b, params, ckpt_path, examples, beam, greedy, evals, k):
    """Outputs must repeat: decode the first examples and score the first chunk again.

    Then check oracle consistency: the gold references of every decoded
    example must cover and entail their tuples.
    """
    for search, rows in (("beam5", beam), ("greedy", greedy)):
        for i, ex in enumerate(examples[:REPEAT_EXAMPLES]):
            again = list(map(int, decode(search, params, b, ex)))
            out.check(f"{search}.repeats", again == rows[i]["ids"], [(search, i)])
    preds = [r["pred"] for r in beam[:k]]
    out.check("eval.repeats", score(ckpt_path, b, examples[:k], preds) == evals[0]["doc"], [("eval", 0)])
    gold = E.metrics_report([ex.reference for ex in examples], examples, b.corpus.lexicon)
    out.ops([("oracle",)])
    out.check("eval.oracle_consistent", gold.cover == 1.0 and gold.entail == 1.0, [("oracle",)],
              {"cover": gold.cover, "entail": gold.entail})


# ---------------------------------------------------------------------------
# workloads


def run_workload(name, seed, seconds, trace, size=DEFAULT):
    """Run one workload for about ``seconds``; returns its full record (see ``result_line``).

    The run is a sequence of chunks of a fixed size (half of ``seconds`` at
    the nominal cost): a training window, or a slice of the test split that
    is beam-5 decoded, greedy decoded and scored.  Chunks repeat until
    ``seconds`` are used.  Set-ups happen at the start, after the first chunk
    and at the end, so every metric samples the whole run rather than one
    stretch of it, on a machine whose speed drifts.  Every operation and
    set-up is timed between two runs of the host-speed reference.
    """
    wl = WORKLOADS[name]
    train = wl.kind == "train"
    out = Outcome()
    tracer = layer_tracer()
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    ckpt_path = tmp / f"{name}-s{seed}-p{os.getpid()}.ckpt"
    per_chunk = max(MIN_PER_CHUNK, round(seconds * 1000.0 / CHUNKS / wl.nominal_ms))  # steps or examples
    started = time.time()
    clock = H.Clock()
    windows, beam, greedy, evals, setups = [], [], [], [], []

    def timed_set_up():
        """set_up, with its total and generate_corpus seconds at reference speed."""
        clock.mark()
        (bundle, setup_s, gen_s), wall, secs = clock.time(set_up, wl, size, seed, ckpt_path)
        f = secs / wall
        setups.append({"s": setup_s * f, "gen_s": gen_s * f, "wall_s": setup_s, "wall_gen_s": gen_s})
        return bundle

    try:
        b = timed_set_up()
        test = b.corpus.test
        k = min(per_chunk, len(test) // MIN_CHUNKS)  # decode-eval: examples per chunk
        params = None if train else TR.load_checkpoint(ckpt_path).params
        t_start, last, c = perf_counter(), 0.0, 0
        # stop when another chunk would end further from ``seconds`` than stopping now
        while c < MIN_CHUNKS or (
            (train or (c + 1) * k <= len(test)) and perf_counter() - t_start + last / 2 <= seconds
        ):
            t_chunk = perf_counter()
            if train:
                # every window repeats the first from the same init; odd ones are traced
                win = train_window(b, seed, per_chunk, trace and c % 2 == 1, out, tracer, c, clock)
                windows.append(win)
                if c:
                    same = (win["final_loss"], win["digest"]) == (windows[0]["final_loss"], windows[0]["digest"])
                    out.check("train.bitwise_repeat", same, win["keys"])
            else:
                part = test[c * k : (c + 1) * k]
                rows = decode_examples(out, "beam5", params, b, part, c * k, tracer, trace, clock)
                beam += rows
                greedy += decode_examples(out, "greedy", params, b, part, c * k, tracer, trace, clock)
                preds = [r["pred"] for r in rows]
                evals.append(score_chunk(out, ckpt_path, b, part, preds, tracer, trace, c, clock))
            if c == 0:
                timed_set_up()
            last = perf_counter() - t_chunk
            c += 1
        while len(setups) < SETUP_REPS:
            timed_set_up()
        if not train:
            repeat_checks(out, b, params, ckpt_path, test[: c * k], beam, greedy, evals, k)
    finally:
        ckpt_path.unlink(missing_ok=True)

    gen = statistics.median(x["gen_s"] for x in setups)
    info = {"gendata_ex_per_s": len(b.corpus.examples) / gen}
    if train:
        plain = [w for w in windows if not w["traced"]]
        op_ms = [x for w in plain for x in w["step_ms"]]
        wall_ms = [x for w in plain for x in w["wall_ms"]]
        op_tokens = sum(w["tgt_tokens"] for w in plain)
        outputs = {
            "window_steps": per_chunk,
            "final_loss": windows[0]["final_loss"],
            "param_digest": windows[0]["digest"],
        }
    else:
        plain_rows = [r for r in beam if not r["traced"]]
        op_ms = [r["ms"] for r in plain_rows]
        wall_ms = [r["wall_ms"] for r in plain_rows]
        op_tokens = sum(r["tokens"] for r in plain_rows)
        greedy_plain = [r for r in greedy if not r["traced"]]
        info["greedy_tok_per_s"] = _div(
            sum(r["tokens"] for r in greedy_plain), sum(r["ms"] for r in greedy_plain) / 1000.0
        )
        info["eval_s"] = statistics.median(e["s"] for e in evals)
        outputs = {
            "examples": c * k,
            "eval_examples": k,
            "beam5_digest": ids_digest(r["ids"] for r in beam),
            "greedy_digest": ids_digest(r["ids"] for r in greedy),
            "scores": [e["doc"] for e in evals],
        }
    info["wall_op_ms.p50"] = _median(wall_ms)
    info["wall_op_ms.tail"] = tail(wall_ms)[0]
    info["host_speed"] = H.REFERENCE_MS / statistics.median(clock.refs)

    op_tail, op_tail_pct = tail(op_ms)
    failed, attempted = len(out.failed), len(out.attempted)
    metrics = {
        "setup_s": statistics.median(x["s"] for x in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - _div(failed, attempted),
        "op_ms.p50": _median(op_ms),
        "op_ms.tail": op_tail,
        "op_tok_per_s": _div(op_tokens, sum(op_ms) / 1000.0),
    }

    per_layer = None
    if trace:
        if train:
            traced = [w for w in windows if w["traced"]]
            traced_ms = [x for w in traced for x in w["step_ms"]]
            n_traced, n_eval = len(traced_ms), 0
            op_s = sum(x for w in traced for x in w["wall_ms"]) / 1000.0
        else:
            pairs = [(x, y) for x, y in zip(beam, greedy) if x["traced"]]
            traced_ms = [x["ms"] for x, _ in pairs]
            n_traced, n_eval = len(pairs), sum(e["traced"] for e in evals)
            op_s = sum(x["wall_ms"] + y["wall_ms"] for x, y in pairs) / 1000.0
        # spans are wall times, so the layers' generate_corpus time is too
        wall_gen = statistics.median(x["wall_gen_s"] for x in setups)
        per_layer = layer_metrics(
            tracer, wl.kind, n_traced, n_eval, wall_gen, op_s, _median(traced_ms), _median(op_ms)
        )
        tracer.dump(OUT_DIR / "spans" / f"{name}-s{seed}-{time.time_ns()}.jsonl.gz")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops": per_chunk * c,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "per_layer": per_layer,
        "tail_percentile": op_tail_pct,
        "tail_samples": len(op_ms),
        "op_ms": op_ms,
        "wall_op_ms": wall_ms,
        "greedy_ms": [r["ms"] for r in greedy if not r["traced"]],
        "eval_s": [e["s"] for e in evals],
        "setups": setups,
        "reference_ms": clock.refs,
        "windows": [{key: v for key, v in w.items() if key != "keys"} for w in windows],
        "spans": tracer.summary({"train", "beam5", "greedy", "eval"}) if trace else None,
        "checks": out.checks,
        "outputs": outputs,
        "environment": environment(seed),
        "started": started,
    }


# ---------------------------------------------------------------------------
# environment and output


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "colo").glob("*.py")):
        h.update(path.name.encode("ascii"))
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload_seed": seed,
    }


def result_line(rec):
    if rec["trace"]:
        units = dict(PER_LAYER)
        values = rec["per_layer"]
    else:
        units = dict(E2E)
        values = rec["metrics"]
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def print_summary(rec):
    m = rec["metrics"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']} ops {rec['ops']}")
    for name, unit in E2E:
        print(f"  {name:18s} {m[name]:12.4f} {unit}")
    for name, unit in INFO:
        if name in rec["info"]:
            print(f"  {name:18s} {rec['info'][name]:12.4f} {unit}  (not gated)")
    print(f"  op_ms.tail is p{rec['tail_percentile']:.1f} of {rec['tail_samples']} samples")
    for c in rec["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['check']}: {c['detail']}")
    outputs = {k: v for k, v in rec["outputs"].items() if k != "scores"}
    print("outputs " + json.dumps(outputs, sort_keys=True))
    print("environment " + json.dumps(rec["environment"], sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if COLO_IMPORT_ERROR is not None:
        print(f"benchmark: cannot import colo from {SRC}: {COLO_IMPORT_ERROR}", file=sys.stderr)
        return 2

    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    with open(results / name, "w", encoding="ascii") as f:
        json.dump(rec, f, sort_keys=True)
        f.write("\n")
    print_summary(rec)
    print(json.dumps(result_line(rec), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
