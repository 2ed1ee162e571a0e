"""Training loop: Adam updates, gradient clipping, checkpoints, quick evals.

Every random draw is derived from (seed, stream, step/epoch/example) keys,
so two runs with the same config produce bitwise-identical parameters and a
run resumed from a checkpoint matches the uninterrupted run exactly.

A step computes its loss and gradients in shards (:func:`step_gradients`),
one per CPU of a two-CPU host.  The shards are part of the step's
arithmetic, not a thread setting, so how the threads are scheduled changes
no bit:

- **Split.** :func:`shard_plan` sorts a batch of B examples by target
  length, stably, and cuts it in two where the costlier shard's padded
  tokens, its example count times (its longest source plus its longest
  target), are fewest.  Ties go to the cut nearest B/2, then to the larger
  first shard, so equal lengths split into the first ceil(B/2) examples
  and the rest, and a batch of one is one shard.  The long references land
  in the smaller shard, which shortens the slower shard of the step.
- **Per shard.** Each shard records on a tape of its own, calls
  :func:`contrastive.total_loss_batch` on its examples over the shared
  parameter tensors, and takes its gradients from the dict
  :func:`tensor.backward` returns, which no other shard sees.  Its dropout
  draws from the stream keyed ``(seed, DROPOUT, step, shard)``.
- **Threads.** Shard 0 runs in the calling thread and shard 1 on the
  run's one worker thread, which :func:`train` starts with its first
  two-shard step and joins before it returns or raises.  A step waits for
  shard 1 whether or not shard 0 raises.  A shard's error reaches the caller
  with its own type; where both raise, shard 0's does.
- **Weights and summation order.** Each shard's loss values and gradients
  are weighted by its share of the batch, n_shard / B, and summed in shard
  order, out of place, so the step's loss is the batch mean; a parameter
  no shard reaches gets zeros.  Only then come the loss's finiteness
  check, clipping, the gradient norm's finiteness check and Adam, so a
  non-finite loss or gradient stops the run before Adam or the step's log
  record.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import contrastive as K
from . import evaluation as E
from . import kernels
from . import model as M
from . import rng as rngmod
from .corpus import Vocab, build_source
from .errors import ConfigError, DataError, NumericError, fits
from .fileio import atomic_write
from .tensor import Tape, Tensor, backward, no_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"COLO"
CHECKPOINT_VERSION = 1
CHECKPOINT_PREAMBLE_LEN = 16  # magic, u32 version, u64 header length

QUICK_EVAL_LM_EXAMPLES = 64
QUICK_EVAL_DECODE_EXAMPLES = 16


class CheckpointError(DataError):
    """Checkpoint file is malformed, truncated, or version-mismatched."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    gamma: float = 0.01
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0
    use_ce: bool = True
    use_cd: bool = True
    grad_clip_norm: float = 1.0
    eval_every: int = 200  # steps; 0 disables quick evals
    neg_types: tuple = K.NEG_ORDER
    project_in_ce: bool = False
    max_steps: int = 0  # 0 means run all epochs

    def __post_init__(self):
        object.__setattr__(self, "neg_types", tuple(self.neg_types))  # a checkpoint header holds a JSON list
        for name in ("learning_rate", "gamma", "grad_clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value}")
        for name, least in (("batch_size", 1), ("epochs", 1), ("max_steps", 0), ("eval_every", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        unknown = sorted(set(self.neg_types) - set(K.NEG_ORDER))
        if unknown:
            raise ConfigError(f"unknown negative types {unknown}; choose from {list(K.NEG_ORDER)}")
        if len(set(self.neg_types)) != len(self.neg_types):
            raise ConfigError(f"duplicate negative types in {list(self.neg_types)}")
        if (self.use_ce or self.use_cd) and not self.neg_types:
            raise ConfigError("contrastive losses need at least one negative type")


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params):
        return cls(
            m={n: np.zeros_like(t.data) for n, t in params.items()},
            v={n: np.zeros_like(t.data) for n, t in params.items()},
        )


def adam_update(params, grads, state: AdamState, lr):
    """Bias-corrected Adam step, in place, in sorted parameter order."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, t in params.items():
        g = grads[name]
        kernels.adam_step(
            t.data.reshape(-1),
            g.reshape(-1),
            state.m[name].reshape(-1),
            state.v[name].reshape(-1),
            lr,
            ADAM_BETA1,
            ADAM_BETA2,
            ADAM_EPS,
            c1,
            c2,
        )


def clip_gradients(grads, max_norm):
    """Scale all gradients so a finite global L2 norm is at most max_norm; return the norm before scaling."""
    sq = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        sq += float(flat @ flat)
    norm = math.sqrt(sq)
    if max_norm < norm < math.inf:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class Checkpoint:
    model_config: M.ModelConfig
    params: dict  # name -> Tensor, sorted by name
    adam: AdamState
    train_config: TrainConfig
    rng_state: dict  # integers: root seed and global step
    step: int


# ---------------------------------------------------------------------------
# checkpoint file format: magic, version, header JSON, raw LE payloads


def _dtype_tag(arr):
    return {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}[arr.dtype]


def save_checkpoint(path, ckpt: Checkpoint):
    arrays = []
    for name, t in ckpt.params.items():
        arrays.append((f"param/{name}", t.data))
    for name in ckpt.params:
        arrays.append((f"adam_m/{name}", ckpt.adam.m[name]))
        arrays.append((f"adam_v/{name}", ckpt.adam.v[name]))

    manifest = []
    offset = 0
    for name, arr in arrays:
        nbytes = arr.size * arr.itemsize
        manifest.append(
            {
                "name": name,
                "dtype": _dtype_tag(arr),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset += nbytes
    header = {
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "adam_step": ckpt.adam.step,
        "rng": {k: int(v) for k, v in ckpt.rng_state.items()},
        "step": ckpt.step,
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(np.uint32(CHECKPOINT_VERSION).tobytes())
        f.write(np.uint64(len(blob)).tobytes())
        f.write(blob)
        for _, arr in arrays:
            f.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic header")
    if len(raw) < CHECKPOINT_PREAMBLE_LEN:
        raise CheckpointError(f"{path}: truncated preamble ({len(raw)} bytes)")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header_end = CHECKPOINT_PREAMBLE_LEN + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[CHECKPOINT_PREAMBLE_LEN:header_end].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("model_config", "train_config", "adam_step", "rng", "step", "manifest"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
    if not isinstance(header["manifest"], list):
        raise CheckpointError(f"{path}: manifest is not a list")
    for key in ("step", "adam_step"):
        if type(header[key]) is not int or header[key] < 0:
            raise CheckpointError(f"{path}: header {key!r} must be a non-negative integer, not {header[key]!r}")
    if header["adam_step"] != header["step"]:
        raise CheckpointError(f"{path}: header 'adam_step' {header['adam_step']} is not its 'step' {header['step']}")

    payload = raw[header_end:]
    groups = {"param": {}, "adam_m": {}, "adam_v": {}}
    for entry in header["manifest"]:
        name, arr = _read_array(path, entry, payload)
        kind, _, pname = name.partition("/")
        if kind not in groups:
            raise CheckpointError(f"{path}: unknown array {name!r}")
        if pname in groups[kind]:
            raise CheckpointError(f"{path}: manifest names array {name!r} twice")
        groups[kind][pname] = arr

    mcfg = _header_config(path, header, "model_config", M.ModelConfig, vocab_size=0)
    tcfg = _header_config(path, header, "train_config", TrainConfig)
    rng_state = {"seed": tcfg.seed, "step": header["step"]}
    if header["rng"] != rng_state or not all(type(v) is int for v in header["rng"].values()):
        raise CheckpointError(f"{path}: header 'rng' must be {rng_state}, not {header['rng']!r}")
    expected = M.param_shapes(mcfg)
    for kind, arrays in groups.items():
        _check_shapes(path, kind, arrays, expected)
    params = {n: Tensor(a, requires_grad=True) for n, a in sorted(groups["param"].items())}
    adam = AdamState(m=groups["adam_m"], v=groups["adam_v"], step=header["adam_step"])
    return Checkpoint(mcfg, params, adam, tcfg, rng_state, header["step"])


def _header_config(path, header, key, cls, **no_default):
    """``cls`` built from the header's ``key``, each value of a type a config file may give its field.

    ``no_default`` gives a value of the right type for each field without a default.
    """
    values = header[key]
    if not isinstance(values, dict):
        raise CheckpointError(f"{path}: header {key!r} is not a JSON object")
    defaults = {f.name: f.default for f in fields(cls)} | no_default
    for name, value in values.items():
        if name in defaults and not fits(value, defaults[name]):
            raise CheckpointError(f"{path}: bad config in header: {key} {name!r} cannot be {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config in header: {e}") from None


def _check_shapes(path, kind, arrays, expected):
    """Each of ``param``, ``adam_m`` and ``adam_v`` holds exactly the model config's names and shapes."""
    missing, extra = sorted(expected.keys() - arrays.keys()), sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(f"{path}: {kind} arrays do not match the model config: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: {kind}/{name} has shape {list(arrays[name].shape)}, the model config needs {list(shape)}"
            )


def _read_array(path, entry, payload):
    """(name, array) for one manifest entry, checked against the payload."""
    try:
        name, tag, shape = str(entry["name"]), entry["dtype"], [int(n) for n in entry["shape"]]
        start, nbytes = int(entry["offset"]), int(entry["nbytes"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed manifest entry: {e!r}") from None
    if tag not in ("f4", "f8"):
        raise CheckpointError(f"{path}: unknown dtype {tag!r} for {name}")
    dt = np.dtype("<" + tag)
    if min(shape, default=0) < 0 or math.prod(shape) * dt.itemsize != nbytes:
        raise CheckpointError(f"{path}: {name} has shape {shape} but {nbytes} bytes")
    if start < 0 or start + nbytes > len(payload):
        raise CheckpointError(f"{path}: truncated payload at {name}")
    arr = np.frombuffer(payload[start : start + nbytes], dtype=dt).reshape(shape)
    return name, arr.astype(dt.newbyteorder("="))


# ---------------------------------------------------------------------------
# training


def _quick_eval(params, mcfg, valid, lexicon, vocab):
    lm = E.perplexity(params, mcfg, valid[:QUICK_EVAL_LM_EXAMPLES], lexicon, vocab)
    sample = valid[:QUICK_EVAL_DECODE_EXAMPLES]
    report = E.metrics_report(E.decode_corpus(params, mcfg, sample, lexicon, vocab, beam_size=1), sample, lexicon)
    return {"valid_ppl": lm, "valid_cover": report.cover, "valid_entail": report.entail}


def total_steps(tcfg: TrainConfig, n_train, start_step=0):
    """The step count a run of ``tcfg`` over ``n_train`` training examples ends at: its epochs, capped by ``max_steps``.

    A run resumed at ``start_step`` past that count would rewind its
    checkpoint, so it is a config error; one resumed exactly there is a no-op.
    """
    steps = tcfg.epochs * math.ceil(n_train / tcfg.batch_size)
    if tcfg.max_steps:
        steps = min(steps, tcfg.max_steps)
    if start_step > steps:
        raise ConfigError(f"resume: the checkpoint is at step {start_step}, past the {steps} steps this run trains to")
    return steps


def training_splits(corpus):
    """(train, valid) examples of ``corpus``; training needs both, so an empty one is a config error."""
    if not corpus.train or not corpus.valid:
        raise ConfigError("corpus needs non-empty train and valid splits")
    return corpus.train, corpus.valid


def shard_plan(src_lens, tgt_lens):
    """The batch positions of each shard of a batch whose examples have these source and target lengths.

    The positions are sorted by target length, stably, and cut where the
    costlier shard's padded tokens, ``len(shard) * (longest source + longest
    target)``, are fewest; ties go to the cut nearest the middle, then to
    the larger first shard.  A batch of one is one shard.
    """
    b = len(tgt_lens)
    order = sorted(range(b), key=tgt_lens.__getitem__)
    if b < 2:
        return [order]

    def padded(part):
        return len(part) * (max(src_lens[i] for i in part) + max(tgt_lens[i] for i in part))

    cut = min(range(1, b), key=lambda c: (max(padded(order[:c]), padded(order[c:])), abs(2 * c - b), -c))
    return [order[:cut], order[cut:]]


def step_gradients(params, mcfg, batch, csets, lexicon, vocab, tcfg, step, pool):
    """(loss values, gradients) of training step ``step`` on ``batch``, computed in shards.

    ``params`` are leaf tensors (``requires_grad=True``), as
    :func:`model.init_params` and :func:`load_checkpoint` make them.  The
    shards are :func:`shard_plan`'s, from each example's source as
    :func:`corpus.build_source` serializes it and its reference plus BOS or
    EOS.  Shard 0 runs in this thread and shard 1, if there is one, on
    ``pool``, a single-worker executor; this returns or raises only after
    shard 1 has ended.  The values are the batch means of
    :meth:`contrastive.LossBreakdown.values` and the gradients one array per
    parameter, each the shards' weighted sum in shard order (the module
    docstring states the contract).  The gradient arrays are new, and the
    caller's to scale in place.
    """
    plan = shard_plan(
        [len(build_source(ex.tuple, ex.profiles, lexicon, mcfg.max_src_len)) for ex in batch],
        [len(ex.reference) + 1 for ex in batch],
    )

    def shard(i, part):
        rng = rngmod.derive_rng(tcfg.seed, rngmod.DROPOUT, step, i)
        examples, shard_csets = [batch[j] for j in part], [csets[j] for j in part]
        with Tape():
            breakdown = K.total_loss_batch(params, mcfg, examples, shard_csets, lexicon, vocab, tcfg, rng)
            return breakdown.values(), backward(breakdown.total)

    later = [pool.submit(shard, i, part) for i, part in enumerate(plan) if i]
    try:
        results = [shard(0, plan[0])]
    finally:
        for f in later:
            f.exception()  # waits for the shard; its error is raised by result() below
    results += [f.result() for f in later]
    weights = [len(part) / len(batch) for part in plan]
    vals = {k: sum(w * v[k] for w, (v, _) in zip(weights, results)) for k in results[0][0]}
    grads = {}
    for name, t in params.items():
        total = None
        for w, (_, shard_grads) in zip(weights, results):
            if t in shard_grads:
                g = w * shard_grads[t]
                total = g if total is None else total + g
        grads[name] = np.zeros_like(t.data) if total is None else total
    return vals, grads


def train(tcfg: TrainConfig, corpus, mcfg: M.ModelConfig, params=None, adam=None, start_step=0, log_file=None):
    """Run the optimization loop; returns (Checkpoint, list of log records).

    ``corpus`` is a :class:`colo.corpus.Corpus`.  Passing ``params``/``adam``
    /``start_step`` from a loaded checkpoint resumes bitwise-exactly.
    """
    lexicon = corpus.lexicon
    vocab = Vocab.build(lexicon)
    train_ex, valid_ex = training_splits(corpus)
    last_step = total_steps(tcfg, len(train_ex), start_step)
    if params is None:
        params = M.init_params(mcfg, tcfg.seed)
    if adam is None:
        adam = AdamState.init(params)

    steps_per_epoch = math.ceil(len(train_ex) / tcfg.batch_size)

    records = []

    def emit(rec):
        records.append(rec)
        if log_file is not None:
            log_file.write(json.dumps(rec, sort_keys=True) + "\n")

    order = None
    order_epoch = -1
    from concurrent.futures import ThreadPoolExecutor  # here, so a process that never trains does not load it

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="colo-shard") as pool:  # shard 1 of every step
        for step in range(start_step, last_step):
            epoch, pos = divmod(step, steps_per_epoch)
            if epoch != order_epoch:
                order = rngmod.derive_rng(tcfg.seed, rngmod.ORDER, epoch).permutation(len(train_ex))
                order_epoch = epoch
            batch_idx = order[pos * tcfg.batch_size : (pos + 1) * tcfg.batch_size]
            batch = [train_ex[i] for i in batch_idx]
            csets = [
                K.build_contrastive_set(
                    ex.tuple, lexicon, rngmod.derive_rng(tcfg.seed, rngmod.CONTRAST, epoch, int(i))
                )
                for i, ex in zip(batch_idx, batch)
            ]
            try:
                vals, grads = step_gradients(params, mcfg, batch, csets, lexicon, vocab, tcfg, step, pool)
            except K.InvalidLossError as e:
                raise NumericError(f"non-finite loss at step {step}: {e}") from None
            if not all(math.isfinite(x) for x in vals.values()):
                raise NumericError(f"non-finite loss at step {step}: {vals}")
            norm = clip_gradients(grads, tcfg.grad_clip_norm)
            if not math.isfinite(norm):
                raise NumericError(f"non-finite gradient norm at step {step}: {norm}")
            adam_update(params, grads, adam, tcfg.learning_rate)

            rec = {"type": "train", "step": step, "epoch": epoch, "grad_norm": norm}
            rec.update(vals)
            emit(rec)

            if tcfg.eval_every and (step + 1) % tcfg.eval_every == 0:
                with no_grad():
                    q = _quick_eval(params, mcfg, valid_ex, lexicon, vocab)
                q.update({"type": "eval", "step": step})
                emit(q)

    ckpt = Checkpoint(
        model_config=mcfg,
        params=params,
        adam=adam,
        train_config=tcfg,
        rng_state={"seed": tcfg.seed, "step": last_step},
        step=last_step,
    )
    return ckpt, records
