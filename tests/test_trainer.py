import dataclasses
import io
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import contrastive as K
from colo import model as M
from colo import trainer as TR
from colo.corpus import Corpus, build_source
from colo.errors import ConfigError
from colo.rng import DROPOUT, derive_rng
from colo.tensor import Tape, backward


@pytest.fixture(scope="module")
def corpus(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    return Corpus(lexicon, examples)


@pytest.fixture
def tcfg():
    return TR.TrainConfig(batch_size=4, epochs=1, seed=3, eval_every=0)


# ---------------------------------------------------------------------------
# config


# unknown and duplicate kinds are tested through the CLI in test_cli.py
@pytest.mark.parametrize("use_ce", [True, False], ids=["ce-and-cd", "cd-only"])
def test_train_config_rejects_empty_negative_types(use_ce):
    with pytest.raises(ValueError, match="at least one negative type"):
        TR.TrainConfig(use_ce=use_ce, neg_types=())


def test_train_config_lm_only_needs_no_negative_types():
    assert TR.TrainConfig(use_ce=False, use_cd=False, neg_types=()).neg_types == ()


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_leaves_params(tiny_model_cfg):
    params = M.init_params(tiny_model_cfg, seed=0)
    before = {n: t.data.copy() for n, t in params.items()}
    state = TR.AdamState.init(params)
    grads = {n: np.zeros_like(t.data) for n, t in params.items()}
    TR.adam_update(params, grads, state, lr=1e-3)
    for n, t in params.items():
        assert np.array_equal(t.data, before[n])


def test_adam_first_step_magnitude_is_lr():
    from colo.tensor import Tensor

    p = {"w": Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)}
    state = TR.AdamState.init(p)
    g = {"w": np.array([1.0, -2.0, 0.5, 10.0, -0.1], dtype=np.float32)}
    TR.adam_update(p, g, state, lr=0.01)
    assert np.allclose(np.abs(p["w"].data), 0.01, rtol=1e-4)
    assert np.all(np.sign(p["w"].data) == -np.sign(g["w"]))


def test_adam_converges_on_quadratic():
    from colo.tensor import Tensor

    target = np.array([1.5, -2.0], dtype=np.float32)
    p = {"x": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
    state = TR.AdamState.init(p)
    for _ in range(200):
        g = {"x": 2.0 * (p["x"].data - target)}
        TR.adam_update(p, g, state, lr=0.05)
    assert np.abs(p["x"].data - target).max() < 1e-3


# ---------------------------------------------------------------------------
# clipping


def test_clip_gradients_bounds_global_norm():
    rng = np.random.default_rng(0)
    grads = {f"g{i}": rng.standard_normal(50).astype(np.float32) * 10 for i in range(4)}
    pre = TR.clip_gradients(grads, max_norm=1.0)
    assert pre > 1.0
    post = np.sqrt(sum(float(g.reshape(-1) @ g.reshape(-1)) for g in grads.values()))
    assert post <= 1.0 + 1e-6


def test_clip_gradients_no_change_when_small():
    grads = {"g": np.array([0.01, 0.02], dtype=np.float32)}
    before = grads["g"].copy()
    TR.clip_gradients(grads, max_norm=1.0)
    assert np.array_equal(grads["g"], before)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_gradients_returns_a_non_finite_norm_without_scaling(bad):
    grads = {"a": np.array([3.0, bad], dtype=np.float32), "b": np.array([4.0], dtype=np.float32)}
    before = {n: g.tobytes() for n, g in grads.items()}
    assert not np.isfinite(TR.clip_gradients(grads, max_norm=1.0))
    assert {n: g.tobytes() for n, g in grads.items()} == before


# ---------------------------------------------------------------------------
# training determinism and logging


def test_two_runs_identical_loss_curves(corpus, tiny_model_cfg, tcfg):
    _, rec_a = TR.train(tcfg, corpus, tiny_model_cfg)
    _, rec_b = TR.train(tcfg, corpus, tiny_model_cfg)
    assert [r["total"] for r in rec_a] == [r["total"] for r in rec_b]


def test_log_has_one_record_per_step(corpus, tiny_model_cfg, tcfg):
    ckpt, records = TR.train(tcfg, corpus, tiny_model_cfg)
    train_recs = [r for r in records if r["type"] == "train"]
    assert [r["step"] for r in train_recs] == list(range(ckpt.step))
    for r in train_recs:
        assert {"lm", "ce", "cd", "total", "grad_norm"} <= set(r)


def test_lm_only_mode_zeroes_contrastive_terms(corpus, tiny_model_cfg):
    tcfg = TR.TrainConfig(batch_size=4, epochs=1, seed=3, eval_every=0, use_ce=False, use_cd=False)
    _, records = TR.train(tcfg, corpus, tiny_model_cfg)
    for r in records:
        if r["type"] == "train":
            assert r["ce"] == 0.0 and r["cd"] == 0.0


def test_nan_aborts_with_step_number(corpus, tiny_model_cfg, tcfg):
    params = M.init_params(tiny_model_cfg, seed=0)
    params["emb.tok"].data[4, 0] = np.nan
    with pytest.raises(TR.NumericError, match="step 0"):
        TR.train(tcfg, corpus, tiny_model_cfg, params=params)


def test_a_non_finite_gradient_under_a_finite_loss_stops_the_run_before_adam_and_the_log(
    corpus, tiny_model_cfg, tcfg, monkeypatch
):
    def poisoned(loss):
        grads = backward(loss)
        leaf = next(iter(grads))
        grads[leaf] = np.full_like(grads[leaf], np.inf)
        return grads

    monkeypatch.setattr(TR, "backward", poisoned)
    params = M.init_params(tiny_model_cfg, seed=0)
    before = {n: t.data.copy() for n, t in params.items()}
    log = io.StringIO()
    with pytest.raises(TR.NumericError, match="non-finite gradient norm at step 0"):
        TR.train(tcfg, corpus, tiny_model_cfg, params=params, log_file=log)
    assert log.getvalue() == ""
    for name, t in params.items():
        assert t.data.tobytes() == before[name].tobytes(), name


def test_quick_eval_records(corpus, tiny_model_cfg):
    tcfg = TR.TrainConfig(batch_size=6, epochs=1, seed=1, eval_every=2)
    _, records = TR.train(tcfg, corpus, tiny_model_cfg)
    evals = [r for r in records if r["type"] == "eval"]
    assert evals
    for r in evals:
        assert {"valid_ppl", "valid_cover", "valid_entail"} <= set(r)


# ---------------------------------------------------------------------------
# sharded steps


def _step_inputs(bundle, indices, ref_len=None):
    """(batch, contrastive sets, lexicon, vocab) of the examples at ``indices``, references cut to ``ref_len`` tokens."""
    lexicon, examples, vocab = bundle
    batch = [dataclasses.replace(examples[i], reference=examples[i].reference[:ref_len]) for i in indices]
    return batch, [K.build_contrastive_set(ex.tuple, lexicon, derive_rng(300 + i)) for i, ex in zip(indices, batch)], lexicon, vocab


def _lengths(batch, lexicon, vocab, cfg):
    """(source lengths, target lengths) of ``batch``: the unpadded encoder and decoder rows the loss builds."""
    srcs = [len(build_source(ex.tuple, ex.profiles, lexicon, cfg.max_src_len)) for ex in batch]
    return srcs, [M.make_target_arrays([vocab.tokenize(ex.reference)])[0].shape[1] for ex in batch]


def _serial_step(params, cfg, batch, csets, lexicon, vocab, tcfg, step, plan):
    """The sharded step recomputed in this thread: each shard's tape, stream and weight, summed in shard order."""
    vals, grads = {}, {n: np.zeros_like(t.data) for n, t in params.items()}
    for i, part in enumerate(plan):
        with Tape():
            breakdown = K.total_loss_batch(
                params, cfg, [batch[j] for j in part], [csets[j] for j in part], lexicon, vocab, tcfg,
                derive_rng(tcfg.seed, DROPOUT, step, i),
            )
            shard_grads = backward(breakdown.total)
        w = len(part) / len(batch)
        for k, v in breakdown.values().items():
            vals[k] = vals.get(k, 0) + w * v
        for n, t in params.items():
            if t in shard_grads:
                grads[n] += w * shard_grads[t]
    return vals, grads


@pytest.mark.parametrize("switch_s", [None, 1e-6], ids=["default-switching", "switch-every-microsecond"])
@pytest.mark.parametrize(
    "indices, ref_len, plan",
    [
        ([3, 0, 7, 1, 9], None, [[1, 3, 0], [4, 2]]),  # target lengths 25, 23, 28, 23, 27
        ([4], None, [[0]]),
        ([2, 4, 5, 14], 22, [[0, 1], [2, 3]]),  # sources of 48 tokens, references cut to 22
    ],
    ids=["B=5", "B=1", "B=4-equal-lengths"],
)
def test_threaded_step_equals_its_shards_recomputed_serially(toy, tiny_bundle, indices, ref_len, plan, switch_s):
    """Dropout on: the shards' plan, streams, weights and summation order, not the thread schedule, set every bit."""
    _, _, cfg = toy
    params = M.init_params(cfg, seed=2)
    tcfg = TR.TrainConfig(seed=4)
    inputs = _step_inputs(tiny_bundle, indices, ref_len)
    assert TR.shard_plan(*_lengths(inputs[0], *inputs[2:], cfg)) == plan
    interval = sys.getswitchinterval()
    try:
        if switch_s is not None:
            sys.setswitchinterval(switch_s)
        with ThreadPoolExecutor(max_workers=1) as pool:
            vals, grads = TR.step_gradients(params, cfg, *inputs, tcfg, 7, pool)
    finally:
        sys.setswitchinterval(interval)
    want_vals, want_grads = _serial_step(params, cfg, *inputs, tcfg, 7, plan)
    assert vals == want_vals
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g.dtype == want_grads[name].dtype and np.array_equal(g, want_grads[name]), name


def _cheapest_cuts(src_lens, tgt_lens):
    """Every cut of the stably target-sorted batch whose costlier shard pads to the fewest tokens, and that order."""
    order = [i for _, i in sorted((t, i) for i, t in enumerate(tgt_lens))]
    cost = {}
    for cut in range(1, len(order)):
        shards = order[:cut], order[cut:]
        cost[cut] = max(len(s) * (max(src_lens[i] for i in s) + max(tgt_lens[i] for i in s)) for s in shards)
    return order, [cut for cut, c in cost.items() if c == min(cost.values())]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 32).flatmap(
        lambda b: st.tuples(st.lists(st.integers(8, 60), min_size=b, max_size=b), st.lists(st.integers(2, 8), min_size=b, max_size=b))
    )
)
def test_the_shard_plan_is_the_cheapest_cut_of_the_target_sorted_batch(lengths):
    src_lens, tgt_lens = lengths  # targets drawn from few values, so ties are common
    b = len(tgt_lens)
    plan = TR.shard_plan(src_lens, tgt_lens)
    order, cheapest = _cheapest_cuts(src_lens, tgt_lens)
    assert [i for part in plan for i in part] == order  # a partition, target-sorted, ties in batch order
    if b == 1:
        assert plan == [[0]]
        return
    nearest = [c for c in cheapest if abs(2 * c - b) == min(abs(2 * c - b) for c in cheapest)]
    assert len(plan) == 2 and len(plan[0]) == max(nearest)


@given(st.integers(1, 32), st.integers(8, 60), st.integers(2, 200))
def test_equal_lengths_split_in_batch_order_at_half_rounded_up(b, src_len, tgt_len):
    cut = (b + 1) // 2
    want = [list(range(cut)), list(range(cut, b))] if b > 1 else [[0]]
    assert TR.shard_plan([src_len] * b, [tgt_len] * b) == want


def test_sharded_gradients_match_the_unsharded_loss_at_float64(tiny_bundle, tiny_model_cfg, tiny_model_params64):
    """No dropout: the shard-weighted sums equal the whole batch's mean loss and its gradients up to float64 rounding."""
    tcfg = TR.TrainConfig()
    batch, csets, lexicon, vocab = _step_inputs(tiny_bundle, [3, 0, 7, 1, 9])
    with ThreadPoolExecutor(max_workers=1) as pool:
        vals, grads = TR.step_gradients(tiny_model_params64, tiny_model_cfg, batch, csets, lexicon, vocab, tcfg, 0, pool)

    with Tape():
        whole = K.total_loss_batch(tiny_model_params64, tiny_model_cfg, batch, csets, lexicon, vocab, tcfg)
        whole_grads = backward(whole.total)
    assert whole.values()["ce"] > 0 and whole.values()["cd"] > 0
    assert vals == pytest.approx(whole.values(), rel=1e-10, abs=0)
    for name, t in tiny_model_params64.items():
        want = whole_grads.get(t, np.zeros_like(t.data))
        assert grads[name].dtype == np.float64
        assert np.linalg.norm(grads[name] - want) <= 1e-10 * np.linalg.norm(want), name


# ---------------------------------------------------------------------------
# checkpoint round trip and resume


def test_checkpoint_round_trip(tmp_path, corpus, tiny_model_cfg, tcfg):
    ckpt, _ = TR.train(tcfg, corpus, tiny_model_cfg)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(path, ckpt)
    back = TR.load_checkpoint(path)
    assert back.step == ckpt.step
    assert back.model_config == ckpt.model_config
    assert back.train_config == ckpt.train_config
    assert back.rng_state == ckpt.rng_state
    for name in ckpt.params:
        assert back.params[name].data.tobytes() == ckpt.params[name].data.tobytes()
        assert back.adam.m[name].tobytes() == ckpt.adam.m[name].tobytes()
        assert back.adam.v[name].tobytes() == ckpt.adam.v[name].tobytes()


@st.composite
def _checkpoints(draw):
    """A Checkpoint of a small random model: 0-2 layers per stack, float32 or float64, Adam moments with signed zeros, inf and NaN."""
    heads = draw(st.integers(1, 2))
    cfg = M.ModelConfig(
        vocab_size=draw(st.integers(4, 9)),
        d_model=heads * draw(st.integers(1, 3)),
        n_heads=heads,
        n_enc_layers=draw(st.integers(0, 2)),
        n_dec_layers=draw(st.integers(0, 2)),
        d_ff=draw(st.integers(1, 5)),
        max_src_len=M.SOURCE_TUPLE_LEN + draw(st.integers(0, 3)),
        max_tgt_len=draw(st.integers(2, 5)),
        proj_hidden=draw(st.integers(1, 4)),
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed, step = draw(st.integers(0, 2**31 - 1)), draw(st.integers(0, 10**6))
    params = M.init_params(cfg, seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)

    def moment(t):
        a = rng.standard_normal(t.data.shape).astype(dtype)
        a.flat[: special.size] = special[: a.size]
        return a

    adam = TR.AdamState(m={n: moment(t) for n, t in params.items()}, v={n: moment(t) for n, t in params.items()}, step=step)
    tcfg = TR.TrainConfig(seed=seed)
    return TR.Checkpoint(cfg, params, adam, tcfg, {"seed": seed, "step": step}, step)


@settings(max_examples=40, deadline=None)
@given(ckpt=_checkpoints())
def test_checkpoint_round_trips_bit_equal_into_arrays_of_their_own(tmp_path_factory, ckpt):
    path = tmp_path_factory.mktemp("round-trip") / "model.ckpt"
    TR.save_checkpoint(path, ckpt)
    back = TR.load_checkpoint(path)
    assert (back.model_config, back.train_config, back.rng_state, back.step, back.adam.step) == (
        ckpt.model_config, ckpt.train_config, ckpt.rng_state, ckpt.step, ckpt.adam.step
    )
    assert list(back.params) == sorted(ckpt.params)
    for name, t in ckpt.params.items():
        for got, want in ((back.params[name].data, t.data), (back.adam.m[name], ckpt.adam.m[name]), (back.adam.v[name], ckpt.adam.v[name])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # an array of its own, not a read-only view of the file's bytes
            assert got.flags.writeable and got.flags.owndata and got.base is None


def test_checkpoint_manifest_byte_lengths(tmp_path, corpus, tiny_model_cfg, tcfg):
    import json

    ckpt, _ = TR.train(tcfg, corpus, tiny_model_cfg)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(path, ckpt)
    raw = path.read_bytes()
    assert raw[:4] == b"COLO"
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16 : 16 + header_len])
    for entry in header["manifest"]:
        expect = int(np.prod(entry["shape"])) * (4 if entry["dtype"] == "f4" else 8)
        assert entry["nbytes"] == expect


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(TR.CheckpointError, match="magic"):
        TR.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path, corpus, tiny_model_cfg, tcfg):
    ckpt, _ = TR.train(tcfg, corpus, tiny_model_cfg)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(path, ckpt)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(TR.CheckpointError, match="truncated"):
        TR.load_checkpoint(path)


def test_checkpoint_rejects_version_mismatch(tmp_path, corpus, tiny_model_cfg, tcfg):
    ckpt, _ = TR.train(tcfg, corpus, tiny_model_cfg)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(path, ckpt)
    raw = bytearray(path.read_bytes())
    raw[4:8] = np.uint32(99).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(TR.CheckpointError, match="version"):
        TR.load_checkpoint(path)


def test_resume_matches_uninterrupted(tmp_path, corpus, tiny_model_cfg):
    full_cfg = TR.TrainConfig(batch_size=4, epochs=2, seed=5, eval_every=0)
    ckpt_full, _ = TR.train(full_cfg, corpus, tiny_model_cfg)

    half_cfg = TR.TrainConfig(batch_size=4, epochs=2, seed=5, eval_every=0, max_steps=3)
    ckpt_half, _ = TR.train(half_cfg, corpus, tiny_model_cfg)
    path = tmp_path / "half.ckpt"
    TR.save_checkpoint(path, ckpt_half)
    loaded = TR.load_checkpoint(path)

    ckpt_resumed, _ = TR.train(
        full_cfg, corpus, tiny_model_cfg,
        params=loaded.params, adam=loaded.adam, start_step=loaded.step,
    )
    assert ckpt_resumed.step == ckpt_full.step
    for name in ckpt_full.params:
        a = ckpt_full.params[name].data
        b = ckpt_resumed.params[name].data
        assert a.tobytes() == b.tobytes(), name


def test_total_steps_counts_epochs_capped_by_max_steps():
    # 10 examples at batch 4: 3 steps per epoch
    assert TR.total_steps(TR.TrainConfig(batch_size=4, epochs=2), 10) == 6
    assert TR.total_steps(TR.TrainConfig(batch_size=4, epochs=2, max_steps=4), 10) == 4
    assert TR.total_steps(TR.TrainConfig(batch_size=4, epochs=2, max_steps=9), 10, start_step=6) == 6


def test_resume_past_the_budget_raises_rather_than_rewinding(corpus, tiny_model_cfg):
    """A checkpoint at step 2 and a budget of 1 step: the run would write step 1 over step 2's state."""
    with pytest.raises(ConfigError, match="the checkpoint is at step 2, past the 1 steps this run trains to"):
        TR.train(TR.TrainConfig(batch_size=4, eval_every=0, max_steps=1), corpus, tiny_model_cfg, start_step=2)


def test_reversed_manifest_loads_sorted_and_resumes_alike(tmp_path, corpus, tiny_model_cfg, rewrite_header):
    """Parameters load sorted by name whatever the manifest order, so a resume (gradient-norm sum included) matches."""
    half_cfg = TR.TrainConfig(batch_size=4, epochs=2, seed=5, eval_every=0, max_steps=3)
    ckpt_half, _ = TR.train(half_cfg, corpus, tiny_model_cfg)
    path = tmp_path / "half.ckpt"
    TR.save_checkpoint(path, ckpt_half)
    flipped = rewrite_header(path, tmp_path / "flipped.ckpt", lambda h: {**h, "manifest": h["manifest"][::-1]})
    assert flipped.read_bytes() != path.read_bytes()

    saved = []
    for i, src in enumerate((path, flipped)):
        loaded = TR.load_checkpoint(src)
        assert list(loaded.params) == sorted(loaded.params)
        full_cfg = TR.TrainConfig(batch_size=4, epochs=2, seed=5, eval_every=0)
        ckpt, _ = TR.train(full_cfg, corpus, tiny_model_cfg, params=loaded.params, adam=loaded.adam, start_step=loaded.step)
        TR.save_checkpoint(tmp_path / f"resumed{i}.ckpt", ckpt)
        saved.append((tmp_path / f"resumed{i}.ckpt").read_bytes())
    assert saved[0] == saved[1]


def test_training_decreases_lm_loss(corpus, tiny_model_cfg):
    tcfg = TR.TrainConfig(
        batch_size=6, epochs=50, seed=0, eval_every=0, use_ce=False, use_cd=False,
        learning_rate=2e-3,
    )
    _, records = TR.train(tcfg, corpus, tiny_model_cfg)
    first = np.mean([r["lm"] for r in records[:3]])
    last = np.mean([r["lm"] for r in records[-3:]])
    assert last < first * 0.7


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """(bytes, header end, directory) of a saved checkpoint of a 15-array model."""
    cfg = M.ModelConfig(vocab_size=8, d_model=4, n_heads=1, n_enc_layers=0, n_dec_layers=0, d_ff=4, max_src_len=8, max_tgt_len=2, proj_hidden=4)
    params, path = M.init_params(cfg, seed=0), tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    TR.save_checkpoint(path, TR.Checkpoint(cfg, params, TR.AdamState.init(params), TR.TrainConfig(), {"seed": 0, "step": 0}, 0))
    raw = path.read_bytes()
    return raw, TR.CHECKPOINT_PREAMBLE_LEN + int(np.frombuffer(raw[8:16], dtype="<u8")[0]), path.parent


def _load_prefix(small_checkpoint, n):
    raw, _, tmp = small_checkpoint
    path = tmp / "prefix.ckpt"
    # a fresh file each time: rewriting one in place is tens of ms on some filesystems
    path.unlink(missing_ok=True)
    path.write_bytes(raw[:n])
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(path)


def test_checkpoint_every_prefix_below_header_end_rejected(small_checkpoint):
    raw, header_end, tmp = small_checkpoint
    TR.load_checkpoint(tmp / "model.ckpt")
    for n in range(header_end):
        _load_prefix(small_checkpoint, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_checkpoint_payload_prefixes_rejected(small_checkpoint, data):
    raw, header_end, _ = small_checkpoint
    _load_prefix(small_checkpoint, data.draw(st.integers(header_end, len(raw) - 1)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_corrupted_checkpoint_is_checkpoint_error_or_loads_its_config_shapes(small_checkpoint, data):
    """A truncated file, a flipped bit anywhere or a printable byte put into the header never loads arrays off the config."""
    raw, header_end, tmp = small_checkpoint
    buf = bytearray(raw)
    kind = data.draw(st.sampled_from(["truncate", "flip-bit", "header-byte"]), label="kind")
    if kind == "truncate":
        del buf[data.draw(st.integers(0, len(raw) - 1), label="length") :]
    elif kind == "flip-bit":
        buf[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    else:
        buf[data.draw(st.integers(TR.CHECKPOINT_PREAMBLE_LEN, header_end - 1), label="at")] = data.draw(
            st.integers(0x20, 0x7E), label="byte"
        )
    path = tmp / "mutated.ckpt"
    path.unlink(missing_ok=True)
    path.write_bytes(bytes(buf))
    try:
        ckpt = TR.load_checkpoint(path)
    except TR.CheckpointError:
        return
    want = M.param_shapes(ckpt.model_config)
    params = {n: t.data for n, t in ckpt.params.items()}
    for arrays in (params, ckpt.adam.m, ckpt.adam.v):
        assert {n: a.shape for n, a in arrays.items()} == want


def _entry(header, name):
    return next(e for e in header["manifest"] if e["name"] == name)


def _edited(change):
    """A header edit that applies ``change`` in place and returns the header."""

    def edit(h):
        change(h)
        return h

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: [1, 2], "not a JSON object"),
        (_edited(lambda h: h.pop("rng")), "no 'rng'"),
        (_edited(lambda h: h.pop("manifest")), "no 'manifest'"),
        (_edited(lambda h: h["manifest"][0].update(dtype="i8")), "unknown dtype 'i8'"),
        (_edited(lambda h: h["manifest"][0].update(shape=[3, 5])), "has shape [3, 5]"),
        (_edited(lambda h: h["manifest"][0].update(shape=[-4, -1])), "has shape [-4, -1]"),
        (_edited(lambda h: h["manifest"][0].update(name="grad/emb.tok")), "unknown array"),
        (_edited(lambda h: h["model_config"].update(n_heads=3)), "bad config"),
        (_edited(lambda h: h["train_config"].update(no_such_field=1)), "bad config"),
        (_edited(lambda h: _entry(h, "adam_v/enc.ln_f.g").update(shape=[2, 2])), "adam_v/enc.ln_f.g has shape [2, 2]"),
        (_edited(lambda h: h["manifest"].remove(_entry(h, "param/emb.tok"))), "missing ['emb.tok']"),
        (_edited(lambda h: h.update(step="2")), "'step' must be a non-negative integer, not '2'"),
        (_edited(lambda h: h.update(step=1.5)), "'step' must be a non-negative integer, not 1.5"),
        (_edited(lambda h: h.update(step=-5)), "'step' must be a non-negative integer, not -5"),
        (_edited(lambda h: h.update(adam_step=True)), "'adam_step' must be a non-negative integer, not True"),
        (_edited(lambda h: h.update(adam_step=None)), "'adam_step' must be a non-negative integer, not None"),
        # every config value obeys the config-file type rule
        (_edited(lambda h: h["train_config"].update(batch_size=4.5)), "train_config 'batch_size' cannot be 4.5"),
        (_edited(lambda h: h["model_config"].update(d_model=16.0)), "model_config 'd_model' cannot be 16.0"),
        (_edited(lambda h: h["train_config"].update(use_ce="no")), "train_config 'use_ce' cannot be 'no'"),
        (_edited(lambda h: h["train_config"].update(seed=True)), "train_config 'seed' cannot be True"),
        (_edited(lambda h: h["train_config"].update(neg_types=["ES", 1])), "train_config 'neg_types' cannot be ['ES', 1]"),
        (_edited(lambda h: h["model_config"].update(vocab_size=8.0)), "model_config 'vocab_size' cannot be 8.0"),
        (_edited(lambda h: h.update(model_config=[8])), "header 'model_config' is not a JSON object"),
        # the optimizer, the random streams and the step agree
        (_edited(lambda h: h.update(step=1000)), "header 'adam_step' 0 is not its 'step' 1000"),
        (_edited(lambda h: h.update(step=3, adam_step=3)), "header 'rng' must be {'seed': 0, 'step': 3}"),
        (_edited(lambda h: h["rng"].update(seed=1)), "header 'rng' must be {'seed': 0, 'step': 0}"),
        (_edited(lambda h: h["rng"].update(seed=False)), "header 'rng' must be {'seed': 0, 'step': 0}"),
        (_edited(lambda h: h["rng"].update(epoch=0)), "header 'rng' must be {'seed': 0, 'step': 0}"),
        (_edited(lambda h: h.update(rng=[0, 0])), "header 'rng' must be {'seed': 0, 'step': 0}"),
    ],
    ids=[
        "list", "no-rng", "no-manifest", "dtype", "shape", "negative-shape", "name", "model-config", "train-config",
        "adam-shape-off-config", "param-missing", "step-str", "step-float", "step-negative", "adam-step-bool",
        "adam-step-null", "batch-size-float", "d-model-float", "use-ce-str", "seed-bool", "neg-types-int",
        "vocab-size-float", "model-config-list", "step-past-adam-step", "rng-step", "rng-seed", "rng-seed-bool",
        "rng-extra-key", "rng-list",
    ],
)
def test_checkpoint_header_faults_rejected(small_checkpoint, rewrite_header, edit, message):
    _, _, tmp = small_checkpoint
    path = rewrite_header(tmp / "model.ckpt", tmp / "edited.ckpt", edit)
    with pytest.raises(TR.CheckpointError, match=re.escape(message)):
        TR.load_checkpoint(path)
