import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import model as M
from colo import trainer as TR
from colo.corpus import Corpus


@pytest.fixture(scope="module")
def corpus(tiny_bundle):
    lexicon, examples, _ = tiny_bundle
    return Corpus(lexicon, examples)


@pytest.fixture
def tcfg():
    return TR.TrainConfig(batch_size=4, epochs=1, seed=3, eval_every=0)


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

    p = M.ParameterSet({"w": Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)})
    state = TR.AdamState.init(p)
    g = {"w": np.array([1.0, -2.0, 0.5, 10.0, -0.1], dtype=np.float32)}
    TR.adam_update(p, g, state, lr=0.01)
    assert np.allclose(np.abs(p["w"].data), 0.01, rtol=1e-4)
    assert np.all(np.sign(p["w"].data) == -np.sign(g["w"]))


def test_adam_converges_on_quadratic():
    from colo.tensor import Tensor

    target = np.array([1.5, -2.0], dtype=np.float32)
    p = M.ParameterSet({"x": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)})
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


def test_quick_eval_records(corpus, tiny_model_cfg):
    tcfg = TR.TrainConfig(batch_size=6, epochs=1, seed=1, eval_every=2)
    _, records = TR.train(tcfg, corpus, tiny_model_cfg)
    evals = [r for r in records if r["type"] == "eval"]
    assert evals
    for r in evals:
        assert {"valid_ppl", "valid_cover", "valid_entail"} <= set(r)


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
    for name in ckpt.params.names():
        assert back.params[name].data.tobytes() == ckpt.params[name].data.tobytes()
        assert back.adam.m[name].tobytes() == ckpt.adam.m[name].tobytes()
        assert back.adam.v[name].tobytes() == ckpt.adam.v[name].tobytes()


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
    for name in ckpt_full.params.names():
        a = ckpt_full.params[name].data
        b = ckpt_resumed.params[name].data
        assert a.tobytes() == b.tobytes(), name


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
    cfg = M.ModelConfig(vocab_size=8, d_model=4, n_heads=1, n_enc_layers=0, n_dec_layers=0, d_ff=4, max_src_len=2, max_tgt_len=2, proj_hidden=4)
    params, path = M.init_params(cfg, seed=0), tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    TR.save_checkpoint(path, TR.Checkpoint(cfg, params, TR.AdamState.init(params), TR.TrainConfig(), {"seed": 0, "step": 0}, 0))
    raw = path.read_bytes()
    return raw, TR.CHECKPOINT_PREAMBLE_LEN + int(np.frombuffer(raw[8:16], dtype="<u8")[0]), path.parent


def _load_prefix(small_checkpoint, n):
    raw, _, tmp = small_checkpoint
    (tmp / "prefix.ckpt").write_bytes(raw[:n])
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(tmp / "prefix.ckpt")


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
