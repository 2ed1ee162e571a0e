"""Toy-size smoke test of the benchmark.

    python3 -m pytest benchmarks -q

Runs every workload on the tests/conftest.py-sized corpus and model, checks
that every metric BENCHMARK.json names is emitted, and that corrupting an
output trips the check that guards it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TOY_SECONDS = 0.01  # every run does its minimum: two chunks of run.MIN_PER_CHUNK operations


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def toy(workload, trace=False):
    return run.run_workload(workload, seed=3, seconds=TOY_SECONDS, trace=trace, size=run.TOY)


def failed_checks(rec):
    return {c["check"] for c in rec["checks"] if not c["ok"]}


def test_metric_tables_match_spec():
    assert dict(run.E2E) == units("end_to_end")
    assert dict(run.PER_LAYER) == units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_emitted(workload, trace):
    rec = toy(workload, trace)
    line = run.result_line(rec)
    assert failed_checks(rec) == set()
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units(kind)
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert all(rec["info"][k] > 0 for k, _ in run.INFO if k in rec["info"])
    json.dumps(line, allow_nan=False)


def test_traced_training_attributes_the_margin_pass():
    colo = toy("train-colo", trace=True)["per_layer"]
    lm = toy("train-lm", trace=True)["per_layer"]
    assert colo["contrastive.margin_pass.rows"] == 3 * run.TOY.train["batch_size"]
    assert lm["contrastive.margin_pass.rows"] == 0 and lm["contrastive.margin_pass.ms"] == 0
    assert colo["model.encode_batch.rows"] == 5 * lm["model.encode_batch.rows"]


def test_out_of_vocabulary_id_fails_decode(monkeypatch):
    orig = run.D.greedy_decode

    def corrupt(params, cfg, src_ids):
        return list(orig(params, cfg, src_ids)[:-1]) + [cfg.vocab_size]

    monkeypatch.setattr(run.D, "greedy_decode", corrupt)
    rec = toy("decode-eval")
    assert "greedy.ids_in_range" in failed_checks(rec)
    assert rec["failed"] > 0 and not run.result_line(rec)["correct"]
    assert rec["metrics"]["ok_rate"] < 1.0


def test_nondeterministic_update_fails_repeat(monkeypatch):
    orig = run.TR.clip_gradients
    calls = []

    def drifting(grads, max_norm):
        calls.append(1)
        for g in grads.values():
            g *= 1.0 + 0.01 * len(calls)
        return orig(grads, max_norm)

    monkeypatch.setattr(run.TR, "clip_gradients", drifting)
    rec = toy("train-lm")
    assert "train.bitwise_repeat" in failed_checks(rec)
    assert rec["failed"] >= run.MIN_PER_CHUNK


def test_non_finite_loss_fails_step(monkeypatch):
    orig = run.K.total_loss_batch

    def poisoned(*args, **kwargs):
        out = orig(*args, **kwargs)
        nan = run.T.Tensor(np.asarray(np.nan, dtype=out.total.dtype))
        return run.K.LossBreakdown(out.lm, out.ce, out.cd, run.T.add(out.total, nan))

    monkeypatch.setattr(run.K, "total_loss_batch", poisoned)
    rec = toy("train-colo")
    assert "train.finite_loss" in failed_checks(rec)
    assert rec["failed"] >= run.MIN_CHUNKS * run.MIN_PER_CHUNK


def test_broken_oracle_fails_scoring(monkeypatch):
    monkeypatch.setattr(run.E, "entail_oracle", lambda *a, **k: 0)
    rec = toy("decode-eval")
    assert failed_checks(rec) == {"eval.oracle_consistent"}


@pytest.mark.parametrize("workload", ["train-lm", "decode-eval"])
def test_times_are_scaled_to_reference_speed(monkeypatch, workload):
    """On a host at half the reference speed, every reported time is half its wall time."""
    monkeypatch.setattr(run.H, "reference_ms", lambda: 2.0 * run.H.REFERENCE_MS)
    rec = toy(workload)
    assert rec["op_ms"] == pytest.approx([w / 2.0 for w in rec["wall_op_ms"]])
    assert [x["s"] for x in rec["setups"]] == pytest.approx([x["wall_s"] / 2.0 for x in rec["setups"]])
    assert rec["info"]["host_speed"] == pytest.approx(0.5)


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail(list(range(1, 41)))
    assert value == 30 and pct == 75.0
    assert sum(v > value for v in range(1, 41)) == run.TAIL_BEYOND


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, it exits non-zero with no result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "train-lm", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
