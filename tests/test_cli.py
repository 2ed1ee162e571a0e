import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colo import cli
from colo import gradcheck as G
from colo.corpus import CorpusConfig
from colo.errors import DataError
from colo.evaluation import EvalError
from colo.model import ModelConfig
from colo.trainer import TrainConfig, load_checkpoint


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--max-steps", "1", "--eval-every", "0"]
    assert cli.main(argv) == 0
    return out / "model.ckpt"


def _misshape_first_64(header):
    entry = next(e for e in header["manifest"] if e["nbytes"] == 64 * 4)
    entry["shape"] = [3, 5]
    return header


# ---------------------------------------------------------------------------
# exit codes


def test_evaluate_six_byte_checkpoint_is_data_error(tmp_path, corpus_dir, capsys):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(b"COLO\x01\x00")
    assert cli.main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir)]) == cli.EXIT_DATA
    assert "truncated preamble" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda h: [1, 2], "not a JSON object"), (_misshape_first_64, "has shape [3, 5] but 256 bytes")],
    ids=["list-header", "shape-vs-nbytes"],
)
def test_evaluate_hand_edited_checkpoint_is_data_error(
    tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys, edit, message
):
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt", edit)
    assert cli.main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir)]) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


def _reshape_ln_f_gain(header):
    entry = next(e for e in header["manifest"] if e["name"] == "param/enc.ln_f.g")
    entry["shape"] = [8, 8]
    return header


def test_evaluate_param_shape_off_config_is_data_error(tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys):
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt", _reshape_ln_f_gain)
    assert cli.main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir)]) == cli.EXIT_DATA
    assert "param/enc.ln_f.g has shape [8, 8], the model config needs [64]" in capsys.readouterr().err


def _repeat_tok_embedding(header):
    """A second ``param/emb.tok`` entry, over ``adam_m/emb.tok``'s bytes, after the first."""
    moments = next(e for e in header["manifest"] if e["name"] == "adam_m/emb.tok")
    header["manifest"].append({**moments, "name": "param/emb.tok"})
    return header


def test_evaluate_manifest_naming_an_array_twice_is_data_error(tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys):
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt", _repeat_tok_embedding)
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), "--out", str(out)]) == cli.EXIT_DATA
    assert "manifest names array 'param/emb.tok' twice" in capsys.readouterr().err
    assert not out.exists()


def _drop_adam_m_entry(header):
    header["manifest"] = [e for e in header["manifest"] if e["name"] != "adam_m/enc.ln_f.g"]
    return header


def test_resume_missing_adam_entry_is_data_error(tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys):
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt", _drop_adam_m_entry)
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--resume", str(ckpt)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "adam_m arrays do not match the model config: missing ['enc.ln_f.g']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("step", "2"), ("step", 1.5), ("step", -5), ("adam_step", "0")])
def test_resume_with_a_bad_step_count_is_data_error(tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys, key, value):
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt", lambda h: {**h, key: value})
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--resume", str(ckpt)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"data error: {ckpt}: header {key!r} must be a non-negative integer, not {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--d-model", "32", "d_model"), ("--lr", "0.5", "learning_rate"), ("--seed", "9", "seed")],
    ids=["d_model", "lr", "seed"],
)
def test_resume_contradicting_checkpoint_is_data_error(tmp_path, corpus_dir, trained_ckpt, capsys, flag, value, field):
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--resume", str(trained_ckpt), flag, value]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"resume: {field} is" in capsys.readouterr().err
    assert not out.exists()


def test_resume_on_other_vocabulary_is_data_error(tmp_path, trained_ckpt, capsys):
    other = tmp_path / "corpus"
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "1", "--entities", "25", "--out", str(other)]) == 0
    argv = ["train", "--corpus", str(other), "--out", str(tmp_path / "run"), "--resume", str(trained_ckpt)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "checkpoint vocabulary" in capsys.readouterr().err


def test_resume_takes_configs_from_checkpoint(tmp_path, corpus_dir, trained_ckpt):
    # only how far to run changes; width, lr and seed come from the checkpoint
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--resume", str(trained_ckpt),
            "--max-steps", "2", "--eval-every", "0"]
    assert cli.main(argv) == 0
    before, after = load_checkpoint(trained_ckpt), load_checkpoint(out / "model.ckpt")
    assert after.step == 2
    assert after.model_config == before.model_config
    assert after.train_config.learning_rate == before.train_config.learning_rate


@pytest.fixture(scope="module")
def resumed_in_place(tmp_path_factory, corpus_dir):
    """(uninterrupted 4-step run dir, 2-step run dir resumed to 4 steps in place, pre-resume checkpoint digest)."""
    whole, split = tmp_path_factory.mktemp("whole"), tmp_path_factory.mktemp("split")
    argv = ["train", "--corpus", str(corpus_dir), "--d-model", "16", "--eval-every", "1"]
    assert cli.main(argv + ["--out", str(whole), "--max-steps", "4"]) == 0
    assert cli.main(argv + ["--out", str(split), "--max-steps", "2"]) == 0
    before = cli._sha256(split / "model.ckpt")
    assert cli.main(argv + ["--out", str(split), "--max-steps", "4", "--resume", str(split / "model.ckpt")]) == 0
    return whole, split, before


def test_resume_in_place_keeps_the_earlier_log(resumed_in_place):
    whole, split, _ = resumed_in_place
    log = (split / "train_log.jsonl").read_bytes()
    assert log == (whole / "train_log.jsonl").read_bytes()
    assert {json.loads(line)["type"] for line in log.splitlines()} == {"train", "eval"}
    assert (split / "model.ckpt").read_bytes() == (whole / "model.ckpt").read_bytes()


# a train run whose process dies, with no clean-up, inside its third step
KILLED_ON_THE_THIRD_STEP = """
import os, sys
from colo import cli, trainer
real, calls = trainer.step_gradients, []
def step_gradients(*args):
    calls.append(None)
    if len(calls) == 3:
        os._exit(9)
    return real(*args)
trainer.step_gradients = step_gradients
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_resume_killed_mid_run_keeps_its_log_and_a_second_resume_finishes_it(tmp_path, corpus_dir, monkeypatch):
    """Records reach the log as each step ends: a kill loses none from before the checkpoint, nor the two steps
    that finished, and resuming again writes what an uninterrupted resume writes."""
    src = str(Path(cli.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    killed, whole = tmp_path / "killed", tmp_path / "whole"
    argv = ["train", "--corpus", str(corpus_dir), "--d-model", "16", "--eval-every", "0"]
    assert cli.main(argv + ["--out", str(killed), "--max-steps", "6"]) == 0
    shutil.copytree(killed, whole)
    first_six = (killed / "train_log.jsonl").read_bytes()

    def resume(out):
        return argv + ["--out", str(out), "--max-steps", "12", "--resume", str(out / "model.ckpt")]

    child = subprocess.run([sys.executable, "-c", KILLED_ON_THE_THIRD_STEP, *resume(killed)], timeout=300)
    assert child.returncode == 9
    log = (killed / "train_log.jsonl").read_bytes()
    assert log.startswith(first_six)
    assert [json.loads(line)["step"] for line in log.splitlines()] == list(range(8))
    assert cli.main(resume(killed)) == 0
    assert cli.main(resume(whole)) == 0
    for name in ("train_log.jsonl", "model.ckpt"):
        assert (killed / name).read_bytes() == (whole / name).read_bytes(), name


def test_resume_drops_a_crash_cut_last_line_of_the_log(tmp_path, corpus_dir, resumed_in_place):
    """A record cut off mid-write has no newline; resuming in place at the checkpoint's own step leaves the log
    as it was before the cut."""
    _, split, _ = resumed_in_place
    for name in ("model.ckpt", "train_log.jsonl"):
        shutil.copy(split / name, tmp_path / name)
    log = (tmp_path / "train_log.jsonl").read_bytes()
    with open(tmp_path / "train_log.jsonl", "ab") as f:
        f.write(b'{"cd": 0.06, "ce"')
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path), "--resume", str(tmp_path / "model.ckpt"),
            "--max-steps", "4"]
    assert cli.main(argv) == 0
    assert (tmp_path / "train_log.jsonl").read_bytes() == log


def test_resume_manifest_digests_the_checkpoint_it_read(resumed_in_place):
    _, split, before = resumed_in_place
    manifest = json.loads((split / "train.manifest.json").read_text())
    ckpt = str(split / "model.ckpt")
    assert manifest["inputs"][ckpt] == before
    assert manifest["outputs"][ckpt] == cli._sha256(ckpt) != before


def test_resume_past_the_budget_is_config_error_before_any_write(tmp_path, corpus_dir, resumed_in_place, capsys):
    """A 4-step checkpoint resumed with a 2-step budget exits 2 before making its run directory.

    Resumed in place with a 4-step budget, it is a no-op that leaves its files as they were.
    """
    _, split, _ = resumed_in_place
    for name in ("model.ckpt", "train_log.jsonl"):
        shutil.copy(split / name, tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--resume", str(tmp_path / "model.ckpt"), "--eval-every", "1"]
    assert cli.main(argv + ["--out", str(out), "--max-steps", "2"]) == cli.EXIT_CONFIG
    assert "the checkpoint is at step 4, past the 2 steps this run trains to" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv + ["--out", str(tmp_path), "--max-steps", "4"]) == 0
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_resume_keeps_the_checkpoints_eval_every_unless_set(tmp_path, corpus_dir, resumed_in_place):
    """A 4-step ``--eval-every 1`` checkpoint resumed with no ``--eval-every``: at a 4-step budget a no-op, past it
    still evaluating every step."""
    _, split, _ = resumed_in_place
    for name in ("model.ckpt", "train_log.jsonl"):
        shutil.copy(split / name, tmp_path / name)
    ckpt = tmp_path / "model.ckpt"
    before = ckpt.read_bytes()
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path), "--resume", str(ckpt)]
    assert cli.main(argv + ["--max-steps", "4"]) == 0
    assert ckpt.read_bytes() == before
    assert cli.main(argv + ["--max-steps", "5"]) == 0
    assert load_checkpoint(ckpt).train_config.eval_every == 1
    records = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    assert [(r["type"], r["step"]) for r in records[-2:]] == [("train", 4), ("eval", 4)]


def test_resume_over_malformed_log_is_data_error(tmp_path, corpus_dir, trained_ckpt, capsys):
    shutil.copy(trained_ckpt, tmp_path / "model.ckpt")
    (tmp_path / "train_log.jsonl").write_text("not json\n")
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path), "--resume", str(tmp_path / "model.ckpt"),
            "--max-steps", "2", "--eval-every", "0"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "malformed line" in capsys.readouterr().err


@pytest.mark.parametrize("neg_types, message", [
    ("ES,XX", "unknown negative types ['XX']"),
    ("XX", "unknown negative types ['XX']"),
    ("ES,ES", "duplicate negative types"),
], ids=["unknown-with-known", "unknown-only", "duplicate"])
def test_bad_negative_types_are_config_errors_before_the_run_dir(tmp_path, corpus_dir, capsys, neg_types, message):
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--max-steps", "1", "--neg-types", neg_types]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ('batch_size = "x"', "batch_size"),
    ("epochs = 2.5", "epochs"),
    ("use_ce = 1", "use_ce"),
    ("learning_rate = true", "learning_rate"),
    ("neg_types = ES", "neg_types"),
    ("neg_types = [1]", "neg_types"),
], ids=["str-for-int", "float-for-int", "int-for-bool", "bool-for-float", "str-for-tuple", "int-in-tuple"])
def test_config_file_value_of_the_wrong_type_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys, line, key):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config key {key!r} cannot be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_heads", "d_model", "proj_hidden", "d_ff"])
def test_model_width_below_one_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys, key):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{key} = 0\n")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: {key} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_src_len", [4, 7])
def test_max_src_len_that_cuts_the_tuple_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys, max_src_len):
    """A source shorter than the serialized tuple would drop a slot from every example, so no run starts."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"max_src_len = {max_src_len}\n")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: max_src_len must be >= 8, got {max_src_len}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split_ratio", ["[0.9, 0.0, 0.1]", "[0.0, 0.9, 0.1]"], ids=["no-valid", "no-train"])
def test_corpus_without_a_train_or_valid_split_is_config_error_before_any_write(tmp_path, capsys, split_ratio):
    """A run directory that holds a log keeps its bytes; a fresh one is not made."""
    (tmp_path / "gen.cfg").write_text(f"split_ratio = {split_ratio}\n")
    corpus = tmp_path / "corpus"
    gen = ["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(corpus), "--config", str(tmp_path / "gen.cfg")]
    assert cli.main(gen) == 0
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    kept.mkdir()
    log = b'{"epoch": 0, "step": 0, "type": "train"}\n'
    (kept / "train_log.jsonl").write_bytes(log)
    for out in (kept, fresh):
        argv = ["train", "--corpus", str(corpus), "--out", str(out), "--max-steps", "1", "--eval-every", "0"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error: corpus needs non-empty train and valid splits" in capsys.readouterr().err
    assert [(p.name, p.read_bytes()) for p in kept.iterdir()] == [("train_log.jsonl", log)]
    assert not fresh.exists()


@pytest.mark.parametrize("key", ["n_enc_layers", "n_dec_layers"])
def test_negative_layer_count_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys, key):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{key} = -1\n")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: {key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def _longest_reference(corpus_dir):
    corpus, vocab, _, _ = cli._load_bundle(corpus_dir)
    return max(len(vocab.tokenize(ex.reference)) for ex in corpus.train + corpus.valid)


def test_max_tgt_len_below_the_longest_reference_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("max_tgt_len = 5\n")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    longest = _longest_reference(corpus_dir)
    assert f"config error: max_tgt_len is 5, but the corpus has a train/valid reference of {longest} tokens" in capsys.readouterr().err
    assert not out.exists()


def test_resume_onto_longer_references_than_max_tgt_len_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys):
    """A checkpoint trained with max_tgt_len 100 on references of at most 100 tokens, resumed on a corpus with
    the same vocabulary and longer references."""
    short = tmp_path / "short"
    (tmp_path / "gen.cfg").write_text("ref_len_bounds = [30, 100]\n")
    gen = ["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(short), "--config", str(tmp_path / "gen.cfg")]
    assert cli.main(gen) == 0
    (tmp_path / "train.cfg").write_text("max_tgt_len = 100\n")
    first = tmp_path / "first"
    argv = ["train", "--corpus", str(short), "--out", str(first), "--config", str(tmp_path / "train.cfg"),
            "--d-model", "16", "--max-steps", "1", "--eval-every", "0"]
    assert cli.main(argv) == 0
    out = tmp_path / "resumed"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--resume", str(first / "model.ckpt"), "--max-steps", "2"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    longest = _longest_reference(corpus_dir)
    assert longest > 100
    assert f"config error: max_tgt_len is 100, but the corpus has a train/valid reference of {longest} tokens" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_takes_an_int_for_a_float_and_a_list_for_a_tuple(tmp_path, corpus_dir):
    cfg = tmp_path / "train.cfg"
    cfg.write_text('gamma = 1\nneg_types = ["OS", "ES"]\n')
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--config", str(cfg),
            "--max-steps", "1", "--d-model", "16", "--eval-every", "0"]
    assert cli.main(argv) == 0
    train_cfg = load_checkpoint(out / "model.ckpt").train_config
    assert (train_cfg.gamma, train_cfg.neg_types) == (1, ("OS", "ES"))


@pytest.mark.parametrize("value", ["[0, 2]", "[3, 2]"], ids=["zero-low", "low-above-high"])
def test_bad_profile_attrs_range_is_config_error_naming_the_key(tmp_path, capsys, value):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"profile_attrs_range = {value}\n")
    out = tmp_path / "corpus"
    argv = ["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(out), "--config", str(cfg)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"profile_attrs_range must satisfy 1 <= lo <= hi, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit", [lambda prof: prof.pop("texture"), lambda prof: prof.update(texture=[])],
                         ids=["missing", "empty"])
def test_profile_without_a_category_is_data_error_before_the_run_dir(tmp_path, corpus_dir, capsys, edit):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    lines = (bad / "corpus.jsonl").read_text(encoding="ascii").splitlines()
    rec = json.loads(lines[2])
    edit(rec["profiles"][1])
    lines[2] = json.dumps(rec)
    (bad / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(bad), "--out", str(out), "--max-steps", "1"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "corpus.jsonl, line 3" in err and "missing category 'texture'" in err
    assert not out.exists()


def test_profile_that_is_not_an_object_is_data_error_before_the_run_dir(tmp_path, corpus_dir, capsys):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    lines = (bad / "corpus.jsonl").read_text(encoding="ascii").splitlines()
    rec = json.loads(lines[2])
    rec["profiles"][0] = ["x"]
    lines[2] = json.dumps(rec)
    (bad / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(bad), "--out", str(out), "--max-steps", "1"]) == cli.EXIT_DATA
    assert "corpus.jsonl, line 3: a profile is not a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rec: rec.update(tuple=[["ENT_000"], *rec["tuple"][1:]]), "tuple must be a list of 4 string ids"),
        (lambda rec: rec.update(reference="ENT_000"), "reference must be a list of string tokens"),
        (lambda rec: rec.update(reference=" ".join(rec["reference"])), "reference must be a list of string tokens"),
        (lambda rec: rec["profiles"][0].update(fragance=["x"]), "unknown categories ['fragance']"),
        (lambda rec: rec["profiles"].append(rec["profiles"][0]), "profiles must be a list of 2 JSON objects"),
    ],
    ids=["list-id", "short-string-reference", "long-string-reference", "unknown-category", "three-profiles"],
)
def test_mistyped_corpus_field_is_data_error_before_the_run_dir(tmp_path, corpus_dir, capsys, edit, message):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    lines = (bad / "corpus.jsonl").read_text(encoding="ascii").splitlines()
    rec = json.loads(lines[0])
    edit(rec)
    lines[0] = json.dumps(rec)
    (bad / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(bad), "--out", str(out), "--max-steps", "1"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "corpus.jsonl, line 1: " in err and message in err
    assert not out.exists()


def test_non_ascii_corpus_byte_is_data_error(tmp_path, corpus_dir, capsys):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    with open(bad / "corpus.jsonl", "ab") as f:
        f.write(b"\xff\n")
    n_lines = len((bad / "corpus.jsonl").read_bytes().splitlines())
    argv = ["train", "--corpus", str(bad), "--out", str(tmp_path / "run"), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"corpus.jsonl, line {n_lines}" in capsys.readouterr().err


def test_misshapen_lexicon_is_data_error(tmp_path, corpus_dir, capsys):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    doc = json.loads((bad / "lexicon.json").read_text())
    doc["opinions"] = [1, 2]
    (bad / "lexicon.json").write_text(json.dumps(doc))
    argv = ["train", "--corpus", str(bad), "--out", str(tmp_path / "run"), "--max-steps", "1"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "lexicon.json" in capsys.readouterr().err


@pytest.mark.parametrize("kind, slot", [("aspects", 2), ("opinions", 3)])
def test_lexicon_with_one_aspect_or_opinion_is_data_error_before_the_run_dir(tmp_path, corpus_dir, capsys, kind, slot):
    """Every arm, lm_only too, draws an aspect and an opinion substitution at every step; one item leaves none to draw."""
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    doc = json.loads((bad / "lexicon.json").read_text())
    table = doc[kind]
    kept, *merged = sorted(table)
    for item in merged:  # the corpus stays valid: every surface still names an item
        if kind == "aspects":
            table[kept] += table.pop(item)
        else:  # the kept opinion's antonym is merged into it too
            table[kept]["surfaces"] += table.pop(item)["surfaces"]
            table[kept]["antonym"] = None
    (bad / "lexicon.json").write_text(json.dumps(doc))
    recs = [json.loads(line) for line in (bad / "corpus.jsonl").read_text().splitlines()]
    for rec in recs:
        rec["tuple"][slot] = kept
    (bad / "corpus.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    run = tmp_path / "run"
    argv = ["train", "--corpus", str(bad), "--out", str(run), "--max-steps", "1", "--no-ce", "--no-cd"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"lexicon has 1 {kind}; contrastive negatives need >= 2" in capsys.readouterr().err
    assert not run.exists()


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(["corpus.jsonl", "lexicon.json"]),
    kind=st.sampled_from(["truncate", "flip", "substitute"]),
    where=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    byte=st.integers(0, 255),
)
def test_a_corrupted_corpus_or_lexicon_is_data_error_or_loads_valid(corpus_dir, mutation_dir, name, kind, where, bit, byte):
    """A truncation, a bit flip or a byte substitution in either file: loading raises DataError (exit 3),
    or gives a corpus that validates; never another exception."""
    for f in ("corpus.jsonl", "lexicon.json"):
        raw = bytearray((corpus_dir / f).read_bytes())
        if f == name:
            if kind == "truncate":
                del raw[where % (len(raw) + 1):]
            elif kind == "flip":
                raw[where % len(raw)] ^= 1 << bit
            else:
                raw[where % len(raw)] = byte
        (mutation_dir / f).unlink(missing_ok=True)  # a file truncated in place is flushed on close by ext4's auto_da_alloc
        (mutation_dir / f).write_bytes(raw)
    try:
        corpus, _, _, _ = cli._load_bundle(mutation_dir)
    except DataError:
        return
    corpus.validate()


@pytest.mark.parametrize("errors, code", [([0.0, 0.0], 0), ([0.0, 1.0], 1)], ids=["pass", "fail"])
def test_gradcheck_exit_code(monkeypatch, capsys, errors, code):
    results = [G.CheckResult(f"case_{i}", err, 0.5) for i, err in enumerate(errors)]
    monkeypatch.setattr(G, "run_all", lambda: results)
    assert cli.main(["gradcheck"]) == code
    printed = capsys.readouterr().out
    assert ("FAIL case_1" in printed) == bool(code)
    assert f"{len(errors) - code}/{len(errors)} checks passed" in printed


def test_evaluate_malformed_predictions_is_data_error(tmp_path, corpus_dir, capsys):
    preds = tmp_path / "predictions.jsonl"
    preds.write_text("not json\n")
    argv = ["evaluate", "--predictions", str(preds), "--corpus", str(corpus_dir), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"{preds}:1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags and manifests

# options that name files or say how to write them, not a config field
NON_CONFIG_OPTIONS = {"--out", "--config", "--corpus", "--resume", "--force", "--help"}


def _subparsers():
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command, configs", [
    ("gen-data", [CorpusConfig]),
    ("train", [TrainConfig, ModelConfig]),
])
def test_every_setting_flag_stores_into_its_config_field(command, configs):
    fields = {f.name for c in configs for f in dataclasses.fields(c)} - {"vocab_size"}
    for action in _subparsers()[command]._actions:
        if NON_CONFIG_OPTIONS.isdisjoint(action.option_strings):
            assert action.dest in fields, action.option_strings


def test_every_option_of_every_subcommand_has_help():
    bare = [
        (command, action.option_strings)
        for command, parser in _subparsers().items()
        for action in parser._actions
        if action.option_strings and not action.help
    ]
    assert bare == []


def _typed(namespace):
    """The parsed options without ``func``, each value with its type: ``1 == 1.0`` must not hide a changed type."""
    return {k: (type(v), v) for k, v in vars(namespace).items() if k != "func"}


# every subcommand parsed twice: with only its required options, so every default shows, and with every option set
PARSED_SURFACE = [
    (["gen-data"],
     {"command": "gen-data", "out": None, "config": None, "seed": None, "n_examples": None, "n_entities": None,
      "n_aspects": None, "n_opinions": None, "n_aliases_per_item": None, "template_pool_size": None, "force": False}),
    (["gen-data", "--out", "o", "--config", "c.cfg", "--seed", "3", "--n-examples", "40", "--entities", "7",
      "--aspects", "5", "--opinions", "6", "--aliases", "2", "--template-pool", "4", "--force"],
     {"command": "gen-data", "out": "o", "config": "c.cfg", "seed": 3, "n_examples": 40, "n_entities": 7,
      "n_aspects": 5, "n_opinions": 6, "n_aliases_per_item": 2, "template_pool_size": 4, "force": True}),
    (["train", "--corpus", "c"],
     {"command": "train", "corpus": "c", "out": None, "config": None, "learning_rate": None, "gamma": None,
      "batch_size": None, "epochs": None, "seed": None, "eval_every": None, "max_steps": None, "grad_clip_norm": None,
      "d_model": None, "use_ce": None, "use_cd": None, "neg_types": None, "project_in_ce": None, "resume": None}),
    (["train", "--corpus", "c", "--out", "o", "--config", "t.cfg", "--lr", "0.01", "--gamma", "0.5", "--batch", "4",
      "--epochs", "2", "--seed", "9", "--eval-every", "3", "--max-steps", "7", "--grad-clip", "0.25", "--d-model", "16",
      "--no-ce", "--no-cd", "--neg-types", "os,es", "--project-in-ce", "--resume", "r.ckpt"],
     {"command": "train", "corpus": "c", "out": "o", "config": "t.cfg", "learning_rate": 0.01, "gamma": 0.5,
      "batch_size": 4, "epochs": 2, "seed": 9, "eval_every": 3, "max_steps": 7, "grad_clip_norm": 0.25, "d_model": 16,
      "use_ce": False, "use_cd": False, "neg_types": ("OS", "ES"), "project_in_ce": True, "resume": "r.ckpt"}),
    (["generate", "--ckpt", "m.ckpt", "--corpus", "c"],
     {"command": "generate", "ckpt": "m.ckpt", "corpus": "c", "split": "test", "beam": 5, "length_norm": 1.0,
      "limit": 0, "out": None}),
    (["generate", "--ckpt", "m.ckpt", "--corpus", "c", "--split", "valid", "--beam", "2", "--length-norm", "0.5",
      "--limit", "3", "--out", "p.jsonl"],
     {"command": "generate", "ckpt": "m.ckpt", "corpus": "c", "split": "valid", "beam": 2, "length_norm": 0.5,
      "limit": 3, "out": "p.jsonl"}),
    (["evaluate", "--corpus", "c"],
     {"command": "evaluate", "ckpt": None, "predictions": None, "corpus": "c", "split": "test", "beam": 5,
      "length_norm": 1.0, "limit": 0, "out": None}),
    (["evaluate", "--ckpt", "m.ckpt", "--predictions", "p.jsonl", "--corpus", "c", "--split", "", "--beam", "1",
      "--length-norm", "0", "--limit", "4", "--out", "r.json"],
     {"command": "evaluate", "ckpt": "m.ckpt", "predictions": "p.jsonl", "corpus": "c", "split": "", "beam": 1,
      "length_norm": 0.0, "limit": 4, "out": "r.json"}),
    (["ablate", "--corpus", "c"],
     {"command": "ablate", "corpus": "c", "out": None, "seeds": 3, "seed0": 0, "epochs": 10, "batch": 16,
      "lr": 0.0002, "gamma": 0.01, "beam": 5, "eval_every": 0, "jobs": 1, "arms": None}),
    (["ablate", "--corpus", "c", "--out", "o", "--seeds", "2", "--seed0", "5", "--epochs", "3", "--batch", "6",
      "--lr", "0.002", "--gamma", "0.1", "--beam", "3", "--eval-every", "4", "--jobs", "2", "--arms", "full,lm_only"],
     {"command": "ablate", "corpus": "c", "out": "o", "seeds": 2, "seed0": 5, "epochs": 3, "batch": 6, "lr": 0.002,
      "gamma": 0.1, "beam": 3, "eval_every": 4, "jobs": 2, "arms": "full,lm_only"}),
    (["gradcheck"], {"command": "gradcheck"}),
]


@pytest.mark.parametrize("argv, parsed", PARSED_SURFACE, ids=[
    f"{command}-{kind}" for command in ("gen-data", "train", "generate", "evaluate", "ablate")
    for kind in ("required", "every")
] + ["gradcheck"])
def test_every_subcommand_parses_to_its_pinned_options(argv, parsed):
    """Every flag's name, dest, type and default; a change here changes the command-line surface."""
    assert _typed(cli.build_parser().parse_args(argv)) == _typed(argparse.Namespace(**parsed))


def test_ablate_training_defaults_equal_train_configs():
    args = cli.build_parser().parse_args(["ablate", "--corpus", "c"])
    defaults = TrainConfig()
    assert (args.epochs, args.batch, args.lr, args.gamma) == (
        defaults.epochs, defaults.batch_size, defaults.learning_rate, defaults.gamma
    )


# manifest config_digest values; how flags and config files resolve may change, these may not
GEN_DATA_DIGESTS = {"plain": "ca0d3cb5cc79cbd5", "sized": "775616dd3a769136"}
TRAIN_DIGESTS = {"plain": "3dddcf2516e00297", "flagged": "d8657a3d04030e2d"}


def _config_digest(manifest):
    return json.loads(manifest.read_text())["config_digest"]


def test_gen_data_manifests_keep_their_pinned_config_digests(tmp_path, corpus_dir):
    argv = ["gen-data", "--n-examples", "30", "--seed", "2", "--entities", "6", "--aliases", "1", "--template-pool", "3",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert _config_digest(corpus_dir / "gen-data.manifest.json") == GEN_DATA_DIGESTS["plain"]
    assert _config_digest(tmp_path / "gen-data.manifest.json") == GEN_DATA_DIGESTS["sized"]


def test_train_manifests_keep_their_pinned_config_digests(tmp_path, corpus_dir, trained_ckpt):
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path), "--max-steps", "1", "--d-model", "16",
            "--no-ce", "--no-cd", "--project-in-ce", "--neg-types", "os,es", "--lr", "1e-3", "--gamma", "0.02",
            "--batch", "3", "--grad-clip", "0.5", "--seed", "4", "--epochs", "2"]
    assert cli.main(argv) == 0
    assert _config_digest(trained_ckpt.parent / "train.manifest.json") == TRAIN_DIGESTS["plain"]
    assert _config_digest(tmp_path / "train.manifest.json") == TRAIN_DIGESTS["flagged"]


# ---------------------------------------------------------------------------
# prediction files


@pytest.mark.parametrize(
    "bad_line",
    [
        "not json",
        '{"example_id": "one", "prediction": []}',
        '{"example_id": null, "prediction": []}',
        '{"prediction": ["a"]}',
        '{"example_id": 1}',
        "[1, 2]",
        '{"example_id": 1, "prediction": "a b"}',
        '{"example_id": 1, "prediction": [["x"]]}',
        '{"example_id": 1, "prediction": [1, null]}',
        '{"example_id": 0, "prediction": ["garbage"]}',
        '{"example_id": -7, "prediction": ["a"]}',
        '{"example_id": "1", "prediction": ["a"]}',
        '{"example_id": 1.7, "prediction": ["a"]}',
        '{"example_id": 1.0, "prediction": ["a"]}',
        '{"example_id": true, "prediction": ["a"]}',
    ],
)
def test_malformed_prediction_line_names_path_and_line(tmp_path, bad_line):
    path = tmp_path / "predictions.jsonl"
    path.write_text(json.dumps({"example_id": 0, "prediction": ["a"]}) + "\n" + bad_line + "\n")
    with pytest.raises(EvalError, match=re.escape(f"{path}:2")):
        cli._read_predictions(path, 2)


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_negative_limit_is_config_error(tmp_path, corpus_dir, trained_ckpt, capsys, command):
    out = tmp_path / "out.jsonl"
    argv = [command, "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--limit", "-2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error: --limit must be >= 0 (0 means all examples), got -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_out_naming_an_input_is_config_error_before_any_write(tmp_path, corpus_dir, trained_ckpt, capsys, command):
    ckpt = shutil.copy(trained_ckpt, tmp_path / "model.ckpt")
    before = ckpt.read_bytes()
    argv = [command, "--ckpt", str(ckpt), "--corpus", str(corpus_dir), "--limit", "1", "--out", str(ckpt)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"--out {ckpt} is one of the command's inputs" in capsys.readouterr().err
    assert ckpt.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


@pytest.mark.parametrize(
    "command, blocker_kind",
    [("gen-data", "file"), ("train", "file"), ("ablate", "file"), ("generate", "file"), ("evaluate", "file"),
     ("generate", "dir"), ("evaluate", "dir")],
)
def test_out_the_command_cannot_write_is_config_error_before_any_write(
    tmp_path, corpus_dir, trained_ckpt, capsys, command, blocker_kind,
):
    """A regular file where a command makes its --out directory, or an output file's parent; or an
    output file's --out that is a directory."""
    blocker = tmp_path / "blocker"
    writes_a_file = command in ("generate", "evaluate")
    if blocker_kind == "file":
        blocker.write_text("kept\n")
        out = blocker / "out.jsonl" if writes_a_file else blocker
    else:
        blocker.mkdir()
        out = blocker
    decode = ["--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--limit", "1"]
    inputs = {
        "gen-data": ["--n-examples", "30"],
        "train": ["--corpus", str(corpus_dir), "--max-steps", "1"],
        "ablate": ["--corpus", str(corpus_dir), "--seeds", "1", "--arms", "lm_only", "--epochs", "1"],
        "generate": decode,
        "evaluate": decode,
    }
    assert cli.main([command, *inputs[command], "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config error: --out {out} " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "kept\n" if blocker_kind == "file" else list(blocker.iterdir()) == []


def test_missing_example_id_is_eval_error(tmp_path):
    path = tmp_path / "predictions.jsonl"
    path.write_text(json.dumps({"example_id": 1, "prediction": ["a"]}) + "\n")
    with pytest.raises(EvalError, match="missing example_id 0"):
        cli._read_predictions(path, 2)


def test_predictions_read_by_example_id(tmp_path):
    path = tmp_path / "predictions.jsonl"
    lines = [{"example_id": 1, "prediction": ["b"]}, {"example_id": 0, "prediction": ["a", "c"]}]
    path.write_text("\n".join(json.dumps(r) for r in lines) + "\n\n")
    assert cli._read_predictions(path, 2) == [["a", "c"], ["b"]]


def test_prediction_ids_past_the_limit_are_read(tmp_path):
    """``--limit`` scores a prefix of the examples, so a longer file's later ids are well formed."""
    path = tmp_path / "predictions.jsonl"
    path.write_text("".join(json.dumps({"example_id": i, "prediction": [str(i)]}) + "\n" for i in (99, 0, 1)))
    assert cli._read_predictions(path, 2) == [["0"], ["1"]]


def test_lexicon_surface_with_whitespace_is_data_error(tmp_path, corpus_dir, capsys):
    bad = shutil.copytree(corpus_dir, tmp_path / "corpus")
    doc = json.loads((bad / "lexicon.json").read_text())
    entity = sorted(doc["entities"])[0]
    doc["entities"][entity][0] = "ENT 000"
    (bad / "lexicon.json").write_text(json.dumps(doc))
    preds = tmp_path / "predictions.jsonl"
    preds.write_text(json.dumps({"example_id": 0, "prediction": ["a"]}) + "\n")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--corpus", str(bad), "--predictions", str(preds), "--limit", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"surface 'ENT 000' of {entity} is not a single whitespace-free token" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# child processes


def test_run_children_fails_fast_and_reaps(monkeypatch):
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(cli.subprocess, "Popen", RecordingPopen)
    slow = [sys.executable, "-c", "import time; time.sleep(30)"]
    failing = [sys.executable, "-c", "raise SystemExit(5)"]
    t0 = time.monotonic()
    with pytest.raises(subprocess.CalledProcessError, match="exit status 5") as failed:
        cli._run_children([slow, failing], jobs=2)
    assert failed.value.returncode == 5 and failed.value.cmd == failing
    assert time.monotonic() - t0 < 15
    assert len(started) == 2
    assert all(p.returncode is not None for p in started)


def test_run_children_runs_every_command(tmp_path):
    cmds = [[sys.executable, "-c", f"open({str(tmp_path / str(i))!r}, 'w').close()"] for i in range(3)]
    cli._run_children(cmds, jobs=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2"]


def _one_seed(value):
    return {"mean": value, "sd": 0.0, "values": [value]}


def test_ablate_runs_the_pinned_child_command_lines(tmp_path, corpus_dir, monkeypatch):
    """2 arms x 2 seeds: each child's argv, in order; the evaluate children are stood in for by stub reports."""
    batches = []

    def run_children(cmds, jobs):
        batches.append((cmds, jobs))
        for cmd in cmds:
            if "evaluate" in cmd:
                report = Path(cmd[cmd.index("--out") + 1])
                report.parent.mkdir()
                report.write_text(json.dumps({"cover": 0.5, "entail": 0.25, "b4": 0.125, "es_similarity": 1.0}))

    monkeypatch.setattr(cli, "_run_children", run_children)
    out = tmp_path / "ablate"
    argv = ["ablate", "--corpus", str(corpus_dir), "--out", str(out), "--arms", "no_cd,es_only", "--seeds", "2",
            "--seed0", "7", "--epochs", "2", "--batch", "4", "--lr", "0.0005", "--beam", "3", "--eval-every", "3",
            "--jobs", "2"]
    assert cli.main(argv) == 0
    base, corpus = [sys.executable, "-m", "colo"], str(corpus_dir)
    trains, evals = [], []
    for arm, arm_flags in (("no_cd", ["--no-cd"]), ("es_only", ["--neg-types", "ES"])):
        for seed in ("7", "8"):
            run = str(out / f"{arm}-s{seed}")
            trains.append(base + ["train", "--corpus", corpus, "--out", run, "--seed", seed, "--epochs", "2",
                                  "--batch", "4", "--lr", "0.0005", "--gamma", "0.01", "--eval-every", "3"] + arm_flags)
            evals.append(base + ["evaluate", "--corpus", corpus, "--ckpt", str(out / f"{arm}-s{seed}" / "model.ckpt"),
                                 "--split", "test", "--beam", "3", "--out", str(out / f"{arm}-s{seed}" / "report.json")])
    assert batches == [(trains, 2), (evals, 2)]


def test_ablate_trains_and_evaluates_each_arm_into_the_pinned_table(tmp_path, corpus_dir, monkeypatch, capfd):
    """Two arms, one seed each, train and evaluate in child processes; ablation.json and the table pin the scores."""
    src = str(Path(cli.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "ablate"
    argv = ["ablate", "--corpus", str(corpus_dir), "--out", str(out), "--arms", "lm_only,full", "--seeds", "1",
            "--epochs", "1", "--batch", "8", "--beam", "2", "--jobs", "2"]
    assert cli.main(argv) == 0
    b4 = _one_seed(0.007209871334837495)
    assert json.loads((out / "ablation.json").read_text())["arms"] == {
        "lm_only": {"seeds": [0], "cover": _one_seed(0.0), "entail": _one_seed(0.0), "b4": b4,
                    "es_similarity": _one_seed(0.9994760354359945)},
        "full": {"seeds": [0], "cover": _one_seed(0.0), "entail": _one_seed(0.0), "b4": b4,
                 "es_similarity": _one_seed(0.9995938539505005)},
    }
    printed = capfd.readouterr().out.splitlines()
    assert printed[-3:] == [
        "arm                 Cover         Entail            B-4         ES-sim",
        "lm_only        0.00± 0.00     0.00± 0.00     0.72± 0.00    99.95± 0.00",
        "full           0.00± 0.00     0.00± 0.00     0.72± 0.00    99.96± 0.00",
    ]
