"""Exit codes follow an error's base class; any other exception propagates out of ``colo``."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import colo
from colo import cli
from colo import gradcheck as G
from colo.errors import ConfigError, DataError, NumericError

# project errors that mean the program is wrong, not a setting or an input; they exit 1 with a traceback
PROGRAMMING_ERRORS = {
    "colo.contrastive.InvalidLossError",
    "colo.model.LengthError",
    "colo.tensor.TensorError",
    "colo.tensor.ShapeError",
    "colo.tensor.RankError",
    "colo.tensor.DegenerateVectorError",
    "colo.tensor.EmptyPoolError",
    "colo.tensor.VocabularyError",
}


def _project_exceptions():
    """Every Exception subclass defined in a colo module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(colo.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"colo.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == module.__name__:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


PROJECT_EXCEPTIONS = _project_exceptions()
EXITS = [
    (ConfigError, cli.EXIT_CONFIG, "config error"),
    (DataError, cli.EXIT_DATA, "data error"),
    (NumericError, cli.EXIT_NUMERIC, "numeric abort"),
]


def _raising(error):
    def run_all():
        raise error

    return run_all


def test_every_project_error_has_an_exit_code_or_is_listed_as_a_programming_error():
    assert PROGRAMMING_ERRORS <= PROJECT_EXCEPTIONS.keys()
    for name, cls in PROJECT_EXCEPTIONS.items():
        assert issubclass(cls, tuple(base for base, _, _ in EXITS)) != (name in PROGRAMMING_ERRORS), name


@pytest.mark.parametrize("name", sorted(PROJECT_EXCEPTIONS))
def test_main_maps_each_project_error_by_its_base_class(monkeypatch, capsys, name):
    cls = PROJECT_EXCEPTIONS[name]
    monkeypatch.setattr(G, "run_all", _raising(cls("boom")))
    for base, code, label in EXITS:
        if issubclass(cls, base):
            assert cli.main(["gradcheck"]) == code
            assert f"{label}: boom" in capsys.readouterr().err
            return
    with pytest.raises(cls):
        cli.main(["gradcheck"])


@pytest.mark.parametrize("error", [
    KeyError("internal"), ValueError("internal"), TypeError("internal"), RuntimeError("internal"),
    RecursionError("internal"),
], ids=repr)
def test_an_internal_builtin_error_propagates_out_of_main(monkeypatch, error):
    monkeypatch.setattr(G, "run_all", _raising(error))
    with pytest.raises(type(error), match="internal"):
        cli.main(["gradcheck"])


def test_a_failed_child_process_exits_1_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(G, "run_all", _raising(subprocess.CalledProcessError(5, ["colo", "train"])))
    assert cli.main(["gradcheck"]) == 1
    assert "error: Command '['colo', 'train']' returned non-zero exit status 5." in capsys.readouterr().err


def test_python_m_colo_exits_1_with_a_traceback_on_an_internal_key_error():
    script = (
        "import runpy, sys\n"
        "from colo import gradcheck\n"
        "gradcheck.run_all = lambda: {}['internal']\n"
        "sys.argv = ['colo', 'gradcheck']\n"
        "runpy.run_module('colo', run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(colo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "KeyError: 'internal'" in proc.stderr
    assert "data error" not in proc.stderr


# ---------------------------------------------------------------------------
# settings and inputs the CLI reports as config or data errors


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--d-model", "16", "--max-steps", "1",
            "--eval-every", "0"]
    assert cli.main(argv) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("flag, value, message", [
    ("--max-steps", "-1", "max_steps must be >= 0, got -1"),
    ("--eval-every", "-3", "eval_every must be >= 0, got -3"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--grad-clip", "-1", "grad_clip_norm must be a finite number > 0, got -1.0"),
    ("--grad-clip", "inf", "grad_clip_norm must be a finite number > 0, got inf"),
    ("--lr", "nan", "learning_rate must be a finite number > 0, got nan"),
    ("--gamma", "nan", "gamma must be a finite number > 0, got nan"),
], ids=["max-steps", "eval-every", "seed", "grad-clip-negative", "grad-clip-inf", "lr-nan", "gamma-nan"])
def test_train_setting_out_of_range_is_config_error_before_the_run_dir(tmp_path, corpus_dir, capsys, flag, value, message):
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(corpus_dir), "--out", str(out), "--max-steps", "1", flag, value]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, config, message", [
    (["--n-examples", "-5"], "", "n_examples must be >= 1, got -5"),
    (["--n-examples", "0"], "", "n_examples must be >= 1, got 0"),
    (["--aliases", "-1"], "", "n_aliases_per_item must be >= 0, got -1"),
    (["--seed", "-1"], "", "seed must be >= 0, got -1"),
    ([], "split_ratio = [1.2, -0.1, -0.1]", "split_ratio values must each be in [0, 1], got [1.2, -0.1, -0.1]"),
    ([], "split_ratio = [0.5, 0.5]", "split_ratio must have 3 values, got [0.5, 0.5]"),
    ([], "distractor_range = [1]", "distractor_range must have 2 values, got [1]"),
    (["--template-pool", "99"], "", "template pool size must be in 1..6"),
    (["--n-examples", "5000", "--entities", "2"], "", "5000 examples requested but only"),
], ids=["examples-negative", "examples-zero", "aliases", "seed", "split-ratio-range", "split-ratio-count", "range-count",
        "template-pool", "capacity"])
def test_gen_data_setting_out_of_range_is_config_error_naming_the_key(tmp_path, capsys, extra, config, message):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "corpus"
    argv = ["gen-data", "--out", str(out), "--config", str(cfg)] + extra
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(b"seed = 1  # \xff\n")
    out = tmp_path / "corpus"
    assert cli.main(["gen-data", "--out", str(out), "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert f"config error: {cfg}: not an ASCII file" in capsys.readouterr().err
    assert not out.exists()


def test_a_repeated_config_key_is_config_error_naming_its_line(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("seed = 1\n# the seed again\nn_examples = 30\nseed=2\n")
    out = tmp_path / "corpus"
    assert cli.main(["gen-data", "--out", str(out), "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert f"config error: {cfg}:4: repeated key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_a_corpus_without_a_valid_split_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (tmp_path / "gen.cfg").write_text("split_ratio = [1.0, 0.0, 0.0]\n")
    gen = ["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(corpus), "--config", str(tmp_path / "gen.cfg")]
    assert cli.main(gen) == 0
    assert cli.main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert "config error: corpus needs non-empty train and valid splits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_beam_below_one_is_config_error(tmp_path, corpus_dir, trained_ckpt, capsys, command):
    out = tmp_path / "out.jsonl"
    argv = [command, "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--beam", "0", "--limit", "1",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error: beam_size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
def test_ablate_count_below_one_is_config_error_before_the_out_dir(tmp_path, corpus_dir, capsys, flag):
    out = tmp_path / "ablate"
    assert cli.main(["ablate", "--corpus", str(corpus_dir), "--out", str(out), flag, "0"]) == cli.EXIT_CONFIG
    assert f"config error: {flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_header_config_out_of_range_is_data_error(tmp_path, corpus_dir, trained_ckpt, rewrite_header, capsys):
    """A setting that is a config error on the command line is a data error inside a checkpoint."""
    ckpt = rewrite_header(trained_ckpt, tmp_path / "model.ckpt",
                          lambda h: {**h, "train_config": {**h["train_config"], "grad_clip_norm": -1.0}})
    argv = ["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "bad config in header: grad_clip_norm must be a finite number > 0, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_checkpoint_on_another_vocabulary_is_data_error(tmp_path, trained_ckpt, capsys, command):
    other = tmp_path / "corpus"
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "1", "--entities", "25", "--out", str(other)]) == 0
    out = tmp_path / "out.jsonl"
    argv = [command, "--ckpt", str(trained_ckpt), "--corpus", str(other), "--limit", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "data error: checkpoint vocabulary has 224 tokens, corpus 227" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_references_longer_than_max_tgt_len_is_config_error(tmp_path, corpus_dir, capsys):
    """A checkpoint trained with max_tgt_len 30 on short references, evaluated on a corpus with longer ones."""
    short = tmp_path / "short"
    (tmp_path / "gen.cfg").write_text("ref_len_bounds = [10, 30]\ndistractor_range = [0, 0]\n")
    gen = ["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(short), "--config", str(tmp_path / "gen.cfg")]
    assert cli.main(gen) == 0
    (tmp_path / "train.cfg").write_text("max_tgt_len = 30\n")
    run = tmp_path / "run"
    argv = ["train", "--corpus", str(short), "--out", str(run), "--config", str(tmp_path / "train.cfg"),
            "--d-model", "16", "--max-steps", "1", "--eval-every", "0"]
    assert cli.main(argv) == 0
    report = tmp_path / "report.json"
    argv = ["evaluate", "--ckpt", str(run / "model.ckpt"), "--corpus", str(corpus_dir), "--out", str(report)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    corpus, vocab, _, _ = cli._load_bundle(corpus_dir)
    longest = max(len(vocab.tokenize(ex.reference)) for ex in corpus.test)
    assert longest > 30
    assert f"config error: max_tgt_len is 30, but the corpus has a test reference of {longest} tokens" in capsys.readouterr().err
    assert not report.exists()
    argv = ["evaluate", "--ckpt", str(run / "model.ckpt"), "--corpus", str(corpus_dir), "--split", "", "--out", str(report)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    longest = max(len(vocab.tokenize(ex.reference)) for ex in corpus.examples)
    assert f"the corpus has a train/valid/test reference of {longest} tokens" in capsys.readouterr().err


def test_corpus_line_with_a_split_outside_train_valid_test_is_data_error_before_the_run_dir(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "corpus"
    bad.mkdir()
    (bad / "lexicon.json").write_bytes((corpus_dir / "lexicon.json").read_bytes())
    lines = (corpus_dir / "corpus.jsonl").read_text(encoding="ascii").splitlines()
    (bad / "corpus.jsonl").write_text(
        "".join(json.dumps({**json.loads(line), "split": 7}) + "\n" for line in lines), encoding="ascii"
    )
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(bad), "--out", str(out), "--max-steps", "1"]) == cli.EXIT_DATA
    assert "corpus.jsonl, line 1: split 7 is not one of ['train', 'valid', 'test']" in capsys.readouterr().err
    assert not out.exists()


def _corpus_with(tmp_path, corpus_dir, split, edit):
    """A copy of ``corpus_dir`` whose first ``split`` example goes through ``edit``; returns (dir, that example's index)."""
    bad = tmp_path / "corpus"
    bad.mkdir()
    (bad / "lexicon.json").write_bytes((corpus_dir / "lexicon.json").read_bytes())
    recs = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text(encoding="ascii").splitlines()]
    i = next(i for i, rec in enumerate(recs) if rec["split"] == split)
    recs[i] = edit(recs[i])
    (bad / "corpus.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in recs), encoding="ascii")
    return bad, i


def _unknown_entity(rec):
    return {**rec, "tuple": ["ENT_999"] + rec["tuple"][1:]}


def _unknown_attribute(rec):
    return {**rec, "profiles": [{**rec["profiles"][0], "efficacy": ["EFF_999"]}, rec["profiles"][1]]}


def _unknown_alias(rec):
    """An alias the lexicon's two per entity do not reach, which the vocabulary would read as UNK."""
    return {**rec, "reference": ["ENT_000_ALT7"] + rec["reference"]}


@pytest.mark.parametrize("split, edit, message", [
    ("train", _unknown_entity, "unknown entity id 'ENT_999'"),
    ("test", _unknown_entity, "unknown entity id 'ENT_999'"),
    ("train", _unknown_attribute, "unknown efficacy attribute 'EFF_999'"),
    ("valid", _unknown_alias, "reference token 'ENT_000_ALT7' is not in the lexicon's vocabulary"),
], ids=["train-tuple-id", "test-tuple-id", "profile-attribute", "reference-token"])
def test_corpus_the_lexicon_does_not_cover_is_data_error_before_the_run_dir(
    tmp_path, corpus_dir, capsys, split, edit, message
):
    bad, i = _corpus_with(tmp_path, corpus_dir, split, edit)
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(bad), "--out", str(out), "--max-steps", "1"]) == cli.EXIT_DATA
    assert f"data error: corpus example {i} ({split} split): {message}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_on_a_corpus_the_lexicon_does_not_cover_is_data_error_writing_nothing(
    tmp_path, corpus_dir, trained_ckpt, capsys
):
    bad, i = _corpus_with(tmp_path, corpus_dir, "test", _unknown_entity)
    out = tmp_path / "out" / "report.json"
    argv = ["evaluate", "--ckpt", str(trained_ckpt), "--corpus", str(bad), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"data error: corpus example {i} (test split): unknown entity id 'ENT_999'" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_length_norm_that_is_not_finite_is_config_error_writing_nothing(
    tmp_path, corpus_dir, trained_ckpt, capsys, value
):
    out = tmp_path / "out" / "predictions.jsonl"
    argv = ["generate", "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--length-norm", value,
            "--limit", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: length_norm must be finite, got {value}" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_empty_split_is_config_error_writing_nothing(tmp_path, corpus_dir, trained_ckpt, capsys, command):
    out = tmp_path / "out.jsonl"
    argv = [command, "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--split", "foo", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error: split 'foo' is empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_split_left_empty_reads_every_example(tmp_path, corpus_dir, trained_ckpt, command):
    out = tmp_path / "out.jsonl"
    argv = [command, "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--split", "", "--beam", "1",
            "--out", str(out)]
    assert cli.main(argv) == 0
    n = len(out.read_text().splitlines()) if command == "generate" else json.loads(out.read_text())["n_examples"]
    assert n == 30


def test_generate_failing_in_the_search_leaves_no_directory(tmp_path, corpus_dir, trained_ckpt, capsys):
    out = tmp_path / "new" / "sub" / "p.jsonl"
    argv = ["generate", "--ckpt", str(trained_ckpt), "--corpus", str(corpus_dir), "--beam", "0", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error: beam_size must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_gen_data_refusing_to_overwrite_is_data_error(corpus_dir, capsys):
    before = {p.name: p.read_bytes() for p in corpus_dir.iterdir()}
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "2", "--out", str(corpus_dir)]) == cli.EXIT_DATA
    assert f"data error: refusing to overwrite {corpus_dir / 'corpus.jsonl'} (use --force)" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in corpus_dir.iterdir()} == before


@pytest.mark.parametrize("extra, message", [
    (["--corpus", "missing"], "data error: missing: expected corpus.jsonl and lexicon.json"),
    (["--beam", "0"], "config error: --beam must be >= 1, got 0"),
    (["--lr", "-1"], "config error: learning_rate must be a finite number > 0, got -1.0"),
    (["--epochs", "0"], "config error: epochs must be >= 1, got 0"),
    (["--eval-every", "-1"], "config error: eval_every must be >= 0, got -1"),
    (["--arms", "full,bogus"], "config error: unknown ablation arm 'bogus'"),
    (["--arms", "full,full"], "config error: duplicate ablation arms in ['full', 'full']"),
], ids=["corpus", "beam", "lr", "epochs", "eval-every", "arm", "repeated-arm"])
def test_ablate_bad_setting_or_corpus_fails_before_any_child_or_the_out_dir(
    tmp_path, corpus_dir, monkeypatch, capsys, extra, message
):
    started = []
    monkeypatch.setattr(cli.subprocess, "Popen", lambda *a, **k: started.append(a))
    out = tmp_path / "ablate"
    argv = ["ablate", "--corpus", str(corpus_dir), "--out", str(out), "--arms", "lm_only,full", "--seeds", "1",
            "--epochs", "1"] + extra
    assert cli.main(argv) == (cli.EXIT_DATA if message.startswith("data error") else cli.EXIT_CONFIG)
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert started == []
