import json
import re
import subprocess
import sys
import time

import pytest

from colo import cli
from colo.evaluation import EvalError


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-data", "--n-examples", "30", "--seed", "1", "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# exit codes


def test_evaluate_six_byte_checkpoint_is_data_error(tmp_path, corpus_dir, capsys):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(b"COLO\x01\x00")
    assert cli.main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir)]) == cli.EXIT_DATA
    assert "truncated preamble" in capsys.readouterr().err


def test_evaluate_malformed_predictions_is_data_error(tmp_path, corpus_dir, capsys):
    preds = tmp_path / "predictions.jsonl"
    preds.write_text("not json\n")
    argv = ["evaluate", "--predictions", str(preds), "--corpus", str(corpus_dir), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"{preds}:1" in capsys.readouterr().err


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
    ],
)
def test_malformed_prediction_line_names_path_and_line(tmp_path, bad_line):
    path = tmp_path / "predictions.jsonl"
    path.write_text(json.dumps({"example_id": 0, "prediction": ["a"]}) + "\n" + bad_line + "\n")
    with pytest.raises(EvalError, match=re.escape(f"{path}:2")):
        cli._read_predictions(path, 2)


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
    with pytest.raises(RuntimeError, match="exit 5"):
        cli._run_children([slow, failing], jobs=2)
    assert time.monotonic() - t0 < 15
    assert len(started) == 2
    assert all(p.returncode is not None for p in started)


def test_run_children_runs_every_command(tmp_path):
    cmds = [[sys.executable, "-c", f"open({str(tmp_path / str(i))!r}, 'w').close()"] for i in range(3)]
    cli._run_children(cmds, jobs=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2"]
