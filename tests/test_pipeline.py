"""Pinned outputs of the command layer: gen-data, train, generate and evaluate on a tiny corpus.

The artifacts' bytes and each manifest's ``config_digest`` are fixed.  A
refactor of the commands or of the helpers they call (configuration,
checkpoint loading, example selection, JSON writing) leaves them equal.
"""

import json

import pytest

from colo import cli

ARTIFACT_SHA256 = {
    "model.ckpt": "ae1d22bc3f220b20e9fa035ac6a6d1867361325a7349640c69d06c36bf5c5191",
    "train_log.jsonl": "c75b81bbc90e2ac4b2bd7993757048cb1fd1aaf3c83ea59ca1534ad40745bcd8",
    "predictions.jsonl": "c13a75696a34e69ea5aa022995f79a74715db2de87c09cf39e16df8bcbd46d58",
    "report.json": "08918d103b5efddb08e2cc8494a2f4fa703d31e909522ce7ea11f39febb19c0c",
}
CONFIG_DIGESTS = {
    "gen-data.manifest.json": "8a60b50aadd90cb6",
    "train.manifest.json": "2e6df22e7672875d",
    "predictions.jsonl.manifest.json": "b97f6a7c50a82421",
    "report.json.manifest.json": "450861a0b381cdd3",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    corpus, run = out / "corpus", out / "run"
    ckpt = str(run / "model.ckpt")
    steps = [
        ["gen-data", "--n-examples", "50", "--seed", "3", "--out", str(corpus)],
        ["train", "--corpus", str(corpus), "--out", str(run), "--d-model", "16", "--batch", "4",
         "--max-steps", "4", "--eval-every", "2", "--seed", "5"],
        ["generate", "--ckpt", ckpt, "--corpus", str(corpus), "--beam", "2", "--limit", "4",
         "--out", str(run / "predictions.jsonl")],
        ["evaluate", "--ckpt", ckpt, "--corpus", str(corpus), "--beam", "2", "--limit", "4",
         "--out", str(run / "report.json")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    return corpus, run


def test_train_log_has_eval_records(pipeline):
    _, run = pipeline
    types = [json.loads(line)["type"] for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert types == ["train", "train", "eval", "train", "train", "eval"]


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_are_pinned(pipeline, name):
    _, run = pipeline
    assert cli._sha256(run / name) == ARTIFACT_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_manifest_config_digests_are_pinned(pipeline, name):
    corpus, run = pipeline
    path = corpus / name if name.startswith("gen-data") else run / name
    assert json.loads(path.read_text())["config_digest"] == CONFIG_DIGESTS[name]
