"""Pinned outputs of the command layer: gen-data, train, generate and evaluate on a tiny corpus.

The artifacts' bytes and each manifest's ``config_digest`` are fixed.  A
refactor of the commands or of the helpers they call (configuration,
checkpoint loading, example selection, JSON writing) leaves them equal.
"""

import json

import pytest

from colo import cli

ARTIFACT_SHA256 = {
    "model.ckpt": "096249589f734e2239d1b772885e44f5713dc2adee3a63f9f426d316f4c153e4",
    "train_log.jsonl": "0bb151d55c2393a455732a438fe7ad79cdb04ae34aac3450f427a24a1ca51c8c",
    "predictions.jsonl": "ca6ecc348a79ab7e2d6bb3a68c01d9b46005e1bdc7b431c318a8cc75da3ad52e",
    "report.json": "c7d95f3960adec278fa465524362f0a7a11bf9b4b641009dd91f13247ee2a962",
}
CONFIG_DIGESTS = {
    "gen-data.manifest.json": "8a60b50aadd90cb6",
    "train.manifest.json": "2e6df22e7672875d",
    "predictions.jsonl.manifest.json": "b97f6a7c50a82421",
    "report.json.manifest.json": "b65d2ea42a35462c",
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
