"""Pinned outputs of the command layer: gen-data, train, generate and evaluate on a tiny corpus.

The artifacts' bytes and each manifest's ``config_digest`` are fixed.  A
refactor of the commands or of the helpers they call (configuration,
checkpoint loading, example selection, JSON writing) leaves them equal.
"""

import json

import pytest

from colo import cli

ARTIFACT_SHA256 = {
    "model.ckpt": "a04cb6008d158898ee0c749a4661c995f8ca0b25547e6547944326a034cd159e",
    "train_log.jsonl": "f67b834d82447a27e906a95abc8c6b34136a87d6db05d23cbda6090ca905e79b",
    "predictions.jsonl": "3fe4686b064bb2fc8c54f73e25e0b57dfa754b097d6146964539d6b085db6a77",
    "report.json": "8619613ed7b81c1fa3cbf2e0735dae30a79d72bc56a72f00a6ea85809822877f",
}
CONFIG_DIGESTS = {
    "gen-data.manifest.json": "8a60b50aadd90cb6",
    "train.manifest.json": "2e6df22e7672875d",
    "predictions.jsonl.manifest.json": "b97f6a7c50a82421",
    "report.json.manifest.json": "e32831ece68525d1",
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
