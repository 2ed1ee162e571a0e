import os

import pytest

from colo import corpus as C
from colo.fileio import atomic_write


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with atomic_write(path) as f:
        f.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_atomic_write_failing_part_way_keeps_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"old bytes")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as f:
            f.write(b"half of the new")
            raise RuntimeError("crash mid-write")
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_write_corpus_failing_part_way_keeps_old_corpus(tmp_path, tiny_bundle):
    _, examples, _ = tiny_bundle
    path = tmp_path / "corpus.jsonl"
    C.write_corpus(path, examples[:3])
    before = path.read_bytes()
    # the second record cannot be serialized, after the first has been written
    with pytest.raises(AttributeError):
        C.write_corpus(path, [examples[5], None])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["corpus.jsonl"]
