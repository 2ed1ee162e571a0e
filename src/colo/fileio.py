"""Atomic artifact writes: a reader sees the old file or the whole new one, never a part."""

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Yield a file open on a temporary sibling of ``path``; a clean exit renames it over ``path``.

    Text modes write ASCII.  If the block raises, the temporary file is
    removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "ascii") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
