"""``python -m colo`` and the ``colo`` script: the CLI, with one BLAS thread per call unless the environment says otherwise.

A training step already runs one shard per CPU on threads of its own (see
``trainer``), and more BLAS threads than CPUs slow it down.  BLAS reads
these variables when numpy loads it, which importing ``cli`` does.
"""

import os
import sys

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
