"""Stateless RNG derivation so every random draw is keyed, not sequential.

Deriving a fresh generator from integer keys (seed, stream tag, step, ...)
makes corpus generation order-independent and lets training resume from a
checkpoint bitwise-exactly without serializing generator internals.  A
training step's dropout, for instance, draws from ``(seed, DROPOUT, step,
shard)``: one stream per shard of the step's batch, so the shards' draws do
not depend on which thread runs first.
"""

import numpy as np

# stream tags; distinct so (seed, tag, ...) keys never collide across uses
LEXICON = 1
PROFILES = 2
TUPLES = 3
EXAMPLE = 4
ORDER = 5
CONTRAST = 6
DROPOUT = 7
INIT = 8


def derive_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))
