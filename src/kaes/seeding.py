"""Deterministic random streams derived from one root seed.

Every random decision in the package flows through :func:`derive_rng`.  A
root seed plus a path of small integer tags is mixed by numpy's
``SeedSequence``, which is the fixed, documented mixing function promised in
the reproducibility contract: the same (seed, tags) always yields the same
stream, and distinct tag paths yield independent streams.
"""
from __future__ import annotations

import numpy as np

# Tag namespace for derived streams.  Kept in one place so no two call sites
# can collide on the same path.
FOLD_PLAN = 1
TRANSFER_PARTITION = 2
TRANSFER_SUBSAMPLE = 3
CODEBOOK = 4
KMEANS = 5


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Return a PCG64 generator for the stream identified by (seed, *tags)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))
