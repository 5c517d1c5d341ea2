"""The per-substream noise draw the batched one in ``qspr.simulate`` replaced, kept as its reference.

Each (seed, set, sensorgram) triple builds its own SeedSequence, Philox and
Generator, and draws its normals by inverse transform. The batched draw keeps
these streams, so both must agree bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri


def sensorgram_substream(seed: int, set_index: int, sensorgram_index: int) -> np.random.Generator:
    """Philox generator owned by one (seed, set, sensorgram) triple."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(set_index, sensorgram_index))
    return np.random.Generator(np.random.Philox(ss))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals by inverse transform (stable, documented algorithm)."""
    u = np.maximum(rng.random(n), 2.0**-53)  # keep ndtri off the -inf endpoint
    return ndtri(u)
