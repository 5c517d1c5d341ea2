"""The per-substream draw the batched one in ``qspr.simulate`` replaced, kept as its reference.

Each (seed, set, sensorgram) triple builds its own SeedSequence, Philox and
Generator, and draws its uniforms. The batched draw keeps these streams, so
its normals must be ``qspr.simulate._ndtri`` of these uniforms bit for bit.
"""
from __future__ import annotations

import numpy as np


def clamped_uniforms(seed: int, set_index: int, sensorgram_index: int, n: int) -> np.ndarray:
    """The first n uniforms of one (seed, set, sensorgram) substream, raised to at least 2**-53.

    The floor keeps the inverse transform off its -inf endpoint.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(set_index, sensorgram_index))
    return np.maximum(np.random.Generator(np.random.Philox(ss)).random(n), 2.0**-53)
