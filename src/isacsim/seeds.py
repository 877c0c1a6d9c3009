"""Reproducible random-number streams.

Every stochastic quantity in a simulation draws from its own named stream,
keyed by (master seed, drop index, hop index, tag). Streams are counter-based
(Philox), so any drop or quantity can be regenerated in isolation and results
do not depend on the order in which streams are consumed. This is what makes
drop-level parallelism bit-exact against the serial run.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Hop/scope slots. The first three are physical hops; the later ones scope
# randomness that belongs to a whole drop rather than a single hop.
HOP_TX_TARGET = 0
HOP_TARGET_RX = 1
HOP_BACKGROUND = 2
SCOPE_CONCAT = 3
SCOPE_COEFF = 4

_tag_cache: dict[str, int] = {}


def _tag_id(tag: str) -> int:
    """Stable 64-bit id for a stream tag (first 8 bytes of its SHA-256)."""
    cached = _tag_cache.get(tag)
    if cached is None:
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        cached = int.from_bytes(digest[:8], "big")
        _tag_cache[tag] = cached
    return cached


class RandomStreams:
    """Factory for independent generators scoped to one (drop, hop) context.

    ``stream(tag)`` always returns a fresh generator positioned at the start
    of the tagged stream; calling it twice with the same tag replays the same
    values. Callers that need several draws from one conceptual stream should
    hold on to the returned generator.
    """

    def __init__(self, master_seed: int, drop: int = 0, hop: int = 0):
        if master_seed < 0 or drop < 0 or hop < 0:
            raise ValueError("seed components must be non-negative")
        self.master_seed = int(master_seed)
        self.drop = int(drop)
        self.hop = int(hop)

    def scoped(self, hop: int) -> "RandomStreams":
        """Same master seed and drop, different hop/scope slot."""
        return RandomStreams(self.master_seed, self.drop, hop)

    def stream(self, tag: str) -> np.random.Generator:
        seq = np.random.SeedSequence(
            [self.master_seed, self.drop, self.hop, _tag_id(tag)]
        )
        return np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"drop={self.drop}, hop={self.hop})"
        )
