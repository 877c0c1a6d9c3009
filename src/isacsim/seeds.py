"""Reproducible random-number streams.

Every stochastic quantity in a simulation draws from its own named stream,
keyed by (master seed, drop index, hop index, tag). Streams are counter-based
(Philox), so any drop or quantity can be regenerated in isolation and results
do not depend on the order in which streams are consumed. This is what makes
drop-level parallelism bit-exact against the serial run.

A stream's Philox key is SeedSequence([seed, drop, hop, tag id])
.generate_state(2, np.uint64). For the PIPELINE_TAGS in scopes 0-4 the keys
of BLOCK_DROPS drops are derived at once by a numpy copy of SeedSequence's
pool mixing, and each process keeps the last two blocks. Other tags and
scopes, and seeds or drops of 2**64 and more, take SeedSequence itself.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import permutations, product

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Hop/scope slots. The first three are physical hops; the later ones scope
# randomness that belongs to a whole drop rather than a single hop.
HOP_TX_TARGET = 0
HOP_TARGET_RX = 1
HOP_BACKGROUND = 2
SCOPE_CONCAT = 3
SCOPE_COEFF = 4

# the tags largescale, smallscale, concatenation and coefficients draw from
PIPELINE_TAGS = ("condition", "k_factor", "shadow", "lsp", "delays", "powers",
                 "angles_azimuth", "angles_zenith", "coupling", "xpr", "phases",
                 "concat_pairing", "rcs_b2", "scatter_phases")
_TAG_INDEX = {tag: i for i, tag in enumerate(PIPELINE_TAGS)}
BLOCK_DROPS = 32  # drops whose keys are derived together
_M32 = 0xFFFFFFFF


@lru_cache(maxsize=None)
def _tag_id(tag: str) -> int:
    """Stable 64-bit id for a stream tag (first 8 bytes of its SHA-256)."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def _pool_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, np.uint64) of each row of an
    (n, >= 4) uint32 array of entropy words; uint32 arithmetic wraps as in C.
    The constants are SeedSequence's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R,
    INIT_B and MULT_B."""
    a = [0x43B0D7E5 * pow(0x931E8875, i, 1 << 32) & _M32 for i in range(4 * len(words.T) + 1)]
    consts = iter(zip(a, a[1:]))  # each hashmix advances the hash constant

    def hashmix(v):
        c, d = next(consts)
        v = (v ^ np.uint32(c)) * np.uint32(d)
        return v ^ v >> 16

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> 16

    pool = [hashmix(w) for w in words.T[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in product(words.T[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    b = [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _M32 for i in range(5)]
    out = [(v ^ np.uint32(c)) * np.uint32(d) for v, c, d in zip(pool, b, b[1:])]
    out = [(v ^ v >> 16).astype(np.uint64) for v in out]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], 1)


@lru_cache(maxsize=2)
def _key_block(master_seed: int, block: int) -> np.ndarray:
    """(BLOCK_DROPS, 5 scopes, PIPELINE_TAGS, 2) keys of drops from block * BLOCK_DROPS."""
    drops = np.arange(BLOCK_DROPS, dtype=np.uint64) + np.uint64(block * BLOCK_DROPS)
    cols = [c.ravel() for c in np.broadcast_arrays(
        np.uint64(master_seed), drops[:, None, None], np.arange(5, dtype=np.uint64)[:, None],
        np.array([_tag_id(t) for t in PIPELINE_TAGS], np.uint64))]
    # SeedSequence takes a value below 2**32 as one word, a larger one as two
    wide = sum((c > _M32).astype(np.intp) << i for i, c in enumerate(cols))
    keys = np.empty((cols[0].size, 2), np.uint64)
    for pattern in np.flatnonzero(np.bincount(wide)):
        rows = wide == pattern
        words = [w for i, c in enumerate(cols)
                 for w in (c[rows], c[rows] >> 32)[:1 + (pattern >> i & 1)]]
        keys[rows] = _pool_keys(np.stack(words, 1).astype(np.uint32))
    keys.flags.writeable = False
    return keys.reshape(BLOCK_DROPS, 5, len(PIPELINE_TAGS), 2)


class _PhiloxKey(ISeedSequence):
    """A precomputed key, given to Philox in place of its SeedSequence."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for (2, np.uint64)


class RandomStreams:
    """Factory for independent generators scoped to one (drop, hop) context.

    ``stream(tag)`` always returns a fresh generator positioned at the start
    of the tagged stream; calling it twice with the same tag replays the same
    values. Callers that need several draws from one conceptual stream should
    hold on to the returned generator.
    """

    def __init__(self, master_seed: int, drop: int = 0, hop: int = 0):
        for value in (master_seed, drop, hop):  # int() would alias 1.9 or True to 1
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"seed components must be integers, got {value!r}")
            if value < 0:
                raise ValueError("seed components must be non-negative")
        self.master_seed, self.drop, self.hop = int(master_seed), int(drop), int(hop)
        self._keys = None  # this context's bulk key of each PIPELINE_TAGS tag
        if self.hop < 5 and max(self.master_seed, self.drop) >> 64 == 0:
            block = _key_block(self.master_seed, self.drop // BLOCK_DROPS)
            self._keys = block[self.drop % BLOCK_DROPS, self.hop]

    def scoped(self, hop: int) -> "RandomStreams":
        """Same master seed and drop, different hop/scope slot."""
        return RandomStreams(self.master_seed, self.drop, hop)

    def stream(self, tag: str) -> np.random.Generator:
        i = _TAG_INDEX.get(tag)
        if i is not None and self._keys is not None:
            seq = _PhiloxKey(self._keys[i])
        else:
            seq = np.random.SeedSequence(
                [self.master_seed, self.drop, self.hop, _tag_id(tag)]
            )
        return np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"drop={self.drop}, hop={self.hop})"
        )
