"""Concatenation of the two sensing hops into joint target paths.

The target channel is the composition of the transmitter-to-target hop (P)
and the target-to-receiver hop (Q). Each hop contributes a specular part
(present under LOS) and a diffuse part, giving four component types named by
the (P, Q) parts they combine: LL, LN, NL, NN. The diffuse-diffuse (NN)
component is where the down-selection strategies differ:

=========  ===========================================================
Case name  NN pairing rule
=========  ===========================================================
CaseA      dropped entirely (only LOS-involving components remain)
Case0      full convolution: every ray pair, P*M x Q*M' paths
Case1      every cluster pair, rays coupled one-by-one by index
Case2O     clusters coupled one-by-one in ascending delay order
Case2R     clusters coupled one-by-one at random, rays paired at random
Case3      all rays pooled per hop, then paired one-by-one at random
=========  ===========================================================

A trailing 'N' (Case1N, Case2ON, Case2RN, Case3N) rescales the NN weights
so their power sums to one, restoring the full-convolution NN power budget.
Unequal cluster counts pair min(P, Q) clusters; unequal ray counts pair
min(M, M') rays (the pooled case pairs min-pool-size rays).

Each hop arrives as its smallscale.HopTable; a path set stores each
component as a block of (tx row, rx row) pairs of the two tables. The drops
whose tables share a layout are concatenated as a group under every case
at once (concatenate_group), each block built once for all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import ConfigError
from .smallscale import HopTable


class ConcatCase(str, Enum):
    CASE_A = "CaseA"
    CASE_0 = "Case0"
    CASE_1 = "Case1"
    CASE_2O = "Case2O"
    CASE_2R = "Case2R"
    CASE_3 = "Case3"
    CASE_1N = "Case1N"
    CASE_2ON = "Case2ON"
    CASE_2RN = "Case2RN"
    CASE_3N = "Case3N"

    @property
    def normalizes_nn(self) -> bool:
        return self.value.endswith("N")

    @property
    def base(self) -> "ConcatCase":
        """The same pairing rule without the NN power rescale."""
        return _BASE_CASE[self]


ALL_CASES = tuple(ConcatCase)
_BASE_CASE = {c: ConcatCase(c.value[:-1]) if c.normalizes_nn else c for c in ALL_CASES}


class PairType(IntEnum):
    """Component a joint path belongs to (specular/diffuse per hop)."""

    LL = 0
    LN = 1
    NL = 2
    NN = 3
    BACKGROUND = 4


def condition_weights(k_p: float, k_q: float) -> np.ndarray:
    """Amplitude prefactors (LL, LN, NL, NN) from the two hop K-factors.

    Each hop splits into sqrt(K/(K+1)) specular and sqrt(1/(K+1)) diffuse
    amplitude shares; the four products always satisfy sum(w^2) == 1.
    K = 0 (no specular part) and the K -> inf limit are exact.
    """
    if k_p < 0 or k_q < 0:
        raise ConfigError("K-factors must be >= 0")

    def split(k):
        if math.isinf(k):
            return 1.0, 0.0
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))

    sp, dp = split(k_p)
    sq, dq = split(k_q)
    return np.array([sp * sq, sp * dq, dp * sq, dp * dq])


@dataclass(frozen=True)
class PathBlock:
    """The joint paths of one component, as rows of the two hop tables.

    An outer block (weight None) joins each of the distinct tx_rows with
    each rx row, tx-major, at amplitude tx.weight[i] * rx.weight[j]; a
    paired block joins tx_rows[k] with rx_rows[k] at amplitude weight[k].
    In a PathGroup, rows are shared by its drops or have a leading drop
    axis, and paired weights have one.
    """

    pair_type: PairType
    tx_rows: np.ndarray
    rx_rows: np.ndarray
    weight: np.ndarray | None = None

    def __len__(self):
        return self.tx_rows.shape[-1] * (self.rx_rows.shape[-1] if self.weight is None else 1)

    def materialize(self, tx: HopTable, rx: HopTable, drop: int) -> tuple:
        """(tx row, rx row, amplitude) of every path of drop ``drop``, whose
        tables are tx and rx, in path order."""
        if self.weight is not None:
            rows = (r if r.ndim == 1 else r[drop] for r in (self.tx_rows, self.rx_rows))
            return (*rows, self.weight[drop])
        it = np.repeat(self.tx_rows, self.rx_rows.size)
        ir = np.tile(self.rx_rows, self.tx_rows.size)
        return it, ir, tx.weight[it] * rx.weight[ir]


@dataclass
class PathGroup:
    """One case's joint two-hop paths in a group of drops whose hop tables
    share a layout (on each side, one shape and the LOS row or not): drop
    d's paths join rows of the transmitter-to-target table tx[d] with rows
    of the target-to-receiver table rx[d] through the group's blocks, at
    condition prefactors k_weights[d]; paths(d) lays them out. An N case
    holds its base case's blocks and divides the NN amplitudes of drop d
    by nn_scale[d], the root of their summed power."""

    case: ConcatCase
    tx: tuple
    rx: tuple
    blocks: tuple
    k_weights: np.ndarray  # (drops, 4)
    nn_scale: np.ndarray | None = None  # (drops, 1), an N case's only

    def __len__(self):
        """Paths per drop."""
        return sum(len(b) for b in self.blocks)

    @property
    def condition_pair(self) -> str:
        """Hop condition labels of every drop, e.g. 'LL' when both hops are LOS."""
        return "".join("L" if t[0].has_los else "N" for t in (self.tx, self.rx))

    def paths(self, drop: int) -> tuple:
        """Drop ``drop``'s paths in block order: each one's tx row, rx row,
        amplitude (condition prefactors NOT included) and pair type."""
        if not 0 <= drop < len(self.tx):
            raise IndexError(f"drop {drop} is outside a group of {len(self.tx)} drops")
        parts = [b.materialize(self.tx[drop], self.rx[drop], drop) for b in self.blocks]
        if self.nn_scale is not None:
            *rows, w = parts[-1]
            parts[-1] = (*rows, w / self.nn_scale[drop])
        columns = (np.concatenate([np.empty(0, dtype), *(p[col] for p in parts)])
                   for col, dtype in enumerate((np.intp, np.intp, float)))
        types = np.array([b.pair_type for b in self.blocks], np.int8)
        return (*columns, np.repeat(types, [len(b) for b in self.blocks]))


def stack_column(tables, column: str, rows: np.ndarray | None = None) -> np.ndarray:
    """(drops, n) array of one column of each drop's table; if rows are
    given, at those rows (1-D, every drop's) or at each drop's row of rows."""
    values = np.array([getattr(t, column) for t in tables])
    if rows is None:
        return values
    return values.take(rows, 1) if rows.ndim == 1 else values[np.arange(len(values))[:, None], rows]


def _nn_indices(case, tx, rx, streams):
    """Index pairs (into the tx/rx hop-table rows) of a paired NN component,
    one array per side that every drop shares or, for a random pairing,
    each drop's pairs (drops x n), drawn from its own streams."""
    (p, m), (q, m2) = tx.shape, rx.shape
    mm = min(m, m2)
    pq = min(p, q)
    base = case.base
    if base in (ConcatCase.CASE_1, ConcatCase.CASE_2O):
        if base is ConcatCase.CASE_1:  # all P x Q cluster pairs
            tx_cl, rx_cl = np.repeat(np.arange(p), q), np.tile(np.arange(q), p)
        else:
            tx_cl = rx_cl = np.arange(pq)
        rays = np.arange(mm)
        return (tx_cl[:, None] * m + rays).ravel(), (rx_cl[:, None] * m2 + rays).ravel()
    if streams is None:
        raise ConfigError(f"{case.value} needs random streams for its pairing")
    rngs = [drop_streams.stream("concat_pairing") for drop_streams in streams]
    if base is ConcatCase.CASE_3:  # all rays pooled per hop
        npaths = min(p * m, q * m2)
        pairs = [(g.permutation(p * m)[:npaths], g.permutation(q * m2)[:npaths]) for g in rngs]
        return tuple(np.array(side) for side in zip(*pairs))
    draws = [(g.permutation(p)[:pq], g.permutation(q)[:pq], g.random((pq, mm))) for g in rngs]
    tx_cl, rx_cl, keys = (np.array(x) for x in zip(*draws))
    it = tx_cl[..., None] * m + np.arange(mm)
    ir = rx_cl[..., None] * m2 + np.argsort(keys, axis=-1)
    return it.reshape(len(rngs), -1), ir.reshape(len(rngs), -1)


def concatenate_group(tx, rx, cases, streams=None) -> list:
    """Build the joint path sets of a group of drops under each of
    ``cases``, one PathGroup per case, in order: drop d joins the hop
    tables tx[d] and rx[d], and every drop's tables have one layout.
    Deterministic cases work with streams=None; the randomized pairings
    (Case2R, Case3 and their normalized variants) require each drop's
    stream factory scoped to the concatenation stage.

    The cases share one object per LL, LN and NL block and the condition
    prefactors; an N case (Case1N, ...) holds the blocks tuple of its base
    case (Case1, ...), whose NN pairs are drawn once for both. The
    statistics pass finds such shared blocks by identity.
    """
    cases = [ConcatCase(case) for case in cases]
    tx, rx = tuple(tx), tuple(rx)
    if not tx or len(rx) != len(tx) or streams is not None and len(streams) != len(tx):
        raise ConfigError("a group needs one or more drops, each with one tx table, one rx "
                          "table and, if streams are given, one stream factory")
    if any(len({(t.shape, t.has_los) for t in side}) > 1 for side in (tx, rx)):
        raise ConfigError("the drops of a group must share their hop-table layout")
    t0, r0 = tx[0], rx[0]
    nt, nr = t0.num_diffuse, r0.num_diffuse
    k_w = np.array([condition_weights(*(t.hop.k_factor if t.has_los else 0.0 for t in pair))
                    for pair in zip(tx, rx)])
    # One block per component, in output order (none for CaseA with both
    # hops NLOS); a table's specular row sits right after its diffuse rows.
    outer = []
    if t0.has_los and r0.has_los:
        outer.append(PathBlock(PairType.LL, np.array([nt]), np.array([nr])))
    if t0.has_los:
        outer.append(PathBlock(PairType.LN, np.array([nt]), np.arange(nr)))
    if r0.has_los:
        outer.append(PathBlock(PairType.NL, np.arange(nt), np.array([nr])))
    bases = {}  # base case -> its blocks
    groups = []
    for case in cases:
        if case.base not in bases:
            blocks = list(outer)
            if case.base is ConcatCase.CASE_0:
                blocks.append(PathBlock(PairType.NN, np.arange(nt), np.arange(nr)))
            elif case.base is not ConcatCase.CASE_A:
                it, ir = _nn_indices(case, t0, r0, streams)
                w = stack_column(tx, "weight", it)
                w *= stack_column(rx, "weight", ir)
                blocks.append(PathBlock(PairType.NN, it, ir, w))
            bases[case.base] = tuple(blocks)
        blocks = bases[case.base]
        scale = None
        if case.normalizes_nn:
            scale = np.sqrt((blocks[-1].weight ** 2).sum(-1, keepdims=True))
            if (scale <= 0).any():
                raise ConfigError("cannot normalize an empty diffuse component")
        groups.append(PathGroup(case, tx, rx, blocks, k_w, scale))
    return groups
