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
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .smallscale import HopTable

if TYPE_CHECKING:  # loading the config needs no random streams
    from .seeds import RandomStreams


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
        return self.value.endswith("N") and self is not ConcatCase.CASE_A

    @property
    def base(self) -> "ConcatCase":
        """The same pairing rule without the NN power rescale."""
        return _BASE_CASE[self]

    @property
    def uses_randomness(self) -> bool:
        return self.base in (ConcatCase.CASE_2R, ConcatCase.CASE_3)


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


def _gather(side: str, column: str):
    """Read-only per-path column: one hop table's column at that hop's rows."""

    def get(paths):
        return getattr(getattr(paths, side), column)[getattr(paths, side + "_idx")]

    return property(get)


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

    def at(self, drop: int) -> "PathBlock":
        """One drop's block of a PathGroup's block."""
        if self.weight is None:
            return self
        rows = (r if r.ndim == 1 else r[drop] for r in (self.tx_rows, self.rx_rows))
        return PathBlock(self.pair_type, *rows, self.weight[drop])

    def materialize(self, tx: HopTable, rx: HopTable) -> tuple:
        """(tx row, rx row, amplitude) of every path, in path order."""
        if self.weight is not None:
            return self.tx_rows, self.rx_rows, self.weight
        it = np.repeat(self.tx_rows, self.rx_rows.size)
        ir = np.tile(self.rx_rows, self.tx_rows.size)
        return it, ir, tx.weight[it] * rx.weight[ir]


@dataclass
class TargetPathSet:
    """Joint two-hop paths, one block of hop-table row pairs per component.

    Path i, in block order, joins row tx_idx[i] of the transmitter-to-target
    table `tx` with row rx_idx[i] of the target-to-receiver table `rx`, at
    stored amplitude weight[i] (condition prefactors NOT included; see
    k_weights); these are assembled on first access. The per-path columns
    are gathers from the tables, angles in radians: tx_*/rx_* the departure
    at the transmit node and the arrival at the receive node, spin_*/spout_*
    the arrival at and the departure from the target.
    """

    case: ConcatCase
    tx: HopTable
    rx: HopTable
    blocks: tuple
    k_weights: np.ndarray

    tx_zenith = _gather("tx", "dep_zenith")
    tx_azimuth = _gather("tx", "dep_azimuth")
    spin_zenith = _gather("tx", "arr_zenith")
    spin_azimuth = _gather("tx", "arr_azimuth")
    spout_zenith = _gather("rx", "dep_zenith")
    spout_azimuth = _gather("rx", "dep_azimuth")
    rx_zenith = _gather("rx", "arr_zenith")
    rx_azimuth = _gather("rx", "arr_azimuth")

    def __len__(self):
        return sum(len(b) for b in self.blocks)

    @cached_property
    def _materialized(self) -> tuple:
        parts = [b.materialize(self.tx, self.rx) for b in self.blocks]
        return tuple(np.concatenate([np.empty(0, dtype), *(p[col] for p in parts)])
                     for col, dtype in enumerate((np.intp, np.intp, float)))

    tx_idx = property(lambda self: self._materialized[0])
    rx_idx = property(lambda self: self._materialized[1])
    weight = property(lambda self: self._materialized[2])

    @cached_property
    def pair_type(self) -> np.ndarray:
        types = np.array([b.pair_type for b in self.blocks], np.int8)
        return np.repeat(types, [len(b) for b in self.blocks])

    @property
    def joint_delay(self) -> np.ndarray:
        return self.tx.delay[self.tx_idx] + self.rx.delay[self.rx_idx]

    @property
    def condition_pair(self) -> str:
        """Hop condition labels, e.g. 'LL' when both hops are LOS."""
        return "".join("L" if t.has_los else "N" for t in (self.tx, self.rx))


@dataclass
class PathGroup:
    """One case's path sets in a group of drops whose hop tables share a
    layout (on each side, one shape and the LOS row or not): drop d's set
    joins tables tx[d] and rx[d] through the group's blocks, at condition
    prefactors k_weights[d]. group[d] is that set."""

    case: ConcatCase
    tx: tuple
    rx: tuple
    blocks: tuple
    k_weights: np.ndarray  # (drops, 4)

    def __len__(self):
        """Paths per drop."""
        return sum(len(b) for b in self.blocks)

    def __getitem__(self, drop: int) -> TargetPathSet:
        return TargetPathSet(self.case, self.tx[drop], self.rx[drop],
                             tuple(b.at(drop) for b in self.blocks), self.k_weights[drop])

    @classmethod
    def of(cls, paths: TargetPathSet) -> "PathGroup":
        """``paths`` as a group of one drop."""
        blocks = tuple(b if b.weight is None else PathBlock(b.pair_type, b.tx_rows, b.rx_rows,
                                                             b.weight[None])
                       for b in paths.blocks)
        return cls(paths.case, (paths.tx,), (paths.rx,), blocks, paths.k_weights[None])


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
    prefactors; an N case (Case1N, ...) rescales the NN pairs of its base
    case (Case1, ...), drawn once for both. The statistics pass finds such
    shared blocks by identity.
    """
    cases = [ConcatCase(case) for case in cases]
    tx, rx = tuple(tx), tuple(rx)
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
    pairs = {}  # base case -> its NN pairs and their stored weights
    groups = []
    for case in cases:
        blocks = list(outer)
        if case is ConcatCase.CASE_0:
            blocks.append(PathBlock(PairType.NN, np.arange(nt), np.arange(nr)))
        elif case is not ConcatCase.CASE_A:
            if case.base not in pairs:
                it, ir = _nn_indices(case, t0, r0, streams)
                w = stack_column(tx, "weight", it)
                w *= stack_column(rx, "weight", ir)
                pairs[case.base] = it, ir, w
            it, ir, w = pairs[case.base]
            if case.normalizes_nn:
                total = (w ** 2).sum(-1, keepdims=True)
                if (total <= 0).any():
                    raise ConfigError("cannot normalize an empty diffuse component")
                w = w / np.sqrt(total)
            blocks.append(PathBlock(PairType.NN, it, ir, w))
        groups.append(PathGroup(case, tx, rx, tuple(blocks), k_w))
    return groups


def concatenate(tx: HopTable, rx: HopTable, case: ConcatCase,
                streams: RandomStreams | None = None) -> TargetPathSet:
    """The joint path set of two hop tables for one down-selection case:
    concatenate_group on a group of one drop."""
    streams = None if streams is None else (streams,)
    return concatenate_group((tx,), (rx,), (case,), streams)[0][0]
