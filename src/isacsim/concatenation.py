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
component as a block of (tx row, rx row) pairs of the two tables.
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
        if self.normalizes_nn:
            return ConcatCase(self.value[:-1])
        return self

    @property
    def uses_randomness(self) -> bool:
        return self.base in (ConcatCase.CASE_2R, ConcatCase.CASE_3)


ALL_CASES = tuple(ConcatCase)


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
    """

    pair_type: PairType
    tx_rows: np.ndarray
    rx_rows: np.ndarray
    weight: np.ndarray | None = None

    def __len__(self):
        return self.tx_rows.size * (self.rx_rows.size if self.weight is None else 1)

    def materialize(self, tx: HopTable, rx: HopTable) -> tuple:
        """(tx row, rx row, amplitude) of every path, in path order."""
        if self.weight is not None:
            return self.tx_rows, self.rx_rows, self.weight
        it = np.repeat(self.tx_rows, self.rx_rows.size)
        ir = np.tile(self.rx_rows, self.tx_rows.size)
        return it, ir, tx.weight[it] * rx.weight[ir]

    def powers(self, tx: HopTable, rx: HopTable) -> tuple[float, np.ndarray, np.ndarray]:
        """Summed squared amplitude of the block's paths in total and at each
        row of the tx table and of the rx table; closed form if outer."""
        if self.weight is None:
            ptx, prx = np.zeros(tx.weight.size), np.zeros(rx.weight.size)
            ptx[self.tx_rows] = tx.weight[self.tx_rows] ** 2
            prx[self.rx_rows] = rx.weight[self.rx_rows] ** 2
            return float(ptx.sum() * prx.sum()), ptx * prx.sum(), prx * ptx.sum()
        w2 = self.weight ** 2
        return (float(w2.sum()),
                np.bincount(self.tx_rows, w2, minlength=tx.weight.size),
                np.bincount(self.rx_rows, w2, minlength=rx.weight.size))


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

    @property
    def nn_block(self) -> PathBlock:
        """The diffuse-diffuse block; an empty one when the case drops it."""
        empty = np.empty(0, np.intp)
        return next((b for b in self.blocks if b.pair_type == PairType.NN),
                    PathBlock(PairType.NN, empty, empty, np.empty(0)))


def _nn_indices(case, tx, rx, streams):
    """Index pairs (into the tx/rx hop-table rows) of a paired NN component."""
    (p, m), (q, m2) = tx.shape, rx.shape
    mm = min(m, m2)
    pq = min(p, q)
    base = case.base
    if base is ConcatCase.CASE_1:
        pp = np.repeat(np.arange(p), q)  # all P x Q cluster pairs
        qq = np.tile(np.arange(q), p)
        rays = np.arange(mm)
        it = (pp[:, None] * m + rays[None, :]).ravel()
        ir = (qq[:, None] * m2 + rays[None, :]).ravel()
        return it, ir
    if base is ConcatCase.CASE_2O:
        cl = np.arange(pq)
        rays = np.arange(mm)
        it = (cl[:, None] * m + rays[None, :]).ravel()
        ir = (cl[:, None] * m2 + rays[None, :]).ravel()
        return it, ir
    if base is ConcatCase.CASE_2R:
        rng = streams.stream("concat_pairing")
        tx_cl = rng.permutation(p)[:pq]
        rx_cl = rng.permutation(q)[:pq]
        ray_perm = np.argsort(rng.random((pq, mm)), axis=1)
        it = (tx_cl[:, None] * m + np.arange(mm)[None, :]).ravel()
        ir = (rx_cl[:, None] * m2 + ray_perm).ravel()
        return it, ir
    if base is ConcatCase.CASE_3:
        rng = streams.stream("concat_pairing")
        npaths = min(p * m, q * m2)
        it = rng.permutation(p * m)[:npaths]
        ir = rng.permutation(q * m2)[:npaths]
        return it, ir
    raise ConfigError(f"no NN pairing rule for {case}")


def concatenate(
    tx: HopTable,
    rx: HopTable,
    case: ConcatCase,
    streams: RandomStreams | None = None,
    base: TargetPathSet | None = None,
) -> TargetPathSet:
    """Build the joint path set of the two hop tables for one down-selection
    case. Deterministic cases work with streams=None; the randomized
    pairings (Case2R, Case3 and their normalized variants) require a stream
    factory scoped to the concatenation stage.

    ``base``, a path set of the same two tables, lends the new set its LL,
    LN and NL blocks; when it is the set of case.base (Case1 for Case1N,
    ...), also its NN pairs, whose weights the N case then rescales. The
    statistics pass finds such shared blocks by identity.
    """
    case = ConcatCase(case)
    if case.uses_randomness and streams is None:
        raise ConfigError(f"{case.value} needs random streams for its pairing")
    if base is not None and (base.tx is not tx or base.rx is not rx):
        raise ConfigError("a base path set must join the same two hop tables")

    # One block per component, in output order (none for CaseA with both
    # hops NLOS); a table's specular row sits right after its diffuse rows.
    nt, nr = tx.num_diffuse, rx.num_diffuse
    if base is not None:
        k_w, blocks = base.k_weights, [b for b in base.blocks if b.pair_type != PairType.NN]
    else:
        k_w = condition_weights(*(t.hop.k_factor if t.has_los else 0.0 for t in (tx, rx)))
        blocks = []
        if tx.has_los and rx.has_los:
            blocks.append(PathBlock(PairType.LL, np.array([nt]), np.array([nr])))
        if tx.has_los:
            blocks.append(PathBlock(PairType.LN, np.array([nt]), np.arange(nr)))
        if rx.has_los:
            blocks.append(PathBlock(PairType.NL, np.arange(nt), np.array([nr])))
    if case is ConcatCase.CASE_0:
        blocks.append(PathBlock(PairType.NN, np.arange(nt), np.arange(nr)))
    elif case is not ConcatCase.CASE_A:
        if case.normalizes_nn and base is not None and base.case is case.base:
            nn = base.nn_block
            it, ir, w = nn.tx_rows, nn.rx_rows, nn.weight
        else:
            it, ir = _nn_indices(case, tx, rx, streams)
            w = tx.weight[it] * rx.weight[ir]
        if case.normalizes_nn:
            total = float(np.sum(w ** 2))
            if total <= 0:
                raise ConfigError("cannot normalize an empty diffuse component")
            w = w / math.sqrt(total)
        blocks.append(PathBlock(PairType.NN, it, ir, w))
    return TargetPathSet(case=case, tx=tx, rx=rx, blocks=tuple(blocks), k_weights=k_w)


def nn_total_power(paths: TargetPathSet) -> float:
    """Sum of squared stored weights over the diffuse-diffuse component."""
    return paths.nn_block.powers(paths.tx, paths.rx)[0]


def ray_marginal_power(paths: TargetPathSet, side: str = "tx") -> np.ndarray:
    """Per-(cluster, ray) power of the NN component marginalized to one hop.

    Returns an (N, M) array of summed squared weights. The full convolution
    and its power-normalized one-by-one variant produce identical marginals.
    """
    if side not in ("tx", "rx"):
        raise ConfigError(f"side must be 'tx' or 'rx', got {side!r}")
    table = getattr(paths, side)
    acc = paths.nn_block.powers(paths.tx, paths.rx)[1 if side == "tx" else 2]
    return acc[: table.num_diffuse].reshape(table.shape)
