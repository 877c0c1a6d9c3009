"""Per-drop channel statistics and cross-drop distribution comparison.

Spread statistics are computed on *effective* path powers: within each
component (specular/diffuse combination) the stored weights are normalized
to unit total power and then scaled by that component's condition
prefactor. This is exactly the power split the synthesized channel
realizes, and it makes the trailing-N power rescale of the concatenation
cases a provable no-op for spreads while leaving the raw power bookkeeping
visible through total_power and nn_power.

No statistic reads per-path arrays. A path pairs a tx row with an rx row,
so a departure (arrival) spread over paths equals the spread over tx (rx)
table rows weighted by their paths' summed effective power. Delay spreads
pool per-block moments; an outer block's are sums of the two hops' moments,
so the full convolution's P*M x Q*M' paths are never built. All cases of a
group of drops with one hop-table layout go through one batched pass over
(drops x cases x table rows) power matrices (group_statistics). Every
reduction runs along a per-drop axis, so a drop's rows do not depend on its
group; the zero-power rows of other cases can move the last printed digit
of a spread. A spread small enough to be rounding noise is checked against
the values it is taken over (path delays, or the angles of the table rows a
set uses): if those are all equal, the spread is exactly 0.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .concatenation import PairType, stack_column
from .errors import ConfigError

STAT_FIELDS = ("total_power", "nn_power", "ds", "asa", "asd", "zsa", "zsd")
# each hop table's (circular) azimuth and zenith column, with the STAT_FIELDS they give
_SPREAD_COLUMNS = (("rx", "arr_azimuth", "arr_zenith", 3, 5),
                   ("tx", "dep_azimuth", "dep_zenith", 4, 6))
# A delay (angle) spread below this many seconds (degrees) may be the
# rounding noise of values that are all equal, so the values are compared.
_FLAT_S, _FLAT_DEG = 1e-15, 1e-9


def _spreads(azimuth: np.ndarray, zenith: np.ndarray, p: np.ndarray) -> tuple:
    """Power-weighted RMS spreads (degrees) of each drop's azimuth and
    zenith columns (drops x rows) under each of its rows of p (drops x sets
    x rows).

    The azimuth spread is circular: minimized over origin shifts. The
    optimal cut of the circle falls in a gap between sorted angles, so a
    prefix-sum scan over the cut positions finds it; the spread at that cut
    is then recomputed in centered form so the result keeps full precision.
    """
    total = p.sum(-1)[..., None]
    zenith = zenith[:, None]
    dev = zenith - (p * zenith).sum(-1)[..., None] / total
    zenith_var = (p * dev ** 2).sum(-1)
    order = np.argsort(azimuth, axis=-1)
    drop = np.arange(len(p))[:, None]
    a = azimuth[drop, order][:, None]
    p = p[drop[:, None], np.arange(p.shape[1])[:, None], order[:, None]]
    # summed angle after angle (cumsum's last entry), not pairwise: the
    # pinned outputs' last digits depend on this order
    dev = a - (p * a).cumsum(-1)[..., -1:] / total  # about the uncut mean
    # Moving the angles left of column k up by 360 adds (720 C T + 360^2 L R)
    # / T^2 to the variance: L and R are the power left and right of the cut,
    # C the left sum of p * dev. No term is a difference of near-equal sums.
    left, c = np.zeros((2, *p.shape))
    p[..., :-1].cumsum(-1, out=left[..., 1:])
    (p * dev)[..., :-1].cumsum(-1, out=c[..., 1:])
    c *= total / 180.0
    c += left * p[..., ::-1].cumsum(-1)[..., ::-1]
    k = c.argmin(-1)
    at_k = left[drop, np.arange(p.shape[1]), k][..., None]
    dev += 360.0 * ((np.arange(a.shape[-1]) < k[..., None]) - at_k / total)
    azimuth_var = (p * dev ** 2).sum(-1)
    return (np.sqrt(np.maximum(azimuth_var / total[..., 0], 0.0)),
            np.sqrt(np.maximum(zenith_var / total[..., 0], 0.0)))


def _segments(value: np.ndarray, weight: np.ndarray, lengths: np.ndarray) -> tuple:
    """Total weight, weighted mean and centered variance (two-pass, for
    digit stability) of each run of consecutive rows, per drop (the last
    axis)."""
    starts = np.cumsum(lengths) - lengths
    total = np.add.reduceat(weight, starts, -1) if lengths.min(initial=1) > 0 else lengths * 0.0
    if not total.min(initial=1) > 0:  # also a run of no rows
        raise ConfigError("a path component has zero total power")
    mean = np.add.reduceat(weight * value, starts, -1) / total
    dev = np.repeat(mean, lengths, -1)
    np.subtract(value, dev, out=dev)
    dev *= dev
    dev *= weight
    return total, mean, np.add.reduceat(dev, starts, -1) / total


def _rows(blocks, side: str, n: int, drops: int) -> tuple:
    """Each drop's rows of one table in the blocks, concatenated, as indices
    into the flattened (drops x n) stack of a table column; and each
    block's count."""
    rows = [getattr(b, side + "_rows") for b in blocks]
    count = np.array([r.shape[-1] for r in rows], np.intp)
    out = np.empty((drops, count.sum()), np.intp)
    offset = (np.arange(drops) * n)[:, None]
    for r, end in zip(rows, np.cumsum(count).tolist()):
        np.add(r, offset, out=out[:, end - r.shape[-1]:end])
    return out, count


def _row_power(index: np.ndarray, count: np.ndarray, n: int, power: np.ndarray) -> np.ndarray:
    """(drops x units x n) power through every table row of each unit (a
    run of ``count`` rows), from each row's ``power``; ``index`` (of _rows)
    is overwritten."""
    drops, units = len(index), count.size
    index += np.repeat(np.arange(units) * n, count)
    index += (np.arange(drops) * (units - 1) * n)[:, None]
    return np.bincount(index.ravel(), power.ravel(), drops * units * n).reshape(drops, units, n)


def _read_off(paths, base) -> bool:
    """Whether a set is ``base`` but for its NN weights: the same outer
    blocks and the same NN pairs (as concatenate_group gives an N case
    built beside its base case)."""
    *outer, nn = paths.blocks
    *base_outer, base_nn = base.blocks
    return (len(outer) == len(base_outer) and all(map(operator.is_, outer, base_outer))
            and nn.tx_rows is base_nn.tx_rows and nn.rx_rows is base_nn.rx_rows)


def group_statistics(sets) -> np.ndarray:
    """A (drops x sets x STAT_FIELDS) table of PathGroups that share their
    tables, as the cases of a group do; an empty set's row is 0, 0, NaN...

    The blocks of all sets go through one pass, as units: each distinct
    outer block (LL, LN and NL recur in every case, one object across the
    cases of one concatenate_group call), then each paired block. Delay moments
    pool per run of rows: an outer block's tx rows and its rx rows, whose
    moments add, and a paired block's paths. Per side, a bincount over drop-
    and unit-offset row indices gives each unit's stored power through every
    table row, and a (drops x sets x units) matrix of effective over stored
    power turns those into the effective powers of the spreads. An N set
    read off its base set is not reduced again: the NN rescale leaves
    effective powers unchanged, so its spread columns are the base row's,
    and only its total and NN power are summed, from its own weights.
    """
    if not sets:
        raise ConfigError("a statistics pass needs one or more path sets")
    tx, rx = sets[0].tx, sets[0].rx
    if any(len(p.tx) != len(tx) or any(map(operator.is_not, p.tx + p.rx, tx + rx)) for p in sets):
        raise ConfigError("the path sets of one statistics pass must share their hop tables")
    tables, drops = {"tx": tx, "rx": rx}, len(tx)
    out = np.full((drops, len(sets), len(STAT_FIELDS)), np.nan)
    out[..., :2] = 0.0
    nonempty = [s for s, p in enumerate(sets) if len(p)]
    index = {sets[s].case: s for s in nonempty}
    copies = {}  # an N set read off its base set: that set
    for s in nonempty:
        b = index.get(sets[s].case.base, s)
        if b != s and _read_off(sets[s], sets[b]):
            copies[s] = b
    live = [s for s in nonempty if s not in copies]
    if not live:
        return out
    members = sorted(((i, b) for i, s in enumerate(live) for b in sets[s].blocks),
                     key=lambda m: m[1].weight is not None)  # outer blocks first
    owner = np.array([i for i, _ in members], np.intp)
    blocks = [b for _, b in members]
    kind = np.array([b.pair_type for b in blocks], np.intp)
    p = np.stack([sets[s].k_weights for s in live], 1)[:, owner, kind] ** 2
    weight, delay = ({side: stack_column(t, c) for side, t in tables.items()}
                     for c in ("weight", "delay"))
    n = {side: w.shape[1] for side, w in weight.items()}
    n_outer = sum(b.weight is None for b in blocks)
    shared = {id(b): b for b in blocks[:n_outer]}
    no, slot = len(shared), {key: i for i, key in enumerate(shared)}
    units = [*shared.values(), *blocks[n_outer:]]
    unit = np.array([slot[id(b)] for b in blocks[:n_outer]] + list(range(no, len(units))), np.intp)

    # an outer unit's tx rows and rx rows are a run each; a row carries its
    # own hop's power times the other hop's total
    outer = {side: _rows(units[:no], side, n[side], drops) for side in tables}
    w2 = {side: weight[side].take(outer[side][0]) ** 2 for side in tables}
    total, *hop = _segments(*(np.concatenate(c, -1) for c in zip(
        *((delay[s].take(outer[s][0]), w2[s], outer[s][1]) for s in tables))))
    other_total = {"tx": total[:, no:], "rx": total[:, :no]}
    row_power = {}
    for side, (rows, count) in outer.items():
        w = w2[side] * np.repeat(other_total[side], count, -1)
        row_power[side] = [_row_power(rows, count, n[side], w)]
    jw2 = np.concatenate([np.empty((drops, 0)), *(b.weight for b in units[no:])], -1)
    np.square(jw2, out=jw2)
    tau = np.zeros(jw2.shape)  # each paired path's joint delay
    for side in tables:
        rows, count = _rows(units[no:], side, n[side], drops)
        tau += delay[side].take(rows)
        row_power[side].append(_row_power(rows, count, n[side], jw2))
        del rows
    paired = _segments(tau, jw2, count)  # a paired block's tx and rx row counts are equal
    del tau, jw2  # the per-path arrays go before the spreads allocate
    # per unit the stored power, per block the delay mean and variance
    stored = np.concatenate([total[:, :no] * total[:, no:], paired[0]], -1)
    mean, var = (np.concatenate([m[:, :no] + m[:, no:], mp], -1)[:, unit]
                 for m, mp in zip(hop, paired[1:]))

    at_set = (owner + len(live) * np.arange(drops)[:, None]).ravel()

    def by_set(x):  # per drop, the sum of each set's terms
        return np.bincount(at_set, x.ravel(), drops * len(live)).reshape(drops, -1)

    set_p = by_set(p)
    if not set_p.min() > 0:
        raise ConfigError("spreads need positive total weight")
    centre = by_set(p * mean) / set_p
    spread = by_set(p * (mean - centre[:, owner]) ** 2) / set_p + by_set(p * var) / set_p
    res = np.empty((drops, len(live), len(STAT_FIELDS)))
    res[..., 0] = by_set(p * stored[:, unit])
    res[..., 1] = by_set(np.where(kind == int(PairType.NN), stored[:, unit], 0.0))
    res[..., 2] = np.sqrt(np.maximum(spread, 0.0))
    scale = np.zeros((drops, len(live), len(units)))
    scale[:, owner, unit] = p / stored[:, unit]
    for side, azimuth, zenith, *cols in _SPREAD_COLUMNS:
        # einsum adds each set's units in order; a BLAS product sums in a
        # CPU-dependent order, and would allocate its buffers in a study
        power = (np.einsum("dsu,dur->dsr", scale[..., :no], row_power[side][0])
                 + np.einsum("dsu,dur->dsr", scale[..., no:], row_power[side][1]))
        angles = [np.degrees(stack_column(tables[side], c)) for c in (azimuth, zenith)]
        res[..., cols] = np.stack(_spreads(*angles, power), -1)
        for d, i, j in zip(*np.nonzero(res[..., cols] < _FLAT_DEG)):  # are all used angles equal?
            rows = (getattr(b, side + "_rows") for b in sets[live[i]].blocks)
            used = angles[j][d][np.concatenate([r if r.ndim == 1 else r[d] for r in rows])]
            res[d, i, cols[j]] *= used.min() != used.max()
    for d, i in zip(*np.nonzero(res[..., 2] < _FLAT_S)):  # are all path delays equal?
        it, ir, *_ = sets[live[i]].paths(d)
        tau = tx[d].delay[it] + rx[d].delay[ir]
        res[d, i, 2] *= tau.min() != tau.max()
    out[:, live] = res
    for s, base in copies.items():
        # summed as the pass sums them: a paired block's squared weights by
        # reduceat, then a set's terms in block order
        blocks = sets[s].blocks
        nn = np.add.reduceat(np.square(blocks[-1].weight), [0], -1)
        stored_s = np.concatenate([stored[:, [slot[id(b)] for b in blocks[:-1]]], nn], -1)
        terms = sets[s].k_weights[:, [b.pair_type for b in blocks]] ** 2 * stored_s
        out[:, s] = out[:, base]
        out[:, s, 0], out[:, s, 1] = terms.cumsum(-1)[:, -1], nn[:, 0]
    return out


@dataclass
class EmpiricalCdf:
    """Sorted sample values with step probabilities i/n."""

    values: np.ndarray
    probabilities: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def empirical_cdf(values) -> EmpiricalCdf:
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ConfigError("cannot build a CDF from no samples")
    probs = np.arange(1, v.size + 1, dtype=float) / v.size
    return EmpiricalCdf(values=v, probabilities=probs)


def ks_statistic(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    if a.n == 0 or b.n == 0:
        raise ConfigError("KS statistic needs nonempty samples")
    grid = np.concatenate([a.values, b.values])
    f_a = np.searchsorted(a.values, grid, side="right") / a.n
    f_b = np.searchsorted(b.values, grid, side="right") / b.n
    return float(np.max(np.abs(f_a - f_b)))
