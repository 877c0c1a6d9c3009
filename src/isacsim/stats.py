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
drop share its two hop tables, so statistics_table computes them in one
pass over (cases x table rows) power matrices; the zero-power rows of other
cases can move the last printed digit of a spread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concatenation import ConcatCase, HopTable, PairType, PathBlock, TargetPathSet
from .errors import ConfigError

STAT_FIELDS = ("total_power", "nn_power", "ds", "asa", "asd", "zsa", "zsd")
# the (hop table, column, circular) each angle spread reads, in STAT_FIELDS order
_SPREAD_ANGLES = (("rx", "arr_azimuth", True), ("tx", "dep_azimuth", True),
                  ("rx", "arr_zenith", False), ("tx", "dep_zenith", False))
SPREAD_METRICS = ("ASA", "ASD", "ZSA", "ZSD")


@dataclass
class DropStatistics:
    """One path set's summary: realized total and NN power, spreads."""

    total_power: float
    nn_power: float
    ds: float
    asa: float
    asd: float
    zsa: float
    zsd: float
    case: ConcatCase
    condition_pair: str


def _moments(values: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Power-weighted mean and centered variance (two-pass, for digit stability)."""
    total = p.sum()
    mean = float((p * values).sum() / total)
    return mean, float((p * (values - mean) ** 2).sum() / total)


def _block_terms(b: PathBlock, tx: HopTable, rx: HopTable) -> tuple:
    """Tx- and rx-row powers, and (stored power, delay mean, variance, min, max)."""
    stored, ptx, prx = b.powers(tx, rx)
    if stored <= 0:
        raise ConfigError("a path component has zero total power")
    if b.weight is None:  # every tx row's delay plus every rx row's
        (mt, vt), (mr, vr) = _moments(tx.delay, ptx), _moments(rx.delay, prx)
        dtx, drx = tx.delay[b.tx_rows], rx.delay[b.rx_rows]
        return ptx, prx, (stored, mt + mr, vt + vr,
                          dtx.min() + drx.min(), dtx.max() + drx.max())
    tau = tx.delay[b.tx_rows] + rx.delay[b.rx_rows]
    return ptx, prx, (stored, *_moments(tau, b.weight ** 2), tau.min(), tau.max())


def _spreads(angles_deg: np.ndarray, p: np.ndarray, used: np.ndarray,
             circular: bool) -> np.ndarray:
    """Power-weighted RMS spread of one angle column under each row of p.

    A circular spread is minimized over origin shifts. The optimal cut of
    the circle falls in a gap between sorted angles, so a prefix-sum scan
    over the n cut positions finds it; the spread at that cut is then
    recomputed in centered form so the result keeps full precision. A row
    whose used angles are all equal has spread 0.
    """
    a = angles_deg
    if circular:
        order = np.argsort(a)
        a, p, used = a[order], p[:, order], used[:, order]
    flat = np.where(used, a, np.inf).min(1) == np.where(used, a, -np.inf).max(1)
    total = p.sum(1)[:, None]
    shifted = a
    if circular:  # cut before column k: the angles left of it move up 360
        # The variance at cut k exceeds the uncut one by 720 C/T + 360^2 L R/T^2:
        # L and R are the power left and right of the cut, C the left sum of
        # p (a - uncut mean). No term is a difference of near-equal sums.
        left, dev = np.zeros_like(p), np.zeros_like(p)
        np.cumsum(p[:, :-1], 1, out=left[:, 1:])
        np.cumsum((p * (a - (p * a).sum(1)[:, None] / total))[:, :-1], 1, out=dev[:, 1:])
        right = np.cumsum(p[:, ::-1], 1)[:, ::-1]
        k = np.argmin(720.0 * dev / total + 360.0 ** 2 * left * right / total ** 2, 1)
        shifted = a + 360.0 * (np.arange(a.size) < k[:, None])
    mean = (p * shifted).sum(1)[:, None] / total
    var = (p * (shifted - mean) ** 2).sum(1) / total[:, 0]
    return np.where(flat, 0.0, np.sqrt(np.maximum(var, 0.0)))


def statistics_table(sets) -> np.ndarray:
    """One row of STAT_FIELDS per path set; an empty set's row is 0, 0, NaN...

    The sets share one tx and one rx table, as the cases of one drop do.
    Each side gets a (sets x rows) matrix of the effective power through
    each table row and a mask of the rows some path goes through.
    """
    tables = {"tx": sets[0].tx, "rx": sets[0].rx}
    tx, rx = tables.values()
    if any(p.tx is not tx or p.rx is not rx for p in sets):
        raise ConfigError("the path sets of one statistics pass must share their hop tables")
    out = np.full((len(sets), len(STAT_FIELDS)), np.nan)
    out[:, :2] = 0.0
    live = [s for s, p in enumerate(sets) if len(p)]
    power = {side: np.zeros((len(live), t.weight.size)) for side, t in tables.items()}
    used = {side: np.zeros(pw.shape, bool) for side, pw in power.items()}
    shared = {}  # outer blocks recur: LL, LN and NL read the same rows in every case

    def terms(b):
        if b.weight is not None:
            return _block_terms(b, tx, rx)
        key = (b.pair_type, b.tx_rows.tobytes(), b.rx_rows.tobytes())
        if key not in shared:
            shared[key] = _block_terms(b, tx, rx)
        return shared[key]

    for i, s in enumerate(live):
        blocks = sets[s].blocks
        k = sets[s].k_weights[[int(b.pair_type) for b in blocks]]
        t = [terms(b) for b in blocks]
        stored, mean, var, lo, hi = np.array([x[2] for x in t]).T
        p = k ** 2  # each block's effective power
        if p.sum() <= 0:
            raise ConfigError("spreads need positive total weight")
        for b, pb, st, (ptx, prx, _) in zip(blocks, p, stored, t):
            for side, pw, r in (("tx", ptx, b.tx_rows), ("rx", prx, b.rx_rows)):
                power[side][i] += (pb / st) * pw
                used[side][i, r] = True
        ds = 0.0
        if lo.min() != hi.max():
            ds = np.sqrt(max(_moments(mean, p)[1] + (p * var).sum() / p.sum(), 0.0))
        nn = sum(st for b, st in zip(blocks, stored) if b.pair_type == PairType.NN)
        out[s, :3] = np.sum(p * stored), nn, ds
    for col, (side, column, circular) in enumerate(_SPREAD_ANGLES, 3):
        angles = np.degrees(getattr(tables[side], column))
        out[live, col] = _spreads(angles, power[side], used[side], circular)
    return out


def drop_statistics(paths: TargetPathSet) -> DropStatistics:
    """All statistics of one concatenated path set."""
    if len(paths) == 0:
        raise ConfigError("an empty path set has no statistics")
    row = statistics_table([paths])[0]
    return DropStatistics(*map(float, row), case=paths.case,
                          condition_pair=paths.condition_pair)


def angle_spread(paths: TargetPathSet, which: str) -> float:
    """Power-weighted angle spread in degrees.

    which selects the angle population: 'ASA'/'ZSA' use the arrival azimuth
    /zenith at the receiver, 'ASD'/'ZSD' the departure azimuth/zenith at
    the transmitter. Azimuth spreads are circular (minimized over origin
    shifts); zenith spreads are plain weighted RMS.
    """
    if which not in SPREAD_METRICS:
        raise ConfigError(f"unknown spread metric {which!r}; one of {SPREAD_METRICS}")
    return getattr(drop_statistics(paths), which.lower())


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
