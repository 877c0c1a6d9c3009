"""Per-drop channel statistics and cross-drop distribution comparison.

Spread statistics are computed on *effective* path powers: within each
component (specular/diffuse combination) the stored weights are normalized
to unit total power and then scaled by that component's condition
prefactor. This is exactly the power split the synthesized channel
realizes, and it makes the trailing-N power rescale of the concatenation
cases a provable no-op for spreads while leaving the raw power bookkeeping
visible through total_power and the diffuse-block power helpers.

No statistic reads per-path arrays. A path pairs a tx row with an rx row,
so a departure (arrival) spread over paths equals the spread over tx (rx)
table rows weighted by their paths' summed effective power. Delay spreads
pool per-block moments; an outer block's are sums of the two hops' moments,
so the full convolution's P*M x Q*M' paths are never built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concatenation import ConcatCase, TargetPathSet
from .errors import ConfigError

# the (hop table, column) each angle spread reads
_SPREAD_ANGLES = {"ASA": ("rx", "arr_azimuth"), "ASD": ("tx", "dep_azimuth"),
                  "ZSA": ("rx", "arr_zenith"), "ZSD": ("tx", "dep_zenith")}
SPREAD_METRICS = tuple(_SPREAD_ANGLES)


@dataclass
class DropStatistics:
    """One drop's summary: realized total power, delay spread, angle spreads."""

    total_power: float
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


def _marginals(paths: TargetPathSet) -> tuple:
    """The statistics kernel. Returns the total power, the delay spread, and
    for "tx" and "rx" the effective power through each table row and the
    mask of rows that some path goes through."""
    if len(paths) == 0:
        raise ConfigError("an empty path set has no statistics")
    tx, rx = paths.tx, paths.rx
    k = paths.k_weights[[int(b.pair_type) for b in paths.blocks]]
    stored, mean, var, lo, hi = (np.empty(k.size) for _ in range(5))
    rows = {side: (np.zeros(t.weight.size), np.zeros(t.weight.size, bool))
            for side, t in (("tx", tx), ("rx", rx))}
    for i, b in enumerate(paths.blocks):
        stored[i], ptx, prx = b.powers(tx, rx)
        if stored[i] <= 0:
            raise ConfigError("a path component has zero total power")
        for (power, used), p, r in zip(rows.values(), (ptx, prx), (b.tx_rows, b.rx_rows)):
            power += (k[i] ** 2 / stored[i]) * p
            used[r] = True
        if b.weight is None:  # every tx row's delay plus every rx row's
            (mt, vt), (mr, vr) = _moments(tx.delay, ptx), _moments(rx.delay, prx)
            dtx, drx = tx.delay[b.tx_rows], rx.delay[b.rx_rows]
            mean[i], var[i] = mt + mr, vt + vr
            lo[i], hi[i] = dtx.min() + drx.min(), dtx.max() + drx.max()
        else:
            tau = tx.delay[b.tx_rows] + rx.delay[b.rx_rows]
            mean[i], var[i] = _moments(tau, b.weight ** 2)
            lo[i], hi[i] = tau.min(), tau.max()
    ds = 0.0
    if lo.min() != hi.max():
        p = k ** 2  # each block's effective power
        if p.sum() <= 0:
            raise ConfigError("delay spread needs positive total weight")
        between = _moments(mean, p)[1]
        ds = float(np.sqrt(max(between + (p * var).sum() / p.sum(), 0.0)))
    return float(np.sum(k ** 2 * stored)), ds, rows


def total_power(paths: TargetPathSet) -> float:
    """Realized channel power: squared stored weights under the K prefactors.

    Equals 1 for the full convolution and the power-normalized cases, and
    drops below 1 when a down-selection discards diffuse power.
    """
    return _marginals(paths)[0]


def delay_spread(paths: TargetPathSet) -> float:
    """Power-weighted RMS delay spread in seconds."""
    return _marginals(paths)[1]


def _weighted_rms(values: np.ndarray, p: np.ndarray) -> float:
    """Centered power-weighted RMS deviation."""
    return float(np.sqrt(max(_moments(values, p)[1], 0.0)))


def _circular_spread_deg(angles_deg: np.ndarray, p: np.ndarray) -> float:
    """Exact power-weighted circular RMS spread, minimized over origin shifts.

    The optimal cut of the circle always falls in a gap between sorted
    angles, so the minimum over continuous shifts equals the minimum over n
    discrete cut positions. A prefix-sum scan locates the best cut in O(n);
    the spread at that cut is then recomputed in centered form so the
    returned value keeps full precision.
    """
    order = np.argsort(angles_deg)
    a = angles_deg[order]
    pw = p[order]
    total = pw.sum()
    s1 = float((pw * a).sum())
    s2 = float((pw * a ** 2).sum())
    # Cut after index k (k = 0: no shift): angles below index k move up 360.
    cw = np.concatenate([[0.0], np.cumsum(pw)[:-1]])
    cwa = np.concatenate([[0.0], np.cumsum(pw * a)[:-1]])
    sum1 = s1 + 360.0 * cw
    sum2 = s2 + 720.0 * cwa + 360.0 ** 2 * cw
    variance = sum2 / total - (sum1 / total) ** 2
    k_best = int(np.argmin(variance))
    shifted = a.copy()
    shifted[:k_best] += 360.0
    return _weighted_rms(shifted, pw)


def _angle_spread(paths: TargetPathSet, rows: dict, which: str) -> float:
    side, column = _SPREAD_ANGLES[which]
    power, used = rows[side]
    angles_deg = np.degrees(getattr(getattr(paths, side), column)[used])
    if angles_deg.max() == angles_deg.min():
        return 0.0
    p = power[used]
    if p.sum() <= 0:
        raise ConfigError("angle spread needs positive total weight")
    if which in ("ASA", "ASD"):
        return _circular_spread_deg(angles_deg, p)
    return _weighted_rms(angles_deg, p)


def angle_spread(paths: TargetPathSet, which: str) -> float:
    """Power-weighted angle spread in degrees.

    which selects the angle population: 'ASA'/'ZSA' use the arrival azimuth
    /zenith at the receiver, 'ASD'/'ZSD' the departure azimuth/zenith at
    the transmitter. Azimuth spreads are circular (minimized over origin
    shifts); zenith spreads are plain weighted RMS.
    """
    if which not in SPREAD_METRICS:
        raise ConfigError(f"unknown spread metric {which!r}; one of {SPREAD_METRICS}")
    return _angle_spread(paths, _marginals(paths)[2], which)


def drop_statistics(paths: TargetPathSet) -> DropStatistics:
    """All per-drop statistics of one concatenated path set."""
    power, ds, rows = _marginals(paths)
    return DropStatistics(
        total_power=power,
        ds=ds,
        asa=_angle_spread(paths, rows, "ASA"),
        asd=_angle_spread(paths, rows, "ASD"),
        zsa=_angle_spread(paths, rows, "ZSA"),
        zsd=_angle_spread(paths, rows, "ZSD"),
        case=paths.case,
        condition_pair=paths.condition_pair,
    )


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
