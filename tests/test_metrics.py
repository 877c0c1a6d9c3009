"""Sensing metrics: closed-form bounds and envelope detection statistics."""
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from isacsim import metrics
from isacsim.errors import ConfigError, NumericError
from isacsim.metrics import (
    DetectionParams,
    WaveformParams,
    angle_metrics,
    detection_grid,
    detection_table,
    pd,
    pfa,
    range_metrics,
    snr_to_amplitude,
    speed_metrics,
    threshold_for_pfa,
)

WAVE = WaveformParams(
    pulse_width_s=1e-6,
    pri_s=1e-3,
    pulses=100,
    wavelength_m=0.05,
    element_spacing_m=0.025,
    elements=8,
)


# -------------------------------------------------------- waveform bounds

def test_range_closed_forms():
    m = range_metrics(WAVE, t_r_s=2e-6, dt_r_s=1e-8)
    assert m.range_m == pytest.approx(300.0)
    assert m.accuracy_m == pytest.approx(1.5)
    assert m.resolution_m == pytest.approx(150.0)
    assert m.max_range_m == pytest.approx(150e3)


def test_range_speed_error_term():
    # dR includes (R/c) dc: at 300 m a 1% c error is 3 m
    m = range_metrics(WAVE, t_r_s=2e-6, dc_mps=3e6)
    assert m.accuracy_m == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        range_metrics(WAVE, t_r_s=-1e-9)


def test_speed_closed_forms():
    m = speed_metrics(WAVE, fd_hz=400.0, dfd_hz=10.0)
    assert m.speed_mps == pytest.approx(10.0)
    assert m.accuracy_mps == pytest.approx(0.25)
    # lambda / (2 M T_R) with M=100 pulses at 1 ms
    assert m.resolution_mps == pytest.approx(0.25)


def test_angle_closed_forms():
    m = angle_metrics(WAVE, phase_rad=0.0, dphase_rad=0.1)
    assert m.angle_rad == 0.0
    assert m.accuracy_rad == pytest.approx(0.1 / math.pi)
    assert m.resolution_rad == pytest.approx(0.05 / (8 * 0.025))
    # half-wavelength spacing covers the whole half space
    assert m.max_angle_rad == pytest.approx(math.pi / 2.0)


def test_angle_estimate_and_sparse_array():
    # phase pi/2 at half-wavelength spacing: theta = arcsin(1/2)
    m = angle_metrics(WAVE, phase_rad=math.pi / 2.0)
    assert m.angle_rad == pytest.approx(math.asin(0.5))
    wide = WaveformParams(1e-6, 1e-3, 100, 0.05, 0.05, 8)
    assert angle_metrics(wide, 0.0).max_angle_rad == pytest.approx(math.asin(0.5))


def test_angle_failure_modes():
    with pytest.raises(NumericError, match="ambiguous"):
        angle_metrics(WAVE, phase_rad=1.5 * math.pi)
    with pytest.raises(NumericError, match="endfire"):
        angle_metrics(WAVE, phase_rad=0.0, theta_rad=math.pi / 2.0)


def test_waveform_validation():
    with pytest.raises(ConfigError):
        WaveformParams(0.0, 1e-3, 1, 0.05, 0.025, 1)
    with pytest.raises(ConfigError):
        WaveformParams(1e-6, 1e-3, 0, 0.05, 0.025, 1)
    with pytest.raises(ConfigError, match="repetition"):
        WaveformParams(1e-3, 1e-6, 1, 0.05, 0.025, 1)


# ------------------------------------------------------------- detection

def test_false_alarm_closed_form():
    p = DetectionParams(noise_std=1.0, threshold=3.0)
    assert pfa(p) == pytest.approx(math.exp(-4.5), rel=1e-12)
    # scale invariance in V_T / sigma
    p2 = DetectionParams(noise_std=2.5, threshold=7.5)
    assert pfa(p2) == pytest.approx(math.exp(-4.5), rel=1e-12)


def test_threshold_round_trip():
    rng = np.random.default_rng(0)
    for target in 10.0 ** rng.uniform(-8, 0, size=100):
        vt = threshold_for_pfa(target, 1.3)
        got = pfa(DetectionParams(noise_std=1.3, threshold=vt))
        assert got == pytest.approx(target, rel=1e-12)
    with pytest.raises(ConfigError):
        threshold_for_pfa(0.0, 1.0)
    with pytest.raises(ConfigError):
        threshold_for_pfa(0.5, 0.0)


def test_zero_signal_reduces_to_false_alarm():
    for target in np.logspace(-8, -0.5, 20):
        vt = threshold_for_pfa(target, 1.0)
        p = DetectionParams(noise_std=1.0, threshold=vt, signal_amplitude=0.0)
        assert abs(pd(p) - target) < 1e-10


def test_detection_monotone_in_snr():
    vt = threshold_for_pfa(1e-4, 1.0)
    values = [
        pd(DetectionParams(1.0, vt, snr_to_amplitude(s))) for s in range(-5, 21)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # strictly increasing until the curve saturates at 1
    assert all(b > a for a, b in zip(values[:20], values[1:20]))
    assert values[0] > 1e-4  # any signal helps
    assert values[-1] > 0.999  # 20 dB is a near-certain detection


def test_detection_against_rician_tail_marcum_series():
    # independent check: Marcum Q_1(a/s, vt/s) as the survival function of
    # scipy's noncentral chi-square, at a benign operating point
    a, vt, s = 2.0, 2.5, 1.0
    # envelope^2 / s^2 is noncentral chi-square with 2 dof, nc = a^2/s^2
    expect = ncx2.sf((vt / s) ** 2, df=2, nc=(a / s) ** 2)
    got = pd(DetectionParams(noise_std=s, threshold=vt, signal_amplitude=a))
    assert got == pytest.approx(expect, abs=1e-9)


# The grid of the `detect` benchmark workload: 6 false-alarm rates x 4001 SNRs.
DETECT_PFA = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8)
DETECT_SNR_DB = tuple(-10.0 + 0.01 * i for i in range(4001))


def marcum_q1(vt, a, s=1.0):
    """Q_1(a/s, vt/s) from scipy: envelope^2/s^2 is noncentral chi-square."""
    return ncx2.sf((np.asarray(vt) / s) ** 2, 2, (np.asarray(a) / s) ** 2)


def assert_detection_gate(got, expect):
    # 1e-14 absolute everywhere, 1e-10 relative where Pd < 1e-6
    got, expect = np.asarray(got), np.asarray(expect)
    err = np.abs(got - expect)
    assert err.max() <= 1e-14, err.max()
    small = expect < 1e-6
    assert np.all(err[small] <= 1e-10 * expect[small]), (err[small] / expect[small]).max()


def test_detection_grid_matches_marcum_q1():
    rows = detection_table(DETECT_PFA, DETECT_SNR_DB)
    got = np.array([r[2] for r in rows])
    vt = np.repeat([threshold_for_pfa(t, 1.0) for t in DETECT_PFA], len(DETECT_SNR_DB))
    a = np.tile([snr_to_amplitude(s) for s in DETECT_SNR_DB], len(DETECT_PFA))
    expect = marcum_q1(vt, a)
    assert np.count_nonzero(expect < 1e-6) > 100  # the relative gate is exercised
    assert_detection_gate(got, expect)
    assert np.all(got >= np.repeat(DETECT_PFA, len(DETECT_SNR_DB)))


# scipy's ncx2 raises OverflowError or stalls for V_T^2/sigma^2 below about
# 1e-7 at high SNR, so the sweep keeps Pfa <= 0.999 (V_T^2/sigma^2 >= 2e-3).
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.floats(-15.0, math.log10(0.999)), st.floats(-40.0, 120.0))
def test_detection_sweep_matches_marcum_q1(log10_pfa, snr_db):
    vt = threshold_for_pfa(10.0 ** log10_pfa, 1.0)
    a = snr_to_amplitude(snr_db)
    assert_detection_gate([pd(DetectionParams(1.0, vt, a))], [marcum_q1(vt, a)])


def test_detection_is_certain_at_high_snr():
    # Pd reaches 1 however narrow the Rician peak. scipy's ncx2 returns NaN
    # for the 200 dB noncentrality (2e20); Pd is nondecreasing in SNR and at
    # most 1, so the 90 dB reference, exactly 1.0, stands in for it there.
    t0 = time.perf_counter()
    for target in (1e-2, 1e-8, 1e-15):
        vt = threshold_for_pfa(target, 1.0)
        for snr_db in (40.0, 60.0, 90.0, 200.0):
            got = pd(DetectionParams(1.0, vt, snr_to_amplitude(snr_db)))
            expect = marcum_q1(vt, snr_to_amplitude(min(snr_db, 90.0)))
            assert abs(got - expect) <= 1e-14 and got >= target, (target, snr_db, got)
    assert time.perf_counter() - t0 < 0.5


def test_detection_work_does_not_grow_with_snr():
    vt = threshold_for_pfa(1e-8, 1.0)
    tracemalloc.start()
    try:
        assert pd(DetectionParams(1.0, vt, snr_to_amplitude(200.0))) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_scalar_pd_is_the_table_entry():
    rows = detection_table(DETECT_PFA, DETECT_SNR_DB)
    for i in range(0, len(rows), 41):
        snr_db, target, value = rows[i]
        p = DetectionParams(1.0, threshold_for_pfa(target, 1.0), snr_to_amplitude(snr_db))
        assert pd(p) == value, rows[i]


def lam_cut(x):
    """The mean past which the kernel sets Pd to 1.0 for threshold x."""
    root = 5.0 + math.sqrt(65.0 + x + 10.0 * math.sqrt(x) + 40.0)
    return root * root


# Each threshold gets one point in each of its three regions: lam <= x (Pd
# summed directly), x < lam <= lam_cut(x) (1 - Pd summed) and lam > lam_cut(x)
# (Pd = 1.0). Duplicated thresholds, Pfa = 1 (x = 0) and chunks of a few rows
# are drawn too, so one width group spans several chunks.
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.one_of(st.just(1.0), st.floats(1e-15, 0.999)), min_size=1, max_size=5),
       st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(1.0, 1e6)),
                min_size=1, max_size=5),
       st.sampled_from([1 << 16, 512, 64]), st.data())
def test_pd_does_not_depend_on_the_rest_of_the_grid(targets, spots, chunk, data):
    targets = targets + data.draw(st.lists(st.sampled_from(targets), max_size=2))
    lams = []
    for target, (below, between, beyond) in zip(targets, spots * len(targets)):
        x = -math.log(target)
        lams += [below * x, x + between * (lam_cut(x) - x), beyond * lam_cut(x)]
    snrs = [10.0 * math.log10(lam) for lam in lams if lam > 0.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_CHUNK_ELEMENTS", chunk)
        grid = detection_grid(targets, snrs)
        for target, row in zip(targets, grid):
            alone = detection_grid([target], snrs)[0]
            assert np.array_equal(row.view(np.int64), alone.view(np.int64)), target
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, len(targets) - 1),
                                                  st.integers(0, len(snrs) - 1)), max_size=4)):
            p = DetectionParams(1.0, threshold_for_pfa(targets[i], 1.0), snr_to_amplitude(snrs[j]))
            assert pd(p) == grid[i, j], (targets[i], snrs[j])


def test_snr_amplitude_convention():
    assert snr_to_amplitude(0.0) == pytest.approx(math.sqrt(2.0))
    assert snr_to_amplitude(10.0, noise_std=2.0) == pytest.approx(2.0 * math.sqrt(20.0))


def test_detection_table_layout():
    rows = detection_table([1e-2, 1e-3], [0.0, 10.0])
    assert len(rows) == 4
    assert rows[0][0] == 0.0 and rows[0][1] == 1e-2
    assert rows[3][0] == 10.0 and rows[3][1] == 1e-3
    # higher allowed false-alarm rate always detects at least as well
    assert rows[0][2] > rows[2][2]


def test_detection_params_validation():
    with pytest.raises(ConfigError):
        DetectionParams(noise_std=0.0, threshold=1.0)
    with pytest.raises(ConfigError):
        DetectionParams(noise_std=1.0, threshold=-1.0)
    with pytest.raises(ConfigError):
        DetectionParams(noise_std=1.0, threshold=1.0, signal_amplitude=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            DetectionParams(noise_std=bad, threshold=1.0)
        with pytest.raises(ConfigError):
            DetectionParams(noise_std=1.0, threshold=bad)
        with pytest.raises(ConfigError):
            DetectionParams(noise_std=1.0, threshold=1.0, signal_amplitude=bad)
        with pytest.raises(ConfigError):
            threshold_for_pfa(1e-3, bad)
    # a threshold whose false-alarm probability underflows to 0
    with pytest.raises(ConfigError, match="underflows"):
        DetectionParams(noise_std=1.0, threshold=40.0)
    with pytest.raises(ConfigError):
        snr_to_amplitude(4000.0)
