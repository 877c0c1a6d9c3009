"""Acceptance gate: the behavioral guarantees of the simulator, each checked
at a fixed tolerance with one PASS/FAIL line printed per criterion."""
import math
import time

import numpy as np
import pytest

from isacsim.concatenation import (
    ConcatCase,
    PairType,
    concatenate_group,
    condition_weights,
)
from isacsim.config import validate_config
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import DirectionAngles, NodeState
from isacsim.largescale import ScenarioParams, build_hop, concatenated_path_loss, hop_spec
from isacsim.metrics import (
    DetectionParams,
    pd,
    pfa,
    snr_to_amplitude,
    threshold_for_pfa,
)
from isacsim.coefficients import doppler_frequency
from isacsim.rcs import RcsModel, fit_lognormal_db, mbet_bistatic, sample_rcs
from isacsim.runner import run
from isacsim.seeds import (
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_CONCAT,
    RandomStreams,
)
from isacsim.smallscale import generate_sublinks
from isacsim.stats import STAT_FIELDS, empirical_cdf, group_statistics, ks_statistic

N_DROPS = 500
F_HZ = 6e9
LAM = SPEED_OF_LIGHT / F_HZ

STUDY_CASES = (
    ConcatCase.CASE_0,
    ConcatCase.CASE_1, ConcatCase.CASE_1N,
    ConcatCase.CASE_2O, ConcatCase.CASE_2ON,
    ConcatCase.CASE_2R, ConcatCase.CASE_2RN,
    ConcatCase.CASE_3, ConcatCase.CASE_3N,
)
SPREAD_FIELDS = ("ds", "asa", "asd", "zsa", "zsd")


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def study():
    """Per-drop statistics of every concatenation case on shared
    realizations. Both hops are LOS, so all drops form one group; each case
    is reduced in a pass of its own, so no N row is read off its base row."""
    t0 = time.perf_counter()
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState([0.0, 0.0, 10.0])
    tgt = NodeState([25.0, 10.0, 1.5])
    rx = NodeState([60.0, -5.0, 10.0])
    streams = [RandomStreams(1, d) for d in range(N_DROPS)]
    tables = []
    for a, b, scope in ((tx, tgt, HOP_TX_TARGET), (tgt, rx, HOP_TARGET_RX)):
        hop_streams = [s.scoped(scope) for s in streams]
        spec = hop_spec(a, b, scen, "LOS")
        hops = [build_hop(spec, scen, s) for s in hop_streams]
        tables.append(generate_sublinks(hops, scen.condition_params("LOS"), hop_streams))
    groups = dict(zip(STUDY_CASES, concatenate_group(
        *tables, STUDY_CASES, [s.scoped(SCOPE_CONCAT) for s in streams])))
    stats = {case: dict(zip(STAT_FIELDS, group_statistics([group])[:, 0].T))
             for case, group in groups.items()}
    marginal_err = max(
        float(np.max(np.abs(nn_marginal_power(groups[ConcatCase.CASE_1N], d, side)
                            - nn_marginal_power(groups[ConcatCase.CASE_0], d, side))))
        for d in range(N_DROPS) for side in ("tx", "rx"))
    return {
        "nn": {case: st["nn_power"] for case, st in stats.items()},
        "stats": stats,
        "marginal_err": marginal_err,
        "elapsed": time.perf_counter() - t0,
    }


def nn_marginal_power(group, drop, side):
    """NN power through each diffuse row of one hop's table: a bincount
    over the rows of the drop's NN paths."""
    it, ir, w, pt = group.paths(drop)
    nn = pt == PairType.NN
    rows, table = (it, group.tx[drop]) if side == "tx" else (ir, group.rx[drop])
    return np.bincount(rows[nn], w[nn] ** 2, minlength=table.num_diffuse)


def spread_samples(study, case, field):
    return study["stats"][case][field]


def test_criterion_01_downselection_loses_diffuse_power(study, capsys):
    nn0 = study["nn"][ConcatCase.CASE_0]
    margins = []
    for case in (ConcatCase.CASE_1, ConcatCase.CASE_2O, ConcatCase.CASE_2R):
        margins.append(float(np.min(nn0 - study["nn"][case])))
    ok = all(m > 0 for m in margins) and study["elapsed"] < 120.0
    report(
        capsys, "criterion 1", ok,
        f"every down-selected drop keeps less diffuse power than the full "
        f"convolution over {N_DROPS} drops (min margin {min(margins):.3e}), "
        f"generated in {study['elapsed']:.1f} s < 120 s",
    )
    assert ok


def test_criterion_02_one_to_one_matches_full_convolution(study, capsys):
    ks = {
        f: ks_statistic(
            empirical_cdf(spread_samples(study, ConcatCase.CASE_1N, f)),
            empirical_cdf(spread_samples(study, ConcatCase.CASE_0, f)),
        )
        for f in SPREAD_FIELDS
    }
    ok = study["marginal_err"] < 1e-12 and all(v < 0.05 for v in ks.values())
    report(
        capsys, "criterion 2", ok,
        f"one-to-one normalized marginals match the full convolution to "
        f"{study['marginal_err']:.2e} (< 1e-12) and spread KS distances "
        f"{max(ks.values()):.3f} stay below 0.05",
    )
    assert ok


def test_criterion_03_random_pairing_beats_ordered(study, capsys):
    wins = []
    detail = []
    for f in SPREAD_FIELDS:
        base = empirical_cdf(spread_samples(study, ConcatCase.CASE_0, f))
        k_rn = ks_statistic(
            empirical_cdf(spread_samples(study, ConcatCase.CASE_2RN, f)), base
        )
        k_on = ks_statistic(
            empirical_cdf(spread_samples(study, ConcatCase.CASE_2ON, f)), base
        )
        wins.append(k_rn < k_on)
        detail.append(f"{f}:{k_rn:.3f}vs{k_on:.3f}")
    ok = sum(wins) >= 4
    report(
        capsys, "criterion 3", ok,
        f"random cluster pairing tracks the full convolution better than "
        f"delay-ordered pairing on {sum(wins)}/5 spread metrics ({' '.join(detail)})",
    )
    assert ok


def test_criterion_04_single_hop_fallback_collapses_departures(capsys):
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState([0.0, 0.0, 10.0])
    tgt = NodeState([25.0, 10.0, 1.5])
    rx = NodeState([60.0, -5.0, 10.0])
    worst = 0.0
    for d in range(10):
        streams = RandomStreams(2, d)
        h1 = build_hop(hop_spec(tx, tgt, scen, "LOS"), scen, streams.scoped(HOP_TX_TARGET))
        h2 = build_hop(hop_spec(tgt, rx, scen, "NLOS"), scen, streams.scoped(HOP_TARGET_RX))
        sub1, = generate_sublinks([h1], scen.condition_params("LOS"),
                                  [streams.scoped(HOP_TX_TARGET)])
        sub2, = generate_sublinks([h2], scen.condition_params("NLOS"),
                                  [streams.scoped(HOP_TARGET_RX)])
        group, = concatenate_group([sub1], [sub2], [ConcatCase.CASE_A])
        st = dict(zip(STAT_FIELDS, group_statistics([group])[0, 0]))
        worst = max(worst, abs(st["asd"]), abs(st["zsd"]))
    ok = worst == 0.0
    report(
        capsys, "criterion 4", ok,
        "dropping the diffuse-diffuse component under a specular transmit hop "
        f"leaves exactly zero departure spread (worst {worst!r})",
    )
    assert ok


def test_criterion_05_power_rescale_is_spread_neutral(study, capsys):
    pairs = (
        (ConcatCase.CASE_1, ConcatCase.CASE_1N),
        (ConcatCase.CASE_2O, ConcatCase.CASE_2ON),
        (ConcatCase.CASE_2R, ConcatCase.CASE_2RN),
        (ConcatCase.CASE_3, ConcatCase.CASE_3N),
    )
    worst = 0.0
    for base, normed in pairs:
        for f in SPREAD_FIELDS:
            diff = np.abs(
                spread_samples(study, base, f) - spread_samples(study, normed, f)
            )
            worst = max(worst, float(diff.max()))
    ok = worst < 1e-12
    report(
        capsys, "criterion 5", ok,
        f"power normalization moves no delay or angle spread of any drop by "
        f"more than {worst:.2e} (< 1e-12)",
    )
    assert ok


def test_criterion_06_aperture_constant(capsys):
    value = concatenated_path_loss(0.0, 0.0, F_HZ, 1.0)
    ok = abs(value - (-37.0)) <= 0.05
    report(
        capsys, "criterion 6", ok,
        f"re-radiation aperture constant at 6 GHz is {value:.4f} dB within "
        f"-37.0 +/- 0.05 dB",
    )
    assert ok


def test_criterion_07_condition_prefactor_identity(capsys):
    rng = np.random.default_rng(123)
    k = 10.0 ** rng.uniform(-3, 3, size=(10000, 2))
    worst = 0.0
    for kp, kq in k:
        w = condition_weights(kp, kq)
        worst = max(worst, abs(float(np.sum(w ** 2)) - 1.0))
    limits_ok = (
        np.array_equal(condition_weights(np.inf, np.inf), [1.0, 0.0, 0.0, 0.0])
        and np.array_equal(condition_weights(0.0, 0.0), [0.0, 0.0, 0.0, 1.0])
        and np.array_equal(condition_weights(np.inf, 0.0), [0.0, 1.0, 0.0, 0.0])
        and np.array_equal(condition_weights(0.0, np.inf), [0.0, 0.0, 1.0, 0.0])
    )
    ok = worst < 1e-12 and limits_ok
    report(
        capsys, "criterion 7", ok,
        f"specular/diffuse prefactors sum to unit power within {worst:.2e} "
        f"over 1e4 K draws and hit the exact K limits",
    )
    assert ok


def test_criterion_08_detection_statistics(capsys):
    t0 = time.perf_counter()
    # zero signal collapses onto the false-alarm curve
    zero_err = 0.0
    for target in np.logspace(-8, -0.5, 20):
        vt = threshold_for_pfa(target, 1.0)
        got = pd(DetectionParams(noise_std=1.0, threshold=vt, signal_amplitude=0.0))
        zero_err = max(zero_err, abs(got - target))
    # detection rises with signal-to-noise ratio
    vt = threshold_for_pfa(1e-4, 1.0)
    curve = [
        pd(DetectionParams(1.0, vt, snr_to_amplitude(s))) for s in range(-5, 21)
    ]
    monotone = all(b >= a for a, b in zip(curve, curve[1:])) and all(
        b > a for a, b in zip(curve, curve[1:]) if a < 1.0 - 1e-9
    )
    # closed-form false-alarm rate against a large Monte Carlo draw
    rng = np.random.default_rng(42)
    envelope = rng.rayleigh(scale=1.0, size=1_000_000)
    mc_ok = True
    mc_detail = []
    for target in (1e-2, 1e-3):
        vt = threshold_for_pfa(target, 1.0)
        emp = float(np.mean(envelope > vt))
        bound = 3.0 * math.sqrt(target * (1.0 - target) / envelope.size)
        mc_ok = mc_ok and abs(emp - target) < bound
        mc_detail.append(f"{emp:.2e}~{target:.0e}")
    elapsed = time.perf_counter() - t0
    ok = zero_err < 1e-10 and monotone and mc_ok and elapsed < 60.0
    report(
        capsys, "criterion 8", ok,
        f"zero-signal detection equals the false-alarm rate within "
        f"{zero_err:.1e}, the curve is monotone in SNR, Monte Carlo rates "
        f"match within 3 sigma ({', '.join(mc_detail)}), in {elapsed:.1f} s < 60 s",
    )
    assert ok


def test_criterion_09_monostatic_doppler(capsys):
    speed = 10.0
    toward_target = DirectionAngles(zenith=np.pi / 2, azimuth=0.0)
    toward_origin = DirectionAngles(zenith=np.pi / 2, azimuth=np.pi)
    fd = doppler_frequency(
        toward_target, toward_target, toward_origin, toward_origin,
        [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-speed, 0.0, 0.0], LAM,
    )
    err = abs(fd - 2.0 * speed / LAM)
    static = doppler_frequency(
        toward_target, toward_target, toward_origin, toward_origin,
        [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], LAM,
    )
    ok = err < 1e-9 and static == 0.0
    report(
        capsys, "criterion 9", ok,
        f"closing mono-static Doppler is 2v/lambda within {err:.1e} Hz and a "
        f"fully static scene yields exactly {static!r} Hz",
    )
    assert ok


def test_criterion_10_rcs_fit_and_bistatic_identity(capsys):
    rng = np.random.default_rng(77)
    model = RcsModel(b2_mean_db=5.0, b2_std_db=2.0)
    samples = sample_rcs(model, None, rng, size=10000)
    mean_db, std_db = fit_lognormal_db(samples)
    fit_ok = abs(mean_db - 5.0) < 0.1 and abs(std_db - 2.0) < 0.1

    seen = {}

    def mono(f, aspect):
        seen["f"], seen["aspect"] = f, aspect
        return 3.25

    value = mbet_bistatic(mono, F_HZ, 42.0, 0.0)
    identity_ok = value == 3.25 and seen["f"] == F_HZ and seen["aspect"] == 42.0
    ok = fit_ok and identity_ok
    report(
        capsys, "criterion 10", ok,
        f"dB-domain fit recovers (5, 2) as ({mean_db:.3f}, {std_db:.3f}) "
        f"within 0.1, and the zero-angle bi-static equivalence is exact",
    )
    assert ok


def test_criterion_11_parallel_runs_are_byte_identical(tmp_path, capsys):
    cfg_text = (
        "frequency_hz = 6e9\n"
        "drops = 8\n"
        "master_seed = 11\n"
        "concat_case = Case2RN\n"
        "snapshots.count = 2\n"
    )
    m1 = run(validate_config(cfg_text), out_dir=str(tmp_path / "w1"), workers=1)
    m8 = run(validate_config(cfg_text), out_dir=str(tmp_path / "w8"), workers=8)
    same = set(m1.file_checksums) == set(m8.file_checksums) and all(
        m1.file_checksums[name] == m8.file_checksums[name]
        for name in m1.file_checksums
    )
    ok = same and len(m1.file_checksums) >= 2
    report(
        capsys, "criterion 11", ok,
        f"one worker and eight workers produce byte-identical statistics "
        f"files ({len(m1.file_checksums)} files compared by checksum)",
    )
    assert ok
