"""Cross-section model: factorization, fitting, equivalence theorem, cells."""
import numpy as np
import pytest

from isacsim.errors import ConfigError
from isacsim.geometry import DirectionAngles
from isacsim.rcs import (
    B1Table,
    PolarizationScattering,
    RcsModel,
    ResolutionCell,
    fit_lognormal_db,
    is_point_target,
    mbet_bistatic,
    sample_rcs,
    scattering_matrix,
    small_scale_sigma,
)


# ----------------------------------------------------------- angle table

def test_b1_table_interpolates():
    t = B1Table([0.0, 90.0, 180.0], [1.0, 4.0, 2.0])
    assert t.lookup(0.0) == 1.0
    assert t.lookup(45.0) == pytest.approx(2.5)
    assert t.lookup(180.0) == 2.0
    np.testing.assert_allclose(t.lookup([90.0, 135.0]), [4.0, 3.0])


def test_b1_table_refuses_extrapolation():
    t = B1Table([-30.0, 30.0], [1.0, 1.0])
    with pytest.raises(ConfigError, match="no extrapolation"):
        t.lookup(31.0)
    with pytest.raises(ConfigError):
        t.lookup(-30.001)


def test_b1_table_validation():
    with pytest.raises(ConfigError):
        B1Table([0.0], [1.0])
    with pytest.raises(ConfigError):
        B1Table([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        B1Table([0.0, 10.0], [1.0, -0.5])


def test_b1_table_from_file(tmp_path):
    path = tmp_path / "b1.txt"
    path.write_text("# aspect gain\n0 1.0\n90 2.0\n")
    t = B1Table.from_file(path)
    assert t.lookup(45.0) == pytest.approx(1.5)

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0\n90 2.0 extra\n")
    with pytest.raises(ConfigError, match="bad.txt:2"):
        B1Table.from_file(bad)


# --------------------------------------------------------- factorization

def test_sigma_excludes_mean_level():
    model = RcsModel(mean_rcs_m2=7.5)
    rng = np.random.default_rng(0)
    assert small_scale_sigma(model, None, rng) == 1.0
    assert sample_rcs(model, None, rng) == 7.5


def test_angle_factor_applies():
    t = B1Table([0.0, 180.0], [2.0, 4.0])
    model = RcsModel(mean_rcs_m2=3.0, b1=t)
    rng = np.random.default_rng(0)
    assert small_scale_sigma(model, 0.0, rng) == 2.0
    assert sample_rcs(model, 90.0, rng) == pytest.approx(9.0)
    # aspect may come in as direction angles
    aspect = DirectionAngles(np.pi / 2, np.pi)
    assert small_scale_sigma(model, aspect, rng) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        small_scale_sigma(model, None, rng)


def test_fluctuation_statistics():
    model = RcsModel(b2_mean_db=5.0, b2_std_db=2.0)
    rng = np.random.default_rng(1)
    s = small_scale_sigma(model, None, rng, size=20000)
    db = 10 * np.log10(s)
    assert db.mean() == pytest.approx(5.0, abs=0.05)
    assert db.std() == pytest.approx(2.0, abs=0.05)


def test_degenerate_fluctuation_is_exactly_one():
    model = RcsModel()
    rng = np.random.default_rng(2)
    s = small_scale_sigma(model, None, rng, size=8)
    np.testing.assert_array_equal(s, np.ones(8))


def test_model_validation():
    with pytest.raises(ConfigError):
        RcsModel(mean_rcs_m2=0.0)
    with pytest.raises(ConfigError):
        RcsModel(b2_std_db=-1.0)


# ---------------------------------------------------------------- fitting

def test_fit_recovers_lognormal_parameters():
    rng = np.random.default_rng(3)
    truth_mean, truth_std = 5.0, 2.0
    samples = 10.0 ** ((truth_mean + truth_std * rng.standard_normal(10000)) / 10.0)
    mean_db, std_db = fit_lognormal_db(samples)
    assert mean_db == pytest.approx(truth_mean, abs=0.1)
    assert std_db == pytest.approx(truth_std, abs=0.1)


def test_fit_round_trips_model_draws():
    model = RcsModel(mean_rcs_m2=10.0, b2_mean_db=-3.0, b2_std_db=1.5)
    rng = np.random.default_rng(4)
    samples = sample_rcs(model, None, rng, size=20000)
    mean_db, std_db = fit_lognormal_db(samples)
    assert mean_db == pytest.approx(10.0 - 3.0, abs=0.1)
    assert std_db == pytest.approx(1.5, abs=0.1)


def test_fit_input_checks():
    with pytest.raises(ConfigError):
        fit_lognormal_db([1.0])
    with pytest.raises(ConfigError):
        fit_lognormal_db([1.0, -2.0])
    with pytest.raises(ConfigError):
        fit_lognormal_db([1.0, np.inf])


# ------------------------------------------------- bi-static equivalence

def test_mbet_identity_at_zero_angle():
    calls = []

    def mono(f, aspect):
        calls.append((f, aspect))
        return 2.5

    assert mbet_bistatic(mono, 6e9, 10.0, 0.0) == 2.5
    assert calls[0][0] == 6e9  # cos(0) = 1: exact mono-static frequency


def test_mbet_frequency_compression():
    def mono(f, aspect):
        return f

    beta = np.radians(28.0)
    with pytest.warns(UserWarning):
        got = mbet_bistatic(mono, 6e9, None, beta)
    assert got == pytest.approx(6e9 * np.cos(beta / 2.0), rel=1e-12)


def test_mbet_warning_and_limit():
    def mono(f, aspect):
        return 1.0

    with pytest.warns(UserWarning):
        mbet_bistatic(mono, 6e9, None, np.radians(25.0))
    with pytest.raises(ConfigError):
        mbet_bistatic(mono, 6e9, None, np.radians(30.5))
    with pytest.raises(ConfigError):
        mbet_bistatic(mono, 6e9, None, np.radians(-31.0))


# ------------------------------------------------------- resolution cell

def test_resolution_cell_volume():
    # Omega * R^2 * c * tau / 2 with easy numbers
    cell = ResolutionCell(solid_angle_sr=0.01, range_m=100.0, pulse_width_s=1e-6)
    assert cell.volume_m3() == pytest.approx(0.01 * 1e4 * 3e8 * 1e-6 / 2.0)
    with pytest.raises(ConfigError):
        ResolutionCell(0.0, 1.0, 1.0).volume_m3()


def test_point_target_boundary_inclusive():
    cell = ResolutionCell(0.01, 100.0, 1e-6)
    v = cell.volume_m3()
    assert is_point_target(v, cell)
    assert is_point_target(0.0, cell)
    assert not is_point_target(v * 1.0000001, cell)
    with pytest.raises(ConfigError):
        is_point_target(-1.0, cell)


# ----------------------------------------------------- scattering matrix

def test_identity_scattering_is_exact_and_free():
    pol = PolarizationScattering()
    s = scattering_matrix(pol, rng=None)
    np.testing.assert_array_equal(s, np.eye(2))
    batch = scattering_matrix(pol, rng=None, size=5)
    assert batch.shape == (5, 2, 2)
    np.testing.assert_array_equal(batch[3], np.eye(2))


def test_full_scattering_amplitudes_and_phases():
    pol = PolarizationScattering(mode="full", alphas=(1.0, 0.5, 0.25, 2.0))
    rng = np.random.default_rng(5)
    s = scattering_matrix(pol, rng, size=1000)
    np.testing.assert_allclose(np.abs(s[:, 0, 0]), 1.0)
    np.testing.assert_allclose(np.abs(s[:, 0, 1]), 0.5)
    np.testing.assert_allclose(np.abs(s[:, 1, 0]), 0.25)
    np.testing.assert_allclose(np.abs(s[:, 1, 1]), 2.0)
    # phases roughly uniform: complex mean near zero
    assert abs(s[:, 0, 0].mean()) < 0.1


def test_partial_mode_forces_unit_diagonal():
    pol = PolarizationScattering(mode="partial", alphas=(9.0, 0.3, 0.4, 9.0))
    assert pol.alphas == (1.0, 0.3, 0.4, 1.0)
    rng = np.random.default_rng(6)
    s = scattering_matrix(pol, rng, size=50)
    np.testing.assert_allclose(np.abs(s[:, 0, 0]), 1.0)
    np.testing.assert_allclose(np.abs(s[:, 1, 1]), 1.0)


def test_scattering_matrix_requires_rng_when_random():
    pol = PolarizationScattering(mode="full")
    with pytest.raises(ConfigError):
        scattering_matrix(pol, rng=None)
    with pytest.raises(ConfigError):
        PolarizationScattering(mode="diagonal")
    with pytest.raises(ConfigError):
        PolarizationScattering(mode="full", alphas=(1.0, -0.1, 0.0, 1.0))
