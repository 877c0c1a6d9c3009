"""Direction math and antenna array responses."""
import numpy as np
import pytest

from isacsim.geometry import (
    ISOTROPIC,
    SECTORIZED_38901,
    DirectionAngles,
    NodeState,
    angles_between,
    field_components,
    spherical_unit_vector,
    uniform_linear_array,
    vec3,
)


def test_spherical_unit_vector_axes():
    np.testing.assert_allclose(
        spherical_unit_vector(DirectionAngles(np.pi / 2, 0.0)), [1, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        spherical_unit_vector(DirectionAngles(np.pi / 2, np.pi / 2)),
        [0, 1, 0], atol=1e-15,
    )
    np.testing.assert_allclose(
        spherical_unit_vector(DirectionAngles(0.0, 0.3)), [0, 0, 1], atol=1e-15
    )


def test_spherical_unit_vector_is_unit_norm_vectorized():
    rng = np.random.default_rng(1)
    zen = rng.uniform(0, np.pi, 200)
    azi = rng.uniform(-np.pi, np.pi, 200)
    u = spherical_unit_vector(DirectionAngles(zen, azi))
    assert u.shape == (200, 3)
    np.testing.assert_allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-13)


def test_angles_between_known_geometry():
    a = angles_between(np.zeros(3), np.array([1.0, 1.0, 0.0]))
    assert a.azimuth == pytest.approx(np.pi / 4)
    assert a.zenith == pytest.approx(np.pi / 2)
    up = angles_between(np.zeros(3), np.array([0.0, 0.0, 5.0]))
    assert up.zenith == pytest.approx(0.0)


def test_angles_between_round_trips_through_unit_vector():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.uniform(-10, 10, 3)
        q = rng.uniform(-10, 10, 3)
        if np.allclose(p, q):
            continue
        ang = angles_between(p, q)
        u = spherical_unit_vector(ang)
        expect = (q - p) / np.linalg.norm(q - p)
        np.testing.assert_allclose(u, expect, atol=1e-12)


def test_angles_between_rejects_coincident_points():
    with pytest.raises(ValueError):
        angles_between(np.ones(3), np.ones(3))


def test_vec3_accepts_sequence_and_components():
    np.testing.assert_array_equal(vec3([1, 2, 3]), vec3(1, 2, 3))
    with pytest.raises(ValueError):
        vec3([1, 2])


def test_uniform_linear_array_centered():
    offsets = uniform_linear_array(4, 0.5)
    assert offsets.shape == (4, 3)
    np.testing.assert_allclose(offsets.sum(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(offsets[:, 1], [-0.75, -0.25, 0.25, 0.75])
    assert np.all(offsets[:, [0, 2]] == 0.0)


def test_node_state_requires_elements():
    with pytest.raises(ValueError):
        NodeState(position_m=[0, 0, 0], element_offsets_m=np.zeros((0, 3)))


def test_isotropic_element_unit_response():
    node = NodeState(position_m=[0, 0, 0])
    ft, fp = field_components(node, DirectionAngles(np.pi / 3, 1.0))
    assert ft == pytest.approx(1.0)
    assert fp == pytest.approx(0.0)


def test_slant_splits_power_between_components():
    node = NodeState(position_m=[0, 0, 0], slant_deg=45.0)
    ft, fp = field_components(node, DirectionAngles(np.pi / 2, 0.0))
    assert abs(ft) ** 2 + abs(fp) ** 2 == pytest.approx(1.0)
    assert abs(ft) == pytest.approx(abs(fp))


def test_sectorized_pattern_boresight_and_rolloff():
    node = NodeState(position_m=[0, 0, 0], pattern=SECTORIZED_38901)
    ft, _ = field_components(node, DirectionAngles(np.pi / 2, 0.0))
    # 8 dBi peak at boresight
    assert abs(ft) ** 2 == pytest.approx(10.0 ** 0.8)
    # 65 deg half-power beamwidth: 3 dB down at +-32.5 deg in azimuth
    ft_hp, _ = field_components(node, DirectionAngles(np.pi / 2, np.radians(32.5)))
    assert 10 * np.log10(abs(ft) ** 2 / abs(ft_hp) ** 2) == pytest.approx(3.0)
    # floor is 30 dB below peak
    ft_back, _ = field_components(node, DirectionAngles(np.pi / 2, np.pi))
    assert 10 * np.log10(abs(ft) ** 2 / abs(ft_back) ** 2) == pytest.approx(30.0)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        NodeState(position_m=[0, 0, 0], pattern="cardioid")
    assert ISOTROPIC in ("isotropic",)
