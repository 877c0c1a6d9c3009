"""The package's public names: the same list as before they were loaded lazily,
each resolving after a bare ``import isacsim``."""
import os
import subprocess
import sys
import types

import pytest

import isacsim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# isacsim.__all__ as it was when the package init imported every submodule,
# less SubLinkClusters, which HopTable replaced as the one per-hop type, and
# less angle_spread, nn_total_power and ray_marginal_power, which nothing
# used, and less the one-drop wrappers concatenate, drop_statistics,
# DropStatistics, statistics_table and generate_sublink, and less
# TargetPathSet, whose one-drop views PathGroup.paths replaced; plus the
# group kernels concatenate_group, generate_sublinks and group_statistics,
# and HopSpec and hop_spec, the per-run part of a hop
ALL = [
    "AntennaElement", "B1Table", "ConcatCase", "ConfigError", "CouplingConfig",
    "DetectionParams", "DirectionAngles", "EmpiricalCdf", "HopLink", "HopSpec",
    "HopTable", "NodeConfig", "NodeState", "NumericError", "PairType", "PathBlock",
    "PathGroup", "PolarizationScattering", "RandomStreams", "RcsModel", "ResolutionCell",
    "RunConfig", "RunManifest", "SPEED_OF_LIGHT", "ScenarioParams", "SnapshotGrid",
    "TargetChannelCir", "TargetClass", "UnsupportedFeatureError",
    "WaveformParams", "angle_metrics", "angles_between", "build_hop",
    "coefficients", "combine_channels", "combine_isac_path_loss", "concat_study",
    "concatenate_group", "concatenated_path_loss", "concatenation",
    "condition_weights", "config", "constants", "detection_table", "doppler_frequency",
    "empirical_cdf", "errors", "fit_lognormal_db", "generate_sublinks",
    "geometry", "group_statistics", "hop_path_loss", "hop_spec", "is_point_target", "ks_statistic",
    "largescale", "load_config", "los_probability", "mbet_bistatic", "metrics",
    "mono_static_reciprocal", "pd", "pfa", "range_metrics", "rcs", "run", "runner",
    "sample_rcs", "scattering_matrix", "seeds", "smallscale", "snr_to_amplitude",
    "speed_metrics", "spherical_unit_vector", "stats",
    "synthesize_background_cir", "synthesize_target_cir", "threshold_for_pfa",
    "uniform_linear_array", "validate_config",
]


def fresh_python(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_all_is_unchanged():
    assert isacsim.__all__ == ALL


def test_every_name_resolves_after_a_bare_import():
    fresh_python(
        "import sys\n"
        "import isacsim\n"
        "assert 'numpy' not in sys.modules, 'the package init loads numpy'\n"
        "assert isacsim.runner.run is isacsim.run\n"
        "assert isacsim.stats.empirical_cdf is isacsim.empirical_cdf\n"
        "assert isacsim.smallscale.generate_sublinks is isacsim.generate_sublinks\n"
        "values = [getattr(isacsim, name) for name in isacsim.__all__]\n"
        "assert all(v is not None for v in values)\n"
    )
    fresh_python(
        "from isacsim import *\n"
        "assert run is runner.run and pd is metrics.pd and SPEED_OF_LIGHT > 0\n"
    )


def test_runner_import_loads_no_process_pool():
    # a serial run never starts a pool; only a pooled run imports one
    fresh_python(
        "import sys\n"
        "import isacsim.runner\n"
        "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )


def test_concat_study_loads_no_detection_or_cir_synthesis(tmp_path):
    # a study writes no CIRs and detects nothing
    cfg = tmp_path / "study.cfg"
    cfg.write_text("frequency_hz = 6e9\ndrops = 3\n")
    argv = ["concat-study", "--config", str(cfg), "--out", str(tmp_path / "out")]
    fresh_python(
        "import sys\n"
        "from isacsim.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "loaded = {'isacsim.metrics', 'isacsim.coefficients', 'numpy.ma'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )


def test_exports_are_the_submodules_objects():
    modules = {name: getattr(isacsim, name) for name in ALL
               if isinstance(getattr(isacsim, name), types.ModuleType)}
    assert set(modules) == {
        "coefficients", "concatenation", "config", "constants", "errors", "geometry",
        "largescale", "metrics", "rcs", "runner", "seeds", "smallscale", "stats",
    }
    for name, module in modules.items():
        assert module is sys.modules[f"isacsim.{name}"]
    for name in set(ALL) - set(modules):
        value = getattr(isacsim, name)
        assert any(getattr(m, name, None) is value for m in modules.values()), name
    from isacsim import RunConfig, detection_table
    assert RunConfig is isacsim.config.RunConfig
    assert detection_table is isacsim.metrics.detection_table


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        isacsim.no_such_name
    with pytest.raises(ImportError):
        from isacsim import no_such_name
