"""Geometry-based stochastic channel simulation for joint sensing and
communication links: two-hop target channels built from standard cluster
models, path concatenation with power down-selection, radar-style link
budgets, and threshold detection statistics.

The names below are loaded on first use (PEP 562), so importing the package,
or one submodule such as ``isacsim.cli``, loads only what is used.
"""
from importlib import import_module

__version__ = "0.3.0"

_EXPORTS = {
    "concatenation": (
        "ConcatCase", "PairType", "PathBlock", "PathGroup", "concatenate_group",
        "condition_weights",
    ),
    "coefficients": (
        "ChannelCir", "SnapshotGrid", "doppler_frequency", "synthesize_cir",
    ),
    "config": ("NodeConfig", "RunConfig", "load_config", "validate_config"),
    "constants": ("SPEED_OF_LIGHT",),
    "errors": ("ConfigError", "NumericError", "UnsupportedFeatureError"),
    "geometry": (
        "DirectionAngles", "NodeState", "angles_between", "spherical_unit_vector",
        "uniform_linear_array",
    ),
    "largescale": (
        "CouplingConfig", "HopLink", "HopSpec", "ScenarioParams", "build_hop",
        "combine_isac_path_loss", "concatenated_path_loss", "hop_path_loss",
        "hop_spec", "los_probability",
    ),
    "metrics": (
        "DetectionParams", "WaveformParams", "angle_metrics", "detection_table", "pd",
        "pfa", "range_metrics", "snr_to_amplitude", "speed_metrics", "threshold_for_pfa",
    ),
    "rcs": (
        "B1Table", "PolarizationScattering", "RcsModel", "ResolutionCell", "fit_lognormal_db",
        "is_point_target", "mbet_bistatic", "sample_rcs", "scattering_matrix",
    ),
    "runner": ("RunManifest", "concat_study", "run"),
    "seeds": ("RandomStreams",),
    "smallscale": ("HopTable", "generate_sublinks", "mono_static_reciprocal"),
    "stats": ("EmpiricalCdf", "empirical_cdf", "group_statistics", "ks_statistic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
