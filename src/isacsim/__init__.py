"""Geometry-based stochastic channel simulation for joint sensing and
communication links: two-hop target channels built from standard cluster
models, path concatenation with power down-selection, radar-style link
budgets, and threshold detection statistics."""

__version__ = "0.1.0"

from .concatenation import (
    ConcatCase,
    HopTable,
    PairType,
    PathBlock,
    TargetPathSet,
    concatenate,
    condition_weights,
    nn_total_power,
    ray_marginal_power,
)
from .coefficients import (
    SnapshotGrid,
    TargetChannelCir,
    combine_channels,
    doppler_frequency,
    synthesize_background_cir,
    synthesize_target_cir,
)
from .config import NodeConfig, RunConfig, load_config, validate_config
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericError, UnsupportedFeatureError
from .geometry import (
    AntennaElement,
    DirectionAngles,
    NodeState,
    angles_between,
    spherical_unit_vector,
    uniform_linear_array,
)
from .largescale import (
    CouplingConfig,
    HopLink,
    ScenarioParams,
    build_hop,
    combine_isac_path_loss,
    concatenated_path_loss,
    hop_path_loss,
    los_probability,
)
from .metrics import (
    DetectionParams,
    WaveformParams,
    angle_metrics,
    detection_table,
    pd,
    pfa,
    range_metrics,
    snr_to_amplitude,
    speed_metrics,
    threshold_for_pfa,
)
from .rcs import (
    B1Table,
    PolarizationScattering,
    RcsModel,
    ResolutionCell,
    TargetClass,
    fit_lognormal_db,
    is_point_target,
    mbet_bistatic,
    sample_rcs,
    scattering_matrix,
)
from .runner import RunManifest, concat_study, run
from .seeds import RandomStreams
from .smallscale import SubLinkClusters, generate_sublink, mono_static_reciprocal
from .stats import (
    DropStatistics,
    EmpiricalCdf,
    angle_spread,
    drop_statistics,
    empirical_cdf,
    ks_statistic,
    statistics_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
