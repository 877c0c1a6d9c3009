"""Run configuration: flat dotted-key text format, validation, defaults.

The format is line-oriented ``key = value`` in the one input grammar of
``reader`` (UTF-8, ``#`` comment and blank lines ignored, a repeated key
refused). Keys are dotted paths (``nodes.target.velocity_mps``);
values are scalars, names, or comma-separated vectors. Unknown keys are
rejected with their line number so typos fail loudly instead of silently
running defaults.

Every key is declared once, in ``KEYS``: the ``RunConfig`` attribute it
sets (``target.velocity_mps`` for a node key, ``coupling.o_isac`` for a key
of the RCS, polarization, snapshot or coupling object that a run uses as
it is), its parser and its range check. ``set_value`` parses, checks and
stores one value; parsing a file, the command line's ``--seed``/``--drops``
overrides and the canonical echo all run off that table. Choice lists come
from the modules that own them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .concatenation import ConcatCase
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .geometry import ISOTROPIC, PATTERNS, SnapshotGrid
from .largescale import CONDITIONS, COUPLING_MODES, CouplingConfig
from .rcs import POLARIZATION_MODES, PolarizationScattering, RcsModel
from .reader import data_lines, numbers, read_text, split_entry


@dataclass
class NodeConfig:
    """Position, motion, and (tx and rx only) array layout of one node."""

    position_m: tuple
    velocity_mps: tuple = (0.0, 0.0, 0.0)
    elements: int = 1
    element_spacing_m: float | None = None  # None: half wavelength
    pattern: str = ISOTROPIC
    slant_deg: float = 0.0


@dataclass
class RunConfig:
    """Validated simulation configuration."""

    frequency_hz: float
    sensing_mode: str = "bistatic"
    concat_case: ConcatCase = ConcatCase.CASE_2RN
    drops: int = 1
    master_seed: int = 1
    scenario_table: str | None = None
    absolute_delay: bool = False
    split_strongest: bool = False
    tx: NodeConfig = field(default_factory=lambda: NodeConfig(position_m=(0.0, 0.0, 10.0)))
    rx: NodeConfig = field(default_factory=lambda: NodeConfig(position_m=(60.0, 0.0, 10.0)))
    target: NodeConfig = field(
        default_factory=lambda: NodeConfig(position_m=(20.0, 15.0, 1.5))
    )
    rcs: RcsModel = field(default_factory=RcsModel)  # b1 stays None: see rcs_b1_table
    rcs_b1_table: str | None = None  # loaded only by a run that writes CIRs
    polarization: PolarizationScattering = field(default_factory=PolarizationScattering)
    snapshots: SnapshotGrid = field(default_factory=SnapshotGrid)
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    background_enabled: bool = False
    cond_tx_target: str = "auto"
    cond_target_rx: str = "auto"
    cond_background: str = "auto"
    out_dir: str | None = None
    emit_cir: bool = True

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


# Parsers take the value text and the name used in error messages.

def _text(text: str, name: str) -> str:
    return text


def _bool(text: str, name: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{name} expects true/false, got {text!r}")


def _float(text: str, name: str) -> float:
    return _vec(1)(text, name)[0]


def _int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} expects an integer, got {text!r}") from None


def _vec(n: int):
    def parse(text: str, name: str) -> tuple:
        values = tuple(numbers(text, name, ","))
        if len(values) != n:
            raise ConfigError(f"{name} expects {n} comma-separated numbers, got {text!r}")
        return values
    return parse


def _choice(choices, convert=str):
    names = tuple(getattr(c, "value", c) for c in choices)

    def parse(text: str, name: str):
        t = text.strip()
        if t not in names:
            raise ConfigError(f"{name} must be one of {names}, got {t!r}")
        return convert(t)
    return parse


# Range checks: (predicate, what the value must be).
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_CONDITION = _choice(("auto",) + CONDITIONS)

_NODE_KEYS = {  # the keys of every node
    "position_m": (_vec(3), None),
    "velocity_mps": (_vec(3), None),
}
_ARRAY_KEYS = {  # the transmitter's and receiver's; the target has no array
    "elements": (_int, _AT_LEAST_ONE),
    "element_spacing_m": (_float, _POSITIVE),
    "pattern": (_choice(PATTERNS), None),
    "slant_deg": (_float, None),
}

# key -> (RunConfig attribute path, parser, range check or None)
KEYS = {
    "frequency_hz": ("frequency_hz", _float, _POSITIVE),
    "scenario_table": ("scenario_table", _text, None),
    "sensing_mode": ("sensing_mode", _choice(("bistatic", "monostatic")), None),
    "concat_case": ("concat_case", _choice(ConcatCase, ConcatCase), None),
    "drops": ("drops", _int, _AT_LEAST_ONE),
    "master_seed": ("master_seed", _int, _NON_NEGATIVE),
    "absolute_delay": ("absolute_delay", _bool, None),
    "split_strongest": ("split_strongest", _bool, None),
    "rcs.mean_m2": ("rcs.mean_rcs_m2", _float, _POSITIVE),
    "rcs.b2_mean_db": ("rcs.b2_mean_db", _float, None),
    "rcs.b2_std_db": ("rcs.b2_std_db", _float, _NON_NEGATIVE),
    "rcs.b1_table": ("rcs_b1_table", _text, None),
    "polarization.mode": ("polarization.mode", _choice(POLARIZATION_MODES), None),
    "polarization.alphas": ("polarization.alphas", _vec(4), (lambda v: min(v) >= 0, "all >= 0")),
    "snapshots.start_s": ("snapshots.start_s", _float, None),
    "snapshots.step_s": ("snapshots.step_s", _float, _POSITIVE),
    "snapshots.count": ("snapshots.count", _int, _AT_LEAST_ONE),
    "coupling.o_isac": ("coupling.o_isac", _float, _NON_NEGATIVE),
    "coupling.mode": ("coupling.mode", _choice(COUPLING_MODES), None),
    "coupling.removal_fraction": (
        "coupling.removal_fraction", _float, (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    ),
    "background.enabled": ("background_enabled", _bool, None),
    "conditions.tx_target": ("cond_tx_target", _CONDITION, None),
    "conditions.target_rx": ("cond_target_rx", _CONDITION, None),
    "conditions.background": ("cond_background", _CONDITION, None),
    "output.dir": ("out_dir", _text, None),
    "output.cir": ("emit_cir", _bool, None),
    **{
        f"nodes.{node}.{name}": (f"{node}.{name}", parse, check)
        for node, keys in (("tx", _NODE_KEYS | _ARRAY_KEYS), ("rx", _NODE_KEYS | _ARRAY_KEYS),
                           ("target", _NODE_KEYS))
        for name, (parse, check) in keys.items()
    },
}


def _owner(cfg: RunConfig, attr: str):
    """The object holding a dotted attribute path, and the last name."""
    *path, name = attr.split(".")
    for part in path:
        cfg = getattr(cfg, part)
    return cfg, name


def set_value(cfg: RunConfig, key: str, text: str, name: str | None = None) -> None:
    """Parse ``text`` as the value of ``key``, range-check it and store it.

    ``name`` labels the value in error messages (default: the key).
    """
    attr, parse, check = KEYS[key]
    name = name or key
    value = parse(text, name)
    if check is not None and not check[0](value):
        raise ConfigError(f"{name} must be {check[1]}, got {value}")
    setattr(*_owner(cfg, attr), value)


def parse_config_text(text: str) -> dict:
    """Parse the raw key = value lines into {key: (value_text, line_number)}."""
    entries: dict = {}
    for ln, line in data_lines(text):
        key, value = split_entry(line, f"line {ln}", entries)
        entries[key] = (value, ln)
    return entries


def validate_config(raw: str) -> RunConfig:
    """Parse and range-check a configuration text; unknown keys are errors."""
    entries = parse_config_text(raw)
    if "frequency_hz" not in entries:
        raise ConfigError("missing required key 'frequency_hz' (carrier frequency)")
    cfg = RunConfig(frequency_hz=1.0)
    for key, (value, ln) in entries.items():
        if key not in KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        set_value(cfg, key, value, f"line {ln}: {key}")
    return cfg


def load_config(path) -> RunConfig:
    return validate_config(read_text(path))


def _format(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    if isinstance(v, ConcatCase):
        return v.value
    return str(v)


def config_echo(cfg: RunConfig) -> list:
    """Canonical key = value lines reproducing the validated configuration."""
    values = {key: getattr(*_owner(cfg, attr)) for key, (attr, _, _) in KEYS.items()}
    return sorted(f"{k} = {_format(v)}" for k, v in values.items() if v is not None)
