"""Scenario configuration: dataclasses plus the key/value file format.

Config files are INI-style sections of key = value pairs.  One table,
``_SCHEMA``, names every section and key with the field it sets and its
parser; unknown sections or keys are rejected so typos fail loudly, and
an empty value is the same as leaving the key out.  See the shipped
recipes under ``configs/`` and the README for the full schema.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .analysis import PhaseGrid, default_phase_grid
from .channel import AWGN_PROFILE, ChannelProfile, load_profile, pn_spectrum
from .dsp import SrrcSpec
from .frame import FrameConfig

__all__ = [
    "ConfigError",
    "McConfig",
    "CriterionOptions",
    "ScenarioConfig",
    "load_scenario",
    "scenario_fingerprint",
]


class ConfigError(ValueError):
    """Bad scenario configuration (file syntax, unknown keys, bad values)."""


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo stopping rules and receiver choice.

    A burst is a ring of ``frames_per_burst`` frames, each of them
    measured; bursts run one after another and ``max_frames`` caps the
    measured frames of a point (whole bursts only).  A point stops once
    ``min_bits`` and ``min_errors`` are both met, checked after every
    ``chunk_bursts`` bursts.
    """

    min_bits: int = 2_000_000
    min_errors: int = 100
    max_frames: int = 5000
    frames_per_burst: int = 4
    chunk_bursts: int = 8
    equalizer: str = "known"

    def __post_init__(self):
        # each message names its field first, as load_scenario expects
        for name in ("min_bits", "min_errors", "frames_per_burst", "chunk_bursts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.max_frames < self.frames_per_burst:
            raise ConfigError(
                f"max_frames: must cover at least one burst of {self.frames_per_burst} "
                f"frames, got {self.max_frames}"
            )
        if self.equalizer not in ("known", "estimated"):
            raise ConfigError(
                f"equalizer: must be 'known' or 'estimated', got {self.equalizer!r}"
            )


@dataclass(frozen=True)
class CriterionOptions:
    """What the criterion runner compares against."""

    grid_size: int = 128
    estimator: str = "analytic"
    with_str: bool = True
    with_oracle: bool = False

    def __post_init__(self):
        if self.grid_size < 1:
            raise ConfigError(f"grid_size: must be positive, got {self.grid_size}")
        if self.estimator not in ("analytic", "pn"):
            raise ConfigError(
                f"estimator: must be 'analytic' or 'pn', got {self.estimator!r}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment; ``srrc``, the shaping
    filter design, is derived from it and checked with it."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    srrc_span: int = 16
    channel: ChannelProfile = AWGN_PROFILE
    epsilon: float = 0.0
    phase_grid: PhaseGrid | None = None
    ebn0_sweep: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    reference_ebn0: float | None = None
    mc: McConfig = field(default_factory=McConfig)
    seed: int = 1
    criterion: CriterionOptions = field(default_factory=CriterionOptions)

    def __post_init__(self):
        if not self.ebn0_sweep:
            raise ConfigError("[sweep] ebn0_db is empty")
        if not all(map(math.isfinite, self.ebn0_sweep)):
            raise ConfigError("[sweep] ebn0_db must be finite")
        if not math.isfinite(self.reference_ebn0 or 0):
            raise ConfigError("[sweep] reference_ebn0 must be finite")
        if list(self.ebn0_sweep) != sorted(self.ebn0_sweep):
            raise ConfigError("[sweep] ebn0_db must be sorted ascending")
        if not -0.5 <= self.epsilon <= 0.5:
            raise ConfigError(
                f"[phase] epsilon must be in [-0.5, 0.5], got {self.epsilon}"
            )
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be non-negative, got {self.seed}")
        if self.mc.equalizer == "estimated" or self.criterion.estimator == "pn":
            try:
                pn_spectrum(self.frame.pn)
            except ValueError as exc:
                raise ConfigError(f"[frame] pn_poly: the PN channel estimator divides "
                                  f"by the guard spectrum: {exc}") from exc
        try:
            srrc = SrrcSpec(self.frame.alpha, self.srrc_span, self.frame.n_upsam)
        except ValueError as exc:
            raise ConfigError(f"[srrc] span_symbols: {exc}") from exc
        object.__setattr__(self, "srrc", srrc)

    @property
    def ref_ebn0(self) -> float:
        if self.reference_ebn0 is not None:
            return self.reference_ebn0
        return self.ebn0_sweep[-1]

    def grid(self) -> PhaseGrid:
        if self.phase_grid is not None:
            return self.phase_grid
        return default_phase_grid(self.criterion.grid_size)

    def describe(self) -> dict:
        """JSON-friendly resolved view, the basis of the fingerprint: every
        field, with the channel, the phase grid and the sweep as plain lists."""
        out = asdict(self)
        out.update(
            channel={
                "name": self.channel.name,
                "delays": list(map(float, self.channel.delays)),
                "gains": [[g.real, g.imag] for g in self.channel.gains],
            },
            phase_grid=None
            if self.phase_grid is None
            else list(map(float, self.phase_grid.phases)),
            ebn0_sweep=list(self.ebn0_sweep),
        )
        return out


def scenario_fingerprint(cfg: ScenarioConfig) -> str:
    blob = json.dumps(cfg.describe(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]




# --- file parsing ---------------------------------------------------------

_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _to_bool(raw: str) -> bool:
    try:
        return _BOOL[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _to_int(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _to_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(map(_to_float, parts))


def _parse(where: str, parse, raw):
    """``parse(raw)``, with a bad value reported as a ConfigError naming
    ``where`` (a file's ``[section] key``, or a command-line option)."""
    try:
        return parse(raw)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# [section] -> file key -> (field, parser).  [frame], [mc] and [criterion]
# fill FrameConfig, McConfig and CriterionOptions; the other sections fill
# ScenarioConfig itself.  [channel] profile is a path, loaded afterwards.
_SCHEMA = {
    "frame": {
        "n_fft": ("n_fft", _to_int),
        "pn_len": ("pn_len", _to_int),
        "dual_pn": ("dual_pn", _to_bool),
        "modulation": ("modulation", str.lower),
        "n_upsam": ("n_upsam", _to_int),
        "alpha": ("alpha", _to_float),
        "pn_poly": ("pn_poly", _to_int),
        "pn_seed": ("pn_seed", _to_int),
        "pn_amplitude": ("pn_amplitude", _to_float),
    },
    "srrc": {"span_symbols": ("srrc_span", _to_int)},
    "channel": {"profile": ("channel", Path)},
    "phase": {
        "epsilon": ("epsilon", _to_float),
        "grid": ("phase_grid", lambda raw: default_phase_grid(_to_int(raw))),
    },
    "sweep": {
        "ebn0_db": ("ebn0_sweep", _float_list),
        "reference_ebn0": ("reference_ebn0", _to_float),
    },
    "mc": {
        "min_bits": ("min_bits", _to_int),
        "min_errors": ("min_errors", _to_int),
        "max_frames": ("max_frames", _to_int),
        "frames_per_burst": ("frames_per_burst", _to_int),
        "chunk_bursts": ("chunk_bursts", _to_int),
        "equalizer": ("equalizer", str.lower),
    },
    "run": {"seed": ("seed", _to_int)},
    "criterion": {
        "grid": ("grid_size", _to_int),
        "estimator": ("estimator", str.lower),
        "with_str": ("with_str", _to_bool),
        "with_oracle": ("with_oracle", _to_bool),
    },
}
_NESTED = {"frame": FrameConfig, "mc": McConfig, "criterion": CriterionOptions}
# [section] -> field -> file key, to name a nested dataclass's bad field
_FILE_KEY = {section: {name: key for key, (name, _) in keys.items()}
             for section, keys in _SCHEMA.items()}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, rejecting unknown sections and keys.

    An empty value is the same as leaving the key out.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    kwargs: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) == ("mc", "workers"):  # removed; older files set 1
                if raw.strip() not in ("", "1"):
                    raise ConfigError(f"{path}: [mc] workers = {raw.strip()}: bursts "
                                      "run one after another, only 1 is accepted")
                continue
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            name, parse = _SCHEMA[section][key]
            if raw.strip():
                where = f"{path}: [{section}] {key}"
                kwargs[section][name] = _parse(where, parse, raw.strip())

    if {"epsilon", "phase_grid"} <= kwargs["phase"].keys():
        raise ConfigError(f"{path}: [phase] give either epsilon or grid, not both")
    profile = kwargs["channel"].pop("channel", Path("awgn"))
    if str(profile).lower() != "awgn":
        kwargs["channel"]["channel"] = _parse(
            f"{path}: [channel] profile", load_profile, path.parent / profile
        )
    nested = {}
    for section, cls in _NESTED.items():
        try:
            nested[section] = cls(**kwargs.pop(section))
        except ValueError as exc:
            # the dataclasses name the bad field first, "field: problem"
            name, _, problem = str(exc).partition(": ")
            message = f"{_FILE_KEY[section].get(name, name)}: {problem}" if problem else exc
            raise ConfigError(f"{path}: [{section}] {message}") from exc
    fields = {k: v for values in kwargs.values() for k, v in values.items()}
    try:
        return ScenarioConfig(**nested, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
