"""Scenario configuration: dataclasses plus the key/value file format.

Config files are INI-style sections of key = value pairs.  Unknown
sections or keys are rejected so typos fail loudly.  See the shipped
recipes under ``configs/`` for the full schema.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import BerMode, PhaseGrid, default_phase_grid
from .channel import AWGN_PROFILE, ChannelProfile, load_profile
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
    """Monte-Carlo stopping rules and execution knobs.

    A burst is a ring of ``frames_per_burst`` frames, each of them
    measured; ``max_frames`` caps the measured frames of a point (whole
    bursts only).  Stopping conditions are evaluated every
    ``chunk_bursts`` bursts, a fixed granularity that keeps results
    independent of worker count.
    """

    min_bits: int = 2_000_000
    min_errors: int = 100
    max_frames: int = 5000
    frames_per_burst: int = 4
    chunk_bursts: int = 8
    workers: int = 1
    equalizer: str = "known"

    def __post_init__(self):
        if self.min_bits < 1 or self.min_errors < 1:
            raise ConfigError("min_bits and min_errors must be positive")
        if self.frames_per_burst < 1:
            raise ConfigError("frames_per_burst must be positive")
        if self.max_frames < self.frames_per_burst:
            raise ConfigError("max_frames must cover at least one burst")
        if self.chunk_bursts < 1:
            raise ConfigError("chunk_bursts must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if self.equalizer not in ("known", "estimated"):
            raise ConfigError(
                f"equalizer must be 'known' or 'estimated', got {self.equalizer!r}"
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
            raise ConfigError("criterion grid size must be positive")
        if self.estimator not in ("analytic", "pn"):
            raise ConfigError("criterion estimator must be 'analytic' or 'pn'")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    srrc_span: int = 16
    channel: ChannelProfile = AWGN_PROFILE
    epsilon: float = 0.0
    phase_grid: PhaseGrid | None = None
    ebn0_sweep: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    reference_ebn0: float | None = None
    mc: McConfig = field(default_factory=McConfig)
    seed: int = 1
    ber_mode: BerMode = BerMode.BITS_PER_AXIS
    criterion: CriterionOptions = field(default_factory=CriterionOptions)

    def __post_init__(self):
        if not self.ebn0_sweep:
            raise ConfigError("ebn0 sweep is empty")
        if list(self.ebn0_sweep) != sorted(self.ebn0_sweep):
            raise ConfigError("ebn0 sweep must be sorted ascending")
        if not -0.5 <= self.epsilon <= 0.5:
            raise ConfigError(f"epsilon must be in [-0.5, 0.5], got {self.epsilon}")

    @property
    def srrc(self) -> SrrcSpec:
        return SrrcSpec(
            alpha=self.frame.alpha,
            span_symbols=self.srrc_span,
            samples_per_symbol=self.frame.n_upsam,
        )

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
        """JSON-friendly resolved view, the basis of the fingerprint."""
        return {
            "frame": {
                "n_fft": self.frame.n_fft,
                "pn_len": self.frame.pn_len,
                "dual_pn": self.frame.dual_pn,
                "modulation": self.frame.modulation,
                "n_upsam": self.frame.n_upsam,
                "alpha": self.frame.alpha,
                "pn_poly": self.frame.pn_poly,
                "pn_seed": self.frame.pn_seed,
                "pn_amplitude": self.frame.pn_amplitude,
            },
            "srrc_span": self.srrc_span,
            "channel": {
                "name": self.channel.name,
                "delays": list(map(float, self.channel.delays)),
                "gains": [[g.real, g.imag] for g in self.channel.gains],
            },
            "epsilon": self.epsilon,
            "phase_grid": None
            if self.phase_grid is None
            else list(map(float, self.phase_grid.phases)),
            "ebn0_sweep": list(self.ebn0_sweep),
            "reference_ebn0": self.reference_ebn0,
            "mc": {
                "min_bits": self.mc.min_bits,
                "min_errors": self.mc.min_errors,
                "max_frames": self.mc.max_frames,
                "frames_per_burst": self.mc.frames_per_burst,
                "chunk_bursts": self.mc.chunk_bursts,
                "workers": self.mc.workers,
                "equalizer": self.mc.equalizer,
            },
            "seed": self.seed,
            "ber_mode": self.ber_mode.value,
            "criterion": {
                "grid_size": self.criterion.grid_size,
                "estimator": self.criterion.estimator,
                "with_str": self.criterion.with_str,
                "with_oracle": self.criterion.with_oracle,
            },
        }


def scenario_fingerprint(cfg: ScenarioConfig) -> str:
    blob = json.dumps(cfg.describe(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --- file parsing ---------------------------------------------------------

_SCHEMA = {
    "frame": {
        "n_fft",
        "pn_len",
        "dual_pn",
        "modulation",
        "n_upsam",
        "alpha",
        "pn_poly",
        "pn_seed",
        "pn_amplitude",
    },
    "srrc": {"span_symbols"},
    "channel": {"profile"},
    "phase": {"epsilon", "grid"},
    "sweep": {"ebn0_db", "reference_ebn0"},
    "mc": {
        "min_bits",
        "min_errors",
        "max_frames",
        "frames_per_burst",
        "chunk_bursts",
        "workers",
        "equalizer",
    },
    "run": {"seed", "ber_mode"},
    "criterion": {"grid", "estimator", "with_str", "with_oracle"},
}

_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _to_bool(raw: str, where: str) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}") from None


def _to_int(raw: str, where: str) -> int:
    try:
        return int(raw.strip(), 0)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _to_float(raw: str, where: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _float_list(raw: str, where: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{where}: empty list")
    return tuple(_to_float(p, where) for p in parts)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, rejecting unknown sections and keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    def get(section: str, key: str) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        return None

    frame_kwargs: dict = {}
    for key, conv in [
        ("n_fft", _to_int),
        ("pn_len", _to_int),
        ("dual_pn", _to_bool),
        ("n_upsam", _to_int),
        ("alpha", _to_float),
        ("pn_poly", _to_int),
        ("pn_seed", _to_int),
        ("pn_amplitude", _to_float),
    ]:
        raw = get("frame", key)
        if raw is not None and raw.strip():
            frame_kwargs[key] = conv(raw, f"[frame] {key}")
    raw = get("frame", "modulation")
    if raw is not None:
        frame_kwargs["modulation"] = raw.strip().lower()
    try:
        frame = FrameConfig(**frame_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: [frame] {exc}") from exc

    span_raw = get("srrc", "span_symbols")
    srrc_span = _to_int(span_raw, "[srrc] span_symbols") if span_raw else 16

    channel = AWGN_PROFILE
    profile_raw = get("channel", "profile")
    if profile_raw and profile_raw.strip().lower() != "awgn":
        profile_path = Path(profile_raw.strip())
        if not profile_path.is_absolute():
            profile_path = path.parent / profile_path
        try:
            channel = load_profile(profile_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: channel profile: {exc}") from exc

    epsilon = 0.0
    phase_grid = None
    eps_raw = get("phase", "epsilon")
    grid_raw = get("phase", "grid")
    if eps_raw and grid_raw:
        raise ConfigError(f"{path}: [phase] give either epsilon or grid, not both")
    if eps_raw:
        epsilon = _to_float(eps_raw, "[phase] epsilon")
    if grid_raw:
        phase_grid = default_phase_grid(_to_int(grid_raw, "[phase] grid"))

    sweep_raw = get("sweep", "ebn0_db")
    sweep = (
        _float_list(sweep_raw, "[sweep] ebn0_db")
        if sweep_raw
        else (4.0, 6.0, 8.0, 10.0)
    )
    ref_raw = get("sweep", "reference_ebn0")
    reference = _to_float(ref_raw, "[sweep] reference_ebn0") if ref_raw else None

    mc_kwargs: dict = {}
    for key in ("min_bits", "min_errors", "max_frames", "frames_per_burst",
                "chunk_bursts", "workers"):
        raw = get("mc", key)
        if raw is not None:
            mc_kwargs[key] = _to_int(raw, f"[mc] {key}")
    raw = get("mc", "equalizer")
    if raw is not None:
        mc_kwargs["equalizer"] = raw.strip().lower()
    mc = McConfig(**mc_kwargs)

    seed_raw = get("run", "seed")
    seed = _to_int(seed_raw, "[run] seed") if seed_raw else 1
    mode_raw = get("run", "ber_mode")
    ber_mode = BerMode.BITS_PER_AXIS
    if mode_raw:
        try:
            ber_mode = BerMode(mode_raw.strip().lower())
        except ValueError:
            raise ConfigError(
                f"{path}: [run] ber_mode must be one of "
                f"{[m.value for m in BerMode]}, got {mode_raw!r}"
            ) from None

    crit_kwargs: dict = {}
    raw = get("criterion", "grid")
    if raw is not None:
        crit_kwargs["grid_size"] = _to_int(raw, "[criterion] grid")
    raw = get("criterion", "estimator")
    if raw is not None:
        crit_kwargs["estimator"] = raw.strip().lower()
    for key in ("with_str", "with_oracle"):
        raw = get("criterion", key)
        if raw is not None:
            crit_kwargs[key] = _to_bool(raw, f"[criterion] {key}")
    criterion = CriterionOptions(**crit_kwargs)

    try:
        return ScenarioConfig(
            frame=frame,
            srrc_span=srrc_span,
            channel=channel,
            epsilon=epsilon,
            phase_grid=phase_grid,
            ebn0_sweep=sweep,
            reference_ebn0=reference,
            mc=mc,
            seed=seed,
            ber_mode=ber_mode,
            criterion=criterion,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
