"""Experiment configuration: defaults, validation, JSON round-tripping.

The default configuration is the desk-scale system (2 stations, 2 users,
2x2 / 2x1 surfaces) with the reference training hyperparameters: -69 dBm
noise, 200 mW power cap, 20 MHz bandwidth, discount 0.99, replay sizes
1024/512, gradient clip 0.5, soft-update rate 0.01 and learning rates 0.01.
A ``full`` preset scales the system up to 9 stations and 6 users.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass

from ..env import LSF_MODES, SCENARIOS, EnvParams, MdpTuple
from ..marl.nets import SOFT_DIRECTIONS
from ..marl.replay import PRIORITY_RULES
from ..marl.trainer import TrainerSettings, VARIANTS

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "make_config",
    "replace_config",
    "load_config",
    "dump_config",
    "config_hash",
    "PRESETS",
]

SPEED_OF_LIGHT = 299_792_458.0

ARCHITECTURES = ("single", "double")


class ConfigError(ValueError):
    """Raised for unparsable files, unknown keys or invariant violations."""


@dataclass(frozen=True)
class ExperimentConfig:
    # system geometry
    m_bs: int = 2
    k_ue: int = 2
    n_h_r: int = 2
    n_v_r: int = 2
    n_h_s: int = 2
    n_v_s: int = 1
    spacing_r: float = 1.0 / 3.0  # antenna spacing in wavelengths
    spacing_s: float = 1.0 / 3.0
    wavelength: float = 0.01
    area: float = 1000.0
    min_bs_spacing: float = 200.0
    bs_height: float = 10.0
    ue_height: float = 1.5
    raw_kz: bool = False
    # radio and power
    noise_dbm: float = -69.0
    p_max_mw: float = 200.0
    bandwidth_mhz: float = 20.0
    # decision process
    gamma: float = 0.99
    r_g: float = 0.01
    r_b: float = 0.002
    alpha: float = 0.2
    beta_acc: float = 2.0
    d_max: float = 5.0
    scenario: str = "static"
    architecture: str = "single"
    variant: str = "mimo-maddpg"
    lsf_mode: str = "beta"
    weight_sharing: bool = False
    fixed_placement: bool = False
    # networks and training
    hidden: tuple[int, int] = (128, 64)
    lr_actor: float = 0.01
    lr_critic: float = 0.01
    tau: float = 0.01
    soft_update_direction: str = "standard"
    clip_norm: float = 0.5
    buffer_capacity: int = 1024
    pool_size: int = 512
    update_after: int | None = None  # defaults to pool_size
    batch_global: int = 64
    batch_local: int = 64
    noise_start: float = 0.2
    noise_end: float = 0.01
    priority_rule: str = "ranked"
    priority_mu: float = 1.0
    priority_nu: float = 0.01
    # experiment protocol
    episodes: int = 200
    steps: int = 100
    seed: int = 0
    eval_every: int = 10
    eval_draws: int = 32
    n_conv: int = 100
    delta_conv: float = 0.01
    fractional_exponent: float = 0.5

    # -- derived quantities ------------------------------------------------
    @property
    def noise_power(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)

    @property
    def p_max(self) -> float:
        return self.p_max_mw / 1000.0

    @property
    def resolved_update_after(self) -> int:
        return self.pool_size if self.update_after is None else self.update_after

    def mdp(self) -> MdpTuple:
        return _lower(MdpTuple, self)

    def env_params(self) -> EnvParams:
        return _lower(EnvParams, self, noise_power=self.noise_power, p_max=self.p_max,
                      mdp=self.mdp())

    def trainer_settings(self) -> TrainerSettings:
        return _lower(TrainerSettings, self, update_after=self.resolved_update_after)


def _lower(record, cfg: ExperimentConfig, **derived):
    """A lower-layer ``record`` built from ``cfg``'s fields of the same name.

    ``derived`` supplies the fields the config holds in other units or
    leaves unresolved; it wins over a config field of the same name.
    """
    shared = {f.name for f in dataclasses.fields(record)} & _FIELD_NAMES
    return record(**{**{name: getattr(cfg, name) for name in shared}, **derived})


PRESETS = {
    "desk": {},
    "full": {
        "m_bs": 9,
        "k_ue": 6,
        "n_h_r": 9,
        "n_v_r": 9,
        "n_h_s": 3,
        "n_v_s": 3,
        "episodes": 1000,
        "steps": 100,
    },
}

_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}
# each field's annotation is its only type declaration
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_POSITIVE_INTS = (
    "m_bs", "k_ue", "n_h_r", "n_v_r", "n_h_s", "n_v_s",
    "buffer_capacity", "pool_size", "batch_global", "batch_local",
    "episodes", "steps", "eval_every", "eval_draws", "n_conv",
)
_POSITIVE_FLOATS = (
    "wavelength", "area", "min_bs_spacing", "bs_height", "ue_height",
    "p_max_mw", "bandwidth_mhz", "d_max", "tau", "clip_norm", "delta_conv",
    "priority_mu",
)
_NONNEGATIVE = ("lr_actor", "lr_critic", "noise_end", "seed")
_CHOICES = {
    "scenario": SCENARIOS,
    "architecture": ARCHITECTURES,
    "variant": tuple(sorted(VARIANTS)),
    "lsf_mode": LSF_MODES,
    "priority_rule": PRIORITY_RULES,
    "soft_update_direction": SOFT_DIRECTIONS,
}


def _has_type(value, hint) -> bool:
    """Whether a JSON value has the declared type ``hint``.

    A bool is no number, an int is a valid float, and a float must be finite.
    """
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return _has_type(value, int) or isinstance(value, float) and math.isfinite(value)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if args:  # a union such as int | None
        return any(_has_type(value, arg) for arg in args)
    return isinstance(value, hint)


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for key, hint in _FIELD_TYPES.items():
        v = getattr(cfg, key)
        if not _has_type(v, hint):
            name = "a finite number" if hint is float else (
                hint.__name__ if isinstance(hint, type) else hint)
            raise ConfigError(f"{key}: expected {name}, got {v!r}")
    for key in _POSITIVE_INTS:
        v = getattr(cfg, key)
        if v < 1:
            raise ConfigError(f"{key}: must be a positive integer, got {v!r}")
    for key in _POSITIVE_FLOATS:
        v = getattr(cfg, key)
        if not v > 0:
            raise ConfigError(f"{key}: must be positive, got {v!r}")
    for key in _NONNEGATIVE:
        v = getattr(cfg, key)
        if v < 0:
            raise ConfigError(f"{key}: must be nonnegative, got {v!r}")
    for key, choices in _CHOICES.items():
        v = getattr(cfg, key)
        if v not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {v!r}")
    for key in ("spacing_r", "spacing_s"):
        v = getattr(cfg, key)
        if not 0 < v < 0.5:
            raise ConfigError(
                f"{key}: antenna spacing must stay below half a wavelength, got {v!r}"
            )
    if not 0.0 < cfg.gamma < 1.0:
        raise ConfigError(f"gamma: must lie in (0, 1), got {cfg.gamma!r}")
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError(f"alpha: must lie in [0, 1], got {cfg.alpha!r}")
    if cfg.beta_acc <= 1.0:
        raise ConfigError(f"beta_acc: must exceed 1, got {cfg.beta_acc!r}")
    if cfg.r_b >= cfg.r_g:
        raise ConfigError(f"r_b: must be below r_g ({cfg.r_b!r} >= {cfg.r_g!r})")
    if not 0.0 < cfg.priority_nu < 1.0:
        raise ConfigError(f"priority_nu: must lie in (0, 1), got {cfg.priority_nu!r}")
    if cfg.noise_start < cfg.noise_end:
        raise ConfigError(
            f"noise_start: must be at least noise_end ({cfg.noise_start!r} < {cfg.noise_end!r})"
        )
    if not 0.0 < cfg.tau <= 1.0:
        raise ConfigError(f"tau: must lie in (0, 1], got {cfg.tau!r}")
    if cfg.update_after is not None and cfg.update_after < 1:
        raise ConfigError(f"update_after: must be positive when set, got {cfg.update_after!r}")
    if not 0 <= cfg.fractional_exponent <= 1.0:
        raise ConfigError(
            f"fractional_exponent: must lie in [0, 1], got {cfg.fractional_exponent!r}"
        )
    if any(h < 1 for h in cfg.hidden):
        raise ConfigError(f"hidden: expected two positive layer widths, got {cfg.hidden!r}")
    return cfg


def make_config(data: dict | None = None, preset: str = "desk") -> ExperimentConfig:
    """Merge preset and overrides over the defaults, then validate."""
    if preset not in PRESETS:
        raise ConfigError(f"preset: expected one of {sorted(PRESETS)}, got {preset!r}")
    merged = dict(PRESETS[preset])
    data = dict(data or {})
    if "carrier_ghz" in data:
        if "wavelength" in data:
            raise ConfigError("carrier_ghz: give either carrier_ghz or wavelength, not both")
        freq = data.pop("carrier_ghz")
        if not (_has_type(freq, float) and freq > 0):
            raise ConfigError(f"carrier_ghz: must be a positive number, got {freq!r}")
        data["wavelength"] = SPEED_OF_LIGHT / (freq * 1e9)
    merged.update(data)
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if isinstance(merged.get("hidden"), list):  # JSON has no tuples
        merged["hidden"] = tuple(merged["hidden"])
    return _validate(ExperimentConfig(**merged))


def replace_config(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """``cfg`` with ``changes`` applied, validated as ``make_config`` validates."""
    return _validate(dataclasses.replace(cfg, **changes))


def load_config(path, preset: str = "desk", overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; an empty file yields the full defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.strip() == "":
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    if overrides:
        data.update(overrides)
    return make_config(data, preset=preset)


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text; load(dump(cfg)) reproduces cfg exactly."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the configuration with the seed stripped.

    Runs of a seed sweep share this hash.
    """
    data = dataclasses.asdict(cfg)
    data.pop("seed")
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
