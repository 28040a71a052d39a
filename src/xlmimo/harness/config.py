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
from dataclasses import dataclass, field

from ..env import LSF_MODES, SCENARIOS, EnvParams, MdpTuple
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
PRIORITY_RULES = ("ranked", "simple")
SOFT_DIRECTIONS = ("standard", "reversed")


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
    hidden: tuple = (128, 64)
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
        return MdpTuple(r_g=self.r_g, r_b=self.r_b, alpha=self.alpha, beta_acc=self.beta_acc)

    def env_params(self) -> EnvParams:
        return EnvParams(
            m_bs=self.m_bs,
            k_ue=self.k_ue,
            n_h_r=self.n_h_r,
            n_v_r=self.n_v_r,
            n_h_s=self.n_h_s,
            n_v_s=self.n_v_s,
            spacing_r=self.spacing_r,
            spacing_s=self.spacing_s,
            wavelength=self.wavelength,
            area=self.area,
            min_bs_spacing=self.min_bs_spacing,
            bs_height=self.bs_height,
            ue_height=self.ue_height,
            noise_power=self.noise_power,
            p_max=self.p_max,
            d_max=self.d_max,
            scenario=self.scenario,
            lsf_mode=self.lsf_mode,
            raw_kz=self.raw_kz,
            fixed_placement=self.fixed_placement,
            mdp=self.mdp(),
        )

    def trainer_settings(self) -> TrainerSettings:
        return TrainerSettings(
            episodes=self.episodes,
            steps=self.steps,
            hidden=tuple(self.hidden),
            lr_actor=self.lr_actor,
            lr_critic=self.lr_critic,
            tau=self.tau,
            soft_update_direction=self.soft_update_direction,
            clip_norm=self.clip_norm,
            gamma=self.gamma,
            buffer_capacity=self.buffer_capacity,
            pool_size=self.pool_size,
            update_after=self.resolved_update_after,
            batch_global=self.batch_global,
            batch_local=self.batch_local,
            noise_start=self.noise_start,
            noise_end=self.noise_end,
            priority_rule=self.priority_rule,
            priority_mu=self.priority_mu,
            priority_nu=self.priority_nu,
        )


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


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for key in _POSITIVE_INTS:
        v = getattr(cfg, key)
        if not isinstance(v, int) or v < 1:
            raise ConfigError(f"{key}: must be a positive integer, got {v!r}")
    for key in _POSITIVE_FLOATS:
        v = getattr(cfg, key)
        if not v > 0:
            raise ConfigError(f"{key}: must be positive, got {v!r}")
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
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario: expected one of {SCENARIOS}, got {cfg.scenario!r}")
    if cfg.architecture not in ARCHITECTURES:
        raise ConfigError(
            f"architecture: expected one of {ARCHITECTURES}, got {cfg.architecture!r}"
        )
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"variant: expected one of {sorted(VARIANTS)}, got {cfg.variant!r}")
    if cfg.lsf_mode not in LSF_MODES:
        raise ConfigError(f"lsf_mode: expected one of {LSF_MODES}, got {cfg.lsf_mode!r}")
    if cfg.priority_rule not in PRIORITY_RULES:
        raise ConfigError(
            f"priority_rule: expected one of {PRIORITY_RULES}, got {cfg.priority_rule!r}"
        )
    if cfg.soft_update_direction not in SOFT_DIRECTIONS:
        raise ConfigError(
            f"soft_update_direction: expected one of {SOFT_DIRECTIONS}, "
            f"got {cfg.soft_update_direction!r}"
        )
    if not 0.0 < cfg.priority_nu < 1.0:
        raise ConfigError(f"priority_nu: must lie in (0, 1), got {cfg.priority_nu!r}")
    if cfg.noise_end < 0 or cfg.noise_start < cfg.noise_end:
        raise ConfigError(
            f"noise_start/noise_end: need noise_start >= noise_end >= 0, "
            f"got {cfg.noise_start!r}/{cfg.noise_end!r}"
        )
    if cfg.lr_actor < 0 or cfg.lr_critic < 0:
        raise ConfigError("lr_actor/lr_critic: learning rates must be nonnegative")
    if not 0.0 < cfg.tau <= 1.0:
        raise ConfigError(f"tau: must lie in (0, 1], got {cfg.tau!r}")
    if cfg.update_after is not None and cfg.update_after < 1:
        raise ConfigError(f"update_after: must be positive when set, got {cfg.update_after!r}")
    if not 0 <= cfg.fractional_exponent <= 1.0:
        raise ConfigError(
            f"fractional_exponent: must lie in [0, 1], got {cfg.fractional_exponent!r}"
        )
    if not isinstance(cfg.hidden, tuple) or len(cfg.hidden) != 2 or any(
        not isinstance(h, int) or h < 1 for h in cfg.hidden
    ):
        raise ConfigError(f"hidden: expected two positive layer widths, got {cfg.hidden!r}")
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {cfg.seed!r}")
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
        if not freq > 0:
            raise ConfigError(f"carrier_ghz: must be positive, got {freq!r}")
        data["wavelength"] = SPEED_OF_LIGHT / (freq * 1e9)
    merged.update(data)
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "hidden" in merged:
        merged["hidden"] = tuple(merged["hidden"])
    try:
        cfg = ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return _validate(cfg)


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
    data = dataclasses.asdict(cfg)
    data["hidden"] = list(data["hidden"])
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the configuration with the seed stripped.

    Runs of a seed sweep share this hash.
    """
    data = dataclasses.asdict(cfg)
    data["hidden"] = list(data["hidden"])
    data.pop("seed")
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
