from .config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    config_hash,
    dump_config,
    load_config,
    make_config,
)
from .run import (
    build_trainer,
    detect_convergence,
    evaluate_greedy,
    fractional_baseline,
    run_experiment,
    sweep,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "config_hash",
    "dump_config",
    "load_config",
    "make_config",
    "build_trainer",
    "detect_convergence",
    "evaluate_greedy",
    "fractional_baseline",
    "run_experiment",
    "sweep",
]
