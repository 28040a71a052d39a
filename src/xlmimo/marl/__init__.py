from .nets import Actor, Mlp, clip_gradients, global_norm, sgd_step, sigmoid, soft_update
from .replay import Batch, ReplayBuffer, fill_extraction_pool, priority_ranked, priority_simple
from .trainer import VARIANTS, MarlCore, Trainer, TrainerSettings, VariantSpec, resolve_variant

__all__ = [
    "Actor",
    "Mlp",
    "clip_gradients",
    "global_norm",
    "sgd_step",
    "sigmoid",
    "soft_update",
    "Batch",
    "ReplayBuffer",
    "fill_extraction_pool",
    "priority_ranked",
    "priority_simple",
    "VARIANTS",
    "MarlCore",
    "Trainer",
    "TrainerSettings",
    "VariantSpec",
    "resolve_variant",
]
