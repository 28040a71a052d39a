"""Double-layer power control.

Layer 1 treats each user as a mobile agent choosing its total power budget
(and movement); layer 2 treats each user antenna as a static agent that
splits its user's budget using per-antenna fading state.  Both layers run
the same actor-critic machinery on different views; budgets flow down,
rewards are shared back up in equal per-antenna fractions.
"""

from __future__ import annotations

import numpy as np

from .env import CellFreeEnv
from .marl.trainer import MarlCore, Trainer, TrainerSettings
from .se import uniform_amplitudes

__all__ = [
    "broadcast_budget",
    "split_reward",
    "layer2_allocate",
    "DoubleLayerTrainer",
]


def broadcast_budget(layer1_powers, n_s: int) -> np.ndarray:
    """Repeat each user's budget once per antenna: [p1..p1, p2..p2, ...]."""
    powers = np.asarray(layer1_powers, dtype=float)
    if np.any(powers < 0):
        raise ValueError("budgets must be nonnegative")
    return np.repeat(powers, n_s)


def split_reward(layer1_rewards, n_s: int) -> np.ndarray:
    """Share each user reward equally over its antennas (each r/n_s)."""
    rewards = np.asarray(layer1_rewards, dtype=float)
    return np.repeat(rewards / n_s, n_s)


def layer2_allocate(normalized_actions, budgets, n_s: int) -> np.ndarray:
    """Turn per-antenna weights into (K, N_s) amplitudes that use each full budget.

    ``normalized_actions`` holds one weight in [0, 1] per antenna (user-major
    order).  Each user's weights are rescaled so its radiated power equals
    its budget; an all-zero weight row falls back to the uniform split.
    """
    weights = np.asarray(normalized_actions, dtype=float).reshape(-1)
    budgets = np.asarray(budgets, dtype=float)
    if weights.shape[0] != budgets.shape[0] * n_s:
        raise ValueError("one weight per user antenna required")
    weights = weights.reshape(-1, n_s)
    norm_sq = np.sum(weights**2, axis=1)
    zero = norm_sq == 0.0
    scale = np.sqrt(np.divide(budgets, norm_sq, out=np.zeros_like(norm_sq), where=~zero))
    return np.where(zero[:, None], uniform_amplitudes(budgets, n_s), weights * scale[:, None])


class DoubleLayerTrainer(Trainer):
    """Runs the user layer and the per-antenna layer in lockstep.

    Layer 1 (``core``) picks each user's budget and move; layer 2
    (``core2``) holds one agent per user antenna whose learned weights split
    that budget.  With ``weight_sharing`` the antennas of one user share a
    single parameter set.
    """

    def __init__(
        self,
        env: CellFreeEnv,
        settings: TrainerSettings,
        variant,
        master_seed: int,
        scenario: str = "static",
        weight_sharing: bool = False,
    ):
        super().__init__(env, settings, variant, master_seed, scenario)
        n_s = env.n_s
        k_ue = env.n_agents
        share = [k for k in range(k_ue) for _ in range(n_s)] if weight_sharing else None
        self.core2 = MarlCore(
            layer=2,
            n_agents=k_ue * n_s,
            state_dim=2,  # aggregated fading + broadcast budget
            action_ranges=np.array([1.0]),
            settings=settings,
            variant=self.variant,
            master_seed=master_seed,
            share_groups=share,
        )

    # -- layer-2 views ----------------------------------------------------------
    def _layer2_states(self, budgets, env) -> np.ndarray:
        lsf = env.observe_layer2() / env.layer2_observation_scale()
        bud = broadcast_budget(budgets, env.n_s) / env.params.p_max
        return np.column_stack([lsf.reshape(-1), bud])

    def _layer2(self, raw1, env, noise_std):
        """Layer-2 states, raw actions and amplitudes under the layer-1 budgets."""
        budgets = env.budgets(raw1)
        s2 = self._layer2_states(budgets, env)
        raw2 = self.core2.act(s2, noise_std)
        return s2, raw2, layer2_allocate(raw2[:, 0], budgets, env.n_s)

    # -- per-step hooks -----------------------------------------------------------
    def _choose(self, obs, noise_std, env):
        raw1 = self.core.act(obs, noise_std)
        s2, raw2, amplitudes = self._layer2(raw1, env, noise_std)
        return raw1, amplitudes, {"s2": s2, "raw2": raw2}

    def _store(self, obs, raw1, rewards, next_obs, extras):
        self.core.record(obs, raw1, rewards, next_obs)
        self.core.refresh_and_fill()
        # next layer-2 state pairs the post-move fading with the budgets the
        # current user policy would pick at the next observation
        next_budgets = self.env.budgets(self.core.greedy(next_obs))
        s2_next = self._layer2_states(next_budgets, self.env)
        r2 = split_reward(rewards, self.env.n_s)
        self.core2.record(extras["s2"], extras["raw2"], r2, s2_next)
        self.core2.refresh_and_fill()

    def _update(self):
        out = self.core.update()
        out.update({f"layer2_{k}": v for k, v in self.core2.update().items()})
        return out

    # -- checkpoints ----------------------------------------------------------------
    def _layers(self) -> dict:
        return {**super()._layers(), "2": self.core2}
