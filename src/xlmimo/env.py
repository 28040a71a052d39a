"""Mobile uplink power-control environment.

Base stations and users live on a wrap-around square (a torus), each
carrying a planar antenna surface.  Agents observe aggregate large-scale
fading, choose a transmit power budget and, in the mobile scenarios, a
movement step and angle, and are rewarded with their closed-form spectral
efficiency.  ``step`` takes one action row per agent whose columns follow
``action_ranges``: power, then step and angle.  A
predictive-management rule rescales movement steps based on the team
reward: shrink them when the team is doing well, stretch them when it is
not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import build_surface, fresnel_beta, lsf_matrix, make_channel_stats
from .se import se_closed_form_mr, uniform_amplitudes

__all__ = [
    "MdpTuple",
    "WorldState",
    "EnvParams",
    "CellFreeEnv",
    "predictive_limit",
    "wrap_coords",
    "torus_delta",
    "torus_distance",
]

SCENARIOS = ("static", "dynamic", "pm-dynamic")
# a link's large-scale mask: the scalar beta or the per-antenna-pair matrix
LSF_MODES = ("beta", "lsf")


@dataclass(frozen=True)
class MdpTuple:
    """Decision-process constants: reward thresholds and step factors."""

    r_g: float
    r_b: float
    alpha: float
    beta_acc: float


@dataclass
class WorldState:
    """Snapshot of all positions."""

    bs_positions: np.ndarray  # (M, 3)
    ue_positions: np.ndarray  # (K, 3)


@dataclass(frozen=True)
class EnvParams:
    """Physical and decision-process constants of the environment.

    Built from an ``ExperimentConfig``, which owns every default and check.
    """

    m_bs: int
    k_ue: int
    n_h_r: int
    n_v_r: int
    n_h_s: int
    n_v_s: int
    spacing_r: float  # in wavelengths
    spacing_s: float
    wavelength: float
    area: float
    min_bs_spacing: float
    bs_height: float
    ue_height: float
    noise_power: float
    p_max: float
    d_max: float
    scenario: str
    lsf_mode: str  # mask used for rewards: "beta" or "lsf"
    raw_kz: bool
    fixed_placement: bool  # reuse the first drawn layout on every reset
    mdp: MdpTuple
    max_placement_tries: int = 10_000


def wrap_coords(positions: np.ndarray, area: float) -> np.ndarray:
    """Wrap x and y into [0, area); z is untouched."""
    out = np.array(positions, dtype=float)
    out[..., :2] = np.mod(out[..., :2], area)
    return out


def torus_delta(a: np.ndarray, b: np.ndarray, area: float) -> np.ndarray:
    """Minimum-image displacement b - a; x/y components in [-area/2, area/2)."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    d[..., :2] = (d[..., :2] + area / 2.0) % area - area / 2.0
    return d


def torus_distance(a, b, area: float) -> float:
    return float(np.linalg.norm(torus_delta(a, b, area)))


def predictive_limit(rewards_sum: float, step: float, thresholds: MdpTuple) -> float:
    """Movement-step restriction from the team reward.

    At or above the good threshold the step shrinks by alpha; at or below
    the bad threshold it stretches by beta_acc; in between it passes
    through.  Both boundaries belong to the scaled branches.
    """
    if rewards_sum >= thresholds.r_g:
        return thresholds.alpha * step
    if rewards_sum <= thresholds.r_b:
        return thresholds.beta_acc * step
    return step


class CellFreeEnv:
    """Torus world of base stations and mobile users with SE rewards."""

    def __init__(self, params: EnvParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        p = params
        wl = p.wavelength
        self._bs_local = build_surface(p.n_h_r, p.n_v_r, p.spacing_r * wl)
        self._ue_local = build_surface(p.n_h_s, p.n_v_s, p.spacing_s * wl)
        # small-scale statistics depend only on the local surface geometry,
        # so every link shares them; links differ only in stats_grid()'s mask
        self.channel_stats = make_channel_stats(
            self._bs_local, self._ue_local, wl, raw_kz=p.raw_kz
        )
        # observation scale: aggregate fading at a quarter-area reference range
        d_ref = p.area / 4.0
        dz = abs(p.bs_height - p.ue_height)
        cos_ref = dz / math.hypot(d_ref, dz)
        self._beta_ref = math.sqrt(2.0 * cos_ref) * wl / (4.0 * math.pi * d_ref)
        self.world: WorldState | None = None
        self._initial_layout = None

    # -- dimensions the learning stack needs -------------------------------
    @property
    def n_agents(self) -> int:
        return self.params.k_ue

    @property
    def n_s(self) -> int:
        return self._ue_local.n_antennas

    @property
    def n_r(self) -> int:
        return self._bs_local.n_antennas

    @property
    def state_dim(self) -> int:
        return 1

    @property
    def action_ranges(self) -> np.ndarray:
        """Upper bound per action column: power, then step and angle when mobile.

        Lower bounds are all zero.
        """
        p = self.params
        if p.scenario == "static":
            return np.array([p.p_max])
        return np.array([p.p_max, p.d_max, 2.0 * math.pi])

    # -- placement ----------------------------------------------------------
    def reset(self) -> np.ndarray:
        p = self.params
        if p.fixed_placement and self._initial_layout is not None:
            bs0, ue0 = self._initial_layout
            self.world = WorldState(bs_positions=bs0.copy(), ue_positions=ue0.copy())
            return self.agent_observation()
        bs = np.empty((p.m_bs, 3))
        tries = 0
        placed = 0
        while placed < p.m_bs:
            cand = np.array(
                [self.rng.uniform(0, p.area), self.rng.uniform(0, p.area), p.bs_height]
            )
            tries += 1
            if tries > p.max_placement_tries:
                raise RuntimeError(
                    f"could not place {p.m_bs} stations with {p.min_bs_spacing} m "
                    f"spacing in {p.max_placement_tries} tries"
                )
            if all(
                torus_distance(cand, bs[i], p.area) >= p.min_bs_spacing
                for i in range(placed)
            ):
                bs[placed] = cand
                placed += 1
        ue = np.column_stack(
            [
                self.rng.uniform(0, p.area, size=p.k_ue),
                self.rng.uniform(0, p.area, size=p.k_ue),
                np.full(p.k_ue, p.ue_height),
            ]
        )
        self.world = WorldState(bs_positions=bs, ue_positions=ue)
        if p.fixed_placement:
            self._initial_layout = (bs.copy(), ue.copy())
        return self.agent_observation()

    def set_world(self, bs_positions, ue_positions):
        """Install explicit positions (debugging and deterministic tests)."""
        self.world = WorldState(
            bs_positions=wrap_coords(np.asarray(bs_positions, float), self.params.area),
            ue_positions=wrap_coords(np.asarray(ue_positions, float), self.params.area),
        )
        return self.agent_observation()

    # -- observations --------------------------------------------------------
    def _pair_geometries(self, m: int, k: int):
        """BS surface at the origin, UE surface at the minimum-image offset."""
        w = self.world
        rel = torus_delta(w.bs_positions[m], w.ue_positions[k], self.params.area)
        return self._bs_local, self._ue_local.translated(rel)

    def _pair_beta(self, m: int, k: int) -> float:
        """Scalar beta of a link; the mean lsf coefficient when too close for it."""
        geom_r, geom_s = self._pair_geometries(m, k)
        try:
            return fresnel_beta(geom_r, geom_s, self.params.wavelength)
        except ValueError:
            return float(lsf_matrix(geom_r, geom_s, self.params.wavelength).mean())

    def _pair_lsf(self, m: int, k: int) -> np.ndarray:
        """Per-antenna-pair large-scale coefficients of a link, (N_r, N_s)."""
        return lsf_matrix(*self._pair_geometries(m, k), self.params.wavelength)

    def observe_layer1(self) -> np.ndarray:
        """Raw per-user aggregate fading: sum over stations of beta."""
        p = self.params
        return np.array(
            [sum(self._pair_beta(m, k) for m in range(p.m_bs)) for k in range(p.k_ue)]
        )

    def observe_layer2(self) -> np.ndarray:
        """Per-user-antenna fading aggregated over stations and their antennas.

        Shape (K, N_s); entry (k, n) sums the exact per-pair coefficients of
        user antenna n over every station antenna of every station.
        """
        p = self.params
        out = np.zeros((p.k_ue, self.n_s))
        for k in range(p.k_ue):
            for m in range(p.m_bs):
                out[k] += self._pair_lsf(m, k).sum(axis=0)
        return out

    def agent_observation(self) -> np.ndarray:
        """Scaled layer-1 state, one row per agent."""
        betas = self.observe_layer1()
        return (betas / (self.params.m_bs * self._beta_ref)).reshape(-1, 1)

    def layer2_observation_scale(self) -> float:
        return self.params.m_bs * self.n_r * self._beta_ref

    # -- dynamics -------------------------------------------------------------
    def stats_grid(self) -> np.ndarray:
        """Large-scale mask of every link at the current positions.

        Entry [m, k] belongs to the link from user k to station m: under
        ``lsf_mode`` "beta" an (M, K) array of scalar betas, under "lsf" an
        (M, K, N_r, N_s) array of per-antenna-pair coefficients.  Every link
        shares the small-scale statistics ``channel_stats``.
        """
        p = self.params
        pair_mask = dict(zip(LSF_MODES, (self._pair_beta, self._pair_lsf)))[p.lsf_mode]
        return np.array([[pair_mask(m, k) for k in range(p.k_ue)] for m in range(p.m_bs)])

    def budgets(self, actions) -> np.ndarray:
        """Each user's power budget: action column 0 clipped to [0, p_max]."""
        return np.clip(np.asarray(actions, dtype=float)[:, 0], 0.0, self.params.p_max)

    def step(self, actions, amplitudes=None):
        """Advance one slot: rewards at the current positions, then movement.

        ``actions`` is a (K, len(action_ranges)) array, one row per user in
        ``action_ranges`` column order; ``budgets(actions)`` are the users'
        power budgets.  ``amplitudes`` is the (K, N_s) per-antenna split of
        those budgets; without it each budget is split uniformly, and a row
        whose rounded power exceeds its budget is scaled back onto it.
        Returns (observation, rewards, info).  Rewards are the per-user
        closed-form SE under the amplitudes; in the mobile scenarios users
        then move by (step*cos(angle), step*sin(angle)) with the predictive
        rule rescaling steps in ``pm-dynamic``.  ``info`` carries each user's
        radiated ``power_trace`` and its ``budgets`` and the post-move
        ``positions``.
        """
        if self.world is None:
            raise RuntimeError("reset() must be called before step()")
        p = self.params
        actions = np.asarray(actions, dtype=float)
        shape = (p.k_ue, len(self.action_ranges))
        if actions.shape != shape:
            raise ValueError(f"actions must have shape {shape}, got {actions.shape}")
        if not np.isfinite(actions).all():
            raise ValueError("action components must be finite")
        budgets = self.budgets(actions)
        if amplitudes is None:
            amplitudes = uniform_amplitudes(budgets, self.n_s)
            # the rounded split can radiate an ulp more than its budget
            power = np.sum(amplitudes**2, axis=1)
            over = power > budgets
            scale = np.sqrt(np.divide(budgets, power, out=np.ones_like(power), where=over))
            amplitudes = amplitudes * scale[:, None]
        else:
            amplitudes = np.asarray(amplitudes, dtype=float)
            if amplitudes.shape != (p.k_ue, self.n_s):
                raise ValueError(
                    f"amplitudes must have shape {(p.k_ue, self.n_s)}, got {amplitudes.shape}"
                )
            if not np.isfinite(amplitudes).all() or np.any(amplitudes < 0):
                raise ValueError("amplitudes must be finite and nonnegative")
        power = np.sum(amplitudes**2, axis=1)
        if np.any(power > budgets + 1e-12):
            raise ValueError("amplitudes violate the power budgets")
        rewards = se_closed_form_mr(
            self.channel_stats, self.stats_grid(), amplitudes, p.noise_power
        )
        if p.scenario != "static":
            team = float(rewards.sum())
            ue = self.world.ue_positions.copy()
            for k, (_, step, angle) in enumerate(actions.tolist()):
                step_len = min(max(step, 0.0), p.d_max)
                if p.scenario == "pm-dynamic":
                    step_len = predictive_limit(team, step_len, p.mdp)
                ue[k, 0] += step_len * math.cos(angle)
                ue[k, 1] += step_len * math.sin(angle)
            self.world.ue_positions = wrap_coords(ue, p.area)
        info = {
            "power_trace": power.tolist(),
            "budgets": budgets.tolist(),
            "positions": self.world.ue_positions.copy(),
        }
        return self.agent_observation(), rewards, info
