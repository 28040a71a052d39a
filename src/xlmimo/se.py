"""Uplink transmission model and spectral-efficiency evaluation.

Every user transmits simultaneously through a diagonal per-antenna amplitude
matrix, so one power allocation for all K users is a (K, N_s) array of
nonnegative amplitudes: row k is the diagonal of user k's transmit matrix
and its squared sum is the power user k radiates.  Each base station
applies maximum-ratio combining and the central unit averages the local
estimates; both evaluators below take the (K, N_s) amplitudes and return
the (K,) per-user SE in bits/s/Hz.  Spectral efficiency comes in two
flavours that must agree: a Monte-Carlo estimate of the achievable-rate
bound over channel draws, and a closed form for maximum-ratio combining
whose second and fourth Gaussian moments are evaluated analytically from
the channel covariance.  The Monte-Carlo estimate walks its draws one
slice of fixed size at a time.  The covariance of every link's fading is a
Kronecker product of a receive-side and a transmit-side factor, so from
``FACTORED_MIN_DIM`` antenna pairs per link (N_r * N_s) up the closed form
takes every moment from those two small factors and the masks, in batched
products over all links, and builds no (N_r * N_s)^2 covariance.  Below
that gate it keeps the dense form, one station's link covariances at a
time, with which the small shapes' results were made.

The channel of the link from user k to station m is G_mk = B_mk * H_mk:
every H_mk has the one set of small-scale statistics ``stats`` and only the
large-scale mask differs.  ``mask`` holds it for every link, either as an
(M, K) array of scalar betas or as an (M, K, N_r, N_s) array of
per-antenna-pair coefficients; ``mask[m, k]`` is B_mk.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelStats, sample_ssf_batch

__all__ = [
    "uniform_amplitudes",
    "se_monte_carlo",
    "se_closed_form_mr",
    "draw_channel_grid",
]

RIDGE = 1e-12

# draws per slice of the Monte-Carlo estimate: one slice of every link's
# channels is the working set, whatever the draw count
MC_SLICE = 128

# N_r * N_s from which the closed form takes its moments in Kronecker-
# factored form.  Not a speed crossover (the factored form is faster at
# every shape): below it the dense per-station moments are kept so that the
# small shapes (the desk preset, the C10 trend lab) keep their results to
# the last bit
FACTORED_MIN_DIM = 192


def uniform_amplitudes(budgets, n_s: int) -> np.ndarray:
    """The uniform split of each budget over n_s antennas, (K, N_s): sqrt(b / N_s)."""
    per_antenna = np.sqrt(np.asarray(budgets, dtype=float) / n_s)
    return np.repeat(per_antenna[:, None], n_s, axis=1)


def _checked_amplitudes(stats: ChannelStats, mask: np.ndarray, amplitudes) -> np.ndarray:
    """``amplitudes`` as a float array; ValueError unless it is (K, N_s) for the mask and stats."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    shape = (mask.shape[1], stats.n_s)
    if amplitudes.shape != shape:
        raise ValueError(f"amplitudes must have shape (K, N_s) = {shape}, got {amplitudes.shape}")
    return amplitudes


# ---------------------------------------------------------------------------
# Gaussian-moment machinery.
#
# vec(G) is zero-mean circularly-symmetric with covariance R; as a 4-tensor
# r4[a, i, b, j] = E{ G[a, i] * conj(G[b, j]) }.  All spectral-efficiency
# expectations reduce to its contractions.
# ---------------------------------------------------------------------------


def _logdet_se(e_mat: np.ndarray, psi: np.ndarray) -> float:
    # ridge is relative to the matrix scale; an absolute one would dwarf
    # desk-scale interference powers (~1e-22 W)
    n_s = e_mat.shape[1]
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(e_mat))):
        raise np.linalg.LinAlgError(
            "interference-plus-noise matrix or signal moment is not finite"
        )
    scale = float(np.real(np.trace(psi))) / n_s
    ridge = RIDGE * scale if scale > 0 else RIDGE
    psi_reg = psi + ridge * np.eye(n_s)
    try:
        x = np.linalg.solve(psi_reg, e_mat)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"interference-plus-noise matrix singular after {ridge:g} ridge: {exc}"
        ) from exc
    m = np.eye(n_s) + np.conj(e_mat.T) @ x
    sign, logabs = np.linalg.slogdet(m)
    if not np.isfinite(logabs):
        raise np.linalg.LinAlgError("log-det of the rate expression is not finite")
    return max(float(logabs / math.log(2.0)), 0.0)


def _dense_moments(stats: ChannelStats, mask: np.ndarray, amplitudes: np.ndarray):
    """Every user's second and fourth Gaussian moments, one station at a time.

    Returns (z_sum, interference), each of shape (K, N_s, N_s):
    z_sum[k] = sum_m E{G_mk^H G_mk}, and interference[k] is
    sum_m sum_l E{G_mk^H W_ml G_mk} for station m's receive-side weight
    W_ml = E{G_ml Pbar_l G_ml^H} of user l.  For l = k it includes the extra
    same-channel Wick pairing; it equals sum_l T_kl - E_k E_k^H after the
    coherent part cancels.

    Station m's work runs in two rounds: every user l's masked covariance
    and weight W_ml, then every user k's Z_mk and interference terms, added
    over l in order.  The K covariance buffers, and one mask scratch, are
    allocated here once and reused by every station.
    """
    n_bs, n_ue = mask.shape[:2]
    n_r, n_s = stats.n_r, stats.n_s
    dim = n_r * n_s
    corr = stats.corr
    # P P^H as dense diagonals
    pbar = [np.diag(a.astype(complex) ** 2) for a in amplitudes]
    z = np.empty((n_ue, n_bs, n_s, n_s), dtype=complex)
    interference = np.zeros((n_ue, n_s, n_s), dtype=complex)
    # each covariance in the layout numpy gives the unbuffered product: the
    # layout of corr for a scalar beta, C order for a per-pair mask; the
    # contractions below walk their operands in that layout
    cov = np.empty((n_ue, dim, dim), dtype=complex)
    if mask.ndim == 2 and not corr.flags.c_contiguous:
        cov = cov.transpose(0, 2, 1)
    r4 = [c.reshape((n_r, n_s, n_r, n_s), order="F") for c in cov]
    scratch = np.empty((dim, dim)) if mask.ndim == 4 else None
    weights = [None] * n_ue
    for m, row in enumerate(mask):
        # every weight of station m before any user's contractions
        for l, b in enumerate(row):
            if scratch is None:
                # one scalar beta at a time: ``**`` is C pow, which can
                # differ from b * b in the last bit
                np.multiply(b**2, corr, out=cov[l])
            else:
                vec_b = b.reshape(-1, order="F")
                np.multiply(corr, np.outer(vec_b, vec_b, out=scratch), out=cov[l])
            weights[l] = np.einsum("apbq,pq->ab", r4[l], pbar[l])
        for k in range(n_ue):
            z[k, m] = np.einsum("apai->ip", r4[k])
            for weight in weights:
                interference[k] += np.einsum("bjai,ab->ij", r4[k], weight)
    z_sum = np.array([np.sum(z_k, axis=0) for z_k in z])
    return z_sum, interference


def _factored_moments(stats: ChannelStats, mask: np.ndarray, amplitudes: np.ndarray):
    """The moments of ``_dense_moments`` from the covariance's Kronecker factors, all links at once.

    With Kr = ``stats.corr_r``, Ks = ``stats.corr_s`` and the real mask B_mk
    of a link (a scalar beta stands for a constant (N_r, N_s) matrix):
    Z_mk = conj(Ks) o (B_mk^T diag(Kr) B_mk), and since W_ml o conj(Kr) is
    the real S_ml = |Kr|^2 o (B_ml diag(diag(Ks) a_l^2) B_ml^T), user k's
    interference is conj(Ks) o sum_m B_mk^T S_m B_mk with S_m = sum_l S_ml.
    Every step is a batched matrix product over the links; no array has
    more than M * K * N_r * N_s or M * N_r^2 entries.
    """
    n_bs, n_ue = mask.shape[:2]
    n_r, n_s = stats.n_r, stats.n_s
    kr, ks_conj = stats.corr_r, np.conj(stats.corr_s)
    links = np.broadcast_to(mask if mask.ndim == 4 else mask[:, :, None, None],
                            (n_bs, n_ue, n_r, n_s))
    # station m's links side by side, [B_m1 ... B_mK] of shape (N_r, K * N_s)
    rows = links.transpose(0, 2, 1, 3).reshape(n_bs, n_r, n_ue * n_s)
    powers = np.real(np.diag(stats.corr_s)) * amplitudes**2
    s = ((rows * powers.reshape(-1)) @ rows.swapaxes(1, 2)) * np.abs(kr) ** 2
    links_t = links.swapaxes(2, 3)
    z_sum = ks_conj * np.sum(links_t @ (np.real(np.diag(kr))[:, None] * links), axis=0)
    interference = ks_conj * np.sum(links_t @ (s[:, None] @ links), axis=0)
    return z_sum, interference


def se_closed_form_mr(stats: ChannelStats, mask: np.ndarray, amplitudes, noise_power) -> np.ndarray:
    """Closed-form spectral efficiency under maximum-ratio combining.

    ``mask[m, k]`` is the large-scale mask of the link from user k to
    station m.  All Gaussian moments are evaluated analytically from the
    masked channel covariance; channels of distinct stations or users are
    independent.  The moments come from ``_factored_moments`` from
    ``FACTORED_MIN_DIM`` antenna pairs per link up, below it from
    ``_dense_moments``.  Returns the (K,) per-user SE.
    """
    amplitudes = _checked_amplitudes(stats, mask, amplitudes)
    factored = stats.n_r * stats.n_s >= FACTORED_MIN_DIM
    moments = _factored_moments if factored else _dense_moments
    z_sum, interference = moments(stats, mask, amplitudes)
    per_ue = np.zeros(len(amplitudes))
    for k, a_k in enumerate(amplitudes):
        e_mat = z_sum[k] * a_k
        psi = interference[k] + noise_power * z_sum[k]
        psi = (psi + np.conj(psi.T)) / 2.0
        eigs = np.linalg.eigvalsh(psi)
        if eigs.min() < -1e-8 * max(np.abs(eigs).max(), RIDGE):
            raise ValueError(
                f"interference-plus-noise matrix for user {k} is not PSD "
                f"(min eigenvalue {eigs.min():.3g})"
            )
        per_ue[k] = _logdet_se(e_mat, psi)
    return per_ue


def draw_channel_grid(stats: ChannelStats, mask: np.ndarray, n: int, rng: np.random.Generator):
    """Draw ``n`` realizations of every link's full channel B * H.

    Returns nested lists ``g[m][k]`` of shape (n, N_r, N_s).  Draw order is
    fixed: stations outer, users inner, one ``sample_ssf_batch`` call per
    link, so a generator state gives the same draws however they are later
    accumulated.
    """
    return [[b * sample_ssf_batch(stats, n, rng) for b in row] for row in mask]


def _mc_slice_sums(stats: ChannelStats, mask, powers_sq, size: int, rng):
    """One slice's sums over its draws of C_kk and C_kl Pbar_l C_kl^H.

    Draws ``size`` realizations of every link with ``draw_channel_grid``.
    C_kl = sum_m G_mk^H G_ml for one draw; row l of ``powers_sq`` holds user
    l's per-antenna powers, the diagonal of Pbar_l.  Station m's links stack to
    X_m of shape (size, N_r, K*N_s), and sum_m X_m^H X_m, one batched Gram
    per station, holds C_kl as its (k, l) block.  Returns ``a_sum`` of shape
    (K, N_s, N_s) and ``t_sum`` of shape (K, K, N_s, N_s).
    """
    n_ue = mask.shape[1]
    g = draw_channel_grid(stats, mask, size, rng)
    n_s = g[0][0].shape[2]
    c = np.zeros((size, n_ue * n_s, n_ue * n_s), dtype=complex)
    for row in g:
        x = np.concatenate(row, axis=2)
        c += np.conj(x).swapaxes(1, 2) @ x
    # blocks[k, l, b, d, q] = C_kl[b, q] of draw d
    blocks = c.reshape(size, n_ue, n_s, n_ue, n_s).transpose(1, 3, 2, 0, 4)
    a_sum = np.einsum("kkbdq->kbq", blocks)
    # one product per (k, l) contracts draws and antennas at once
    y = np.ascontiguousarray(blocks).reshape(n_ue, n_ue, n_s, size * n_s)
    weights = np.tile(powers_sq, size)[None, :, None, :]
    t_sum = (y * weights) @ np.conj(y).swapaxes(2, 3)
    return a_sum, t_sum


def se_monte_carlo(
    stats: ChannelStats,
    mask: np.ndarray,
    amplitudes,
    noise_power,
    *,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo spectral efficiency under maximum-ratio combining.

    The draws come from ``rng`` in slices of ``MC_SLICE``, the last one
    partial.  Each slice is drawn and added to the running sums before the
    next is drawn, so a call holds one slice of every link's channels
    however many draws it makes.  Returns the (K,) per-user SE.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    amplitudes = _checked_amplitudes(stats, mask, amplitudes)
    powers_sq = amplitudes**2
    a_hat = t_hat = 0.0
    for lo in range(0, n_draws, MC_SLICE):
        size = min(MC_SLICE, n_draws - lo)
        a_sum, t_sum = _mc_slice_sums(stats, mask, powers_sq, size, rng)
        a_hat += a_sum
        t_hat += t_sum
    per_ue = np.zeros(len(amplitudes))
    for k, amp_k in enumerate(amplitudes):
        a_k = a_hat[k] / n_draws
        e_mat = a_k * amp_k
        psi = t_hat[k].sum(axis=0) / n_draws
        psi = psi - e_mat @ np.conj(e_mat.T) + noise_power * a_k
        psi = (psi + np.conj(psi.T)) / 2.0
        per_ue[k] = _logdet_se(e_mat, psi)
    return per_ue

