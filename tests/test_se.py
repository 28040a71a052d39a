import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo import se
from xlmimo.channel import (
    ChannelStats,
    build_surface,
    fresnel_beta,
    lsf_matrix,
    make_channel_stats,
    sample_ssf_batch,
)
from xlmimo.env import CellFreeEnv
from xlmimo.harness.config import make_config
from xlmimo.seeding import stream
from xlmimo.se import (
    FACTORED_MIN_DIM,
    MC_SLICE,
    _dense_moments,
    _factored_moments,
    _logdet_se,
    _mc_slice_sums,
    draw_channel_grid,
    se_closed_form_mr,
    se_monte_carlo,
    uniform_amplitudes,
)

WL = 0.01
NOISE = 10 ** ((-69.0 - 30.0) / 10.0)  # -69 dBm in watts


def link_masks(stations, users):
    """Both large-scale masks of every link from ``users`` to ``stations``.

    Returns {"beta": (M, K) betas, "lsf": (M, K, N_r, N_s) lsf matrices}.
    """
    return {
        "beta": np.array([[fresnel_beta(rx, tx, WL) for tx in users] for rx in stations]),
        "lsf": np.array([[lsf_matrix(rx, tx, WL) for tx in users] for rx in stations]),
    }


def stats_grid(m_bs=2, k_ue=2, n_h_r=2, n_v_r=2, n_h_s=2, n_v_s=1, spacing_factor=3.0,
               kind="lsf"):
    """Small multi-station system with users at staggered positions.

    Returns the shared statistics and the mask of the given ``kind`` (see
    ``link_masks``), by default the (M, K, N_r, N_s) lsf mask.
    """
    spacing = WL / spacing_factor
    stations = [
        build_surface(n_h_r, n_v_r, spacing, (200.0 * m, 0.0, 10.0)) for m in range(m_bs)
    ]
    users = [
        build_surface(n_h_s, n_v_s, spacing, (50.0 + 80.0 * k, 40.0, 1.5)) for k in range(k_ue)
    ]
    stats = make_channel_stats(
        build_surface(n_h_r, n_v_r, spacing), build_surface(n_h_s, n_v_s, spacing), WL
    )
    return stats, link_masks(stations, users)[kind]


def full_power(n_ue, n_s, budget=0.2):
    """(K, N_s) amplitudes: every user splits ``budget`` uniformly."""
    return uniform_amplitudes(np.full(n_ue, budget), n_s)


def transmit_matrix(a: np.ndarray) -> np.ndarray:
    """The dense diagonal transmit matrix P = diag(a) of one user's amplitudes."""
    return np.diag(a.astype(complex))


def power_gram(a: np.ndarray) -> np.ndarray:
    """The dense P P^H of one user's amplitudes."""
    pmat = transmit_matrix(a)
    return pmat @ np.conj(pmat.T)


def second_moment(cov, n_r, n_s):
    """E{G^H G} from the covariance of vec(G)."""
    return np.einsum("apai->ip", cov.reshape((n_r, n_s, n_r, n_s), order="F"))


def masked_covariance(corr: np.ndarray, b) -> np.ndarray:
    """Covariance of the vectorized full channel B * H of one link.

    ``b`` is the link's mask: a scalar beta or the (N_r, N_s) matrix of
    per-antenna-pair coefficients.  A scalar is squared on its own with
    ``**`` (C ``pow``), which can differ from ``b * b`` in the last bit.
    """
    if np.ndim(b) == 0:
        return (b**2) * corr
    vec_b = b.reshape(-1, order="F")
    return corr * np.outer(vec_b, vec_b)


def grid_moments(stats, mask, amplitudes):
    """Reference for both moment paths of the closed form: every link's moments built first.

    Builds the M x K grids of covariances, r4 tensors, second moments and
    receive-side weights before contracting any of them, then sums each
    user's interference with stations outer and users l inner.
    """
    n_bs, n_ue = mask.shape[:2]
    n_r, n_s = stats.n_r, stats.n_s
    cov_grid = [[masked_covariance(stats.corr, b) for b in row] for row in mask]
    r4_grid = [
        [cov.reshape((n_r, n_s, n_r, n_s), order="F") for cov in row] for row in cov_grid
    ]
    z_grid = [[second_moment(cov, n_r, n_s) for cov in row] for row in cov_grid]
    pbar = [np.diag(a.astype(complex) ** 2) for a in amplitudes]
    weight_grid = [
        [np.einsum("apbq,pq->ab", r4, pbar_l) for r4, pbar_l in zip(row, pbar)]
        for row in r4_grid
    ]
    z_sum = np.array([np.sum([z_grid[m][k] for m in range(n_bs)], axis=0) for k in range(n_ue)])
    interference = np.zeros((n_ue, n_s, n_s), dtype=complex)
    for k in range(n_ue):
        for r4_row, weight_row in zip(r4_grid, weight_grid):
            for w in weight_row:
                interference[k] += np.einsum("bjai,ab->ij", r4_row[k], w)
    return z_sum, interference


def grid_closed_form(stats, mask, amplitudes, noise_power):
    """Reference for ``se_closed_form_mr`` on the moments of ``grid_moments``."""
    z_sum, interference = grid_moments(stats, mask, amplitudes)
    per_ue = np.zeros(len(amplitudes))
    for k, a in enumerate(amplitudes):
        psi = interference[k] + noise_power * z_sum[k]
        psi = (psi + np.conj(psi.T)) / 2.0
        per_ue[k] = _logdet_se(z_sum[k] * a, psi)
    return per_ue


def gaussian_moment_oracle(
    cov: np.ndarray,
    pbar: np.ndarray,
    n_r: int,
    n_s: int,
    n_draws: int = 100_000,
    rng: np.random.Generator | None = None,
):
    """Brute-force E{G^H G Pbar G^H G} two independent ways.

    Returns (moment_pairings, moment_simulated): the first from the explicit
    two-pairing expansion of the complex Gaussian fourth moment over all
    index quadruples, the second from averaging exact Gaussian draws.
    Guarded to tiny dimensions.
    """
    dim = n_r * n_s
    if cov.shape != (dim, dim):
        raise ValueError("covariance shape disagrees with n_r * n_s")
    if dim > 8:
        raise ValueError("oracle restricted to n_r * n_s <= 8")
    if rng is None:
        rng = np.random.default_rng()

    def c(a, i, b, j):
        # E{ G[a,i] * conj(G[b,j]) }
        return cov[i * n_r + a, j * n_r + b]

    pairings = np.zeros((n_s, n_s), dtype=complex)
    for i in range(n_s):
        for j in range(n_s):
            acc = 0.0 + 0.0j
            for a in range(n_r):
                for b in range(n_r):
                    for p in range(n_s):
                        for q in range(n_s):
                            acc += pbar[p, q] * (
                                c(a, p, a, i) * c(b, j, b, q)
                                + c(a, p, b, q) * c(b, j, a, i)
                            )
            pairings[i, j] = acc

    # simulation: vec(G) = L w with L L^H = cov, w standard complex normal
    eigval, eigvec = np.linalg.eigh((cov + np.conj(cov.T)) / 2.0)
    eigval = np.clip(eigval, 0.0, None)
    l_fac = eigvec * np.sqrt(eigval)
    w = (
        rng.standard_normal((n_draws, dim)) + 1j * rng.standard_normal((n_draws, dim))
    ) / math.sqrt(2.0)
    vecs = w @ l_fac.T
    g = vecs.reshape(n_draws, n_r, n_s, order="F")
    gram = np.einsum("dab,dac->dbc", np.conj(g), g)
    x = np.einsum("dbc,cq->dbq", gram, pbar)
    simulated = np.einsum("dbq,dqe->dbe", x, gram).mean(axis=0)
    return pairings, simulated


def placed_system(draw, m_bs, k_ue, station_shape, user_shape, spacing_r, spacing_s,
                  zero_shares):
    """(stats, masks, amplitudes) of surfaces of the given shapes placed at random.

    Stations at 10 m height and users at 1.5 m are placed in a 200 m square;
    ``masks`` holds both kinds of large-scale mask (see ``link_masks``).  Each
    user radiates a random share of the 0.2 W budget, split randomly over its
    antennas; with ``zero_shares`` some antennas, or a whole user, get none.
    """
    coord = st.floats(0.0, 200.0)
    users = [
        build_surface(*user_shape, spacing_s, (draw(coord), draw(coord), 1.5))
        for _ in range(k_ue)
    ]
    stations = [
        build_surface(*station_shape, spacing_r, (draw(coord), draw(coord), 10.0))
        for _ in range(m_bs)
    ]
    stats = make_channel_stats(
        build_surface(*station_shape, spacing_r), build_surface(*user_shape, spacing_s), WL
    )
    n_s = user_shape[0] * user_shape[1]
    share = st.floats(0.1, 1.0)
    if zero_shares:
        share = st.one_of(st.just(0.0), share)
    amplitudes = np.zeros((k_ue, n_s))
    for row in amplitudes:
        shares = np.array(draw(st.lists(share, min_size=n_s, max_size=n_s)))
        load = draw(st.floats(0.2, 1.0))
        total = shares.sum()
        row[:] = np.sqrt(0.2 * load * shares / total) if total > 0 else shares
    return stats, link_masks(stations, users), amplitudes


@st.composite
def small_systems(
    draw, user_shapes=((1, 1), (2, 1), (3, 1), (1, 3)), min_r=1, zero_shares=False
):
    """Random small cell-free system (see ``placed_system``) with M, K >= 2.

    Stations are n_h x n_v surfaces of up to 3 x 3 antennas, users the given
    surface shapes, so N_r * N_s is at most 27.
    """
    m_bs = draw(st.integers(2, 3))
    k_ue = draw(st.integers(2, 3))
    n_h_r = draw(st.integers(min_r, 3))
    n_v_r = draw(st.integers(min_r, 3))
    user_shape = draw(st.sampled_from(user_shapes))
    spacing_r = draw(st.floats(0.2, 0.45)) * WL
    spacing_s = draw(st.floats(0.34, 0.45)) * WL
    return placed_system(draw, m_bs, k_ue, (n_h_r, n_v_r), user_shape, spacing_r, spacing_s,
                         zero_shares)


@st.composite
def wide_systems(draw):
    """Random cell-free system (see ``placed_system``) with N_r * N_s >= FACTORED_MIN_DIM.

    M, K >= 2 and N_r * N_s lies between the gate and about 2.5 times it.
    Some user surfaces have a one-point lattice, so their psi is singular
    under a scalar mask: every 2 x 1 and 2 x 2 user, and a 3 x 3 user at a
    third of a wavelength (3 * spacing rounds below the wavelength).
    """
    m_bs = draw(st.integers(2, 3))
    k_ue = draw(st.integers(2, 3))
    user_shape = draw(st.sampled_from(((3, 1), (1, 3), (3, 3), (2, 1), (2, 2))))
    n_s = user_shape[0] * user_shape[1]
    n_h_r = draw(st.integers(4, 10))
    min_v = -(-FACTORED_MIN_DIM // (n_h_r * n_s))
    n_v_r = draw(st.integers(min_v, min_v + 2))
    spacing_r = draw(st.floats(0.2, 0.45)) * WL
    spacing_s = draw(st.one_of(st.floats(0.34, 0.45), st.just(1.0 / 3.0))) * WL
    return placed_system(draw, m_bs, k_ue, (n_h_r, n_v_r), user_shape, spacing_r, spacing_s,
                         zero_shares=True)


def einsum_sample_ssf_batch(stats, n, rng):
    """Reference for ``sample_ssf_batch``: the three-operand einsum form."""
    n_r_pts = stats.v_r.shape[0]
    n_s_pts = stats.v_s.shape[0]
    re = rng.standard_normal((n, n_r_pts, n_s_pts))
    im = rng.standard_normal((n, n_r_pts, n_s_pts))
    w = (re + 1j * im) / math.sqrt(2.0)
    q = np.outer(stats.v_r, stats.v_s)
    return np.einsum("ra,nab,sb->nrs", stats.u_r, q[None, :, :] * w, np.conj(stats.u_s))


def loop_slice_sums(stats, mask, powers_sq, n, rng):
    """Reference for ``_mc_slice_sums``: one einsum per (k, l, m) on einsum draws.

    Draws come in ``draw_channel_grid``'s order (stations outer, users inner).
    """
    g = [
        [
            mask[m, k] * einsum_sample_ssf_batch(stats, n, rng)
            for k in range(mask.shape[1])
        ]
        for m in range(mask.shape[0])
    ]
    n_ue = mask.shape[1]
    n_s = g[0][0].shape[2]
    a_sum = np.zeros((n_ue, n_s, n_s), dtype=complex)
    t_sum = np.zeros((n_ue, n_ue, n_s, n_s), dtype=complex)
    for k in range(n_ue):
        for l in range(n_ue):
            c = np.zeros((n, n_s, n_s), dtype=complex)
            for row in g:
                c += np.einsum("dab,dac->dbc", np.conj(row[k]), row[l])
            if l == k:
                a_sum[k] = c.sum(axis=0)
            x = c * powers_sq[l]
            t_sum[k, l] = np.einsum("dbq,deq->dbe", x, np.conj(c)).sum(axis=0)
    return a_sum, t_sum


def random_stats(n_r, n_s, rng):
    """Statistics from random complex wave-vector matrices and deviations.

    A surface's own statistics have real Kronecker factors (its lattice and
    antennas are symmetric about its centre); these have complex Hermitian
    ones, so every conjugate and modulus in the moments shows.
    """
    def side(n):
        n_pts = n // 2 + 1
        u = rng.standard_normal((n, n_pts)) + 1j * rng.standard_normal((n, n_pts))
        return u / n, rng.uniform(0.5, 2.0, n_pts)

    (u_r, v_r), (u_s, v_s) = side(n_r), side(n_s)
    return ChannelStats(u_r=u_r, u_s=u_s, v_r=v_r, v_s=v_s)


def random_mask(kind, m_bs, k_ue, n_r, n_s, rng):
    """Positive masks of lsf-like scale: (M, K) betas or (M, K, N_r, N_s) coefficients."""
    shape = (m_bs, k_ue) if kind == "beta" else (m_bs, k_ue, n_r, n_s)
    return rng.uniform(0.5e-5, 2e-5, shape)


def assert_blockwise_close(actual, expected, rtol):
    """Every trailing (N_s, N_s) block within ``rtol`` of its reference, by norm."""
    actual = actual.reshape(-1, *actual.shape[-2:])
    expected = expected.reshape(-1, *expected.shape[-2:])
    for a, e in zip(actual, expected):
        assert np.linalg.norm(a - e) <= rtol * np.linalg.norm(e)


class TestAmplitudes:
    def test_uniform_split(self):
        a = uniform_amplitudes([0.2, 0.0, 0.05], 4)
        assert a.shape == (3, 4)
        np.testing.assert_array_equal(a[0], math.sqrt(0.05))
        np.testing.assert_array_equal(a[1], 0.0)
        np.testing.assert_allclose(np.sum(a**2, axis=1), [0.2, 0.0, 0.05], rtol=1e-15)

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2), (2, 1), (2, 3), (2, 2, 1)])
    def test_both_evaluators_reject_misshaped_amplitudes(self, shape):
        stats, lsf = stats_grid(2, 2)
        assert (lsf.shape[1], stats.n_s) == (2, 2)
        amplitudes = np.full(shape, 0.1)
        with pytest.raises(ValueError, match="shape"):
            se_closed_form_mr(stats, lsf, amplitudes, NOISE)
        with pytest.raises(ValueError, match="shape"):
            se_monte_carlo(stats, lsf, amplitudes, NOISE, n_draws=10,
                           rng=np.random.default_rng(0))


class TestMonteCarloSe:
    def test_zero_power_zero_se(self):
        stats, lsf = stats_grid(1, 1)
        rep = se_monte_carlo(stats, lsf, np.zeros((1, 2)), NOISE, n_draws=50,
                             rng=np.random.default_rng(0))
        np.testing.assert_array_equal(rep, [0.0])

    def test_symmetric_users_agree(self):
        # both users share identical statistics; SE gap is only MC noise
        stats, lsf = stats_grid(2, 1)
        lsf = np.concatenate([lsf, lsf], axis=1)
        p = full_power(2, 2)
        rep = se_monte_carlo(stats, lsf, p, NOISE, n_draws=4000, rng=np.random.default_rng(5))
        assert abs(rep[0] - rep[1]) <= 0.05 * rep.mean()

    def test_matches_straight_line_reimplementation(self):
        stats, lsf = stats_grid(1, 1, n_h_r=2, n_v_r=1, n_h_s=1, n_v_s=1)
        p = full_power(1, 1)
        n = 500  # not a multiple of MC_SLICE: the last slice is partial
        seed = 11
        rep = se_monte_carlo(stats, lsf, p, NOISE, n_draws=n, rng=np.random.default_rng(seed))
        # independent straight-line evaluation of the same bound on the same
        # draws, taken slice by slice from one generator
        rng = np.random.default_rng(seed)
        g = np.concatenate([
            draw_channel_grid(stats, lsf, min(MC_SLICE, n - lo), rng)[0][0]
            for lo in range(0, n, MC_SLICE)
        ])
        pmat = transmit_matrix(p[0])
        pbar = power_gram(p[0])
        a_hat = np.zeros((1, 1), dtype=complex)
        t_hat = np.zeros((1, 1), dtype=complex)
        for d in range(n):
            gram = np.conj(g[d].T) @ g[d]
            a_hat += gram
            t_hat += gram @ pbar @ np.conj(gram.T)
        a_hat /= n
        t_hat /= n
        e_mat = a_hat @ pmat
        psi = t_hat - e_mat @ np.conj(e_mat.T) + NOISE * a_hat
        psi_reg = psi + 1e-12 * (np.trace(psi).real / 1) * np.eye(1)
        m = np.eye(1) + np.conj(e_mat.T) @ np.linalg.solve(psi_reg, e_mat)
        expected = float(np.log2(np.linalg.det(m).real))
        assert rep[0] == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        stats, lsf = stats_grid(1, 1)
        p = full_power(1, 2)
        r1 = se_monte_carlo(stats, lsf, p, NOISE, n_draws=200, rng=np.random.default_rng(7))
        r2 = se_monte_carlo(stats, lsf, p, NOISE, n_draws=200, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(r1, r2)


class TestMonteCarloReferences:
    DRAWS = 300  # not a multiple of MC_SLICE: the last slice is partial

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(small_systems(), st.sampled_from(["lsf", "beta"]), st.integers(0, 2**32 - 1))
    def test_matches_einsum_sampling_and_loop_accumulation(self, system, kind, seed):
        stats, masks, amplitudes = system
        mask = masks[kind]
        assert self.DRAWS % MC_SLICE
        assert_blockwise_close(
            sample_ssf_batch(stats, self.DRAWS, np.random.default_rng(seed)),
            einsum_sample_ssf_batch(stats, self.DRAWS, np.random.default_rng(seed)),
            rtol=1e-12,
        )
        powers_sq = amplitudes**2
        # both walk the draws slice by slice, each from one generator
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo in range(0, self.DRAWS, MC_SLICE):
            size = min(MC_SLICE, self.DRAWS - lo)
            a_sum, t_sum = _mc_slice_sums(stats, mask, powers_sq, size, rng)
            a_ref, t_ref = loop_slice_sums(stats, mask, powers_sq, size, rng_ref)
            assert_blockwise_close(a_sum, a_ref, rtol=1e-12)
            assert_blockwise_close(t_sum, t_ref, rtol=1e-12)


class TestClosedFormReference:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_systems(zero_shares=True))
    def test_bitwise_equal_to_grid_reference(self, system):
        # below the gate the station-outer pass adds the same terms in the
        # same order as the grid algorithm, so every moment and every
        # per-user SE is equal to the last bit
        stats, masks, amplitudes = system
        assert stats.n_r * stats.n_s < FACTORED_MIN_DIM
        for kind in ("lsf", "beta"):
            mask = masks[kind]
            for moment, reference in zip(
                _dense_moments(stats, mask, amplitudes), grid_moments(stats, mask, amplitudes)
            ):
                assert moment.tobytes() == reference.tobytes(), f"mask={kind}"
            per_ue = se_closed_form_mr(stats, mask, amplitudes, NOISE)
            reference = grid_closed_form(stats, mask, amplitudes, NOISE)
            assert per_ue.tobytes() == reference.tobytes(), f"mask={kind}"


class TestRandomizedAgreement:
    """Closed form vs Monte-Carlo on random small geometries with full-rank psi.

    Users are 3-antenna rows or columns spaced at least 0.34 wavelengths, so
    each user-side lattice holds 3 points and every user's sum_m E{G^H G},
    hence psi, is full rank (checked below).  Geometries with a singular psi,
    such as 2 x 1 users at a third of a wavelength whose lattice is the single
    point (0, 0), take the ridge of the log-det and are left to ROADMAP
    item 2(b).  The tolerance is C01's 2% at 10,000 draws, scaled by
    sqrt(10,000 / draws).
    """

    DRAWS = 4000

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_systems(user_shapes=((3, 1), (1, 3)), min_r=2))
    def test_closed_form_agrees_with_monte_carlo(self, system):
        stats, masks, amplitudes = system
        tol = 0.02 * math.sqrt(10_000 / self.DRAWS)
        for kind in ("lsf", "beta"):
            mask = masks[kind]
            for z_sum in _dense_moments(stats, mask, amplitudes)[0]:
                eigs = np.linalg.eigvalsh(z_sum)
                assert eigs.min() > 1e-3 * eigs.max()
            closed = se_closed_form_mr(stats, mask, amplitudes, NOISE)
            mc = se_monte_carlo(
                stats, mask, amplitudes, NOISE, n_draws=self.DRAWS, rng=np.random.default_rng(17)
            )
            rel = np.abs(closed - mc) / closed
            assert np.all(rel <= tol), f"mask={kind}: relative errors {rel}"


class TestMonteCarloMemory:
    # the C10 trend-lab geometry (tests/test_acceptance.py TREND)
    TREND_GEOMETRY = dict(
        wavelength=2.0, area=120.0, min_bs_spacing=40.0, n_h_s=4, n_v_s=1,
        lsf_mode="lsf", fixed_placement=True, seed=1,
    )

    def test_peak_flat_in_draw_count(self):
        # 10,000 draws, as `xlmimo simulate` runs by default, must hold no more
        # than one slice of draws does
        cfg = make_config(self.TREND_GEOMETRY)
        env = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
        env.reset()
        mask = env.stats_grid()
        powers = full_power(cfg.k_ue, env.n_s, cfg.p_max)

        def peak(n_draws):
            tracemalloc.start()
            try:
                se_monte_carlo(
                    env.channel_stats, mask, powers, cfg.noise_power, n_draws=n_draws,
                    rng=stream(cfg.seed, "mc"),
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_slice = peak(MC_SLICE)
        full = peak(10_000)
        assert full <= 1.05 * one_slice, (
            f"peak {full / 1e6:.2f} MB at 10,000 draws, {one_slice / 1e6:.2f} MB at one slice"
        )


class TestClosedFormMemory:
    def test_peak_flat_in_station_count(self):
        # a 4 x 4 receive surface and 4 user antennas: each link's 64 x 64
        # covariance dominates the working set, and only one station's links
        # may be alive at a time
        def peak(m_bs):
            stats, lsf = stats_grid(m_bs, 3, n_h_r=4, n_v_r=4, n_h_s=4, n_v_s=1)
            powers = full_power(3, stats.n_s)
            tracemalloc.start()
            try:
                se_closed_form_mr(stats, lsf, powers, NOISE)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two, six = peak(2), peak(6)
        assert six <= 1.1 * two, (
            f"peak {six / 1e3:.1f} kB with 6 stations, {two / 1e3:.1f} kB with 2"
        )


class TestMaskedCovariance:
    def test_scalar_beta_squared_as_python_float(self):
        # for this beta, b**2 (C pow) and b * b differ in the last bit with
        # glibc's pow; beta-mode covariances square one link's scalar at a
        # time, and squaring the whole (M, K) array at once would give b * b
        b = 3.8790762013682215e-05
        stats, _ = stats_grid(1, 1)
        expected = (float(b) ** 2) * stats.corr
        assert masked_covariance(stats.corr, np.float64(b)).tobytes() == expected.tobytes()
        # the closed form squares it the same way
        z_sum, _ = _dense_moments(stats, np.array([[b]]), full_power(1, stats.n_s))
        z_ref = second_moment(expected, stats.n_r, stats.n_s)
        assert z_sum[0].tobytes() == z_ref.tobytes()


class TestFactoredClosedForm:
    """From FACTORED_MIN_DIM up, the closed form takes the Kronecker-factored moments."""

    @staticmethod
    def count_factored(monkeypatch):
        """Record each call of ``_factored_moments``, which still runs."""
        calls = []
        monkeypatch.setattr(
            se, "_factored_moments", lambda *args: calls.append(1) or _factored_moments(*args)
        )
        return calls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(wide_systems())
    def test_matches_grid_reference(self, system):
        stats, masks, amplitudes = system
        assert stats.n_r * stats.n_s >= FACTORED_MIN_DIM
        for kind in ("lsf", "beta"):
            mask = masks[kind]
            z_sum, interference = _factored_moments(stats, mask, amplitudes)
            z_ref, interference_ref = grid_moments(stats, mask, amplitudes)
            assert_blockwise_close(z_sum, z_ref, rtol=1e-12)
            assert_blockwise_close(interference, interference_ref, rtol=1e-12)
            per_ue = se_closed_form_mr(stats, mask, amplitudes, NOISE)
            reference = grid_closed_form(stats, mask, amplitudes, NOISE)
            for k in range(len(amplitudes)):
                # a singular psi leaves the SE to the log-det's ridge
                eigs = np.linalg.eigvalsh(interference_ref[k] + NOISE * z_ref[k])
                if eigs.min() > 1e-3 * eigs.max():
                    assert per_ue[k] == pytest.approx(reference[k], rel=1e-10, abs=1e-15), (
                        f"mask={kind}, user {k}"
                    )

    @pytest.mark.parametrize("kind", ["lsf", "beta"])
    def test_complex_factors_match_grid_reference(self, kind):
        rng = np.random.default_rng(5)
        stats = random_stats(32, 6, rng)
        for factor in (stats.corr_r, stats.corr_s):
            assert np.abs(factor.imag).max() > 0.1 * np.abs(factor.real).max()
        mask = random_mask(kind, 3, 2, stats.n_r, stats.n_s, rng)
        amplitudes = rng.uniform(0.0, 0.2, (2, stats.n_s))
        z_sum, interference = _factored_moments(stats, mask, amplitudes)
        z_ref, interference_ref = grid_moments(stats, mask, amplitudes)
        assert_blockwise_close(z_sum, z_ref, rtol=1e-12)
        assert_blockwise_close(interference, interference_ref, rtol=1e-12)

    @pytest.mark.parametrize("n_r, factored", [(47, False), (48, True)])
    def test_gate_at_factored_min_dim(self, monkeypatch, n_r, factored):
        calls = self.count_factored(monkeypatch)
        rng = np.random.default_rng(6)
        stats = random_stats(n_r, 4, rng)
        assert 48 * 4 == FACTORED_MIN_DIM
        mask = random_mask("lsf", 2, 2, stats.n_r, stats.n_s, rng)
        se_closed_form_mr(stats, mask, full_power(2, stats.n_s), NOISE)
        assert calls == ([1] if factored else [])

    @pytest.mark.parametrize("geometry", ["desk", "trend"])
    @pytest.mark.parametrize("lsf_mode", ["lsf", "beta"])
    def test_desk_and_trend_stay_dense(self, monkeypatch, geometry, lsf_mode):
        def no_factored(*args):
            raise AssertionError("factored moments taken below FACTORED_MIN_DIM")

        monkeypatch.setattr(se, "_factored_moments", no_factored)
        geo = TestMonteCarloMemory.TREND_GEOMETRY if geometry == "trend" else {}
        cfg = make_config({**geo, "lsf_mode": lsf_mode})
        env = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
        env.reset()
        assert env.channel_stats.n_r * env.n_s < FACTORED_MIN_DIM
        powers = full_power(cfg.k_ue, env.n_s, cfg.p_max)
        se_closed_form_mr(env.channel_stats, env.stats_grid(), powers, cfg.noise_power)

    @pytest.mark.parametrize("lsf_mode", ["lsf", "beta"])
    def test_full_preset_takes_factored(self, monkeypatch, lsf_mode):
        def no_dense(*args):
            raise AssertionError("dense moments taken from FACTORED_MIN_DIM up")

        monkeypatch.setattr(se, "_dense_moments", no_dense)
        calls = self.count_factored(monkeypatch)
        cfg = make_config({"lsf_mode": lsf_mode}, preset="full")
        env = CellFreeEnv(cfg.env_params(), stream(cfg.seed, "env"))
        env.reset()
        assert env.channel_stats.n_r * env.n_s >= FACTORED_MIN_DIM
        powers = full_power(cfg.k_ue, env.n_s, cfg.p_max)
        se_closed_form_mr(env.channel_stats, env.stats_grid(), powers, cfg.noise_power)
        assert calls == [1]
        # the dense (N_r * N_s)^2 covariance was never built
        assert "corr" not in vars(env.channel_stats)

    def test_full_shape_peak_memory(self):
        # 9 stations, 6 users, 9 x 9 / 3 x 3 surfaces: one dense link
        # covariance alone would take 8.5 MB
        stats, lsf = stats_grid(9, 6, n_h_r=9, n_v_r=9, n_h_s=3, n_v_s=3)
        powers = full_power(6, stats.n_s)
        tracemalloc.start()
        try:
            se_closed_form_mr(stats, lsf, powers, NOISE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


class TestClosedFormSe:
    def test_zero_power_zero_se(self):
        stats, lsf = stats_grid(2, 2)
        rep = se_closed_form_mr(stats, lsf, np.zeros((2, 2)), NOISE)
        np.testing.assert_array_equal(rep, [0.0, 0.0])

    def test_agrees_with_monte_carlo(self):
        stats, lsf = stats_grid(2, 2)
        p = full_power(2, 2)
        closed = se_closed_form_mr(stats, lsf, p, NOISE)
        mc = se_monte_carlo(stats, lsf, p, NOISE, n_draws=4000, rng=np.random.default_rng(17))
        rel = np.abs(closed - mc) / mc
        assert np.all(rel <= 0.05)

    def test_noise_monotonicity(self):
        stats, lsf = stats_grid(2, 2)
        p = full_power(2, 2)
        low = se_closed_form_mr(stats, lsf, p, NOISE)
        high = se_closed_form_mr(stats, lsf, p, 10.0 * NOISE)
        assert np.all(high < low)

    def test_power_scaling_single_user(self):
        stats, lsf = stats_grid(2, 1)
        prev = None
        for c in [1.0, 0.7, 0.4, 0.1]:
            p = c * np.full((1, 2), math.sqrt(0.1))
            se = se_closed_form_mr(stats, lsf, p, NOISE).sum()
            if prev is not None:
                assert se <= prev + 1e-12
            prev = se

    def test_matches_loop_based_moment_algebra(self):
        # rebuild each user's interference matrix from the explicit per-pair terms
        stats, lsf = stats_grid(2, 2, n_h_r=2, n_v_r=1, n_h_s=2, n_v_s=1)
        p = uniform_amplitudes([0.2, 0.15], 2)
        pbar = [power_gram(q) for q in p]
        n_r, n_s = stats.n_r, stats.n_s
        covs = [[masked_covariance(stats.corr, lsf[m, k]) for k in range(2)] for m in range(2)]
        z = [[second_moment(covs[m][k], n_r, n_s) for k in range(2)] for m in range(2)]
        r4 = [
            [covs[m][k].reshape(n_r, n_s, n_r, n_s, order="F") for k in range(2)]
            for m in range(2)
        ]
        z_sum_prod, interference = _dense_moments(stats, lsf, p)
        for k in range(2):
            t_sum = np.zeros((n_s, n_s), dtype=complex)
            for l in range(2):
                for m in range(2):
                    for mp in range(2):
                        if m == mp:
                            if l == k:
                                t_sum += gaussian_moment_oracle(
                                    covs[m][k], pbar[k], n_r, n_s, n_draws=1,
                                    rng=np.random.default_rng(0),
                                )[0]
                            else:
                                w = np.einsum(
                                    "apbq,pq->ab", r4[m][l], pbar[l]
                                )
                                t_sum += np.einsum("bjai,ab->ij", r4[m][k], w)
                        elif l == k:
                            t_sum += z[m][k] @ pbar[k] @ z[mp][k]
            z_sum = z[0][k] + z[1][k]
            e_mat = z_sum @ transmit_matrix(p[k])
            psi_theorem = t_sum - e_mat @ np.conj(e_mat.T) + NOISE * z_sum
            psi_prod = interference[k] + NOISE * z_sum_prod[k]
            np.testing.assert_allclose(psi_prod, psi_theorem, rtol=1e-10, atol=1e-22)

    def test_deterministic_report(self):
        stats, lsf = stats_grid(1, 2)
        p = full_power(2, 2)
        r1 = se_closed_form_mr(stats, lsf, p, NOISE)
        r2 = se_closed_form_mr(stats, lsf, p, NOISE)
        np.testing.assert_array_equal(r1, r2)
        assert r1.shape == (2,) and r1.dtype == np.float64


class TestGaussianMomentOracle:
    def test_zero_weight(self):
        cov = np.eye(2, dtype=complex)
        pair, sim = gaussian_moment_oracle(
            cov, np.zeros((2, 2)), 1, 2, n_draws=100, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(pair, np.zeros((2, 2)))
        np.testing.assert_array_equal(sim, np.zeros((2, 2)))

    def test_scalar_fourth_moment(self):
        pair, sim = gaussian_moment_oracle(
            np.array([[1.0 + 0j]]),
            np.array([[1.0]]),
            1,
            1,
            n_draws=1_000_000,
            rng=np.random.default_rng(12),
        )
        assert pair[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert abs(sim[0, 0] - 2.0) <= 0.01 * 2.0

    def test_pairings_match_simulation(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cov = a @ np.conj(a.T) / 4.0
        b = rng.standard_normal((2, 2))
        pbar = b @ b.T
        pair, sim = gaussian_moment_oracle(cov, pbar, 2, 2, n_draws=400_000, rng=rng)
        rel = np.linalg.norm(pair - sim) / np.linalg.norm(pair)
        assert rel <= 0.01

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="<= 8"):
            gaussian_moment_oracle(np.eye(9, dtype=complex), np.eye(3), 3, 3)


class TestErrorPaths:
    def test_non_finite_interference_diagnostic(self):
        from xlmimo.se import _logdet_se

        e_mat = np.ones((2, 2), dtype=complex)
        psi = np.full((2, 2), np.inf, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            _logdet_se(e_mat, psi)
