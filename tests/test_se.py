import math

import numpy as np
import pytest

from xlmimo.channel import build_surface, make_channel_stats
from xlmimo.se import (
    PowerAllocation,
    SeReport,
    _mc_chunk_sums,
    draw_channel_grid,
    gaussian_moment_oracle,
    interference_terms,
    masked_covariance,
    se_closed_form_mr,
    se_monte_carlo,
    second_moment,
)

WL = 0.01
NOISE = 10 ** ((-69.0 - 30.0) / 10.0)  # -69 dBm in watts


def stats_grid(m_bs=2, k_ue=2, n_h_r=2, n_v_r=2, n_h_s=2, n_v_s=1, spacing_factor=3.0):
    """Small multi-station grid with users at staggered positions."""
    grid = []
    for m in range(m_bs):
        row = []
        rx = build_surface(n_h_r, n_v_r, WL / spacing_factor, (200.0 * m, 0.0, 10.0))
        for k in range(k_ue):
            tx = build_surface(n_h_s, n_v_s, WL / spacing_factor, (50.0 + 80.0 * k, 40.0, 1.5))
            row.append(make_channel_stats(rx, tx, WL))
        grid.append(row)
    return grid


def full_power(n_s, budget=0.2):
    return PowerAllocation(np.full(n_s, math.sqrt(budget / n_s)), budget)


def transmit_matrix(p: PowerAllocation) -> np.ndarray:
    """The dense diagonal transmit matrix P = diag(amplitudes)."""
    return np.diag(p.amplitudes.astype(complex))


def power_gram(p: PowerAllocation) -> np.ndarray:
    """The dense P P^H of one allocation."""
    pmat = transmit_matrix(p)
    return pmat @ np.conj(pmat.T)


class TestPowerAllocation:
    def test_trace_within_budget(self):
        p = PowerAllocation([0.3, 0.4], budget=0.25)
        assert p.trace == pytest.approx(0.25)
        np.testing.assert_allclose(p.amplitudes**2, [0.09, 0.16])

    def test_rejects_over_budget(self):
        with pytest.raises(ValueError, match="exceeds the budget"):
            PowerAllocation([1.0, 1.0], budget=1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PowerAllocation([-0.1], budget=1.0)


class TestMonteCarloSe:
    def test_zero_power_zero_se(self):
        grid = stats_grid(1, 1)
        p = [PowerAllocation(np.zeros(2), budget=0.2)]
        rep = se_monte_carlo(grid, p, NOISE, n_draws=50, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(rep.per_ue, [0.0])
        assert rep.sum_se == 0.0

    def test_symmetric_users_agree(self):
        # both users share identical statistics; SE gap is only MC noise
        base = stats_grid(2, 1)
        grid = [[row[0], row[0]] for row in base]
        p = [full_power(2), full_power(2)]
        rep = se_monte_carlo(grid, p, NOISE, n_draws=4000, rng=np.random.default_rng(5))
        assert abs(rep.per_ue[0] - rep.per_ue[1]) <= 0.05 * rep.per_ue.mean()

    def test_matches_straight_line_reimplementation(self):
        grid = stats_grid(1, 1, n_h_r=2, n_v_r=1, n_h_s=1, n_v_s=1)
        p = [full_power(1)]
        n = 500
        seed = 11
        rep = se_monte_carlo(
            grid, p, NOISE, n_draws=n, rng=np.random.default_rng(seed), chunk_size=1024
        )
        # independent straight-line evaluation of the same bound on the same draws
        child = np.random.default_rng(seed).spawn(1)[0]
        g = draw_channel_grid(grid, n, child, mask="lsf")[0][0]
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
        assert rep.per_ue[0] == pytest.approx(expected, abs=1e-12)

    def test_chunk_partition_invariance(self):
        grid = stats_grid(1, 2, n_h_r=2, n_v_r=1)
        p = [full_power(2), full_power(2)]
        seed = 9
        rep = se_monte_carlo(
            grid, p, NOISE, n_draws=300, rng=np.random.default_rng(seed), chunk_size=100
        )
        # process the same chunk schedule out of order, reduce in chunk order
        children = np.random.default_rng(seed).spawn(3)
        powers_sq = [q.amplitudes**2 for q in p]
        results = {}
        for idx in [2, 0, 1]:
            results[idx] = _mc_chunk_sums(grid, powers_sq, 100, children[idx], "lsf")
        a_hat = sum(results[i][0][0] for i in range(3)) / 300
        e_mat = a_hat @ transmit_matrix(p[0])
        psi = sum(results[i][1][0][0] + results[i][1][0][1] for i in range(3)) / 300
        psi = psi - e_mat @ np.conj(e_mat.T) + NOISE * a_hat
        ridge = 1e-12 * np.trace(psi).real / 2
        m = np.eye(2) + np.conj(e_mat.T) @ np.linalg.solve(psi + ridge * np.eye(2), e_mat)
        sign, logabs = np.linalg.slogdet(m)
        assert rep.per_ue[0] == pytest.approx(logabs / math.log(2), abs=1e-12)

    def test_deterministic(self):
        grid = stats_grid(1, 1)
        p = [full_power(2)]
        r1 = se_monte_carlo(grid, p, NOISE, n_draws=200, rng=np.random.default_rng(7))
        r2 = se_monte_carlo(grid, p, NOISE, n_draws=200, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(r1.per_ue, r2.per_ue)


class TestClosedFormSe:
    def test_zero_power_zero_se(self):
        grid = stats_grid(2, 2)
        p = [PowerAllocation(np.zeros(2), 0.2) for _ in range(2)]
        rep = se_closed_form_mr(grid, p, NOISE)
        np.testing.assert_array_equal(rep.per_ue, [0.0, 0.0])

    def test_agrees_with_monte_carlo(self):
        grid = stats_grid(2, 2)
        p = [full_power(2), full_power(2)]
        closed = se_closed_form_mr(grid, p, NOISE)
        mc = se_monte_carlo(grid, p, NOISE, n_draws=4000, rng=np.random.default_rng(17))
        rel = np.abs(closed.per_ue - mc.per_ue) / mc.per_ue
        assert np.all(rel <= 0.05)

    def test_noise_monotonicity(self):
        grid = stats_grid(2, 2)
        p = [full_power(2), full_power(2)]
        low = se_closed_form_mr(grid, p, NOISE)
        high = se_closed_form_mr(grid, p, 10.0 * NOISE)
        assert np.all(high.per_ue < low.per_ue)

    def test_power_scaling_single_user(self):
        grid = stats_grid(2, 1)
        prev = None
        for c in [1.0, 0.7, 0.4, 0.1]:
            p = [PowerAllocation(c * np.full(2, math.sqrt(0.1)), 0.2)]
            se = se_closed_form_mr(grid, p, NOISE).sum_se
            if prev is not None:
                assert se <= prev + 1e-12
            prev = se

    def test_matches_loop_based_moment_algebra(self):
        # rebuild each user's interference matrix from the explicit per-pair terms
        grid = stats_grid(2, 2, n_h_r=2, n_v_r=1, n_h_s=2, n_v_s=1)
        p = [full_power(2, 0.2), full_power(2, 0.15)]
        pbar = [power_gram(q) for q in p]
        n_r, n_s = grid[0][0].n_r, grid[0][0].n_s
        covs = [[masked_covariance(grid[m][k], "lsf") for k in range(2)] for m in range(2)]
        z = [[second_moment(covs[m][k], n_r, n_s) for k in range(2)] for m in range(2)]
        r4 = [
            [covs[m][k].reshape(n_r, n_s, n_r, n_s, order="F") for k in range(2)]
            for m in range(2)
        ]
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
            psi_prod = interference_terms(r4, pbar, k) + NOISE * z_sum
            np.testing.assert_allclose(psi_prod, psi_theorem, rtol=1e-10, atol=1e-22)

    def test_deterministic_report(self):
        grid = stats_grid(1, 2)
        p = [full_power(2), full_power(2)]
        r1 = se_closed_form_mr(grid, p, NOISE)
        r2 = se_closed_form_mr(grid, p, NOISE)
        np.testing.assert_array_equal(r1.per_ue, r2.per_ue)
        assert isinstance(r1, SeReport)


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

    def test_unknown_mask(self):
        grid = stats_grid(1, 1)
        with pytest.raises(ValueError, match="mask"):
            se_closed_form_mr(grid, [full_power(2)], NOISE, mask="sparse")
