import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from xlmimo.channel import (
    build_surface,
    correlation_matrix,
    fresnel_beta,
    lsf_matrix,
    make_channel_stats,
    radiation_pattern_gain,
    sample_ssf_batch,
    variance_profile,
    wave_vector_matrix,
    wavenumber_lattice,
)
from xlmimo.env import CellFreeEnv, EnvParams
from xlmimo.se import draw_channel_grid

WL = 0.01  # 30 GHz carrier


def brute_force_lattice(length_x, length_y, wavelength):
    """Independent enumeration over a conservative integer box."""
    bound = math.ceil(max(length_x, length_y) / wavelength) + 1
    pts = set()
    for lx in range(-bound, bound + 1):
        for ly in range(-bound, bound + 1):
            if (lx * wavelength / length_x) ** 2 + (ly * wavelength / length_y) ** 2 <= 1.0:
                pts.add((lx, ly))
    return pts


class TestBuildSurface:
    def test_single_antenna_at_origin(self):
        geom = build_surface(1, 1, 0.01, (0.0, 0.0, 0.0))
        np.testing.assert_array_equal(geom.positions, [[0.0, 0.0, 0.0]])

    def test_two_by_two_square(self):
        spacing = WL / 3
        geom = build_surface(2, 2, spacing)
        # oracle: direct grid enumeration, row-by-row
        expected = np.array(
            [
                [-spacing / 2, -spacing / 2, 0.0],
                [spacing / 2, -spacing / 2, 0.0],
                [-spacing / 2, spacing / 2, 0.0],
                [spacing / 2, spacing / 2, 0.0],
            ]
        )
        np.testing.assert_allclose(geom.positions, expected, atol=1e-15)
        assert geom.length_x == pytest.approx(2 * spacing)
        assert geom.length_y == pytest.approx(2 * spacing)

    def test_single_row_collinear(self):
        d = 0.004
        geom = build_surface(3, 1, d)
        assert np.allclose(geom.positions[:, 1:], 0.0)
        np.testing.assert_allclose(np.diff(geom.positions[:, 0]), d)
        assert geom.length_x == pytest.approx(3 * d)
        assert geom.length_y == pytest.approx(d)

    def test_row_by_row_indexing(self):
        geom = build_surface(3, 2, 1.0)
        # first three antennas share the lowest y (row 0)
        assert np.allclose(geom.positions[:3, 1], geom.positions[0, 1])
        assert geom.positions[3, 1] > geom.positions[0, 1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_surface(0, 1, 0.01)
        with pytest.raises(ValueError):
            build_surface(1, 1, -1.0)


class TestWavenumberLattice:
    @pytest.mark.parametrize(
        "lx_factor,expected_count",
        [(0.5, 1), (1.0, 5), (2.0, 13)],
    )
    def test_counts_against_brute_force(self, lx_factor, expected_count):
        L = lx_factor * WL
        lat = wavenumber_lattice(L, L, WL)
        assert lat.n_points == expected_count
        assert set(map(tuple, lat.points)) == brute_force_lattice(L, L, WL)

    def test_contains_origin_and_sorted(self):
        lat = wavenumber_lattice(3.2 * WL, 1.7 * WL, WL)
        pts = list(map(tuple, lat.points))
        assert (0, 0) in pts
        assert pts == sorted(pts)

    @given(
        lx=st.floats(min_value=0.1, max_value=8.0),
        ly=st.floats(min_value=0.1, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_completeness_property(self, lx, ly):
        lat = wavenumber_lattice(lx * WL, ly * WL, WL)
        assert set(map(tuple, lat.points)) == brute_force_lattice(lx * WL, ly * WL, WL)


class TestWaveVectorMatrix:
    def test_antenna_at_origin_gives_real_entry(self):
        geom = build_surface(1, 1, WL / 4)
        lat = wavenumber_lattice(geom.length_x, geom.length_y, WL)
        u = wave_vector_matrix(lat, geom, WL)
        np.testing.assert_allclose(u, [[1.0]], atol=1e-15)

    def test_hand_evaluated_phase(self):
        # one antenna shifted to x = wl/4, lattice point (1, 0), Lx = wl
        geom = build_surface(1, 1, WL).translated((WL / 4, 0.0, 0.0))
        lat = wavenumber_lattice(WL, WL, WL)
        u = wave_vector_matrix(lat, geom, WL)
        j = list(map(tuple, lat.points)).index((1, 0))
        np.testing.assert_allclose(u[0, j], np.exp(-1j * math.pi / 2), atol=1e-12)

    def test_unit_modulus_scaled(self):
        geom = build_surface(3, 2, WL / 2.5, (0.3, -0.2, 0.05))
        lat = wavenumber_lattice(geom.length_x, geom.length_y, WL)
        u = wave_vector_matrix(lat, geom, WL)
        np.testing.assert_allclose(np.abs(u), 1.0 / geom.n_antennas, atol=1e-14)

    def test_raw_kz_differs_only_with_z_offset(self):
        geom = build_surface(5, 5, WL / 2.5)  # 2-wavelength sides, non-trivial lattice
        lat = wavenumber_lattice(geom.length_x, geom.length_y, WL)
        a = wave_vector_matrix(lat, geom, WL, raw_kz=False)
        b = wave_vector_matrix(lat, geom, WL, raw_kz=True)
        np.testing.assert_allclose(a, b)  # z = 0 everywhere
        lifted = geom.translated((0.0, 0.0, 0.123))
        a = wave_vector_matrix(lat, lifted, WL, raw_kz=False)
        b = wave_vector_matrix(lat, lifted, WL, raw_kz=True)
        assert not np.allclose(a, b)


class TestVarianceProfile:
    def test_singleton_isotropic(self):
        lat = wavenumber_lattice(WL / 2, WL / 2, WL)
        v = variance_profile(lat, n_antennas=9)
        np.testing.assert_allclose(v, [3.0])

    def test_five_point_isotropic(self):
        lat = wavenumber_lattice(WL, WL, WL)
        v = variance_profile(lat, n_antennas=1)
        np.testing.assert_allclose(v, np.sqrt(1.0 / 5.0))


class TestCorrelationMatrix:
    def test_zero_variances_give_zero(self):
        u = np.ones((2, 3)) / 2.0
        r = correlation_matrix(u, u[:1, :], np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(r, np.zeros((2, 2)))

    def test_scalar_kronecker_by_hand(self):
        a, b = 0.7, 1.3
        r = correlation_matrix(np.array([[1.0]]), np.array([[1.0]]), [a], [b])
        np.testing.assert_allclose(r, [[a**2 * b**2]])

    def test_hermitian_psd(self):
        stats = _stats(3, 3, 2, 1, spacing_factor=2.05)
        r = stats.corr
        assert np.array_equal(r, np.conj(r.T))
        eigs = np.linalg.eigvalsh(r)
        assert eigs.min() >= -1e-8 * np.abs(eigs).max()

    def test_matches_sample_covariance(self):
        stats = _stats(2, 2, 2, 1, spacing_factor=2.2)
        n = 100_000
        rng = np.random.default_rng(7)
        h = sample_ssf_batch(stats, n, rng)
        vecs = h.reshape(n, -1, order="F")
        emp = np.einsum("ni,nj->ij", vecs, np.conj(vecs)) / n
        rel = np.linalg.norm(emp - stats.corr) / np.linalg.norm(stats.corr)
        assert rel <= 0.05


class TestSampleSsf:
    def test_zero_variance_gives_zero(self):
        stats = _stats(2, 1, 1, 1)
        stats.v_r = np.zeros_like(stats.v_r)
        h = sample_ssf_batch(stats, 1, np.random.default_rng(0))
        assert h.shape == (1, 2, 1)
        np.testing.assert_array_equal(h, np.zeros_like(h))

    def test_zero_mean(self):
        stats = _stats(2, 2, 2, 1, spacing_factor=2.2)
        n = 100_000
        h = sample_ssf_batch(stats, n, np.random.default_rng(3))
        mean = h.mean(axis=0)
        std = np.sqrt(np.real(np.diag(stats.corr))).reshape(h.shape[1:], order="F")
        assert np.all(np.abs(mean) <= 3.0 * std / math.sqrt(n))

    def test_deterministic_given_seed(self):
        stats = _stats(2, 2, 1, 1)
        h1 = sample_ssf_batch(stats, 1, np.random.default_rng(42))
        h2 = sample_ssf_batch(stats, 1, np.random.default_rng(42))
        np.testing.assert_array_equal(h1, h2)


class TestLsfMatrix:
    def test_boresight_hand_value(self):
        rx = build_surface(1, 1, WL / 4, (0.0, 0.0, 10.0))
        tx = build_surface(1, 1, WL / 4, (0.0, 0.0, 0.0))
        b = lsf_matrix(rx, tx, WL)
        np.testing.assert_allclose(b, math.sqrt(2.0) * WL / (40.0 * math.pi))

    def test_inverse_distance(self):
        rx1 = build_surface(1, 1, WL / 4, (0.0, 0.0, 10.0))
        rx2 = build_surface(1, 1, WL / 4, (0.0, 0.0, 20.0))
        tx = build_surface(1, 1, WL / 4)
        assert lsf_matrix(rx1, tx, WL)[0, 0] == pytest.approx(
            2.0 * lsf_matrix(rx2, tx, WL)[0, 0]
        )

    def test_pattern_normalization_quadrature(self):
        val, err = quad(lambda t: radiation_pattern_gain(math.cos(t)) * math.sin(t), 0.0, math.pi / 2)
        assert abs(val - 1.0) <= 1e-6

    def test_coincident_antennas_error(self):
        g = build_surface(1, 1, WL / 4)
        with pytest.raises(ValueError, match="coincident"):
            lsf_matrix(g, g, WL)

    def test_positive_and_decreasing(self):
        rx = build_surface(4, 4, WL / 3, (0.0, 0.0, 25.0))
        tx = build_surface(2, 2, WL / 3, (3.0, 1.0, 0.0))
        b = lsf_matrix(rx, tx, WL)
        assert np.all(b > 0)
        d = np.linalg.norm(
            rx.positions[:, None, :] - tx.positions[None, :, :], axis=2
        ).ravel()
        order = np.argsort(d)
        assert np.all(np.diff(b.ravel()[order]) <= 1e-18)


class TestFresnelBeta:
    def test_matches_exact_entries_far_away(self):
        rx = build_surface(4, 4, WL / 2.1, (0.0, 0.0, 100.0))
        tx = build_surface(4, 4, WL / 2.1)
        assert max(rx.aperture, tx.aperture) == pytest.approx(0.08 / 4.2, rel=0.01)
        beta = fresnel_beta(rx, tx, WL)
        exact = lsf_matrix(rx, tx, WL)
        assert np.max(np.abs(exact - beta) / exact) <= 0.01

    def test_hand_value_at_unit_wavelength(self):
        d = 1.0 / (4.0 * math.pi)
        rx = build_surface(1, 1, 1e-4, (0.0, 0.0, d))
        tx = build_surface(1, 1, 1e-4)
        assert fresnel_beta(rx, tx, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_positive_and_guard(self):
        rx = build_surface(2, 2, WL / 3, (0.0, 0.0, 0.001))
        tx = build_surface(2, 2, WL / 3)
        with pytest.raises(ValueError, match="aperture"):
            fresnel_beta(rx, tx, WL)
        far = rx.translated((0.0, 0.0, 50.0))
        assert fresnel_beta(far, tx, WL) > 0


class TestChannelMatrix:
    """The full channel G = B * H, as ``draw_channel_grid`` composes it."""

    def test_identity_mask(self):
        stats = _stats(2, 1, 3, 1)
        ones = np.ones((1, 1, stats.n_r, stats.n_s))
        g = draw_channel_grid(stats, ones, 4, np.random.default_rng(5))[0][0]
        h = sample_ssf_batch(stats, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(g, h)

    def test_zero_ssf(self):
        rx, tx = _surfaces(2, 1, 2, 1)
        stats = make_channel_stats(rx, tx, WL)
        stats.v_s = np.zeros_like(stats.v_s)
        lsf = lsf_matrix(rx, tx, WL)[None, None]
        g = draw_channel_grid(stats, lsf, 3, np.random.default_rng(0))[0][0]
        np.testing.assert_array_equal(g, np.zeros((3, 2, 2)))

    def test_scalar_beta_mode(self):
        stats = _stats(2, 2, 2, 1)
        g = draw_channel_grid(stats, np.array([[0.5]]), 3, np.random.default_rng(1))[0][0]
        h = sample_ssf_batch(stats, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(g, 0.5 * h)


def _surfaces(n_h_r, n_v_r, n_h_s, n_v_s, spacing_factor=3.0, separation=30.0):
    rx = build_surface(n_h_r, n_v_r, WL / spacing_factor, (0.0, 0.0, separation))
    tx = build_surface(n_h_s, n_v_s, WL / spacing_factor)
    return rx, tx


def _stats(*shape, **kwargs):
    return make_channel_stats(*_surfaces(*shape, **kwargs), WL)


class TestMakeChannelStats:
    def test_wave_vector_modulus_invariant(self):
        stats = _stats(3, 2, 2, 2, spacing_factor=2.1)
        np.testing.assert_allclose(np.abs(stats.u_r), 1.0 / stats.n_r, atol=1e-14)
        np.testing.assert_allclose(np.abs(stats.u_s), 1.0 / stats.n_s, atol=1e-14)

    def test_warns_above_half_wavelength(self):
        rx = build_surface(2, 2, 0.6 * WL, (0.0, 0.0, 10.0))
        tx = build_surface(2, 2, WL / 3)
        with pytest.warns(UserWarning, match="half a wavelength"):
            make_channel_stats(rx, tx, WL)

    def test_beta_falls_back_to_lsf_mean_when_close(self):
        # a station 4 mm above its user: the 2 x 2 surfaces' apertures
        # exceed the center distance, so beta is the mean lsf coefficient
        env = CellFreeEnv(
            EnvParams(m_bs=1, k_ue=1, n_h_s=2, n_v_s=2, wavelength=WL, bs_height=0.004,
                      ue_height=0.0),
            np.random.default_rng(0),
        )
        env.set_world([[500.0, 500.0, 0.004]], [[500.0, 500.0, 0.0]])
        geom_r, geom_s = env._pair_geometries(0, 0)
        with pytest.raises(ValueError, match="aperture"):
            fresnel_beta(geom_r, geom_s, WL)
        beta = env.stats_grid()[0, 0]
        assert beta == lsf_matrix(geom_r, geom_s, WL).mean()


class TestLatticeGuards:
    def test_rejects_point_outside_propagating_ellipse(self):
        import numpy as np
        from xlmimo.channel import WavenumberLattice

        bogus = WavenumberLattice(
            points=np.array([[0, 0], [2, 0]]), length_x=WL, length_y=WL, wavelength=WL
        )
        geom = build_surface(2, 1, WL / 3)
        with pytest.raises(ValueError, match="imaginary kz"):
            wave_vector_matrix(bogus, geom, WL)
