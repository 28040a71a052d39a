"""Near-field channel model for planar extremely-large antenna surfaces.

A surface is a rectangular grid of patch antennas in the x-y plane.  The
small-scale fading between two surfaces is expressed in the wavenumber
domain: a finite lattice of spatial-frequency samples inside an ellipse,
one complex Gaussian Fourier coefficient per sample.  Large-scale fading
is a per-antenna-pair free-space term shaped by a normalized radiation
pattern.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "WavenumberLattice",
    "ChannelStats",
    "build_surface",
    "wavenumber_lattice",
    "wave_vector_matrix",
    "variance_profile",
    "correlation_matrix",
    "sample_ssf_batch",
    "lsf_matrix",
    "fresnel_beta",
    "make_channel_stats",
    "radiation_pattern_gain",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar antenna surface: ``n_h`` columns by ``n_v`` rows, row-by-row order."""

    n_h: int
    n_v: int
    spacing: float
    origin: tuple
    positions: np.ndarray  # (n_h*n_v, 3)

    @property
    def n_antennas(self) -> int:
        return self.n_h * self.n_v

    @property
    def length_x(self) -> float:
        return self.n_h * self.spacing

    @property
    def length_y(self) -> float:
        return self.n_v * self.spacing

    @property
    def center(self) -> np.ndarray:
        return self.positions.mean(axis=0)

    @property
    def aperture(self) -> float:
        return max(self.length_x, self.length_y)

    def translated(self, offset) -> "ArrayGeometry":
        off = np.asarray(offset, dtype=float)
        return ArrayGeometry(
            n_h=self.n_h,
            n_v=self.n_v,
            spacing=self.spacing,
            origin=tuple(np.asarray(self.origin, dtype=float) + off),
            positions=self.positions + off,
        )


@dataclass(frozen=True)
class WavenumberLattice:
    """Integer sampling points inside the spatial-frequency ellipse of a surface."""

    points: np.ndarray  # (n, 2) int
    length_x: float
    length_y: float
    wavelength: float

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass
class ChannelStats:
    """Small-scale statistics shared by every BS-UE link of one system.

    ``u_r``/``u_s`` are the receive/transmit wave-vector matrices, ``v_r``/
    ``v_s`` the per-lattice-point standard deviations (already scaled by the
    square root of the antenna count) and ``corr`` the full covariance of the
    vectorized small-scale fading.  They depend only on the two surfaces'
    shapes; a link's large-scale mask is kept apart from them.
    """

    u_r: np.ndarray
    u_s: np.ndarray
    v_r: np.ndarray
    v_s: np.ndarray
    corr: np.ndarray

    @property
    def n_r(self) -> int:
        return self.u_r.shape[0]

    @property
    def n_s(self) -> int:
        return self.u_s.shape[0]


def build_surface(n_h: int, n_v: int, spacing: float, origin=(0.0, 0.0, 0.0)) -> ArrayGeometry:
    """Lay out a planar grid of antennas centered at ``origin``.

    Antennas sit in the x-y plane, columns along x and rows along y, and are
    indexed row-by-row (all of row 0, then row 1, ...).
    """
    if n_h < 1 or n_v < 1:
        raise ValueError("n_h and n_v must be at least 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    origin = np.asarray(origin, dtype=float)
    if origin.shape != (3,):
        raise ValueError("origin must be a 3-vector")
    cols = (np.arange(n_h) - (n_h - 1) / 2.0) * spacing
    rows = (np.arange(n_v) - (n_v - 1) / 2.0) * spacing
    pos = np.empty((n_h * n_v, 3))
    for r in range(n_v):
        for c in range(n_h):
            pos[r * n_h + c] = origin + np.array([cols[c], rows[r], 0.0])
    return ArrayGeometry(n_h=n_h, n_v=n_v, spacing=spacing, origin=tuple(origin), positions=pos)


def wavenumber_lattice(length_x: float, length_y: float, wavelength: float) -> WavenumberLattice:
    """All integer pairs (lx, ly) with (lx*wl/Lx)^2 + (ly*wl/Ly)^2 <= 1.

    Returned in lexicographic order.  Tiny surfaces legitimately yield the
    singleton {(0, 0)}.
    """
    if length_x <= 0 or length_y <= 0 or wavelength <= 0:
        raise ValueError("lengths and wavelength must be positive")
    max_lx = math.floor(length_x / wavelength)
    max_ly = math.floor(length_y / wavelength)
    pts = []
    for lx in range(-max_lx, max_lx + 1):
        for ly in range(-max_ly, max_ly + 1):
            if (lx * wavelength / length_x) ** 2 + (ly * wavelength / length_y) ** 2 <= 1.0:
                pts.append((lx, ly))
    points = np.array(sorted(pts), dtype=int).reshape(-1, 2)
    return WavenumberLattice(points=points, length_x=length_x, length_y=length_y, wavelength=wavelength)


def wave_vector_matrix(
    lattice: WavenumberLattice,
    geom: ArrayGeometry,
    wavelength: float,
    raw_kz: bool = False,
) -> np.ndarray:
    """Phase matrix mapping lattice coefficients to antenna responses.

    Entry (a, j) is ``exp(-i phi) / N`` where ``phi`` accumulates the x, y
    and z components of the j-th lattice point's wave vector at antenna a.
    The z wavenumber uses the scaled lattice indices (2*pi*l/L); set
    ``raw_kz`` to use the raw integer indices instead.

    All entries have modulus exactly 1/N.
    """
    n = geom.n_antennas
    k0 = 2.0 * math.pi / wavelength
    lx = lattice.points[:, 0].astype(float)
    ly = lattice.points[:, 1].astype(float)
    kx = 2.0 * math.pi * lx / lattice.length_x
    ky = 2.0 * math.pi * ly / lattice.length_y
    if raw_kz:
        kz_sq = k0**2 - lx**2 - ly**2
    else:
        kz_sq = k0**2 - kx**2 - ky**2
    if np.any(kz_sq < -1e-12 * k0**2):
        raise ValueError("lattice point outside the propagating ellipse (imaginary kz)")
    kz = np.sqrt(np.maximum(kz_sq, 0.0))
    phase = (
        np.outer(geom.positions[:, 0], kx)
        + np.outer(geom.positions[:, 1], ky)
        + np.outer(geom.positions[:, 2], kz)
    )
    return np.exp(-1j * phase) / n


def variance_profile(lattice: WavenumberLattice, n_antennas: int) -> np.ndarray:
    """Per-lattice-point standard deviations scaled by sqrt(n_antennas).

    The isotropic profile spreads unit total power uniformly over the
    lattice; the returned vector collects sqrt(N) * sigma per point.
    """
    n_pts = lattice.n_points
    if n_pts == 0:
        raise ValueError("lattice must be non-empty")
    return np.sqrt(n_antennas * np.full(n_pts, 1.0 / n_pts))


def correlation_matrix(u_r, u_s, v_r, v_s) -> np.ndarray:
    """Full covariance of the vectorized small-scale fading.

    Equals (conj(Us) kron Ur) D (Us^T kron Ur^H) with D the diagonal of
    squared per-point deviations.  The result is symmetrized to be exactly
    Hermitian.
    """
    u_r = np.asarray(u_r)
    u_s = np.asarray(u_s)
    v_r = np.asarray(v_r, dtype=float)
    v_s = np.asarray(v_s, dtype=float)
    if u_r.shape[1] != v_r.shape[0] or u_s.shape[1] != v_s.shape[0]:
        raise ValueError("wave-vector matrices and variance vectors disagree")
    a = np.kron(np.conj(u_s), u_r)
    d = np.kron(v_s**2, v_r**2)
    r = (a * d) @ np.conj(a.T)
    return (r + np.conj(r.T)) / 2.0


def sample_ssf_batch(stats: ChannelStats, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws of the small-scale fading, shape (n, N_r, N_s).

    Each Fourier coefficient is an independent circularly-symmetric complex
    Gaussian: two real normals scaled by 1/sqrt(2), real parts drawn first.
    Draw d is U_r (Q * W_d) U_s^H with Q the outer product of the per-point
    deviations, taken as two broadcast matrix products.
    """
    n_r_pts = stats.v_r.shape[0]
    n_s_pts = stats.v_s.shape[0]
    re = rng.standard_normal((n, n_r_pts, n_s_pts))
    im = rng.standard_normal((n, n_r_pts, n_s_pts))
    w = (re + 1j * im) / math.sqrt(2.0)
    q = np.outer(stats.v_r, stats.v_s)
    return stats.u_r @ (q * w) @ np.conj(stats.u_s).T


def radiation_pattern_gain(cos_theta) -> np.ndarray:
    """Combined antenna gain times normalized pattern: 2*cos(theta).

    Integrates to one against sin(theta) over [0, pi/2].
    """
    return 2.0 * np.asarray(cos_theta, dtype=float)


def lsf_matrix(geom_r: ArrayGeometry, geom_s: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Per-antenna-pair large-scale fading coefficients (N_r x N_s).

    Entry (a, b) is sqrt(pattern) * wavelength / (4 pi d) with d the
    Euclidean distance between receive antenna a and transmit antenna b and
    the pattern evaluated at the angle between the surface normal (z-axis)
    and the joining line.
    """
    diff = geom_r.positions[:, None, :] - geom_s.positions[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    if np.any(d <= 0):
        raise ValueError("coincident antennas: all pairwise distances must be positive")
    cos_theta = np.abs(diff[:, :, 2]) / d
    return np.sqrt(radiation_pattern_gain(cos_theta)) * wavelength / (4.0 * math.pi * d)


def fresnel_beta(geom_r: ArrayGeometry, geom_s: ArrayGeometry, wavelength: float) -> float:
    """Scalar large-scale coefficient from surface centers.

    Valid only when the center distance exceeds both apertures; callers must
    fall back to :func:`lsf_matrix` otherwise.
    """
    diff = geom_r.center - geom_s.center
    d = float(np.linalg.norm(diff))
    aperture = max(geom_r.aperture, geom_s.aperture)
    if d <= aperture:
        raise ValueError(
            f"center distance {d:.3g} m does not exceed the aperture {aperture:.3g} m"
        )
    cos_theta = abs(diff[2]) / d
    return float(np.sqrt(radiation_pattern_gain(cos_theta)) * wavelength / (4.0 * math.pi * d))


def make_channel_stats(
    geom_r: ArrayGeometry,
    geom_s: ArrayGeometry,
    wavelength: float,
    raw_kz: bool = False,
) -> ChannelStats:
    """Assemble the small-scale statistics of a receive/transmit surface pair.

    Wave-vector matrices are built in each surface's local frame (positions
    relative to its own center) and both sides take the isotropic variance
    profile, so the result does not depend on where the surfaces sit.
    """
    for g, tag in ((geom_r, "receive"), (geom_s, "transmit")):
        if g.spacing >= wavelength / 2.0:
            warnings.warn(
                f"{tag} spacing {g.spacing:.4g} m is not below half a wavelength",
                stacklevel=2,
            )
    local_r = geom_r.translated(-geom_r.center)
    local_s = geom_s.translated(-geom_s.center)
    lat_r = wavenumber_lattice(local_r.length_x, local_r.length_y, wavelength)
    lat_s = wavenumber_lattice(local_s.length_x, local_s.length_y, wavelength)
    u_r = wave_vector_matrix(lat_r, local_r, wavelength, raw_kz=raw_kz)
    u_s = wave_vector_matrix(lat_s, local_s, wavelength, raw_kz=raw_kz)
    v_r = variance_profile(lat_r, local_r.n_antennas)
    v_s = variance_profile(lat_s, local_s.n_antennas)
    corr = correlation_matrix(u_r, u_s, v_r, v_s)
    return ChannelStats(u_r=u_r, u_s=u_s, v_r=v_r, v_s=v_s, corr=corr)
