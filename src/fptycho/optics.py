"""Optical system description: CTF, Zernike pupil basis, illumination geometry.

All frequency bookkeeping is done in cycles/um on DC-centered grids. The
coherent cutoff is na / wavelength; a bin belongs to the pupil iff its radial
frequency is strictly below the cutoff (bins exactly on the cutoff are out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DimensionMismatch, InvalidModeCount, WindowOutOfBounds
from .field import window


@dataclass(frozen=True)
class Illumination:
    """One LED direction, as direction sines of the incoming plane wave."""

    sx: float
    sy: float

    def __post_init__(self):
        if not (self.sx * self.sx + self.sy * self.sy < 1.0):
            raise ValueError(
                f"direction sines must satisfy sx^2 + sy^2 < 1, got ({self.sx}, {self.sy})")


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry of one acquisition: optics, sampling, and LED directions."""

    wavelength_um: float
    na: float
    magnification: float
    camera_pixel_um: float
    upsample: int
    low_rows: int
    low_cols: int
    illuminations: tuple[Illumination, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.wavelength_um <= 0 or self.na <= 0 or self.na >= 1:
            raise ValueError("need wavelength > 0 and 0 < na < 1")
        if self.magnification <= 0 or self.camera_pixel_um <= 0:
            raise ValueError("need magnification > 0 and camera_pixel_um > 0")
        # grid files store dims as u32, and a larger int can overflow the floats below
        if not all(1 <= n < 2 ** 32 for n in (self.upsample, self.low_rows, self.low_cols)):
            raise ValueError("upsample and capture dims must be in [1, 2**32)")
        # finite inputs can still overflow or underflow what derives from
        # them, and the geometry divides by each of these
        for name in ("pixel_low_um", "pixel_high_um", "cutoff_cycles"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"derived {name} must be finite and > 0, got {val}")

    # object-plane sampling
    @property
    def pixel_low_um(self) -> float:
        return self.camera_pixel_um / self.magnification

    @property
    def pixel_high_um(self) -> float:
        return self.pixel_low_um / self.upsample

    @property
    def low_shape(self) -> tuple[int, int]:
        return self.low_rows, self.low_cols

    @property
    def high_rows(self) -> int:
        return self.low_rows * self.upsample

    @property
    def high_cols(self) -> int:
        return self.low_cols * self.upsample

    @property
    def cutoff_cycles(self) -> float:
        """Coherent passband radius in cycles/um."""
        return self.na / self.wavelength_um

    @property
    def spectrum_scale(self) -> float:
        """Energy factor carried by a field reconstructed from the low-res
        spectrum window of the high-res grid: (low area) / (high area)."""
        return (self.low_rows * self.low_cols) / float(self.high_rows * self.high_cols)


def centered_freqs(n: int, pixel_um: float) -> np.ndarray:
    """Frequency coordinate (cycles/um) of each bin of a DC-centered axis."""
    return (np.arange(n) - n // 2) / (n * pixel_um)


def freq_grids(rows: int, cols: int, pixel_um: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-frequency and column-frequency grids, DC-centered, cycles/um."""
    fr = centered_freqs(rows, pixel_um)[:, None]
    fc = centered_freqs(cols, pixel_um)[None, :]
    return np.broadcast_to(fr, (rows, cols)), np.broadcast_to(fc, (rows, cols))


def pupil_support(cfg: OpticalConfig) -> np.ndarray:
    """Boolean mask of the pupil disk on the capture grid: True strictly
    inside the cutoff circle; bins exactly on the circle count as outside.
    Depends on frequency only through fr^2 + fc^2."""
    fr, fc = freq_grids(cfg.low_rows, cfg.low_cols, cfg.pixel_low_um)
    return fr * fr + fc * fc < cfg.cutoff_cycles ** 2


def make_ctf(cfg: OpticalConfig) -> np.ndarray:
    """Binary coherent transfer function: 1 + 0j on the pupil disk, 0 off it."""
    return pupil_support(cfg).astype(np.complex128)


# ---------------------------------------------------------------------------
# Zernike basis (Noll single-index ordering, standard normalization)


def noll_to_nm(j: int) -> tuple[int, int]:
    """Map a 1-based Noll index to (n, m); negative m means the sine term."""
    if j < 1:
        raise InvalidModeCount(f"Noll index must be >= 1, got {j}")
    n = 0
    k = j - 1
    while k > n:
        n += 1
        k -= n
    m = (-1) ** j * ((n % 2) + 2 * ((k + ((n + 1) % 2)) // 2))
    return n, m


def _radial_poly(n: int, m: int, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in range((n - m) // 2 + 1):
        coef = ((-1) ** k * math.factorial(n - k)
                / (math.factorial(k)
                   * math.factorial((n + m) // 2 - k)
                   * math.factorial((n - m) // 2 - k)))
        out += coef * rho ** (n - 2 * k)
    return out


@dataclass(frozen=True)
class ZernikeBasis:
    """First ``count`` Noll modes sampled on the capture-grid pupil.

    ``grids[l]`` is mode l+1; every mode is zero outside the unit disk
    rho = f / cutoff > 1 (the rim rho == 1 is kept).
    """

    grids: np.ndarray  # (count, low_rows, low_cols) float64, or (count, k) on k pixels
    disk: np.ndarray   # bool, rho <= 1, on the same pixels

    @property
    def count(self) -> int:
        return len(self.grids)

    def pupil(self, amp: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex pupil amp * exp(i * sum_l coeffs[l] * Z_l), exactly 0 where the
        real amplitude ``amp`` is 0, and its unit phase factor."""
        amp = np.asarray(amp, dtype=np.float64)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if amp.shape != self.grids.shape[1:]:
            raise DimensionMismatch(
                f"pupil amplitude {amp.shape} vs basis {self.grids.shape[1:]}")
        if coeffs.shape != (self.count,):
            raise DimensionMismatch(
                f"coefficients {coeffs.shape} vs a {self.count}-mode basis")
        phase_factor = np.exp(1j * kernels.synth_phase(self.grids, coeffs))
        return amp * phase_factor, phase_factor


def zernike_basis(cfg: OpticalConfig, count: int) -> ZernikeBasis:
    """Build modes 1..count. Mode 1 is piston; 2/3 tilts; 4 defocus; 5/6
    primary astigmatism, with the sqrt(n+1) / sqrt(2(n+1)) normalization."""
    if count < 1:
        raise InvalidModeCount(f"mode count must be >= 1, got {count}")
    fr, fc = freq_grids(cfg.low_rows, cfg.low_cols, cfg.pixel_low_um)
    rho = np.sqrt(fr * fr + fc * fc) / cfg.cutoff_cycles
    theta = np.arctan2(fr, fc)
    disk = rho <= 1.0
    grids = np.zeros((count, cfg.low_rows, cfg.low_cols))
    for idx in range(count):
        n, m = noll_to_nm(idx + 1)
        am = abs(m)
        radial = _radial_poly(n, am, rho)
        if m == 0:
            z = math.sqrt(n + 1.0) * radial
        elif m > 0:
            z = math.sqrt(2.0 * (n + 1.0)) * radial * np.cos(am * theta)
        else:
            z = math.sqrt(2.0 * (n + 1.0)) * radial * np.sin(am * theta)
        grids[idx] = np.where(disk, z, 0.0)
    return ZernikeBasis(grids=grids, disk=disk)


# ---------------------------------------------------------------------------
# illumination geometry


def _bin_offset(freq: float, pitch: float) -> int:
    """freq / pitch rounded to whole bins, halves away from zero (keeps +/-
    symmetry). A frequency that overflowed, or a field of view so wide that
    its pitch is 0, leaves no finite offset: WindowOutOfBounds."""
    bins = freq / pitch if pitch > 0 else math.inf
    if not math.isfinite(bins):
        raise WindowOutOfBounds(f"spectrum-bin offset {bins} is not finite")
    return int(math.copysign(math.floor(abs(bins) + 0.5), bins))


def illumination_offsets(cfg: OpticalConfig) -> list[tuple[int, int]]:
    """Spectrum-bin offset (rows, cols) of each LED's pupil window center.

    The direction sines map to spatial frequency (s / wavelength), which is
    quantized to whole high-res spectrum bins. The full capture window shifted
    by each offset must stay inside the high-res grid; if not, the synthetic
    aperture does not fit and WindowOutOfBounds is raised.
    """
    high_shape = (cfg.high_rows, cfg.high_cols)
    # bin pitch is 1 / (N * pixel); identical on the low and high grids
    # because the field of view is shared
    df_rows = 1.0 / (cfg.high_rows * cfg.pixel_high_um)
    df_cols = 1.0 / (cfg.high_cols * cfg.pixel_high_um)
    offsets = []
    for ill in cfg.illuminations:
        try:
            off_r = _bin_offset(ill.sy / cfg.wavelength_um, df_rows)
            off_c = _bin_offset(ill.sx / cfg.wavelength_um, df_cols)
            window(high_shape, (off_r, off_c), cfg.low_rows, cfg.low_cols)
        except WindowOutOfBounds as exc:
            raise WindowOutOfBounds(
                f"illumination (sx={ill.sx}, sy={ill.sy}) shifts the capture "
                f"window off the high-res grid: {exc}") from exc
        offsets.append((off_r, off_c))
    return offsets


def defocus_phase(cfg: OpticalConfig, z_um: float) -> np.ndarray:
    """Angular-spectrum defocus phase over the pupil, piston removed.

    phase(k) = z * (sqrt(k0^2 - |k|^2) - k0) inside the pupil, 0 outside,
    with k0 = 2*pi / wavelength. Negative away from DC for positive z.
    """
    fr, fc = freq_grids(cfg.low_rows, cfg.low_cols, cfg.pixel_low_um)
    k0 = 2.0 * np.pi / cfg.wavelength_um
    k2 = (2.0 * np.pi) ** 2 * (fr * fr + fc * fc)
    support = pupil_support(cfg)
    kz = np.sqrt(np.maximum(k0 * k0 - k2, 0.0))
    return np.where(support, z_um * (kz - k0), 0.0)


def synthetic_aperture_mask(cfg: OpticalConfig) -> np.ndarray:
    """Union over LEDs of ``pupil_support`` placed in the LED's capture window.

    Used to compare a reconstruction against ground truth only over the
    frequencies the measurements can actually carry.
    """
    support = pupil_support(cfg)
    mask = np.zeros((cfg.high_rows, cfg.high_cols), dtype=bool)
    for off in illumination_offsets(cfg):
        mask[window(mask.shape, off, cfg.low_rows, cfg.low_cols)] |= support
    return mask
