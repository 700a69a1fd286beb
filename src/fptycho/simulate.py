"""Forward model: angle-varied coherent captures of a complex object.

Each LED tilts the illumination, which slides the objective passband across
the object spectrum. A capture is the intensity of the field obtained by
cropping the (centered) high-res object spectrum around the LED's offset,
multiplying by the pupil, and inverse-transforming at capture resolution.

Energy convention: a field rebuilt from the low-res spectrum window carries
the factor s = (low area) / (high area), so a unit-amplitude object with a
clear pupil and axial illumination produces unit-intensity captures. The
reconstruction engines bake the same factor into their spectrum state, so it
cancels in every residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .field import (crop_window, dft2, center_shift, grid_center, idft2,
                    inverse_center_shift)
from .optics import OpticalConfig, illumination_offsets


@dataclass(frozen=True)
class GroundTruth:
    """Complex object on the high-res grid plus the true pupil on the capture grid."""

    object_spatial: np.ndarray  # complex128 (high_rows, high_cols)
    pupil: np.ndarray           # complex128 (low_rows, low_cols)


@dataclass(frozen=True)
class SimOptions:
    """Noise and clipping applied to the ideal intensities."""

    noise_sigma: float = 0.0
    saturation: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.saturation is not None and self.saturation <= 0:
            raise ValueError("saturation must be > 0 when set")


def check_ground_truth(gt: GroundTruth, cfg: OpticalConfig) -> None:
    if gt.object_spatial.shape != (cfg.high_rows, cfg.high_cols):
        raise DimensionMismatch(
            f"object is {gt.object_spatial.shape}, config wants "
            f"{(cfg.high_rows, cfg.high_cols)}")
    if gt.pupil.shape != (cfg.low_rows, cfg.low_cols):
        raise DimensionMismatch(
            f"pupil is {gt.pupil.shape}, config wants "
            f"{(cfg.low_rows, cfg.low_cols)}")


def forward_capture(gt: GroundTruth, cfg: OpticalConfig,
                    offset: tuple[int, int]) -> np.ndarray:
    """Ideal (noiseless) intensity for one LED given its spectrum-bin offset."""
    check_ground_truth(gt, cfg)
    spectrum = center_shift(dft2(gt.object_spatial))
    center = grid_center(spectrum.shape)
    window = crop_window(spectrum, center[0] + offset[0], center[1] + offset[1],
                         cfg.low_rows, cfg.low_cols)
    field = cfg.spectrum_scale * idft2(inverse_center_shift(window * gt.pupil))
    return np.abs(field) ** 2


def simulate_dataset(gt: GroundTruth, cfg: OpticalConfig,
                     opts: SimOptions = SimOptions()) -> list[np.ndarray]:
    """All captures for the config's LED list, in manifest order.

    Noise is Gaussian on intensity, clamped at zero, then clipped at the
    saturation level when one is set. Image n draws from
    PCG64(seed XOR n), so single images are reproducible in isolation;
    a noiseless run never touches the generator.
    """
    offsets = illumination_offsets(cfg)
    images = []
    for n, off in enumerate(offsets):
        img = forward_capture(gt, cfg, off)
        if opts.noise_sigma > 0.0:
            rng = np.random.Generator(np.random.PCG64(opts.seed ^ n))
            img = img + opts.noise_sigma * rng.standard_normal(img.shape)
            img = np.maximum(img, 0.0)
        if opts.saturation is not None:
            img = np.minimum(img, opts.saturation)
        if not np.all(np.isfinite(img)):
            raise NumericalError(f"non-finite intensity in simulated image {n}")
        images.append(img)
    return images
