"""Forward model: angle-varied coherent captures of a complex object.

Each LED tilts the illumination, which slides the objective passband across
the object spectrum. A capture is the intensity of the field obtained by
cropping the (centered) high-res object spectrum around the LED's offset,
multiplying by the pupil, and inverse-transforming at capture resolution.
``simulate_dataset`` transforms the object once and renders the LEDs in
chunked stacks of ``field.WINDOW_CHUNK``: one gather, pupil multiply, inverse
transform and squared modulus per chunk. Numpy transforms a stack slice by
slice, so each capture has the bits ``forward_capture`` gives it alone.

Energy convention: a field rebuilt from the low-res spectrum window carries
the factor s = (low area) / (high area), so a unit-amplitude object with a
clear pupil and axial illumination produces unit-intensity captures. The
reconstruction engines bake the same factor into their spectrum state, so it
cancels in every residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .field import (center_shift, dft2, idft2, inverse_center_shift, window,
                    window_stacks)
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
        # NaN passes a '< 0' check
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.saturation is not None and not (
                math.isfinite(self.saturation) and self.saturation > 0):
            raise ValueError("saturation must be finite and > 0 when set")


def check_ground_truth(gt: GroundTruth, cfg: OpticalConfig) -> None:
    if gt.object_spatial.shape != (cfg.high_rows, cfg.high_cols):
        raise DimensionMismatch(
            f"object is {gt.object_spatial.shape}, config wants "
            f"{(cfg.high_rows, cfg.high_cols)}")
    if gt.pupil.shape != cfg.low_shape:
        raise DimensionMismatch(
            f"pupil is {gt.pupil.shape}, config wants {cfg.low_shape}")


def _capture(phi: np.ndarray, cfg: OpticalConfig) -> np.ndarray:
    """Intensity |s * idft2(inverse_center_shift(phi))|^2 of a window spectrum
    times the pupil, or of a stack of them; s is ``cfg.spectrum_scale``."""
    field = inverse_center_shift(phi)
    idft2(field, out=field)
    field *= cfg.spectrum_scale
    return np.abs(field) ** 2


def forward_capture(spectrum: np.ndarray, pupil: np.ndarray,
                    cfg: OpticalConfig, offset: tuple[int, int]) -> np.ndarray:
    """Ideal (noiseless) intensity for one LED given its spectrum-bin offset.

    ``spectrum`` is the centered object spectrum, ``center_shift(dft2(obj))``.
    """
    win = window(spectrum.shape, offset, cfg.low_rows, cfg.low_cols)
    return _capture(spectrum[win] * pupil, cfg)


def simulate_dataset(gt: GroundTruth, cfg: OpticalConfig,
                     opts: SimOptions = SimOptions()) -> list[np.ndarray]:
    """All captures for the config's LED list, in manifest order.

    Noise is Gaussian on intensity, clamped at zero, then clipped at the
    saturation level when one is set. Image n draws from
    PCG64(seed XOR n), so single images are reproducible in isolation;
    a noiseless run never touches the generator. The captures are views
    into per-chunk stacks; a non-finite one, checked for before the clamp and
    clip could hide it, raises NumericalError naming the first such image.
    """
    check_ground_truth(gt, cfg)
    spectrum = center_shift(dft2(gt.object_spatial))
    images = []
    for start, phi in window_stacks(spectrum, illumination_offsets(cfg),
                                    cfg.low_rows, cfg.low_cols):
        phi *= gt.pupil
        stack = _capture(phi, cfg)
        if opts.noise_sigma > 0.0:
            noise = np.empty_like(stack)
            for n, draw in enumerate(noise, start):
                rng = np.random.Generator(np.random.PCG64(opts.seed ^ n))
                rng.standard_normal(out=draw)
            noise *= opts.noise_sigma
            stack += noise
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            n = start + int(np.argmin(finite))
            raise NumericalError(f"non-finite intensity in simulated image {n}")
        if opts.noise_sigma > 0.0:
            np.maximum(stack, 0.0, out=stack)
        if opts.saturation is not None:
            np.minimum(stack, opts.saturation, out=stack)
        images.extend(stack)
    return images
