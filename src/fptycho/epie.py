"""Alternating-projection baseline reconstruction (ePIE flavor).

State is the energy-scaled object spectrum (DC-centered, high-res) plus a
complex pupil on the capture grid. Each image step replaces the amplitude of
the modeled low-res field with the measured one, then writes scaled
corrections back into the object window and (unless ``pupil_update`` is
``"fixed"``) the pupil.

The pupil update defaults to the literally published form, which weights the
residual by conj(corrected window spectrum) over its squared max; the
conventional ePIE weighting (conj of the pre-update object window) is
available as ``pupil_update="conventional"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField, DegeneratePupil, DimensionMismatch, NumericalError
from .field import (dft2, center_shift, idft2, inverse_center_shift,
                    phase_unit, window)
from .optics import OpticalConfig, illumination_offsets, make_ctf


@dataclass(frozen=True)
class EpieConfig:
    iterations: int = 20
    pupil_update: str = "literal"      # or "conventional", or "fixed"

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.pupil_update not in ("literal", "conventional", "fixed"):
            raise ValueError(f"unknown pupil_update {self.pupil_update!r}")


@dataclass
class EpieState:
    """Mutable solver state. ``object_spectrum`` is DC-centered and carries
    the energy scale factor (see simulate module docstring)."""

    object_spectrum: np.ndarray  # complex128 (high_rows, high_cols)
    pupil: np.ndarray            # complex128 (low_rows, low_cols)


def check_image_count(images: list[np.ndarray], cfg: OpticalConfig) -> None:
    """Every engine needs exactly one capture per illumination."""
    if len(images) != len(cfg.illuminations):
        raise DimensionMismatch(
            f"{len(images)} images for {len(cfg.illuminations)} illuminations")


def initial_object_spectrum(images: list[np.ndarray], cfg: OpticalConfig) -> np.ndarray:
    """Zero-padded spectrum embedding of the most-axial capture's sqrt image.

    In the energy-scaled convention this is simply the centered low-res
    spectrum of sqrt(I_central) dropped into the middle of a zero high-res
    grid; spatially that is the up-sampled sqrt-intensity image with zero
    phase at the correct brightness.
    """
    check_image_count(images, cfg)
    n0 = int(np.argmin([ill.sx ** 2 + ill.sy ** 2 for ill in cfg.illuminations]))
    amp = np.sqrt(np.asarray(images[n0], dtype=np.float64))
    low_spec = center_shift(dft2(amp))
    high = np.zeros((cfg.high_rows, cfg.high_cols), dtype=np.complex128)
    high[window(high.shape, (0, 0), cfg.low_rows, cfg.low_cols)] = low_spec
    return high


def initial_state(images: list[np.ndarray], cfg: OpticalConfig) -> EpieState:
    return EpieState(object_spectrum=initial_object_spectrum(images, cfg),
                     pupil=make_ctf(cfg))


def traversal_order(cfg: OpticalConfig) -> list[int]:
    """Image visiting order, center out: sorted by offset radius, stable."""
    radii = [r * r + c * c for r, c in illumination_offsets(cfg)]
    return list(np.argsort(radii, kind="stable"))


def sweep(order, visit, where: str) -> float:
    """Sum of ``visit(n)`` over the images in ``order``, in that order.

    The first non-finite term raises NumericalError naming ``where`` and the
    image, before any later image is visited."""
    total = 0.0
    for n in order:
        term = visit(n)
        if not math.isfinite(term):
            raise NumericalError(f"non-finite loss in {where} at image {n}")
        total += term
    return total


def ap_project(phi_low: np.ndarray, measured: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude replacement in the capture plane, stated on spectra.

    Transforms the modeled window spectrum to the capture plane, swaps its
    amplitude for sqrt(measured) while keeping the phase (zero-amplitude
    pixels get phase 0), and transforms back. Returns the replaced spectrum
    and the modeled capture-plane field it was built from. Layout-consistent:
    the input and output spectra are both DC-centered.
    """
    if phi_low.shape != measured.shape:
        raise DimensionMismatch(
            f"spectrum {phi_low.shape} vs measured {measured.shape}")
    field = idft2(inverse_center_shift(phi_low))
    replaced = np.sqrt(np.asarray(measured, dtype=np.float64)) * phase_unit(field)
    return center_shift(dft2(replaced)), field


def _amplitude_misfit(measured: np.ndarray, field: np.ndarray) -> float:
    """Data misfit of one capture: ||sqrt(I) - |field|||^2."""
    diff = np.sqrt(np.asarray(measured, dtype=np.float64)) - np.abs(field)
    return float(np.vdot(diff, diff).real)


def epie_step(state: EpieState, image: np.ndarray, offset: tuple[int, int],
              cfg: EpieConfig) -> float:
    """One image visit: AP correction plus object and pupil updates.

    Mutates ``state`` and returns the image's pre-update misfit, read off the
    field ``ap_project`` built. Only the spectrum window addressed by
    ``offset`` is touched; every other object bin is left bit-identical.
    """
    patch = state.object_spectrum[window(state.object_spectrum.shape, offset,
                                         *image.shape)]

    pupil = state.pupil
    phi_low = patch * pupil
    phi_high, field = ap_project(phi_low, image)
    residual = phi_high - phi_low

    pupil_max = np.max(np.abs(pupil)) ** 2
    if pupil_max == 0.0:
        raise DegeneratePupil("pupil is identically zero")
    patch_before = patch.copy() if cfg.pupil_update == "conventional" else None
    patch += np.conj(pupil) / pupil_max * residual

    if cfg.pupil_update == "literal":
        high_max = np.max(np.abs(phi_high)) ** 2
        if high_max == 0.0:
            raise DegenerateField("corrected window spectrum is identically zero")
        state.pupil = pupil + np.conj(phi_high) / high_max * residual
    elif cfg.pupil_update == "conventional":
        win_max = np.max(np.abs(patch_before)) ** 2
        if win_max == 0.0:
            raise DegenerateField("object window is identically zero")
        state.pupil = pupil + np.conj(patch_before) / win_max * residual
    return _amplitude_misfit(image, field)


def amplitude_residual(state: EpieState, images: list[np.ndarray],
                       cfg: OpticalConfig) -> float:
    """Frozen-state data misfit: sum_n ||sqrt(I_n) - |field_n|||^2."""
    check_image_count(images, cfg)
    total = 0.0
    for img, off in zip(images, illumination_offsets(cfg)):
        win = window(state.object_spectrum.shape, off, cfg.low_rows, cfg.low_cols)
        field = idft2(inverse_center_shift(state.object_spectrum[win] * state.pupil))
        total += _amplitude_misfit(img, field)
    return total


def run_epie(images: list[np.ndarray], cfg: OpticalConfig,
             ecfg: EpieConfig = EpieConfig()) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Run the solver; returns (spatial object, pupil, per-iteration residuals).

    The residual history entry for an iteration accumulates each image's
    pre-update amplitude misfit during that sweep; a non-finite misfit raises
    NumericalError naming the sweep and the image. ``iterations=0`` returns
    the initialization untouched (and an empty history).
    """
    offsets = illumination_offsets(cfg)
    order = traversal_order(cfg)
    state = initial_state(images, cfg)
    images = [np.asarray(im, dtype=np.float64) for im in images]
    history = [sweep(order, lambda n: epie_step(state, images[n], offsets[n], ecfg),
                     f"sweep {it}")
               for it in range(1, ecfg.iterations + 1)]
    spatial = idft2(inverse_center_shift(state.object_spectrum))
    spatial /= cfg.spectrum_scale
    return spatial, state.pupil, history
