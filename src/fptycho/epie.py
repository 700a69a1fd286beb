"""Alternating-projection baseline reconstruction (ePIE flavor).

State is the energy-scaled object spectrum (DC-centered, high-res) plus a
complex pupil on the capture grid. Each image step replaces the amplitude of
the modeled low-res field with the measured one, then writes scaled
corrections back into the object window and (optionally) the pupil.

The pupil update defaults to the literally published form, which weights the
residual by conj(corrected window spectrum) over its squared max; the
conventional ePIE weighting (conj of the pre-update object window) is
available as ``pupil_update="conventional"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField, DegeneratePupil, DimensionMismatch
from .field import (crop_window, dft2, center_shift, grid_center, idft2,
                    inverse_center_shift, phase_unit, window_bounds)
from .optics import OpticalConfig, illumination_offsets, make_ctf


@dataclass(frozen=True)
class EpieConfig:
    iterations: int = 20
    alpha: float = 1.0
    beta: float = 1.0
    update_pupil: bool = True
    traversal: str = "center_out"      # or "manifest_order"
    pupil_update: str = "literal"      # or "conventional"

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.traversal not in ("center_out", "manifest_order"):
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if self.pupil_update not in ("literal", "conventional"):
            raise ValueError(f"unknown pupil_update {self.pupil_update!r}")


@dataclass
class EpieState:
    """Mutable solver state. ``object_spectrum`` is DC-centered and carries
    the energy scale factor (see simulate module docstring)."""

    object_spectrum: np.ndarray  # complex128 (high_rows, high_cols)
    pupil: np.ndarray            # complex128 (low_rows, low_cols)


def initial_object_spectrum(images: list[np.ndarray], cfg: OpticalConfig) -> np.ndarray:
    """Zero-padded spectrum embedding of the most-axial capture's sqrt image.

    In the energy-scaled convention this is simply the centered low-res
    spectrum of sqrt(I_central) dropped into the middle of a zero high-res
    grid; spatially that is the up-sampled sqrt-intensity image with zero
    phase at the correct brightness.
    """
    if len(images) != len(cfg.illuminations):
        raise DimensionMismatch(
            f"{len(images)} images for {len(cfg.illuminations)} illuminations")
    n0 = int(np.argmin([ill.sx ** 2 + ill.sy ** 2 for ill in cfg.illuminations]))
    amp = np.sqrt(np.asarray(images[n0], dtype=np.float64))
    low_spec = center_shift(dft2(amp))
    high = np.zeros((cfg.high_rows, cfg.high_cols), dtype=np.complex128)
    cr, cc = grid_center(high.shape)
    r0, c0 = window_bounds(cr, cc, cfg.low_rows, cfg.low_cols, high.shape)
    high[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols] = low_spec
    return high


def initial_state(images: list[np.ndarray], cfg: OpticalConfig) -> EpieState:
    return EpieState(object_spectrum=initial_object_spectrum(images, cfg),
                     pupil=make_ctf(cfg))


def traversal_order(cfg: OpticalConfig, traversal: str) -> list[int]:
    """Image visiting order; center_out sorts by offset radius, stable."""
    offsets = illumination_offsets(cfg)
    if traversal == "manifest_order":
        return list(range(len(offsets)))
    radii = [r * r + c * c for r, c in offsets]
    return list(np.argsort(radii, kind="stable"))


def ap_project(phi_low: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Amplitude replacement in the capture plane, stated on spectra.

    Transforms the modeled window spectrum to the capture plane, swaps its
    amplitude for sqrt(measured) while keeping the phase (zero-amplitude
    pixels get phase 0), and transforms back. Layout-consistent: the input
    and output spectra are both DC-centered.
    """
    if phi_low.shape != measured.shape:
        raise DimensionMismatch(
            f"spectrum {phi_low.shape} vs measured {measured.shape}")
    field = idft2(inverse_center_shift(phi_low))
    replaced = np.sqrt(np.asarray(measured, dtype=np.float64)) * phase_unit(field)
    return center_shift(dft2(replaced))


def epie_step(state: EpieState, image: np.ndarray, offset: tuple[int, int],
              cfg: EpieConfig) -> EpieState:
    """One image visit: AP correction plus object (and maybe pupil) updates.

    Mutates and returns ``state``. Only the spectrum window addressed by
    ``offset`` is touched; every other object bin is left bit-identical.
    """
    rows, cols = image.shape
    center = grid_center(state.object_spectrum.shape)
    r0, c0 = window_bounds(center[0] + offset[0], center[1] + offset[1],
                           rows, cols, state.object_spectrum.shape)
    window = state.object_spectrum[r0:r0 + rows, c0:c0 + cols]

    pupil = state.pupil
    phi_low = window * pupil
    phi_high = ap_project(phi_low, image)
    residual = phi_high - phi_low

    pupil_max = np.max(np.abs(pupil)) ** 2
    if pupil_max == 0.0:
        raise DegeneratePupil("pupil is identically zero")
    window_before = window.copy() if (cfg.update_pupil and
                                      cfg.pupil_update == "conventional") else None
    window += cfg.alpha * np.conj(pupil) / pupil_max * residual

    if cfg.update_pupil:
        if cfg.pupil_update == "literal":
            high_max = np.max(np.abs(phi_high)) ** 2
            if high_max == 0.0:
                raise DegenerateField("corrected window spectrum is identically zero")
            state.pupil = pupil + cfg.beta * np.conj(phi_high) / high_max * residual
        else:
            win_max = np.max(np.abs(window_before)) ** 2
            if win_max == 0.0:
                raise DegenerateField("object window is identically zero")
            state.pupil = pupil + cfg.beta * np.conj(window_before) / win_max * residual
    return state


def _image_misfit(state: EpieState, image: np.ndarray,
                  offset: tuple[int, int], cfg: OpticalConfig) -> float:
    """Frozen-state data misfit of one image: ||sqrt(I) - |field|||^2."""
    center = grid_center(state.object_spectrum.shape)
    window = crop_window(state.object_spectrum, center[0] + offset[0],
                         center[1] + offset[1], cfg.low_rows, cfg.low_cols)
    field = idft2(inverse_center_shift(window * state.pupil))
    diff = np.sqrt(np.asarray(image, dtype=np.float64)) - np.abs(field)
    return float(np.vdot(diff, diff).real)


def amplitude_residual(state: EpieState, images: list[np.ndarray],
                       cfg: OpticalConfig) -> float:
    """Frozen-state data misfit: sum_n ||sqrt(I_n) - |field_n|||^2."""
    total = 0.0
    for img, off in zip(images, illumination_offsets(cfg)):
        total += _image_misfit(state, img, off, cfg)
    return total


def run_epie(images: list[np.ndarray], cfg: OpticalConfig,
             ecfg: EpieConfig = EpieConfig()) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Run the solver; returns (spatial object, pupil, per-iteration residuals).

    The residual history entry for an iteration accumulates each image's
    pre-update amplitude misfit during that sweep. ``iterations=0`` returns
    the initialization untouched (and an empty history).
    """
    offsets = illumination_offsets(cfg)
    if len(images) != len(offsets):
        raise DimensionMismatch(
            f"{len(images)} images for {len(offsets)} illuminations")
    order = traversal_order(cfg, ecfg.traversal)
    state = initial_state(images, cfg)
    history = []
    for _ in range(ecfg.iterations):
        sweep = 0.0
        for n in order:
            sweep += _image_misfit(state, images[n], offsets[n], cfg)
            epie_step(state, np.asarray(images[n], dtype=np.float64),
                      offsets[n], ecfg)
        history.append(sweep)
    spatial = idft2(inverse_center_shift(state.object_spectrum))
    spatial /= cfg.spectrum_scale
    return spatial, state.pupil, history
