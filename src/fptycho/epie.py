"""Alternating-projection baseline reconstruction (ePIE flavor).

State is the energy-scaled object spectrum (DC-centered, high-res) plus a
complex pupil on the capture grid. Each image step replaces the amplitude of
the modeled low-res field with the measured one, then writes scaled
corrections back into the object window and (unless ``pupil_update`` is
``"fixed"``) the pupil.

The pupil update defaults to ``"literal"``, which weights the residual by
conj(corrected window spectrum) over its squared max; on the test suite's
reference problem defocused by 50 um it diverges (pupil peak 50 after 10
sweeps, 250 after 50; passband amplitude error 0.999). The conventional ePIE
weighting (conj of the pre-update object window), ``"conventional"``,
converges there (peak 1.27, error 0.211 after 50 sweeps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField, DegeneratePupil, DimensionMismatch, NumericalError
from .field import (dft2, center_shift, idft2, inverse_center_shift,
                    phase_unit, window, window_stacks)
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


def measured_amplitudes(images, cfg: OpticalConfig) -> np.ndarray:
    """The captures as one float64 (L, low_rows, low_cols) stack of sqrt(I):
    the one place that knows captures are intensities. DimensionMismatch
    names a missing, surplus or misshapen image, or an empty LED list."""
    if not cfg.illuminations:
        raise DimensionMismatch("the config lists no illuminations (LEDs)")
    if len(images) != len(cfg.illuminations):
        raise DimensionMismatch(
            f"{len(images)} images for {len(cfg.illuminations)} illuminations")
    want = cfg.low_shape
    for n, img in enumerate(images):
        if np.shape(img) != want:
            raise DimensionMismatch(f"image {n} is {np.shape(img)}, config wants {want}")
    amplitudes = np.array(images, dtype=np.float64)
    return np.sqrt(amplitudes, out=amplitudes)


def initial_object_spectrum(amplitudes: np.ndarray, cfg: OpticalConfig) -> np.ndarray:
    """Zero-padded spectrum embedding of the amplitude of the capture both
    engines visit first, ``traversal_order(cfg)[0]``: the most axial one.

    In the energy-scaled convention this is simply the centered low-res
    spectrum of sqrt(I_central) dropped into the middle of a zero high-res
    grid; spatially that is the up-sampled sqrt-intensity image with zero
    phase at the correct brightness.
    """
    low_spec = center_shift(dft2(amplitudes[traversal_order(cfg)[0]]))
    high = np.zeros((cfg.high_rows, cfg.high_cols), dtype=np.complex128)
    high[window(high.shape, (0, 0), cfg.low_rows, cfg.low_cols)] = low_spec
    return high


def initial_state(amplitudes: np.ndarray, cfg: OpticalConfig) -> EpieState:
    return EpieState(object_spectrum=initial_object_spectrum(amplitudes, cfg),
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


def ap_project(phi_low: np.ndarray, amplitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude replacement in the capture plane, stated on spectra.

    Transforms the modeled window spectrum (or a stack of them) to the
    capture plane, swaps its amplitude for ``amplitude`` keeping the phase
    (zero-amplitude pixels get phase 0), and transforms back. Returns the
    replaced spectrum and the modeled capture-plane modulus (taken once, for
    ``phase_unit`` too). Input and output spectra are both DC-centered.

    No centre shift runs: the transform of the centered spectrum is the field
    times a unit ramp (``_centring_ramp``), which the forward transform turns
    back into the shift, so a zero pixel takes the ramp's value, passed as
    ``phase_unit``'s fill (its zero test is the only one); the ramp leaves the
    modulus alone. Against the shifted form, the result is bitwise at
    power-of-two sizes (bar zero pixels) and within 2.3e-15 of the largest
    magnitude elsewhere (measured on square grids of 3 to 128).
    """
    if phi_low.shape != amplitude.shape:
        raise DimensionMismatch(
            f"spectrum {phi_low.shape} vs amplitude {amplitude.shape}")
    field = idft2(phi_low)
    modulus = np.abs(field)
    unit = phase_unit(field, _centring_ramp(*field.shape[-2:]), modulus=modulus)
    return dft2(amplitude * unit), modulus


@functools.lru_cache
def _centring_ramp(rows: int, cols: int) -> np.ndarray:
    """exp(2 pi i (r (rows // 2) / rows + c (cols // 2) / cols)): the
    capture-plane factor that moving DC from the centre to (0, 0) removes."""
    r = np.arange(rows)[:, None] * (rows // 2) / rows
    c = np.arange(cols)[None, :] * (cols // 2) / cols
    ramp = np.exp(2j * np.pi * (r + c))
    ramp.flags.writeable = False
    return ramp


def _update(weight: np.ndarray, residual: np.ndarray, error: type,
            name: str) -> np.ndarray:
    """ePIE correction of one factor, weighted by the other factor w:
    conj(w) / max|w|^2 * residual, in one new array; a zero w raises ``error``.
    numpy divides by a real b as (re + im*0) * (1/b), (im - re*0) * (1/b), so
    multiplying by 1/b gives its bits but for the sign of a zero part."""
    peak = np.abs(weight).max() ** 2
    if peak == 0.0:
        raise error(f"{name} is identically zero")
    step = np.conj(weight)
    step *= 1.0 / peak
    return np.multiply(step, residual, out=step)


def epie_step(state: EpieState, amplitude: np.ndarray, offset: tuple[int, int],
              cfg: EpieConfig) -> float:
    """One image visit: AP correction plus object and pupil updates.

    Mutates ``state`` and returns the image's pre-update misfit, read off the
    capture-plane modulus ``ap_project`` returns. The strided window addressed
    by ``offset`` is copied once; every product reads the contiguous copy, and
    one add writes the corrected window back, so every other object bin is
    left bit-identical. A degenerate weight raises before ``state`` changes.
    """
    view = state.object_spectrum[window(state.object_spectrum.shape, offset,
                                        *amplitude.shape)]
    patch = view.copy()
    pupil = state.pupil
    phi_low = patch * pupil
    phi_high, modulus = ap_project(phi_low, amplitude)
    residual = phi_high - phi_low

    object_step = _update(pupil, residual, DegeneratePupil, "pupil")
    if cfg.pupil_update != "fixed":
        weight, name = ((phi_high, "corrected window spectrum")
                        if cfg.pupil_update == "literal" else (patch, "object window"))
        step = _update(weight, residual, DegenerateField, name)
        state.pupil = np.add(pupil, step, out=step)
    np.add(patch, object_step, out=view)
    diff = amplitude - modulus
    return float(np.vdot(diff, diff).real)


def spectral_misfit(spectrum: np.ndarray, pupil: np.ndarray,
                    amplitudes: np.ndarray, cfg: OpticalConfig) -> float:
    """Frozen-state misfit sum_n ||P_n(phi_n) - phi_n||^2, phi_n the window of
    the centered ``spectrum`` at LED n times ``pupil``, P_n ``ap_project``
    against capture n. One stacked projection per chunk of
    ``field.WINDOW_CHUNK`` LEDs; the terms add in manifest order, so the sum
    equals a per-LED loop bit for bit."""
    total = 0.0
    for start, phi in window_stacks(spectrum, illumination_offsets(cfg),
                                    cfg.low_rows, cfg.low_cols):
        phi *= pupil
        diff = ap_project(phi, amplitudes[start:start + len(phi)])[0]
        diff -= phi
        for d in diff:
            total += float(np.vdot(d, d).real)
    return total


def run_epie(images: list[np.ndarray], cfg: OpticalConfig,
             ecfg: EpieConfig = EpieConfig()) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Run the solver; returns (spatial object, pupil, per-iteration residuals).

    The residual history entry for an iteration accumulates each image's
    pre-update amplitude misfit during that sweep; a non-finite misfit raises
    NumericalError naming the sweep and the image. ``iterations=0`` returns
    the initialization untouched (and an empty history).
    """
    amplitudes = measured_amplitudes(images, cfg)
    offsets = illumination_offsets(cfg)
    order = traversal_order(cfg)
    state = initial_state(amplitudes, cfg)
    history = [sweep(order, lambda n: epie_step(state, amplitudes[n], offsets[n], ecfg),
                     f"sweep {it}")
               for it in range(1, ecfg.iterations + 1)]
    spatial = idft2(inverse_center_shift(state.object_spectrum))
    spatial /= cfg.spectrum_scale
    return spatial, state.pupil, history
