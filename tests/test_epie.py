"""Alternating-projection baseline solver."""

import numpy as np
import pytest

from fptycho.epie import (EpieConfig, EpieState, amplitude_residual,
                          ap_project, epie_step, initial_object_spectrum,
                          initial_state, run_epie, traversal_order)
from fptycho.errors import (DegenerateField, DegeneratePupil,
                            DimensionMismatch, NumericalError)
from fptycho.field import (center_shift, dft2, idft2, inverse_center_shift,
                           window)
from fptycho.optics import illumination_offsets, make_ctf


# -- amplitude projection --------------------------------------------------

def test_ap_project_fixes_spectra_that_already_match():
    rng = np.random.Generator(np.random.PCG64(30))
    phi = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    measured = np.abs(idft2(inverse_center_shift(phi))) ** 2
    out = ap_project(phi, measured)[0]
    assert np.linalg.norm(out - phi) <= 1e-12 * np.linalg.norm(phi)


def test_ap_project_zero_field_uses_zero_phase_convention():
    phi = np.zeros((4, 4), dtype=np.complex128)
    out = ap_project(phi, np.ones((4, 4)))[0]
    expected = center_shift(dft2(np.ones((4, 4), dtype=np.complex128)))
    assert np.allclose(out, expected, atol=1e-12)


def test_ap_project_output_amplitude_equals_measurement():
    rng = np.random.Generator(np.random.PCG64(31))
    phi = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    measured = rng.random((8, 8)) + 0.05
    out = ap_project(phi, measured)[0]
    amp = np.abs(idft2(inverse_center_shift(out)))
    assert np.allclose(amp, np.sqrt(measured), atol=1e-12)


def test_ap_project_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        ap_project(np.zeros((4, 4), dtype=np.complex128), np.ones((8, 8)))


# -- single update step ----------------------------------------------------

def ground_truth_state(cfg, obj):
    return EpieState(
        object_spectrum=center_shift(dft2(obj)) * cfg.spectrum_scale,
        pupil=make_ctf(cfg))


def test_step_at_ground_truth_changes_nothing(small_instance):
    cfg, obj, images = small_instance
    state = ground_truth_state(cfg, obj)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    epie_step(state, images[0], offsets[0], EpieConfig())
    assert (np.max(np.abs(state.object_spectrum - spec0))
            <= 1e-12 * np.max(np.abs(spec0)))
    assert np.max(np.abs(state.pupil - pup0)) <= 1e-12 * np.max(np.abs(pup0))


def test_full_sweep_at_ground_truth_is_invariant(small_instance):
    cfg, obj, images = small_instance
    state = ground_truth_state(cfg, obj)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    for n in range(len(images)):
        epie_step(state, images[n], offsets[n], EpieConfig())
    # measured drift over a 9-image sweep is ~2e-16 relative
    assert (np.max(np.abs(state.object_spectrum - spec0))
            <= 1e-10 * np.max(np.abs(spec0)))
    assert np.max(np.abs(state.pupil - pup0)) <= 1e-10 * np.max(np.abs(pup0))


def test_fixed_pupil_update_leaves_the_pupil_bitwise(small_instance):
    cfg, _, images = small_instance
    state = initial_state(images, cfg)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    epie_step(state, images[3], offsets[3], EpieConfig(pupil_update="fixed"))
    assert np.array_equal(state.pupil, pup0)
    assert not np.array_equal(state.object_spectrum, spec0)


def test_step_writes_only_the_addressed_window(small_instance):
    cfg, _, images = small_instance
    state = initial_state(images, cfg)
    spec0 = state.object_spectrum.copy()
    offsets = illumination_offsets(cfg)
    n = 0                                   # corner LED, off-center window
    epie_step(state, images[n], offsets[n], EpieConfig())
    center = (cfg.high_rows // 2, cfg.high_cols // 2)
    r0 = center[0] + offsets[n][0] - cfg.low_rows // 2
    c0 = center[1] + offsets[n][1] - cfg.low_cols // 2
    mask = np.ones(state.object_spectrum.shape, dtype=bool)
    mask[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols] = False
    assert np.array_equal(state.object_spectrum[mask], spec0[mask])


def test_one_step_from_init_decreases_total_residual(reference_cfg,
                                                     infocus_images):
    # the central image is a degenerate near-fixed-point of the start state
    # (its update is ~zero), so the step lands on the first off-center image
    # of the traversal, where the decrease is unambiguous for both
    # pupil-update settings
    offsets = illumination_offsets(reference_cfg)
    n = traversal_order(reference_cfg)[1]
    for ecfg in (EpieConfig(), EpieConfig(pupil_update="fixed")):
        state = initial_state(infocus_images, reference_cfg)
        before = amplitude_residual(state, infocus_images, reference_cfg)
        epie_step(state, infocus_images[n], offsets[n], ecfg)
        after = amplitude_residual(state, infocus_images, reference_cfg)
        assert after < before


def test_zero_pupil_is_rejected(small_instance):
    cfg, _, images = small_instance
    state = initial_state(images, cfg)
    state.pupil = np.zeros_like(state.pupil)
    with pytest.raises(DegeneratePupil):
        epie_step(state, images[0], (0, 0), EpieConfig())


def test_all_dark_image_breaks_literal_pupil_update(small_instance):
    cfg, _, images = small_instance
    state = initial_state(images, cfg)
    dark = np.zeros_like(images[0])
    with pytest.raises(DegenerateField):
        epie_step(state, dark, (0, 0), EpieConfig())


# -- configuration and traversal -------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EpieConfig(iterations=-1)
    with pytest.raises(ValueError):
        EpieConfig(pupil_update="fancy")
    for kind in ("literal", "conventional", "fixed"):
        assert EpieConfig(pupil_update=kind).pupil_update == kind


def test_traversal_orders(reference_cfg):
    center_out = traversal_order(reference_cfg)
    assert sorted(center_out) == list(range(225))
    assert center_out[0] == 112              # the on-axis LED leads
    offsets = illumination_offsets(reference_cfg)
    radii = [offsets[i][0] ** 2 + offsets[i][1] ** 2 for i in center_out]
    assert radii == sorted(radii)


def test_initialization_embeds_central_capture_spectrum(small_instance):
    cfg, _, images = small_instance
    spec = initial_object_spectrum(images, cfg)
    central = len(images) // 2
    low = center_shift(dft2(np.sqrt(images[central]).astype(np.complex128)))
    r0 = cfg.high_rows // 2 - cfg.low_rows // 2
    c0 = cfg.high_cols // 2 - cfg.low_cols // 2
    assert np.array_equal(spec[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols], low)
    outside = spec.copy()
    outside[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols] = 0.0
    assert np.all(outside == 0.0)
    assert np.array_equal(initial_state(images, cfg).pupil, make_ctf(cfg))


# -- full runs -------------------------------------------------------------

def test_zero_iterations_returns_initialization(small_instance):
    cfg, _, images = small_instance
    spatial, pupil, history = run_epie(images, cfg, EpieConfig(iterations=0))
    init = initial_state(images, cfg)
    expected = idft2(inverse_center_shift(init.object_spectrum))
    expected /= cfg.spectrum_scale
    assert history == []
    assert np.array_equal(pupil, init.pupil)
    assert np.array_equal(spatial, expected)


def test_image_count_must_match_led_count(reference_cfg):
    with pytest.raises(DimensionMismatch):
        run_epie([np.ones((32, 32))] * 3, reference_cfg, EpieConfig())


def test_amplitude_residual_needs_one_image_per_illumination(small_instance):
    # zipping images with offsets used to sum a short list silently and
    # drop the surplus of a long one
    cfg, _, images = small_instance
    state = initial_state(images, cfg)
    for wrong in (images[:1], images + images[:1]):
        with pytest.raises(DimensionMismatch):
            amplitude_residual(state, wrong, cfg)


@pytest.mark.parametrize("kind", ["literal", "conventional", "fixed"])
def test_history_sums_each_visits_pre_update_misfit(small_instance, kind):
    cfg, _, images = small_instance
    ecfg = EpieConfig(iterations=2, pupil_update=kind)
    offsets = illumination_offsets(cfg)
    state = initial_state(images, cfg)
    expected = []
    for _ in range(ecfg.iterations):
        sweep = 0.0
        for n in traversal_order(cfg):
            patch = state.object_spectrum[window(state.object_spectrum.shape,
                                                 offsets[n], *images[n].shape)]
            field = idft2(inverse_center_shift(patch * state.pupil))
            diff = np.sqrt(images[n]) - np.abs(field)
            sweep += float(np.vdot(diff, diff).real)
            epie_step(state, images[n], offsets[n], ecfg)
        expected.append(sweep)
    assert run_epie(images, cfg, ecfg)[2] == expected


# the literal pupil update divides by the NaN-poisoned spectrum maximum in the
# same visit, before the misfit check raises, so numpy warns there
@pytest.mark.parametrize("kind", [
    pytest.param("literal", marks=pytest.mark.filterwarnings(
        "ignore::RuntimeWarning")),
    "conventional", "fixed"])
def test_nonfinite_misfit_names_the_sweep_and_image(small_instance, kind):
    cfg, _, images = small_instance
    bad = [im.copy() for im in images]
    bad[7][3, 5] = np.nan
    with pytest.raises(NumericalError, match="sweep 1 at image 7"):
        run_epie(bad, cfg, EpieConfig(iterations=2, pupil_update=kind))


def test_infocus_run_collapses_the_residual(epie_infocus_nopupil):
    _, _, history = epie_infocus_nopupil
    assert len(history) == 20
    assert history[-1] <= 1e-3 * history[0]


def test_infocus_residual_is_nonincreasing(epie_infocus_nopupil):
    # holds for the in-focus protocol (known pupil, no pupil updates); with
    # pupil updates enabled the residual can bounce transiently even on
    # in-focus data (measured a 33.7 -> 104.4 step), so no claim is made there
    history = epie_infocus_nopupil[2]
    assert all(np.isfinite(history))
    for prev, nxt in zip(history, history[1:]):
        assert nxt <= 1.01 * prev


def test_pupil_recovery_beats_fixed_pupil_on_aberrated_data(
        epie_defocus_conventional, epie_defocus_fixed_pupil):
    _, _, h_updated = epie_defocus_conventional
    _, _, h_fixed = epie_defocus_fixed_pupil
    # the fixed-pupil run plateaus orders of magnitude above the run that
    # recovers the pupil (measured 1.6e2 vs 4.5e-7)
    assert h_fixed[-1] > h_updated[-1]
