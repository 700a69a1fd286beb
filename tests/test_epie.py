"""Alternating-projection baseline solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fptycho.epie
from fptycho.epie import (EpieConfig, EpieState, ap_project, epie_step,
                          initial_object_spectrum, initial_state,
                          measured_amplitudes, run_epie, spectral_misfit,
                          traversal_order)
from fptycho.errors import (DegenerateField, DegeneratePupil,
                            DimensionMismatch, NumericalError)
from fptycho.field import (center_shift, dft2, idft2, inverse_center_shift,
                           phase_unit, window)
from fptycho.optics import (Illumination, OpticalConfig, illumination_offsets,
                            make_ctf)
from fptycho.pgnn import PgnnModel, run_pgnn


# -- amplitude projection --------------------------------------------------

def test_ap_project_fixes_spectra_that_already_match():
    rng = np.random.Generator(np.random.PCG64(30))
    phi = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    amplitude = np.abs(idft2(inverse_center_shift(phi)))
    out = ap_project(phi, amplitude)[0]
    assert np.linalg.norm(out - phi) <= 1e-12 * np.linalg.norm(phi)


def test_ap_project_zero_field_uses_zero_phase_convention():
    phi = np.zeros((4, 4), dtype=np.complex128)
    out = ap_project(phi, np.ones((4, 4)))[0]
    expected = center_shift(dft2(np.ones((4, 4), dtype=np.complex128)))
    assert np.allclose(out, expected, atol=1e-12)


def test_ap_project_output_amplitude_equals_measurement():
    rng = np.random.Generator(np.random.PCG64(31))
    phi = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    amplitude = rng.random((8, 8)) + 0.05
    out = ap_project(phi, amplitude)[0]
    amp = np.abs(idft2(inverse_center_shift(out)))
    assert np.allclose(amp, amplitude, atol=1e-12)


def test_ap_project_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        ap_project(np.zeros((4, 4), dtype=np.complex128), np.ones((8, 8)))


def _shifted_ap_project(phi, amplitude):
    """ap_project with the centre shifts written out: the form it folds."""
    field = idft2(inverse_center_shift(phi))
    return center_shift(dft2(amplitude * phase_unit(field))), field


def _spectrum_and_amplitude(shape, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return phi, rng.random(shape) + 0.05


@pytest.mark.parametrize("shape", [(2 ** k, 2 ** k) for k in range(1, 8)]
                         + [(4, 64), (128, 2), (225, 32, 32)],
                         ids=lambda s: "x".join(map(str, s)))
def test_ap_project_fold_is_bitwise_the_shifted_form_at_powers_of_two(shape):
    phi, amplitude = _spectrum_and_amplitude(shape, sum(shape))
    out, modulus = ap_project(phi, amplitude)
    ref_out, ref_field = _shifted_ap_project(phi, amplitude)
    assert out.tobytes() == ref_out.tobytes()
    # the unshifted field carries the +-1 ramp; its modulus is the same
    assert modulus.tobytes() == np.abs(ref_field).tobytes()


# bound fixed before measuring: 4e-15 of the largest magnitude (the largest
# drift measured on square grids of 3 to 128 pixels a side was 2.3e-15)
@pytest.mark.parametrize("shape", [(3, 3), (5, 7), (6, 6), (10, 12), (15, 9),
                                   (89, 89), (100, 100), (6, 8, 10)],
                         ids=lambda s: "x".join(map(str, s)))
def test_ap_project_fold_drifts_by_rounding_at_other_sizes(shape):
    phi, amplitude = _spectrum_and_amplitude(shape, sum(shape))
    out, modulus = ap_project(phi, amplitude)
    ref_out, ref_field = _shifted_ap_project(phi, amplitude)
    scale = np.max(np.abs(ref_out))
    assert np.max(np.abs(out - ref_out)) <= 4e-15 * scale
    assert np.max(np.abs(modulus - np.abs(ref_field))) <= 4e-15 * np.max(
        np.abs(ref_field))


def _zero_pixel_stack():
    """Three 4x4 fields of small integers, one pixel of them zero. Their
    4-point transforms are exact, so the zero survives the round trip."""
    rng = np.random.Generator(np.random.PCG64(34))
    fields = rng.integers(1, 5, (3, 4, 4)) + 1j * rng.integers(-4, 5, (3, 4, 4))
    fields[1, 2, 3] = 0.0
    return center_shift(dft2(fields))


@pytest.mark.parametrize("phi", [np.zeros((5, 7), dtype=np.complex128),
                                 np.zeros((6, 6), dtype=np.complex128),
                                 _zero_pixel_stack()],
                         ids=["5x7", "6x6", "stack_one_zero_pixel"])
def test_ap_project_fold_keeps_the_zero_pixel_convention(phi):
    """A zero field pixel takes phase 0 in the capture plane, as in the
    shifted form: in the folded layout that is the centring ramp's value."""
    field = idft2(inverse_center_shift(phi))
    assert np.count_nonzero(field == 0.0) == (1 if phi.ndim == 3 else field.size)
    amplitude = np.random.Generator(np.random.PCG64(35)).random(phi.shape) + 0.5
    out = ap_project(phi, amplitude)[0]
    ref = _shifted_ap_project(phi, amplitude)[0]
    assert np.max(np.abs(out - ref)) <= 4e-15 * np.max(np.abs(ref))


# -- single update step ----------------------------------------------------

# the misfit is read off the modulus ap_project computed, the unshifted
# field's, which equals the shifted field's bit for bit only at powers of two
@pytest.mark.parametrize("kind", ["literal", "conventional", "fixed"])
@pytest.mark.parametrize("low", [(16, 16), (15, 13)], ids=["16x16", "15x13"])
def test_step_returns_the_misfit_of_the_pre_step_field(kind, low):
    rng = np.random.Generator(np.random.PCG64(36))
    high = (3 * low[0], 3 * low[1])
    state = EpieState(
        object_spectrum=rng.standard_normal(high) + 1j * rng.standard_normal(high),
        pupil=rng.standard_normal(low) + 1j * rng.standard_normal(low))
    for offset in [(0, 0), (3, -2), (-4, 5), (0, 0)]:
        amplitude = rng.random(low) + 0.1
        patch = state.object_spectrum[window(high, offset, *low)]
        d = amplitude - np.abs(idft2(patch * state.pupil))
        expected = float(np.vdot(d, d).real)
        assert epie_step(state, amplitude, offset, EpieConfig(pupil_update=kind)) == expected


def ground_truth_state(cfg, obj):
    return EpieState(
        object_spectrum=center_shift(dft2(obj)) * cfg.spectrum_scale,
        pupil=make_ctf(cfg))


def test_step_at_ground_truth_changes_nothing(small_instance):
    cfg, obj, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = ground_truth_state(cfg, obj)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    epie_step(state, amps[0], offsets[0], EpieConfig())
    assert (np.max(np.abs(state.object_spectrum - spec0))
            <= 1e-12 * np.max(np.abs(spec0)))
    assert np.max(np.abs(state.pupil - pup0)) <= 1e-12 * np.max(np.abs(pup0))


def test_full_sweep_at_ground_truth_is_invariant(small_instance):
    cfg, obj, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = ground_truth_state(cfg, obj)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    for n in range(len(amps)):
        epie_step(state, amps[n], offsets[n], EpieConfig())
    # measured drift over a 9-image sweep is ~2e-16 relative
    assert (np.max(np.abs(state.object_spectrum - spec0))
            <= 1e-10 * np.max(np.abs(spec0)))
    assert np.max(np.abs(state.pupil - pup0)) <= 1e-10 * np.max(np.abs(pup0))


def test_fixed_pupil_update_leaves_the_pupil_bitwise(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    spec0 = state.object_spectrum.copy()
    pup0 = state.pupil.copy()
    offsets = illumination_offsets(cfg)
    epie_step(state, amps[3], offsets[3], EpieConfig(pupil_update="fixed"))
    assert np.array_equal(state.pupil, pup0)
    assert not np.array_equal(state.object_spectrum, spec0)


def test_step_writes_only_the_addressed_window(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    spec0 = state.object_spectrum.copy()
    offsets = illumination_offsets(cfg)
    n = 0                                   # corner LED, off-center window
    epie_step(state, amps[n], offsets[n], EpieConfig())
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
    amps = measured_amplitudes(infocus_images, reference_cfg)

    def misfit(state):
        return spectral_misfit(state.object_spectrum, state.pupil, amps,
                               reference_cfg)

    for ecfg in (EpieConfig(), EpieConfig(pupil_update="fixed")):
        state = initial_state(amps, reference_cfg)
        before = misfit(state)
        epie_step(state, amps[n], offsets[n], ecfg)
        assert misfit(state) < before


def test_zero_pupil_is_rejected(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    state.pupil = np.zeros_like(state.pupil)
    with pytest.raises(DegeneratePupil):
        epie_step(state, amps[0], (0, 0), EpieConfig())


# both corrections are formed before either is applied, so a degenerate
# pupil weight raises with the state untouched
def test_all_dark_image_breaks_literal_pupil_update(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    spec0, pup0 = state.object_spectrum.copy(), state.pupil.copy()
    dark = np.zeros_like(amps[0])
    with pytest.raises(DegenerateField):
        epie_step(state, dark, (0, 0), EpieConfig())
    assert np.array_equal(state.object_spectrum, spec0)
    assert np.array_equal(state.pupil, pup0)


def test_zero_object_window_breaks_conventional_pupil_update(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    state.object_spectrum[...] = 0.0
    pup0 = state.pupil.copy()
    with pytest.raises(DegenerateField):
        epie_step(state, amps[0], (0, 0), EpieConfig(pupil_update="conventional"))
    assert not state.object_spectrum.any()
    assert np.array_equal(state.pupil, pup0)


def test_dividing_by_a_real_peak_is_multiplying_by_its_reciprocal():
    """``_update`` multiplies by 1 / peak where it once divided by peak.
    numpy divides a complex by a real b as (re + im*0) * (1/b),
    (im - re*0) * (1/b), so the bits agree wherever no part is zero, for
    every peak, one whose reciprocal overflows included. A numpy whose
    complex division rounds otherwise fails here."""
    rng = np.random.Generator(np.random.PCG64(43))
    peaks = rng.random(200) * 10.0 ** rng.uniform(-300, 300, 200)
    peaks = np.append(peaks, [1e-300, 1e300, 1e-310])   # 1 / 1e-310 is inf
    for peak in peaks:
        w = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        assert np.all(w.view(np.float64) != 0.0)
        with np.errstate(over="ignore"):
            divided = np.conj(w) / peak
            multiplied = np.conj(w) * (1.0 / peak)
        assert divided.tobytes() == multiplied.tobytes(), peak
    # the one exception: a zero part can change sign
    divided = np.conj(np.complex128(complex(-0.0, 1.0))) / 2.0
    multiplied = np.conj(np.complex128(complex(-0.0, 1.0))) * 0.5
    assert divided.real == multiplied.real == 0.0
    assert np.signbit(divided.real) != np.signbit(multiplied.real)
    assert divided.imag == multiplied.imag == -0.5


# -- captures and the frozen-state misfit ------------------------------------

def test_measured_amplitudes_roots_each_capture_into_a_new_stack(small_instance):
    cfg, _, images = small_instance
    for given_images in (images, np.array(images), [im.astype(np.float32)
                                                     for im in images]):
        before = [np.array(im) for im in given_images]
        amps = measured_amplitudes(given_images, cfg)
        assert amps.dtype == np.float64 and amps.shape == (9, 16, 16)
        for amp, im, im0 in zip(amps, given_images, before):
            assert np.array_equal(amp, np.sqrt(np.asarray(im, dtype=np.float64)))
            assert np.array_equal(im, im0)


def test_a_misshapen_capture_is_named_before_any_visit(small_instance,
                                                       monkeypatch):
    cfg, _, images = small_instance
    bad = list(images)
    bad[7] = np.ones((8, 8))

    def visit(*args):
        raise AssertionError("an image was visited")

    monkeypatch.setattr(fptycho.epie, "epie_step", visit)
    with pytest.raises(DimensionMismatch, match=r"image 7 is \(8, 8\)"):
        run_epie(bad, cfg, EpieConfig(iterations=1))


def per_led_misfit(spectrum, pupil, images, cfg):
    """The per-LED loop ``spectral_misfit`` replaced: one projection per
    capture, each rooting its own intensity."""
    total = 0.0
    for img, off in zip(images, illumination_offsets(cfg)):
        phi = spectrum[window(spectrum.shape, off, cfg.low_rows, cfg.low_cols)] * pupil
        amplitude = np.sqrt(np.asarray(img, dtype=np.float64))
        diff = ap_project(phi, amplitude)[0] - phi
        total += float(np.vdot(diff, diff).real)
    return total


def odd_instance(rng):
    """5x7 captures at 3x upsampling under a 3x3 LED grid."""
    steps = (-0.1, 0.0, 0.1)
    leds = tuple(Illumination(sx, sy) for sy in steps for sx in steps)
    cfg = OpticalConfig(wavelength_um=0.5, na=0.25, magnification=2.0,
                        camera_pixel_um=2.0, low_rows=5, low_cols=7,
                        upsample=3, illuminations=leds)
    return cfg, [rng.random((5, 7)) for _ in leds]


def test_spectral_misfit_equals_a_per_led_loop(small_instance):
    rng = np.random.Generator(np.random.PCG64(40))
    cfg, _, images = small_instance
    for cfg, images in ((cfg, images), odd_instance(rng)):
        amps = measured_amplitudes(images, cfg)
        high = (cfg.high_rows, cfg.high_cols)
        low = (cfg.low_rows, cfg.low_cols)
        state = initial_state(amps, cfg)
        pupils = (state.pupil,
                  rng.standard_normal(low) + 1j * rng.standard_normal(low))
        spectra = (state.object_spectrum,
                   rng.standard_normal(high) + 1j * rng.standard_normal(high))
        for spectrum, pupil in zip(spectra, pupils):
            assert (spectral_misfit(spectrum, pupil, amps, cfg)
                    == per_led_misfit(spectrum, pupil, images, cfg))



def test_spectral_misfit_peak_memory_stays_bounded(reference_cfg,
                                                   defocus_images):
    """The misfit projects chunks of LEDs: one stack of all 225 windows
    peaked at 19.6 MB on the reference problem."""
    amps = measured_amplitudes(defocus_images, reference_cfg)
    state = initial_state(amps, reference_cfg)
    spectral_misfit(state.object_spectrum, state.pupil, amps, reference_cfg)
    tracemalloc.start()
    try:
        spectral_misfit(state.object_spectrum, state.pupil, amps, reference_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20

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
    amps = measured_amplitudes(images, cfg)
    spec = initial_object_spectrum(amps, cfg)
    central = len(images) // 2
    low = center_shift(dft2(np.sqrt(images[central]).astype(np.complex128)))
    r0 = cfg.high_rows // 2 - cfg.low_rows // 2
    c0 = cfg.high_cols // 2 - cfg.low_cols // 2
    assert np.array_equal(spec[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols], low)
    outside = spec.copy()
    outside[r0:r0 + cfg.low_rows, c0:c0 + cfg.low_cols] = 0.0
    assert np.all(outside == 0.0)
    assert np.array_equal(initial_state(amps, cfg).pupil, make_ctf(cfg))


def test_every_start_is_the_capture_visited_first(reference_cfg):
    """0.001 is a tenth of a spectrum bin on the reference grid, so both LEDs
    sit on axis and the stable traversal visits the one listed first. The
    initial spectrum, a zero-sweep ePIE run and the pgnn start all embed that
    capture, not the one with the smaller sine."""
    cfg = dataclasses.replace(reference_cfg, illuminations=(
        Illumination(sx=0.001, sy=0.0), Illumination(sx=0.0, sy=0.0)))
    assert illumination_offsets(cfg) == [(0, 0), (0, 0)]
    first = traversal_order(cfg)[0]
    assert first == 0
    rng = np.random.Generator(np.random.PCG64(34))
    images = [rng.uniform(0.5, 1.5, (32, 32)), rng.uniform(2.0, 3.0, (32, 32))]
    expected = np.zeros((cfg.high_rows, cfg.high_cols), dtype=np.complex128)
    expected[window(expected.shape, (0, 0), 32, 32)] = center_shift(
        dft2(np.sqrt(images[first])))
    spec = initial_object_spectrum(measured_amplitudes(images, cfg), cfg)
    assert np.array_equal(spec, expected)
    spatial = run_epie(images, cfg, EpieConfig(iterations=0))[0]
    assert np.array_equal(spatial, idft2(inverse_center_shift(expected))
                          / cfg.spectrum_scale)
    model = PgnnModel(images, cfg)
    assert np.array_equal(model.initial_state().object_spectrum,
                          expected / model.area_low)


# -- full runs -------------------------------------------------------------

def test_zero_iterations_returns_initialization(small_instance):
    cfg, _, images = small_instance
    amps = measured_amplitudes(images, cfg)
    spatial, pupil, history = run_epie(images, cfg, EpieConfig(iterations=0))
    init = initial_state(amps, cfg)
    expected = idft2(inverse_center_shift(init.object_spectrum))
    expected /= cfg.spectrum_scale
    assert history == []
    assert np.array_equal(pupil, init.pupil)
    assert np.array_equal(spatial, expected)


def test_image_count_must_match_led_count(reference_cfg):
    with pytest.raises(DimensionMismatch):
        run_epie([np.ones((32, 32))] * 3, reference_cfg, EpieConfig())


def test_measured_amplitudes_needs_one_image_per_illumination(small_instance):
    # zipping images with offsets would sum a short list silently and drop
    # the surplus of a long one
    cfg, _, images = small_instance
    for wrong in (images[:1], images + images[:1]):
        with pytest.raises(DimensionMismatch, match="illuminations"):
            measured_amplitudes(wrong, cfg)


@pytest.mark.parametrize("engine", ["epie", "pgnn"])
def test_a_config_without_leds_is_a_dimension_mismatch(small_instance, engine):
    """``measured_amplitudes`` names the empty LED list; past it, both
    engines would fail with a bare IndexError on the first LED of an empty
    traversal order."""
    cfg = dataclasses.replace(small_instance[0], illuminations=())
    run = run_epie if engine == "epie" else run_pgnn
    with pytest.raises(DimensionMismatch, match="no illuminations"):
        run([], cfg)


def _divided_visit(state, amplitude, offset, kind):
    """An ePIE visit written the direct way: each correction divides by the
    squared peak, the object is corrected in place through its strided
    window, and the new pupil is a fresh sum. Returns the misfit."""
    patch = state.object_spectrum[window(state.object_spectrum.shape, offset,
                                         *amplitude.shape)]
    pupil = state.pupil
    phi_low = patch * pupil
    phi_high, modulus = ap_project(phi_low, amplitude)
    residual = phi_high - phi_low

    def update(w):
        return np.divide(np.conj(w), np.abs(w).max() ** 2) * residual

    object_step = update(pupil)
    if kind == "literal":
        state.pupil = pupil + update(phi_high)
    elif kind == "conventional":
        state.pupil = pupil + update(patch)
    patch += object_step
    diff = amplitude - modulus
    return float(np.vdot(diff, diff).real)


@pytest.mark.parametrize("kind", ["literal", "conventional", "fixed"])
def test_history_sums_each_visits_pre_update_misfit(small_instance, kind):
    """Each visit's state and misfit equal the divided visit's bit for bit,
    and the history sums the pre-update misfits."""
    cfg, _, images = small_instance
    ecfg = EpieConfig(iterations=3, pupil_update=kind)
    offsets = illumination_offsets(cfg)
    amps = measured_amplitudes(images, cfg)
    state = initial_state(amps, cfg)
    divided = EpieState(state.object_spectrum.copy(), state.pupil.copy())
    expected = []
    for _ in range(ecfg.iterations):
        sweep = 0.0
        for n in traversal_order(cfg):
            patch = state.object_spectrum[window(state.object_spectrum.shape,
                                                 offsets[n], *images[n].shape)]
            field = idft2(inverse_center_shift(patch * state.pupil))
            diff = np.sqrt(images[n]) - np.abs(field)
            sweep += float(np.vdot(diff, diff).real)
            misfit = epie_step(state, amps[n], offsets[n], ecfg)
            assert misfit == _divided_visit(divided, amps[n], offsets[n], kind)
            assert (state.object_spectrum.tobytes()
                    == divided.object_spectrum.tobytes())
            assert state.pupil.tobytes() == divided.pupil.tobytes()
        expected.append(sweep)
    obj, pupil, history = run_epie(images, cfg, ecfg)
    assert history == expected
    assert pupil.tobytes() == state.pupil.tobytes()
    assert obj.tobytes() == (idft2(inverse_center_shift(state.object_spectrum))
                             / cfg.spectrum_scale).tobytes()


@pytest.mark.parametrize("kind", ["literal", "conventional", "fixed"])
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
