"""Transfer function, Zernike basis, LED offsets, and defocus kernel."""

import math

import numpy as np
import pytest

from fptycho.errors import (DimensionMismatch, InvalidModeCount,
                            WindowOutOfBounds)
from fptycho.optics import (Illumination, OpticalConfig, defocus_phase,
                            illumination_offsets, make_ctf, pupil_from_params,
                            pupil_support, zernike_basis)

from conftest import grid_config


def single_led_config(**kw):
    defaults = dict(wavelength_um=0.532, na=0.1, magnification=2.0,
                    camera_pixel_um=3.45, low_rows=32, low_cols=32, upsample=4,
                    illuminations=(Illumination(0.0, 0.0),))
    defaults.update(kw)
    return OpticalConfig(**defaults)


def boundary_config():
    """Chosen so the passband edge lands exactly on grid bins: bin pitch
    1/8 cycles/um and cutoff 0.25 cycles/um put bins at radius 2 exactly on
    the cutoff circle."""
    return OpticalConfig(wavelength_um=1.0, na=0.25, magnification=1.0,
                         camera_pixel_um=1.0, low_rows=8, low_cols=8,
                         upsample=1, illuminations=(Illumination(0.0, 0.0),))


def test_illumination_rejects_sines_outside_unit_circle():
    with pytest.raises(ValueError):
        Illumination(1.0, 0.0)
    with pytest.raises(ValueError):
        Illumination(0.8, 0.7)


def test_optical_config_validates_scalars():
    with pytest.raises(ValueError):
        single_led_config(na=1.5)
    with pytest.raises(ValueError):
        single_led_config(upsample=0)
    # finite inputs whose derived sampling overflows or underflows to 0
    for kw, name in ((dict(camera_pixel_um=1e308, magnification=1e-308),
                      "pixel_low_um"),
                     (dict(camera_pixel_um=1e-308, magnification=1e308),
                      "pixel_low_um"),
                     (dict(camera_pixel_um=5e-324, magnification=1.0),
                      "pixel_high_um"),
                     (dict(wavelength_um=1e-320), "cutoff_cycles"),
                     (dict(wavelength_um=1e300, na=1e-300), "cutoff_cycles")):
        with pytest.raises(ValueError, match=name):
            single_led_config(**kw)


def test_offsets_must_be_finite():
    # the frequency sx / wavelength overflows; so, for the axial LED, does
    # the field of view, which makes the bin pitch 0
    for kw in (dict(wavelength_um=1e-320, na=1e-300,
                    illuminations=(Illumination(0.1, 0.0),)),
               dict(camera_pixel_um=1e308, magnification=1.0)):
        with pytest.raises(WindowOutOfBounds, match="not finite"):
            illumination_offsets(single_led_config(**kw))


def test_derived_sampling_properties():
    cfg = single_led_config()
    assert cfg.pixel_low_um == pytest.approx(1.725)
    assert cfg.pixel_high_um == pytest.approx(1.725 / 4)
    assert (cfg.high_rows, cfg.high_cols) == (128, 128)
    assert cfg.cutoff_cycles == pytest.approx(0.1 / 0.532)
    assert cfg.spectrum_scale == pytest.approx(1.0 / 16.0)


# -- coherent transfer function -------------------------------------------

def test_ctf_dc_bin_is_one():
    ctf = make_ctf(single_led_config())
    assert ctf[16, 16] == 1 + 0j


def test_ctf_bin_exactly_on_cutoff_is_zero():
    ctf = make_ctf(boundary_config())
    # radius-2 bins sit exactly on the cutoff circle; the passband is strict
    assert ctf[4, 6] == 0
    assert ctf[6, 4] == 0
    assert ctf[4, 4] == 1
    # 3x3 neighborhood of radii 0 and 1 and the four sqrt(2) corners pass
    assert int(ctf.real.sum()) == 9


def test_ctf_nonzero_count_matches_per_bin_oracle():
    cfg = single_led_config()
    ctf = make_ctf(cfg)
    cut2 = (0.1 / 0.532) ** 2
    count = 0
    for r in range(32):
        for c in range(32):
            fr = (r - 16) / (32 * 1.725)
            fc = (c - 16) / (32 * 1.725)
            if fr * fr + fc * fc < cut2:
                count += 1
    assert count == 341          # frozen from the hand loop above
    assert int(ctf.real.sum()) == count


def test_ctf_is_real_binary_and_radially_consistent():
    ctf = make_ctf(single_led_config())
    assert np.all(ctf.imag == 0.0)
    assert set(np.unique(ctf.real)) <= {0.0, 1.0}
    by_radius = {}
    for r in range(32):
        for c in range(32):
            by_radius.setdefault((r - 16) ** 2 + (c - 16) ** 2,
                                 set()).add(float(ctf.real[r, c]))
    assert all(len(vals) == 1 for vals in by_radius.values())


# -- Zernike basis ---------------------------------------------------------

def test_zernike_rejects_mode_count_below_one():
    with pytest.raises(InvalidModeCount):
        zernike_basis(single_led_config(), 0)


def test_zernike_first_mode_is_unit_bias():
    basis = zernike_basis(single_led_config(), 6)
    assert np.all(basis.grids[0][basis.disk] == 1.0)
    assert np.all(basis.grids[0][~basis.disk] == 0.0)


def test_zernike_defocus_endpoints():
    basis = zernike_basis(boundary_config(), 6)
    root3 = math.sqrt(3.0)
    assert basis.grids[3][4, 4] == pytest.approx(-root3, abs=1e-12)
    # the radius-2 bins have rho exactly 1 (inside the closed basis disk)
    assert basis.grids[3][4, 6] == pytest.approx(root3, abs=1e-12)


def test_zernike_tilt_orientations():
    basis = zernike_basis(boundary_config(), 6)
    # +column axis: rho=1, theta=0 -> tilt-x is 2, tilt-y is 0
    assert basis.grids[1][4, 6] == pytest.approx(2.0, abs=1e-12)
    assert basis.grids[2][4, 6] == pytest.approx(0.0, abs=1e-12)
    # +row axis: theta=pi/2 -> the roles swap
    assert basis.grids[1][6, 4] == pytest.approx(0.0, abs=1e-12)
    assert basis.grids[2][6, 4] == pytest.approx(2.0, abs=1e-12)


def test_zernike_modes_nearly_orthogonal_on_fine_pupil():
    cfg = single_led_config(low_rows=128, low_cols=128, upsample=1)
    basis = zernike_basis(cfg, 6)
    support = pupil_support(cfg)
    worst = 0.0
    for l in range(6):
        for m in range(l + 1, 6):
            num = abs(float(np.sum(basis.grids[l][support]
                                   * basis.grids[m][support])))
            den = math.sqrt(float(np.sum(basis.grids[l][support] ** 2))
                            * float(np.sum(basis.grids[m][support] ** 2)))
            worst = max(worst, num / den)
    # measured worst normalized cross-talk on this grid is 1.7e-3
    assert worst <= 0.05


# -- parameterized pupil ---------------------------------------------------

def test_pupil_with_zero_coeffs_is_the_plain_ctf():
    cfg = single_led_config()
    ctf = make_ctf(cfg)
    basis = zernike_basis(cfg, 6)
    pupil = pupil_from_params(ctf.real, np.zeros(6), basis)
    assert np.array_equal(pupil, ctf)


def test_pupil_bias_pi_negates_the_passband():
    cfg = single_led_config()
    ctf_amp = make_ctf(cfg).real
    basis = zernike_basis(cfg, 6)
    coeffs = np.array([math.pi, 0, 0, 0, 0, 0])
    pupil = pupil_from_params(ctf_amp, coeffs, basis)
    assert np.allclose(pupil, -ctf_amp, atol=1e-12)


def test_pupil_defocus_coefficient_sets_dc_phase():
    cfg = single_led_config()
    ctf_amp = make_ctf(cfg).real
    basis = zernike_basis(cfg, 6)
    coeffs = np.array([0, 0, 0, 2.0, 0, 0])
    pupil = pupil_from_params(ctf_amp, coeffs, basis)
    expected_dc = np.exp(1j * (2.0 * -math.sqrt(3.0)))
    assert pupil[16, 16] == pytest.approx(expected_dc, abs=1e-12)


def test_pupil_from_params_preserves_amplitude():
    cfg = single_led_config()
    ctf_amp = make_ctf(cfg).real
    basis = zernike_basis(cfg, 6)
    rng = np.random.Generator(np.random.PCG64(7))
    pupil = pupil_from_params(ctf_amp, rng.standard_normal(6), basis)
    assert np.allclose(np.abs(pupil), ctf_amp, atol=1e-12)
    assert np.all(pupil[ctf_amp == 0.0] == 0.0)


def test_pupil_from_params_rejects_mismatched_dims():
    cfg = single_led_config()
    basis = zernike_basis(cfg, 6)
    with pytest.raises(DimensionMismatch):
        pupil_from_params(np.ones((8, 8)), np.zeros(6), basis)


# -- illumination offsets --------------------------------------------------

def test_central_led_has_zero_offset():
    offsets = illumination_offsets(single_led_config())
    assert offsets == [(0, 0)]


def test_corner_led_offset_matches_hand_formula():
    cfg = grid_config()
    offsets = illumination_offsets(cfg)
    # hand evaluation: s / wavelength / bin pitch, rounded half away from 0
    pitch = 1.0 / (128 * (1.725 / 4))
    expect = math.floor(abs(-0.35 / 0.532 / pitch) + 0.5)
    assert expect == 36          # frozen hand value
    assert offsets[0] == (-36, -36)
    assert offsets[112] == (0, 0)


def test_offsets_are_antisymmetric_across_the_array():
    cfg = grid_config()
    offsets = illumination_offsets(cfg)
    n = len(offsets)
    for i in range(n):
        r, c = offsets[n - 1 - i]
        assert offsets[i] == (-r, -c)


def test_offsets_reject_windows_leaving_the_grid():
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=32, low_cols=32,
                        upsample=1, illuminations=(Illumination(0.3, 0.0),))
    with pytest.raises(WindowOutOfBounds):
        illumination_offsets(cfg)


# -- defocus ---------------------------------------------------------------

def test_zero_defocus_gives_zero_phase():
    assert np.all(defocus_phase(single_led_config(), 0.0) == 0.0)


def test_positive_defocus_phase_decreases_away_from_dc():
    cfg = single_led_config()
    phase = defocus_phase(cfg, 50.0)
    support = pupil_support(cfg)
    assert phase[16, 16] == 0.0
    off_dc = support.copy()
    off_dc[16, 16] = False
    assert np.all(phase[off_dc] < 0.0)
    assert np.all(phase[~support] == 0.0)


def test_defocus_peak_to_valley_against_closed_form():
    cfg = single_led_config()
    phase = defocus_phase(cfg, 50.0)
    support = pupil_support(cfg)
    p2v = float(phase[support].max() - phase[support].min())
    k0 = 2 * math.pi / 0.532
    closed = 50.0 * k0 * (1.0 - math.sqrt(1.0 - 0.1 ** 2))
    assert p2v == pytest.approx(2.914286, abs=1e-5)   # frozen grid value
    assert closed == pytest.approx(2.960043, abs=1e-5)
    # grid maximum radius sits inside the NA edge, so grid <= closed form
    assert p2v <= closed
    assert abs(p2v - closed) / closed <= 0.03
