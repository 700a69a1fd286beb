"""Quality metrics: phase-gauge alignment, error measures, passband filter."""

import numpy as np
import pytest

from conftest import grid_config
from fptycho.errors import DegenerateReference, DimensionMismatch
from fptycho.evaluate import (global_phase_align, metrics, passband_filter,
                              passband_rel_err_amp)
from fptycho.field import (center_shift, dft2, idft2, inverse_center_shift,
                           window)
from fptycho.optics import (Illumination, OpticalConfig, freq_grids,
                            illumination_offsets, pupil_support,
                            synthetic_aperture_mask)


def _pair(seed, n=16):
    rng = np.random.Generator(np.random.PCG64(seed))
    make = lambda: (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))
    return make(), make()


def test_identical_fields_have_zero_error_and_infinite_psnr():
    x, _ = _pair(70)
    m = metrics(x, x)
    # the closed-form phase can land a few 1e-19 off exact zero (fused
    # multiply-adds leave a residue in the imaginary part of sum(|x|^2))
    assert m.rel_err_complex <= 1e-15
    assert m.rel_err_amp == 0.0
    assert m.psnr_amp == float("inf")


def test_complex_error_ignores_any_global_phase():
    _, truth = _pair(71)
    rng = np.random.Generator(np.random.PCG64(72))
    for phi in rng.uniform(-np.pi, np.pi, size=100):
        m = metrics(np.exp(1j * phi) * truth, truth)
        assert m.rel_err_complex <= 1e-12


def test_uniform_amplitude_scale_reads_as_that_fraction():
    _, truth = _pair(73)
    m = metrics(1.1 * truth, truth)
    assert m.rel_err_amp == pytest.approx(0.1, abs=1e-12)
    assert m.rel_err_complex == pytest.approx(0.1, abs=1e-12)


def test_align_is_identity_on_itself():
    x, _ = _pair(74)
    aligned, phi = global_phase_align(x, x)
    assert abs(phi) <= 1e-12
    assert np.linalg.norm(aligned - x) <= 1e-12 * np.linalg.norm(x)


def test_align_recovers_a_known_rotation():
    _, ref = _pair(75)
    aligned, phi = global_phase_align(np.exp(1j * 1.3) * ref, ref)
    assert phi == pytest.approx(-1.3, abs=1e-12)
    assert np.linalg.norm(aligned - ref) <= 1e-12 * np.linalg.norm(ref)


def test_closed_form_alignment_beats_a_dense_grid_search():
    x, ref = _pair(76)
    aligned, _ = global_phase_align(x, ref)
    best = min(np.linalg.norm(np.exp(1j * th) * x - ref)
               for th in np.linspace(-np.pi, np.pi, 3600, endpoint=False))
    assert np.linalg.norm(aligned - ref) <= best + 1e-12


def test_alignment_never_increases_the_error():
    for seed in range(77, 87):
        x, ref = _pair(seed)
        aligned, _ = global_phase_align(x, ref)
        assert (np.linalg.norm(aligned - ref)
                <= np.linalg.norm(x - ref) + 1e-12)


def test_zero_reference_is_degenerate():
    x, _ = _pair(88)
    with pytest.raises(DegenerateReference):
        global_phase_align(x, np.zeros_like(x))


def test_align_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        global_phase_align(np.ones((4, 4)), np.ones((4, 5)))


# -- synthetic-aperture passband -------------------------------------------

def test_passband_filter_masks_the_spectrum_exactly():
    cfg = grid_config(n_low=16, upsample=2, half_span=0.05, step=0.05)
    rng = np.random.Generator(np.random.PCG64(89))
    spec = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    spatial = idft2(inverse_center_shift(spec))
    filtered = passband_filter(spatial, cfg)
    got_spec = center_shift(dft2(filtered))
    want = spec * synthetic_aperture_mask(cfg)
    assert np.allclose(got_spec, want, atol=1e-12 * np.max(np.abs(spec)))


def test_passband_filter_is_idempotent():
    cfg = grid_config(n_low=16, upsample=2, half_span=0.05, step=0.05)
    rng = np.random.Generator(np.random.PCG64(90))
    spatial = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    once = passband_filter(spatial, cfg)
    twice = passband_filter(once, cfg)
    assert np.allclose(once, twice, atol=1e-12 * np.max(np.abs(once)))


def test_aperture_union_with_one_led_is_the_pupil_disk():
    cfg = grid_config(n_low=16, upsample=2, half_span=0.0, step=0.05)
    mask = synthetic_aperture_mask(cfg)
    assert mask.dtype == bool
    assert np.array_equal(mask[8:24, 8:24], pupil_support(cfg))
    outside = mask.copy()
    outside[8:24, 8:24] = False
    assert not outside.any()


def test_aperture_union_covers_every_shifted_disk(reference_cfg):
    mask = synthetic_aperture_mask(reference_cfg)
    support = pupil_support(reference_cfg)
    # the axial disk sits in the central window of the union
    r0 = 64 - 16
    assert np.all(mask[r0:r0 + 32, r0:r0 + 32][support])


def shifted_disk_union(cfg):
    """The mask as a formula on the high-res grid: a bin is in when its
    frequency lies strictly inside the cutoff around some LED's shifted
    pupil centre."""
    fr, fc = freq_grids(cfg.high_rows, cfg.high_cols, cfg.pixel_high_um)
    df_rows = 1.0 / (cfg.high_rows * cfg.pixel_high_um)
    df_cols = 1.0 / (cfg.high_cols * cfg.pixel_high_um)
    mask = np.zeros((cfg.high_rows, cfg.high_cols), dtype=bool)
    for off_r, off_c in illumination_offsets(cfg):
        dr = fr - off_r * df_rows
        dc = fc - off_c * df_cols
        mask |= dr * dr + dc * dc < cfg.cutoff_cycles ** 2
    return mask


@pytest.mark.parametrize("cfg", [
    grid_config(), grid_config(n_low=16, upsample=2, half_span=0.05, step=0.05)],
    ids=["reference", "small"])
def test_aperture_union_equals_the_shifted_disk_formula(cfg):
    assert np.array_equal(synthetic_aperture_mask(cfg), shifted_disk_union(cfg))


def test_undersampled_aperture_keeps_only_bins_some_capture_measures():
    # 6.5 um pixels at 1x: the pupil disk (radius 0.19 cycles/um) overhangs
    # the capture grid's band (+-0.077), so the disk formula reaches bins
    # outside every capture window
    steps = (-0.02, 0.0, 0.02)
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=1.0,
                        camera_pixel_um=6.5, low_rows=16, low_cols=16,
                        upsample=4, illuminations=tuple(
                            Illumination(sx, sy) for sy in steps for sx in steps))
    measured = np.zeros((cfg.high_rows, cfg.high_cols), dtype=bool)
    for off in illumination_offsets(cfg):
        measured[window(measured.shape, off, cfg.low_rows, cfg.low_cols)] = True
    mask = synthetic_aperture_mask(cfg)
    assert np.array_equal(mask, measured)
    assert (shifted_disk_union(cfg) & ~measured).any()


def test_passband_error_of_a_field_with_itself_is_zero():
    cfg = grid_config(n_low=16, upsample=2, half_span=0.05, step=0.05)
    rng = np.random.Generator(np.random.PCG64(91))
    x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    assert passband_rel_err_amp(x, x, cfg) == 0.0


def test_passband_filter_rejects_mismatched_shapes():
    cfg = grid_config(n_low=16, upsample=2, half_span=0.05, step=0.05)
    with pytest.raises(DimensionMismatch):
        passband_filter(np.ones((16, 16)), cfg)
