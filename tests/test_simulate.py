"""Synthetic capture generation: forward model, noise, and clipping."""

import numpy as np
import pytest

from fptycho.errors import DimensionMismatch
from fptycho.optics import Illumination, OpticalConfig, illumination_offsets, make_ctf
from fptycho.simulate import (GroundTruth, SimOptions, forward_capture,
                              simulate_dataset)

from conftest import fractal, grid_config


def test_uniform_object_central_capture_is_unit_intensity(reference_cfg):
    gt = GroundTruth(np.ones((128, 128), dtype=np.complex128),
                     make_ctf(reference_cfg))
    img = forward_capture(gt, reference_cfg, (0, 0))
    assert img.shape == (32, 32)
    assert np.allclose(img, 1.0, atol=1e-12)


def test_uniform_object_corner_capture_is_dark(reference_cfg):
    # a delta spectrum misses every off-center window entirely
    gt = GroundTruth(np.ones((128, 128), dtype=np.complex128),
                     make_ctf(reference_cfg))
    corner = illumination_offsets(reference_cfg)[0]
    img = forward_capture(gt, reference_cfg, corner)
    assert float(img.max()) <= 1e-20


def test_forward_capture_matches_full_grid_oracle():
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=32, low_cols=32,
                        upsample=2,
                        illuminations=(Illumination(0.0, 0.0),
                                       Illumination(0.05, -0.05)))
    rng = np.random.Generator(np.random.PCG64(20))
    obj = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    gt = GroundTruth(obj, make_ctf(cfg))
    for offset in illumination_offsets(cfg):
        got = forward_capture(gt, cfg, offset)

        # independent path: shift the transfer function across the full
        # high-res grid, multiply there, then crop the capture window by
        # plain slicing
        spec = np.fft.fftshift(np.fft.fft2(obj))
        pitch = 1.0 / (64 * (1.725 / 2))
        cut2 = (0.1 / 0.532) ** 2
        rr = (np.arange(64)[:, None] - 32 - offset[0]) * pitch
        cc = (np.arange(64)[None, :] - 32 - offset[1]) * pitch
        shifted_ctf = (rr * rr + cc * cc < cut2).astype(np.complex128)
        prod = spec * shifted_ctf
        r0 = 32 + offset[0] - 16
        c0 = 32 + offset[1] - 16
        window = prod[r0:r0 + 32, c0:c0 + 32]
        field = (32 * 32) / (64 * 64) * np.fft.ifft2(np.fft.ifftshift(window))
        expected = np.abs(field) ** 2

        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_dataset_has_one_capture_per_led(reference_cfg, infocus_images):
    assert len(infocus_images) == 225
    assert all(img.shape == (32, 32) for img in infocus_images)
    assert all(float(img.min()) >= 0.0 for img in infocus_images)


def test_saturation_clips_at_the_level_and_leaves_the_rest():
    cfg = grid_config(half_span=0.05, step=0.05)
    gt = GroundTruth(np.ones((128, 128), dtype=np.complex128), make_ctf(cfg))
    clean = simulate_dataset(gt, cfg)
    clipped = simulate_dataset(gt, cfg, SimOptions(saturation=0.5))
    center = len(clean) // 2
    assert float(clean[center].max()) == pytest.approx(1.0, abs=1e-12)
    assert float(clipped[center].max()) == 0.5
    for a, b in zip(clean, clipped):
        assert np.array_equal(b, np.minimum(a, 0.5))


def test_noiseless_output_ignores_the_seed(small_instance):
    cfg, obj, _ = small_instance
    gt = GroundTruth(obj, make_ctf(cfg))
    a = simulate_dataset(gt, cfg, SimOptions(noise_sigma=0.0, seed=0))
    b = simulate_dataset(gt, cfg, SimOptions(noise_sigma=0.0, seed=12345))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_noisy_output_is_nonnegative_and_seed_reproducible(small_instance):
    cfg, obj, _ = small_instance
    gt = GroundTruth(obj, make_ctf(cfg))
    opts = SimOptions(noise_sigma=0.3, seed=7)
    a = simulate_dataset(gt, cfg, opts)
    b = simulate_dataset(gt, cfg, opts)
    c = simulate_dataset(gt, cfg, SimOptions(noise_sigma=0.3, seed=8))
    assert all(float(img.min()) >= 0.0 for img in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_noise_is_applied_before_saturation(small_instance):
    cfg, obj, _ = small_instance
    gt = GroundTruth(obj, make_ctf(cfg))
    noisy = simulate_dataset(gt, cfg, SimOptions(noise_sigma=0.3, seed=7))
    both = simulate_dataset(gt, cfg, SimOptions(noise_sigma=0.3, seed=7,
                                                saturation=0.4))
    for x, y in zip(noisy, both):
        assert np.array_equal(y, np.minimum(x, 0.4))


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SimOptions(saturation=0.0)


def test_ground_truth_dims_are_checked(reference_cfg):
    bad = GroundTruth(np.ones((64, 64), dtype=np.complex128),
                      make_ctf(reference_cfg))
    with pytest.raises(DimensionMismatch):
        forward_capture(bad, reference_cfg, (0, 0))
    bad_pupil = GroundTruth(np.ones((128, 128), dtype=np.complex128),
                            np.ones((16, 16), dtype=np.complex128))
    with pytest.raises(DimensionMismatch):
        forward_capture(bad_pupil, reference_cfg, (0, 0))


def test_textured_truth_keeps_energy_in_offaxis_captures(reference_cfg,
                                                         infocus_images):
    # the acceptance phantom exists precisely to avoid empty dark-field
    # captures; make sure the corner capture is not numerically empty
    assert float(infocus_images[0].max()) > 1e-6
    assert 0.0 <= fractal(11, 16, 0.65).min() <= fractal(11, 16, 0.65).max() == 1.0
