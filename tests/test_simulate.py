"""Synthetic capture generation: forward model, noise, and clipping."""

import tracemalloc

import numpy as np
import pytest

from fptycho.errors import DimensionMismatch, NumericalError
from fptycho.field import WINDOW_CHUNK, center_shift, dft2
from fptycho.optics import (Illumination, OpticalConfig, defocus_phase,
                            illumination_offsets, make_ctf)
from fptycho.simulate import (GroundTruth, SimOptions, forward_capture,
                              simulate_dataset)

from conftest import fractal, grid_config


def uniform_spectrum(n: int) -> np.ndarray:
    return center_shift(dft2(np.ones((n, n), dtype=np.complex128)))


def test_uniform_object_central_capture_is_unit_intensity(reference_cfg):
    img = forward_capture(uniform_spectrum(128), make_ctf(reference_cfg),
                          reference_cfg, (0, 0))
    assert img.shape == (32, 32)
    assert np.allclose(img, 1.0, atol=1e-12)


def test_uniform_object_corner_capture_is_dark(reference_cfg):
    # a delta spectrum misses every off-center window entirely
    corner = illumination_offsets(reference_cfg)[0]
    img = forward_capture(uniform_spectrum(128), make_ctf(reference_cfg),
                          reference_cfg, corner)
    assert float(img.max()) <= 1e-20


def test_forward_capture_matches_full_grid_oracle():
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=32, low_cols=32,
                        upsample=2,
                        illuminations=(Illumination(0.0, 0.0),
                                       Illumination(0.05, -0.05)))
    rng = np.random.Generator(np.random.PCG64(20))
    obj = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    spectrum = center_shift(dft2(obj))
    for offset in illumination_offsets(cfg):
        got = forward_capture(spectrum, make_ctf(cfg), cfg, offset)

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
    # NaN passes a '< 0' check: a NaN sigma used to simulate noiselessly
    for kw in (dict(noise_sigma=float("nan")), dict(noise_sigma=float("inf")),
               dict(saturation=float("nan")), dict(saturation=float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            SimOptions(**kw)


def test_ground_truth_dims_are_checked(reference_cfg):
    bad = GroundTruth(np.ones((64, 64), dtype=np.complex128),
                      make_ctf(reference_cfg))
    with pytest.raises(DimensionMismatch):
        simulate_dataset(bad, reference_cfg)
    bad_pupil = GroundTruth(np.ones((128, 128), dtype=np.complex128),
                            np.ones((16, 16), dtype=np.complex128))
    with pytest.raises(DimensionMismatch):
        simulate_dataset(bad_pupil, reference_cfg)


def test_textured_truth_keeps_energy_in_offaxis_captures(reference_cfg,
                                                         infocus_images):
    # the acceptance phantom exists precisely to avoid empty dark-field
    # captures; make sure the corner capture is not numerically empty
    assert float(infocus_images[0].max()) > 1e-6
    assert 0.0 <= fractal(11, 16, 0.65).min() <= fractal(11, 16, 0.65).max() == 1.0


def per_led_dataset(gt, cfg, opts):
    """The per-LED loop the chunked ``simulate_dataset`` replaced: one
    ``forward_capture`` per LED, then its own noise, clamp and clip."""
    spectrum = center_shift(dft2(gt.object_spatial))
    images = []
    for n, off in enumerate(illumination_offsets(cfg)):
        img = forward_capture(spectrum, gt.pupil, cfg, off)
        if opts.noise_sigma > 0.0:
            rng = np.random.Generator(np.random.PCG64(opts.seed ^ n))
            img = img + opts.noise_sigma * rng.standard_normal(img.shape)
            img = np.maximum(img, 0.0)
        if opts.saturation is not None:
            img = np.minimum(img, opts.saturation)
        images.append(img)
    return images


@pytest.mark.parametrize("count", [1, WINDOW_CHUNK, WINDOW_CHUNK + 1])
@pytest.mark.parametrize("low", [(16, 16), (12, 10)])
@pytest.mark.parametrize("noisy", [False, True])
def test_dataset_equals_a_per_led_loop_byte_for_byte(count, low, noisy):
    steps = (-0.05, -0.03, -0.01, 0.01, 0.03, 0.05)
    leds = tuple(Illumination(sx, sy) for sy in steps for sx in steps)[:count]
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=low[0], low_cols=low[1],
                        upsample=3, illuminations=leds)
    rng = np.random.Generator(np.random.PCG64(60))
    high = (cfg.high_rows, cfg.high_cols)
    obj = (0.5 + rng.random(high)) * np.exp(1j * rng.standard_normal(high))
    gt = GroundTruth(obj, make_ctf(cfg) * np.exp(1j * defocus_phase(cfg, 20.0)))
    opts = SimOptions()
    if noisy:
        clean = np.concatenate([img.ravel() for img in simulate_dataset(gt, cfg)])
        opts = SimOptions(noise_sigma=float(np.median(clean)), seed=9,
                          saturation=float(np.quantile(clean, 0.9)))
    got = simulate_dataset(gt, cfg, opts)
    want = per_led_dataset(gt, cfg, opts)
    assert len(got) == len(want) == count
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape == low
        assert a.tobytes() == b.tobytes()
    if noisy:
        # the clamp and the clip both bite, so both are compared
        pixels = np.concatenate([img.ravel() for img in got])
        assert np.any(pixels == 0.0) and np.any(pixels == opts.saturation)


def test_a_non_finite_capture_is_named(reference_cfg):
    # a plane wave of modulus 1e155 puts all its energy in one spectrum bin;
    # the 12 LEDs whose windows pass it overflow |field|^2, the first of them
    # image 147, in the middle of its chunk. Clipping at a saturation level
    # would turn the overflow into a saturated capture, so it must not hide it
    r = np.arange(128)[:, None]
    c = np.arange(128)[None, :]
    obj = 1e155 * np.exp(2j * np.pi * (20 * r + 25 * c) / 128)
    gt = GroundTruth(obj, make_ctf(reference_cfg))
    assert 147 % WINDOW_CHUNK not in (0, WINDOW_CHUNK - 1)
    for opts in (SimOptions(), SimOptions(saturation=1.0),
                 SimOptions(noise_sigma=0.01, saturation=1.0, seed=3)):
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=r"simulated image 147$"):
                simulate_dataset(gt, reference_cfg, opts)


def test_dataset_peak_memory_stays_bounded(reference_cfg, truth_object,
                                           defocus_pupil):
    """Chunks bound what rendering holds beyond the 1.8 MB of captures it
    returns: one stack of all 225 windows would pass 6 MB."""
    gt = GroundTruth(truth_object, defocus_pupil)
    simulate_dataset(gt, reference_cfg)
    tracemalloc.start()
    try:
        simulate_dataset(gt, reference_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
