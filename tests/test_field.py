"""Grid transforms, windowing, and phase helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptycho.errors import WindowOutOfBounds
from fptycho.field import (center_shift, crop_window, dft2, grid_center, idft2,
                           inverse_center_shift, phase_unit, window_bounds,
                           wrap_phase)


def test_dft2_of_ones_concentrates_in_dc_bin():
    g = np.ones((2, 2), dtype=np.complex128)
    out = dft2(g)
    expected = np.array([[4, 0], [0, 0]], dtype=np.complex128)
    assert np.allclose(out, expected, atol=1e-12)


def test_idft2_inverts_dft2_on_random_grids():
    rng = np.random.Generator(np.random.PCG64(0))
    for n in (3, 16, 128):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        back = idft2(dft2(g))
        assert np.linalg.norm(back - g) <= 1e-12 * np.linalg.norm(g)


def test_idft2_recovers_ones_from_dc_spike():
    spike = np.array([[4, 0], [0, 0]], dtype=np.complex128)
    assert np.allclose(idft2(spike), np.ones((2, 2)), atol=1e-12)


def test_transform_preserves_energy_up_to_grid_area():
    rng = np.random.Generator(np.random.PCG64(1))
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    e_spatial = float(np.sum(np.abs(g) ** 2))
    e_spectrum = float(np.sum(np.abs(dft2(g)) ** 2)) / g.size
    assert abs(e_spatial - e_spectrum) <= 1e-12 * e_spatial


def test_single_pixel_grid_transforms_to_itself():
    g = np.array([[2.5 - 1.25j]])
    assert dft2(g)[0, 0] == pytest.approx(g[0, 0])
    assert idft2(g)[0, 0] == pytest.approx(g[0, 0])


def test_center_shift_swaps_quadrants_on_2x2():
    g = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    assert np.array_equal(center_shift(g), np.array([[4, 3], [2, 1]]))


def test_center_shift_round_trips_odd_dims():
    rng = np.random.Generator(np.random.PCG64(2))
    g = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    assert np.array_equal(inverse_center_shift(center_shift(g)), g)


def test_center_shift_moves_origin_to_grid_center():
    g = np.zeros((8, 8), dtype=np.complex128)
    g[0, 0] = 1.0
    out = center_shift(g)
    assert out[4, 4] == 1.0
    assert np.count_nonzero(out) == 1


def test_center_shifts_equal_numpy_shifts_on_every_small_shape():
    for rows in range(1, 41):
        for cols in range(1, 41):
            g = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
            assert np.array_equal(center_shift(g), np.fft.fftshift(g))
            assert np.array_equal(inverse_center_shift(g), np.fft.ifftshift(g))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([np.float64, np.complex128]))
def test_center_shifts_are_bitwise_numpy_shifts(rows, cols, seed, dtype):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((rows, cols)).astype(dtype)
    if dtype is np.complex128:
        g += 1j * rng.standard_normal((rows, cols))
    g[rng.random((rows, cols)) < 0.1] = -0.0
    for ours, theirs in ((center_shift, np.fft.fftshift),
                         (inverse_center_shift, np.fft.ifftshift)):
        out = ours(g)
        assert out.dtype == g.dtype and out.flags.c_contiguous
        assert out.tobytes() == theirs(g).tobytes()
    assert inverse_center_shift(center_shift(g)).tobytes() == g.tobytes()


def test_grid_center_is_floor_halves():
    assert grid_center((8, 8)) == (4, 4)
    assert grid_center((7, 5)) == (3, 2)


def test_crop_at_center_with_full_dims_returns_same_grid():
    rng = np.random.Generator(np.random.PCG64(3))
    g = rng.standard_normal((6, 6)) + 0j
    out = crop_window(g, 3, 3, 6, 6)
    assert np.array_equal(out, g)


def test_crop_window_follows_start_equals_center_minus_half_rule():
    # window of size S centered at c spans [c - S//2, c - S//2 + S); for a
    # 2x2 window at (4,4) that is rows 3..4 x cols 3..4
    g = np.arange(64, dtype=np.float64).reshape(8, 8).astype(np.complex128)
    out = crop_window(g, 4, 4, 2, 2)
    assert np.array_equal(out, g[3:5, 3:5])


def test_crop_window_rejects_out_of_bounds_center():
    g = np.zeros((8, 8), dtype=np.complex128)
    with pytest.raises(WindowOutOfBounds):
        crop_window(g, 0, 0, 4, 4)


def test_crop_window_does_not_modify_source():
    g = np.ones((8, 8), dtype=np.complex128)
    snapshot = g.copy()
    crop_window(g, 4, 4, 2, 2)
    assert np.array_equal(g, snapshot)


def test_crop_embed_round_trip_over_random_windows():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        rows = int(rng.integers(4, 65))
        cols = int(rng.integers(4, 65))
        wr = int(rng.integers(1, rows + 1))
        wc = int(rng.integers(1, cols + 1))
        cr = int(rng.integers(wr // 2, rows - (wr - wr // 2) + 1))
        cc = int(rng.integers(wc // 2, cols - (wc - wc // 2) + 1))
        r0, c0 = window_bounds(cr, cc, wr, wc, (rows, cols))
        assert (r0, c0) == (cr - wr // 2, cc - wc // 2)
        patch = (rng.standard_normal((wr, wc))
                 + 1j * rng.standard_normal((wr, wc)))
        dst = np.zeros((rows, cols), dtype=np.complex128)
        dst[r0:r0 + wr, c0:c0 + wc] = patch
        assert np.array_equal(crop_window(dst, cr, cc, wr, wc), patch)


def test_phase_unit_zero_maps_to_one():
    out = phase_unit(np.array([[0 + 0j, 2j]]))
    assert out[0, 0] == 1 + 0j
    assert out[0, 1] == pytest.approx(1j)


def test_wrap_phase_lands_in_half_open_interval():
    vals = np.array([-np.pi, np.pi, 3 * np.pi / 2, -3 * np.pi / 2, 0.25])
    out = wrap_phase(vals)
    assert np.all(out > -np.pi) and np.all(out <= np.pi)
    assert out[0] == pytest.approx(np.pi)       # -pi wraps to +pi
    assert out[1] == pytest.approx(np.pi)
    assert out[2] == pytest.approx(-np.pi / 2)
    assert out[3] == pytest.approx(np.pi / 2)
    assert out[4] == pytest.approx(0.25)
