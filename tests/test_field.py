"""Grid transforms, windowing, and phase helpers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fptycho.errors import DimensionMismatch, WindowOutOfBounds
from fptycho.field import (center_shift, dft2, idft2, inverse_center_shift,
                           phase_unit, window, wrap_phase)


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
    assert window((8, 8), (0, 0), 2, 2) == (slice(3, 5), slice(3, 5))
    # odd sizes: DC at (3, 2), windows start half their (floored) size before
    assert window((7, 5), (0, 0), 3, 1) == (slice(2, 5), slice(2, 3))
    assert window((7, 5), (1, -1), 2, 3) == (slice(3, 5), slice(0, 3))


def test_crop_at_center_with_full_dims_returns_same_grid():
    rng = np.random.Generator(np.random.PCG64(3))
    g = rng.standard_normal((6, 6)) + 0j
    assert np.array_equal(g[window(g.shape, (0, 0), 6, 6)], g)


def test_crop_window_follows_start_equals_center_minus_half_rule():
    # window of size S centered at c spans [c - S//2, c - S//2 + S); for a
    # 2x2 window one bin below and right of DC (4, 4) that is rows 4..5 x
    # cols 4..5
    g = np.arange(64, dtype=np.float64).reshape(8, 8).astype(np.complex128)
    assert np.array_equal(g[window(g.shape, (1, 1), 2, 2)], g[4:6, 4:6])


def test_crop_window_rejects_out_of_bounds_center():
    for offset in ((-4, -4), (-3, 0), (0, 3), (3, -1)):
        with pytest.raises(WindowOutOfBounds):
            window((8, 8), offset, 4, 4)


def test_crop_embed_round_trip_over_random_windows():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        rows = int(rng.integers(4, 65))
        cols = int(rng.integers(4, 65))
        wr = int(rng.integers(1, rows + 1))
        wc = int(rng.integers(1, cols + 1))
        cr = int(rng.integers(wr // 2, rows - (wr - wr // 2) + 1))
        cc = int(rng.integers(wc // 2, cols - (wc - wc // 2) + 1))
        offset = (cr - rows // 2, cc - cols // 2)
        rs, cs = window((rows, cols), offset, wr, wc)
        assert (rs, cs) == (slice(cr - wr // 2, cr - wr // 2 + wr),
                            slice(cc - wc // 2, cc - wc // 2 + wc))
        patch = (rng.standard_normal((wr, wc))
                 + 1j * rng.standard_normal((wr, wc)))
        dst = np.zeros((rows, cols), dtype=np.complex128)
        dst[cr - wr // 2:cr - wr // 2 + wr, cc - wc // 2:cc - wc // 2 + wc] = patch
        assert np.array_equal(dst[rs, cs], patch)
        # one bin further moves the window, or leaves the grid at its edge
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r0, c0 = rs.start + dr, cs.start + dc
            moved = (offset[0] + dr, offset[1] + dc)
            if r0 >= 0 and c0 >= 0 and r0 + wr <= rows and c0 + wc <= cols:
                assert window((rows, cols), moved, wr, wc) == (
                    slice(r0, r0 + wr), slice(c0, c0 + wc))
            else:
                with pytest.raises(WindowOutOfBounds):
                    window((rows, cols), moved, wr, wc)


# odd and even grid and window sizes, offsets reaching past either edge
@settings(max_examples=300)
@example((5, 4), (3, 0), 1, 2)   # odd rows: one bin past the far edge
@given(st.tuples(st.integers(1, 12), st.integers(1, 12)),
       st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
       st.integers(1, 12), st.integers(1, 12))
def test_window_covers_the_centered_range_or_raises(shape, offset, rows, cols):
    """The window of size S centered at c = DC + offset covers
    [c - S // 2, c - S // 2 + S) on each axis, and raises WindowOutOfBounds
    exactly when that range leaves the grid."""
    spans = [(n // 2 + off - size // 2, n // 2 + off - size // 2 + size)
             for n, off, size in zip(shape, offset, (rows, cols))]
    if all(0 <= lo and hi <= n for (lo, hi), n in zip(spans, shape)):
        assert window(shape, offset, rows, cols) == tuple(slice(*s) for s in spans)
    else:
        with pytest.raises(WindowOutOfBounds):
            window(shape, offset, rows, cols)


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


# the stacked misfit and every stacked caller rely on a stack transforming
# slice by slice, bit for bit; a numpy whose stacked FFTs drift fails here
@pytest.mark.parametrize("shape", [(5, 32, 32), (3, 8, 6), (4, 7, 5),
                                   (3, 1, 9), (3, 9, 1), (2, 3, 4, 5),
                                   (225, 32, 32), (2, 128, 128)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("op", [dft2, idft2, center_shift,
                                inverse_center_shift, phase_unit],
                         ids=lambda op: op.__name__)
def test_stacked_grids_transform_like_each_slice(shape, op):
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    real = rng.standard_normal(shape)
    for stack in (real + 1j * rng.standard_normal(shape), real):
        stack.reshape(-1)[::7] = 0.0             # phase_unit's zero lanes
        got = op(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(shape[:-2]):
            assert np.array_equal(got[idx], op(stack[idx]))


def test_grids_need_two_axes():
    for bad in (np.float64(1.0), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            dft2(bad)


# the transforms run numpy's per-axis passes themselves, and the TV step
# transforms into scratch grids: with and without ``out``, the result must be
# exactly the bits of numpy's own 2-D transform (or of the allocating shift)
@pytest.mark.parametrize("shape", [(8, 6), (7, 5), (1, 9), (9, 1), (2, 3, 4),
                                   (32, 32), (128, 128), (225, 32, 32)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("op, plain", [(dft2, np.fft.fft2), (idft2, np.fft.ifft2),
                                       (center_shift, None),
                                       (inverse_center_shift, None)],
                         ids=lambda v: getattr(v, "__name__", ""))
def test_out_receives_the_allocating_result(shape, op, plain):
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    real = rng.standard_normal(shape)
    for g in (real + 1j * rng.standard_normal(shape), real):
        expected = op(g) if plain is None else plain(g)
        assert op(g).tobytes() == expected.tobytes()
        out = np.full_like(expected, np.nan)
        assert op(g, out=out) is out
        assert out.tobytes() == expected.tobytes()


def _check_wrap_phase(p):
    """``wrap_phase`` equals the remainder expression bit for bit, into a new
    array and into its input."""
    wrapped = np.remainder(p + np.pi, 2.0 * np.pi) - np.pi
    expected = np.where(wrapped == -np.pi, np.pi, wrapped)
    assert wrap_phase(p).tobytes() == expected.tobytes()
    p = p.copy()
    assert wrap_phase(p, out=p) is p
    assert p.tobytes() == expected.tobytes()


def test_wrap_phase_into_its_input_matches_the_allocating_expression():
    rng = np.random.Generator(np.random.PCG64(9))
    _check_wrap_phase(np.concatenate([rng.uniform(-20.0, 20.0, 200),
                                      np.pi * np.array([-3.0, -1.0, 0.0, 1.0, 3.0])]))


# phases already in [-pi, pi] skip the remainder; the + pi and - pi round
# trip must still happen, since (p + pi) - pi is not p (0.1 -> 0.1 + 9e-17)
@given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi),
                min_size=1, max_size=40))
def test_wrap_phase_of_in_range_phases_matches_the_remainder(values):
    _check_wrap_phase(np.array(values))


_Z = np.random.Generator(np.random.PCG64(10)).standard_normal((2, 64, 64))


# in range: arctan2 outputs (signed zeros on the branch cut) and the ends;
# NaN must take the remainder, and a range check that NaN passes leaves 4.0
@pytest.mark.parametrize("p", [
    np.arctan2(_Z[0], _Z[1]),
    np.arctan2([0.0, -0.0, 0.0, -0.0], [-1.0, -1.0, 1.0, 1.0]),
    [np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 0.0, -0.0],
    [0.5, np.nan, 4.0],
    [0.5, 4.0, -1.0],
], ids=["arctan2", "branch_cut", "ends_and_zeros", "nan", "out_of_range"])
def test_wrap_phase_matches_the_remainder_on_pinned_phases(p):
    _check_wrap_phase(np.array(p))


def test_wrap_phase_of_in_range_phases_allocates_no_mask():
    """Only p == -pi can end at -pi on the in-range path, so a grid whose
    p + pi is above 0 takes no full-grid mask for the -pi -> +pi fix (a
    256x256 one is 65,536 B)."""
    phase = np.arctan2(*np.random.Generator(np.random.PCG64(11)).standard_normal((2, 256, 256)))
    assert phase.min() > -np.pi
    tracemalloc.start()
    try:
        wrap_phase(phase, out=phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
