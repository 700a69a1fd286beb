"""Grid transforms, windowing, and phase helpers."""

import functools
import tracemalloc
import warnings

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


# parts of field pixels, signed zeros and subnormals among them: a pixel whose
# parts are both below about 1e-308 has a subnormal modulus, where numpy's
# complex division overflows computing 1 / |z| (below 2^-1024) unless
# phase_unit scales the pixel first
_TINY = np.finfo(np.float64).smallest_normal
_PART_VALUES = st.one_of(st.floats(min_value=1e-300, max_value=1e150),
                         st.floats(min_value=-1e150, max_value=-1e-300),
                         st.floats(min_value=5e-324, max_value=1e-306),
                         st.floats(min_value=-1e-306, max_value=-5e-324),
                         st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324,
                                          -5e-324, _TINY, -_TINY, 1e-310]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_phase_unit_direct_and_masked_paths_agree_bit_for_bit(data):
    """phase_unit tests once for small moduli: without one it divides
    directly; a zero, subnormal or NaN modulus sends it down the masked path.
    A normal modulus gets z * (1 / |z|)'s bits either way (z / |z|'s but, at
    most, the sign of a zero part: see phase_unit), a subnormal one the unit
    pixel at z's angle, and a zero pixel takes the fill (a scalar, or a grid
    broadcast over a stack). The caller's ``modulus`` changes no bit. A NaN
    or infinite pixel gives NaN; an infinite one warns "invalid value" (inf
    times 1 / inf = 0) on either path, whether or not a zero pixel elsewhere
    sends it down the masked one, and a NaN one, which the division warned
    for in its branch compare, passes silently."""
    shape = data.draw(st.sampled_from([(1, 1), (1, 5), (4, 1), (3, 4), (2, 3, 4),
                                       (3, 1, 2), (2, 2, 2, 3)]))
    n = int(np.prod(shape))
    parts = st.lists(_PART_VALUES, min_size=n, max_size=n)
    z = (np.array(data.draw(parts)) + 1j * np.array(data.draw(parts))).reshape(shape)
    z[z == 0.0] = 1.0          # no zero pixel
    kind = data.draw(st.sampled_from(["default", "scalar", "grid"]))
    fill = {"default": 1.0 + 0.0j, "scalar": 0.6 - 0.8j,
            "grid": np.exp(1j * np.arange(shape[-2] * shape[-1])).reshape(shape[-2:])}[kind]
    args = () if kind == "default" else (fill,)
    a = np.abs(z)
    normal = a >= _TINY
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        direct = phase_unit(z, *args)
        assert phase_unit(z, *args, modulus=a).tobytes() == direct.tobytes()
        # the reference keeps z's shape: numpy's complex-by-real multiply
        # gives a (1, 1) grid a zero part's sign that a 1-D gather flips
        reference = z * (1.0 / np.where(normal, a, 1.0))
        assert direct[normal].tobytes() == reference[normal].tobytes()
    assert np.all(np.abs(direct[~normal] - np.exp(1j * np.angle(z[~normal]))) <= 1e-15)
    k = data.draw(st.integers(0, n - 1))
    special = data.draw(st.sampled_from([
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, 0.0),
        complex(1.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)]))
    hit = z.copy()
    hit.reshape(-1)[k] = special
    # a second, zero pixel sends a non-finite one down the masked path too
    zeros = [k] if special == 0.0 else []
    if n > 1 and data.draw(st.booleans()):
        j = data.draw(st.integers(0, n - 1).filter(lambda i: i != k))
        hit.reshape(-1)[j] = 0.0
        zeros.append(j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        masked = phase_unit(hit, *args)
    invalid = [w for w in caught if issubclass(w.category, RuntimeWarning)
               and "invalid value" in str(w.message)]
    assert bool(invalid) == np.isinf(special), caught
    others = np.isin(np.arange(n), [k, *zeros], invert=True)
    assert (masked.reshape(-1)[others].tobytes()
            == direct.reshape(-1)[others].tobytes())
    fills = np.broadcast_to(fill, shape).reshape(-1)
    for i in zeros:
        assert masked.reshape(-1)[i] == fills[i]
    if not np.isfinite(special):
        got = masked.reshape(-1)[k]
        assert np.isnan(got.real) or np.isnan(got.imag)


def test_phase_unit_scales_subnormal_moduli_before_dividing():
    """Below 2^-1024 numpy's complex division overflows computing 1 / |z|:
    [[1e-310]] gave inf+nanj and [[5e-324j]] nan+infj. A pixel of subnormal
    modulus is scaled by 2^1000 (exact) first; normal ones keep their bits."""
    z = np.array([[1e-310, 5e-324j, complex(-0.0, -1e-320), complex(-3e-320, 4e-320)],
                  [0.0, 3.0 + 4.0j, complex(_TINY, 0.0), complex(5e-324, -5e-324)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = phase_unit(z, 0.6 - 0.8j)
    expected = np.exp(1j * np.angle(z))
    expected[1, 0] = 0.6 - 0.8j        # the zero pixel takes the fill
    assert np.max(np.abs(u - expected)) <= 1e-15
    assert u[1, 1:3].tobytes() == (z[1, 1:3] / np.abs(z[1, 1:3])).tobytes()


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


_fftshift2 = functools.partial(np.fft.fftshift, axes=(-2, -1))
_ifftshift2 = functools.partial(np.fft.ifftshift, axes=(-2, -1))


# the transforms run numpy's per-axis passes themselves: with and without
# ``out``, the result must be exactly the bits of numpy's own 2-D transform;
# the shifts, of numpy's shift on the last two axes
@pytest.mark.parametrize("shape", [(8, 6), (7, 5), (1, 9), (9, 1), (2, 3, 4),
                                   (31, 37), (1, 1), (17, 1),
                                   (32, 32), (128, 128), (225, 32, 32)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("op, plain", [(dft2, np.fft.fft2), (idft2, np.fft.ifft2),
                                       (center_shift, _fftshift2),
                                       (inverse_center_shift, _ifftshift2)],
                         ids=lambda v: getattr(v, "__name__", ""))
def test_out_receives_the_allocating_result(shape, op, plain):
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    real = rng.standard_normal(shape)
    for g in (real + 1j * rng.standard_normal(shape), real):
        expected = plain(g)
        assert op(g).tobytes() == expected.tobytes()
        if op not in (dft2, idft2):
            continue
        out = np.full_like(expected, np.nan)
        assert op(g, out=out) is out
        assert out.tobytes() == expected.tobytes()


# np.fft types its output and its 1/n scales from the input: float32 and
# complex64 grids transform in single precision, a float16 grid's row pass
# takes a float16 scale, an int16 grid transforms in double precision
@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.float16, np.int16],
                         ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("op, plain", [(dft2, np.fft.fft2), (idft2, np.fft.ifft2)],
                         ids=["dft2", "idft2"])
def test_transforms_type_their_output_as_numpy_does(dtype, op, plain):
    rng = np.random.Generator(np.random.PCG64(12))
    for shape in [(8, 6), (31, 37), (1, 1), (17, 1), (2, 3, 5), (0, 4, 4)]:
        g = rng.standard_normal(shape) * 8 + 1j * rng.standard_normal(shape)
        g = (g if np.dtype(dtype).kind == "c" else g.real).astype(dtype)
        expected = plain(g)
        got = op(g)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        out = np.full_like(expected, np.nan)
        assert op(g, out=out) is out
        assert out.tobytes() == expected.tobytes()


# the transforms call numpy's gufunc, which has neither check: an empty axis
# gave an empty spectrum (dft2) or ZeroDivisionError (idft2), and a misshapen
# ``out`` a silently padded or cropped transform
@pytest.mark.parametrize("op, plain", [(dft2, np.fft.fft2), (idft2, np.fft.ifft2)],
                         ids=["dft2", "idft2"])
def test_shape_errors_are_numpys(op, plain):
    for shape in [(0, 4), (4, 0), (3, 0, 4)]:
        g = np.ones(shape, dtype=np.complex128)
        for call in (plain, op, lambda g: op(g, out=np.empty_like(g))):
            with pytest.raises(ValueError, match=r"Invalid number of FFT data points \(0\)"):
                call(g)
    # as np.fft.fft and ifft raise on each pass (np.fft.ifft2 ignores ``out``)
    for shape in [(4, 5), (5, 4), (2, 4, 4), (16,)]:
        with pytest.raises(ValueError):
            op(np.ones((4, 4)), out=np.empty(shape, dtype=np.complex128))


def _check_wrap_phase(p):
    """``wrap_phase`` equals the remainder expression bit for bit, in a new
    array, and leaves its input alone."""
    wrapped = np.remainder(p + np.pi, 2.0 * np.pi) - np.pi
    expected = np.where(wrapped == -np.pi, np.pi, wrapped)
    before = p.tobytes()
    assert wrap_phase(p).tobytes() == expected.tobytes()
    assert p.tobytes() == before


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
    256x256 one is 65,536 B): the one grid it allocates is its result."""
    phase = np.arctan2(*np.random.Generator(np.random.PCG64(11)).standard_normal((2, 256, 256)))
    assert phase.min() > -np.pi
    tracemalloc.start()
    try:
        wrap_phase(phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < phase.nbytes + 4096
