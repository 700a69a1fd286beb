"""Complex field grids and the DFT/windowing conventions everything else relies on.

Conventions, fixed once here and never re-decided elsewhere:

* a grid is a 2-D C-contiguous float64 or complex128 array, row-major, or a
  stack of grids on the last two axes, transformed slice by slice;
* ``dft2`` is the unnormalized forward transform and ``idft2`` carries the
  1/(rows*cols) factor: np.fft.fft2's and ifft2's bits, without its wrapper;
* "centered" layout puts DC at ``(rows // 2, cols // 2)``; ``center_shift``
  moves DC from (0, 0) to the center, ``inverse_center_shift`` undoes it
  exactly, including odd sizes;
* a window of size S centered at index c covers ``[c - S // 2, c - S // 2 + S)``
  on each axis; ``window`` places c at an offset from the DC bin and is the
  only place that does this arithmetic (``window_stacks`` gathers many
  windows through it, in chunks). Windows never wrap: out-of-range raises
  WindowOutOfBounds.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import DimensionMismatch, WindowOutOfBounds


def as_grid(a, dtype=None) -> np.ndarray:
    """Validate a grid or a stack of grids (ndim >= 2); return it contiguous."""
    g = np.ascontiguousarray(a, dtype=dtype)
    if g.ndim < 2:
        raise DimensionMismatch(f"expected a grid of ndim >= 2, got ndim={g.ndim}")
    return g


@functools.lru_cache
def _fft_plan(dtype: np.dtype, rows: int, cols: int) -> tuple:
    """np.fft's output dtype, and ifft's column and row scales: 1/n typed as np.fft does."""
    if not rows or not cols:
        raise ValueError("Invalid number of FFT data points (0) specified.")
    out = np.result_type(dtype, 1j)
    real = [np.result_type(np.zeros((), d).real.dtype, 1.0) for d in (dtype, out)]
    return out, np.reciprocal(cols, dtype=real[0]), np.reciprocal(rows, dtype=real[1])


def _transform(ufunc, x, out, inverse: bool) -> np.ndarray:
    """np.fft.fft2's (or ifft2's) passes, straight to its gufunc: rows, then columns."""
    g = as_grid(x)
    dtype, col_scale, row_scale = _fft_plan(g.dtype, *g.shape[-2:])
    out = np.empty(g.shape, dtype) if out is None else out
    if out.shape != g.shape:
        raise ValueError("output array has wrong shape.")
    ufunc(g, col_scale if inverse else 1, out=out)
    ufunc(out.swapaxes(-1, -2), row_scale if inverse else 1, out=out.swapaxes(-1, -2))
    return out


def dft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward 2-D DFT, into ``out`` when given."""
    return _transform(_pocketfft.fft, x, out, False)


def idft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse 2-D DFT with the 1/(rows*cols) factor, into ``out`` when given."""
    return _transform(_pocketfft.ifft, x, out, True)


def _roll2(x: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Cyclic shift of the last two axes by (dr, dc), 0 <= dr <= rows,
    0 <= dc <= cols, as four block copies into one new array (``np.roll``
    on both axes, without a per-axis roll's intermediate array)."""
    out = np.empty_like(x)
    rows, cols = x.shape[-2:]
    kr, kc = rows - dr, cols - dc
    out[..., dr:, dc:] = x[..., :kr, :kc]
    out[..., dr:, :dc] = x[..., :kr, kc:]
    out[..., :dr, dc:] = x[..., kr:, :kc]
    out[..., :dr, :dc] = x[..., kr:, kc:]
    return out


def center_shift(x: np.ndarray) -> np.ndarray:
    """Move DC from (0, 0) to (rows // 2, cols // 2); equals np.fft.fftshift."""
    g = as_grid(x)
    return _roll2(g, g.shape[-2] // 2, g.shape[-1] // 2)


def inverse_center_shift(x: np.ndarray) -> np.ndarray:
    """Exact inverse of center_shift (distinct from it for odd sizes);
    equals np.fft.ifftshift."""
    g = as_grid(x)
    return _roll2(g, (g.shape[-2] + 1) // 2, (g.shape[-1] + 1) // 2)


def window(shape: tuple[int, int], offset: tuple[int, int],
           rows: int, cols: int) -> tuple[slice, slice]:
    """Row and column slices of the rows x cols window whose center sits
    ``offset`` bins from the DC bin ``(shape[0] // 2, shape[1] // 2)``.

    Raises WindowOutOfBounds unless the whole window lies inside ``shape``.
    """
    r0 = shape[0] // 2 + offset[0] - rows // 2
    c0 = shape[1] // 2 + offset[1] - cols // 2
    if r0 < 0 or c0 < 0 or r0 + rows > shape[0] or c0 + cols > shape[1]:
        raise WindowOutOfBounds(
            f"{rows}x{cols} window at offset {tuple(offset)} exceeds "
            f"{shape[0]}x{shape[1]} grid (corner ({r0}, {c0}))")
    return slice(r0, r0 + rows), slice(c0, c0 + cols)


# windows per stack: 32 complex128 32x32 windows are 512 KB
WINDOW_CHUNK = 32


def window_stacks(grid: np.ndarray, offsets: list[tuple[int, int]], rows: int,
                  cols: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, stack)`` over ``offsets`` in order: ``stack`` is a new
    (k, rows, cols) array holding the windows of ``grid`` at
    ``offsets[start:start + k]``, k = WINDOW_CHUNK but for the last chunk."""
    for start in range(0, len(offsets), WINDOW_CHUNK):
        chunk = offsets[start:start + WINDOW_CHUNK]
        stack = np.empty((len(chunk), rows, cols), dtype=grid.dtype)
        for k, off in enumerate(chunk):
            stack[k] = grid[window(grid.shape, off, rows, cols)]
        yield start, stack


def phase_unit(z: np.ndarray, fill=1.0 + 0.0j, *, modulus=None) -> np.ndarray:
    """z / |z|, as z * (1 / |z|), ``modulus`` being np.abs(z) if given: numpy divides a
    complex by a real b as (re + im*0) * (1/b), (im - re*0) * (1/b), so the multiply has
    its bits but, at most, the sign of a zero part. When min |z| < 2^-1022 (or NaN),
    zero pixels take ``fill`` (broadcast to z) and subnormal ones are scaled by 2^1000
    first (1 / |z| overflows); others keep their bits. An inf pixel warns "invalid value"
    and gives NaN, as a NaN pixel does silently."""
    z = as_grid(z, dtype=np.complex128)
    a = np.abs(z) if modulus is None else modulus
    if a.min(initial=np.inf) >= 2.0 ** -1022:
        return z * (1.0 / a)
    small = a < 2.0 ** -1022
    u = z * (1.0 / np.where(small, 1.0, a))   # the small lanes are overwritten below
    w = np.ldexp(z[small].view(np.float64), 1000).view(np.complex128)   # exact
    fills = np.broadcast_to(fill, u.shape)[small].astype(np.complex128, copy=False)
    u[small] = np.divide(w, np.abs(w), out=fills, where=w != 0.0)
    return u


def wrap_phase(p: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi, pi], in a new array.

    Bitwise ``remainder(p + pi, 2 pi) - pi`` with -pi mapped to +pi. The
    remainder is skipped when ``p + pi`` lies in [0, 2 pi], as it does for
    every ``np.arctan2`` output: it is the identity there, bar 2 pi, which
    ends at +pi either way. NaN fails that check.
    """
    out = np.asarray(p, dtype=np.float64) + np.pi
    low = out.min() if out.size else np.nan
    in_range = low >= 0.0 and out.max() <= 2.0 * np.pi
    if not in_range:
        np.remainder(out, 2.0 * np.pi, out=out)
    out -= np.pi
    # remainder maps the branch point to -pi; the convention wants +pi. In
    # range, p + pi is exact for p in [-pi, -pi/2], so only p + pi == 0 can
    # end at -pi: no mask is needed when the minimum is above 0
    if not (in_range and low > 0.0):
        out[out == -np.pi] = np.pi
    return out
