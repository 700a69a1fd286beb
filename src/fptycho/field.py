"""Complex field grids and the DFT/windowing conventions everything else relies on.

Conventions, fixed once here and never re-decided elsewhere:

* a grid is a 2-D C-contiguous float64 or complex128 array, row-major, or a
  stack of grids on the last two axes, transformed slice by slice;
* ``dft2`` is the plain unnormalized forward transform, ``idft2`` carries the
  1/(rows*cols) factor, so ``idft2(dft2(x)) == x``;
* "centered" layout puts DC at ``(rows // 2, cols // 2)``; ``center_shift``
  moves DC from (0, 0) to the center, ``inverse_center_shift`` undoes it
  exactly, including odd sizes;
* a window of size S centered at index c covers ``[c - S // 2, c - S // 2 + S)``
  on each axis; ``window`` places c at an offset from the DC bin and is the
  only place that does this arithmetic. Windows never wrap: out-of-range
  raises WindowOutOfBounds.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, WindowOutOfBounds


def as_grid(a, dtype=None) -> np.ndarray:
    """Validate a grid or a stack of grids (ndim >= 2); return it contiguous."""
    g = np.ascontiguousarray(a, dtype=dtype)
    if g.ndim < 2:
        raise DimensionMismatch(f"expected a grid of ndim >= 2, got ndim={g.ndim}")
    return g


def dft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward 2-D DFT into ``out`` when given: fft2's passes, in place."""
    y = np.fft.fft(as_grid(x), axis=-1, out=out)
    return np.fft.fft(y, axis=-2, out=y)


def idft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse 2-D DFT with the 1/(rows*cols) factor, into ``out`` when given."""
    y = np.fft.ifft(as_grid(x), axis=-1, out=out)
    return np.fft.ifft(y, axis=-2, out=y)


def _roll2(x: np.ndarray, dr: int, dc: int, out: np.ndarray | None = None) -> np.ndarray:
    """Cyclic shift of the last two axes by (dr, dc), 0 <= dr <= rows,
    0 <= dc <= cols, as four block copies into one new array or ``out``
    (``np.roll`` on both axes, without a per-axis roll's intermediate array)."""
    out = np.empty_like(x) if out is None else out
    rows, cols = x.shape[-2:]
    kr, kc = rows - dr, cols - dc
    out[..., dr:, dc:] = x[..., :kr, :kc]
    out[..., dr:, :dc] = x[..., :kr, kc:]
    out[..., :dr, dc:] = x[..., kr:, :kc]
    out[..., :dr, :dc] = x[..., kr:, kc:]
    return out


def center_shift(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Move DC from (0, 0) to (rows // 2, cols // 2); equals np.fft.fftshift.
    ``out``, when given, receives the result and must not be ``x``."""
    g = as_grid(x)
    return _roll2(g, g.shape[-2] // 2, g.shape[-1] // 2, out)


def inverse_center_shift(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of center_shift (distinct from it for odd sizes);
    equals np.fft.ifftshift. ``out`` as for center_shift."""
    g = as_grid(x)
    return _roll2(g, (g.shape[-2] + 1) // 2, (g.shape[-1] + 1) // 2, out)


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


def phase_unit(z: np.ndarray) -> np.ndarray:
    """z / |z| with the zero-amplitude convention phase_unit(0) = 1 + 0j."""
    z = as_grid(z, dtype=np.complex128)
    a = np.abs(z)
    zero = a == 0.0
    # avoid 0/0 warnings; the masked lanes are overwritten below
    u = z / np.where(zero, 1.0, a)
    u[zero] = 1.0 + 0.0j
    return u


def wrap_phase(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Wrap phases into (-pi, pi], into ``out`` (which may be ``p``) when given.

    Bitwise ``remainder(p + pi, 2 pi) - pi`` with -pi mapped to +pi. The
    remainder is skipped when ``p + pi`` lies in [0, 2 pi], as it does for
    every ``np.arctan2`` output: it is the identity there, bar 2 pi, which
    ends at +pi either way. NaN fails that check.
    """
    out = np.add(np.asarray(p, dtype=np.float64), np.pi, out=out)
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
