"""Complex field grids and the DFT/windowing conventions everything else relies on.

Conventions, fixed once here and never re-decided elsewhere:

* grids are 2-D C-contiguous numpy arrays, float64 or complex128, row-major;
* ``dft2`` is the plain unnormalized forward transform, ``idft2`` carries the
  1/(rows*cols) factor, so ``idft2(dft2(x)) == x``;
* "centered" layout puts DC at ``(rows // 2, cols // 2)``; ``center_shift``
  moves DC from (0, 0) to the center, ``inverse_center_shift`` undoes it
  exactly, including odd sizes;
* a window of size S centered at index c covers ``[c - S // 2, c - S // 2 + S)``
  on each axis. Windows never wrap: out-of-range raises WindowOutOfBounds.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, WindowOutOfBounds


def as_grid(a, dtype=None) -> np.ndarray:
    """Validate that ``a`` is a 2-D grid; return it as a contiguous array."""
    g = np.ascontiguousarray(a, dtype=dtype)
    if g.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D grid, got ndim={g.ndim}")
    return g


def dft2(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT."""
    return np.fft.fft2(as_grid(x))


def idft2(x: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT with the 1/(rows*cols) factor."""
    return np.fft.ifft2(as_grid(x))


def _roll2(x: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Cyclic shift of a grid by (dr, dc), 0 <= dr <= rows, 0 <= dc <= cols,
    as four block copies into one new array (what ``np.roll`` on both axes
    gives, without the intermediate array of a per-axis roll)."""
    out = np.empty_like(x)
    rows, cols = x.shape
    kr, kc = rows - dr, cols - dc
    out[dr:, dc:] = x[:kr, :kc]
    out[dr:, :dc] = x[:kr, kc:]
    out[:dr, dc:] = x[kr:, :kc]
    out[:dr, :dc] = x[kr:, kc:]
    return out


def center_shift(x: np.ndarray) -> np.ndarray:
    """Move DC from (0, 0) to (rows // 2, cols // 2); equals np.fft.fftshift."""
    g = as_grid(x)
    return _roll2(g, g.shape[0] // 2, g.shape[1] // 2)


def inverse_center_shift(x: np.ndarray) -> np.ndarray:
    """Exact inverse of center_shift (distinct from it for odd sizes);
    equals np.fft.ifftshift."""
    g = as_grid(x)
    return _roll2(g, (g.shape[0] + 1) // 2, (g.shape[1] + 1) // 2)


def grid_center(shape: tuple[int, int]) -> tuple[int, int]:
    """Index of the DC bin in centered layout."""
    return shape[0] // 2, shape[1] // 2


def window_bounds(center_row: int, center_col: int, rows: int, cols: int,
                  shape: tuple[int, int]) -> tuple[int, int]:
    """Top-left corner of a rows x cols window centered at (center_row, center_col).

    Raises WindowOutOfBounds unless the whole window lies inside ``shape``.
    """
    r0 = center_row - rows // 2
    c0 = center_col - cols // 2
    if r0 < 0 or c0 < 0 or r0 + rows > shape[0] or c0 + cols > shape[1]:
        raise WindowOutOfBounds(
            f"{rows}x{cols} window at ({center_row}, {center_col}) exceeds "
            f"{shape[0]}x{shape[1]} grid (corner ({r0}, {c0}))")
    return r0, c0


def crop_window(g: np.ndarray, center_row: int, center_col: int,
                out_rows: int, out_cols: int) -> np.ndarray:
    """Copy out a window of ``g`` centered at (center_row, center_col)."""
    g = as_grid(g)
    r0, c0 = window_bounds(center_row, center_col, out_rows, out_cols, g.shape)
    return g[r0:r0 + out_rows, c0:c0 + out_cols].copy()


def phase_unit(z: np.ndarray) -> np.ndarray:
    """z / |z| with the zero-amplitude convention phase_unit(0) = 1 + 0j."""
    z = as_grid(z, dtype=np.complex128)
    a = np.abs(z)
    zero = a == 0.0
    # avoid 0/0 warnings; the masked lanes are overwritten below
    u = z / np.where(zero, 1.0, a)
    u[zero] = 1.0 + 0.0j
    return u


def wrap_phase(p: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi, pi]."""
    p = np.asarray(p, dtype=np.float64)
    out = np.remainder(p + np.pi, 2.0 * np.pi) - np.pi
    # remainder maps the branch point to -pi; the convention wants +pi
    out = np.where(out == -np.pi, np.pi, out)
    return out
