"""Numpy kernels for the per-image step: TV penalty, Zernike synthesis and
projection (np.tensordot's reshapes and one ``dot``), and elementwise Adam.

These run tens of thousands of times per reconstruction. Callers reach them
as ``kernels.<name>`` attributes, so a profiler can wrap each one by name.

``adam_update`` takes a caller-owned ``(2, n)`` float64 scratch array as its
last argument (each ``pgnn.Moments`` holds one; a packed copy borrows it). It
writes every temporary into its two rows with ``out=``, so a step over the
128x128 complex spectrum allocates nothing, yet gives the bits of the plain
allocating expression. It decays the moments and steps the arrays it is given
(a ``pgnn`` object stage packs its live box of the spectrum), but adds
gradient terms only on the block ``support`` the gradient covers.
``tv_value`` and ``tv_grad`` take an optional ``(TV_WORK_ROWS, rows, cols)``
C-contiguous scratch array the same way (``pgnn.PgnnModel`` keeps one when TV
is on). They run every ufunc on contiguous views (row blocks, or the flat
grid for the column differences): on a strided column view numpy goes
through its buffered iterator, which allocates and copies on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# perfbench/run.py records this with every result; numpy is the only backend
BACKEND = "numpy"

# smoothing added under the root of the TV potential, making the value
# differentiable at zero gradient
TV_EPS = 1e-8
TV_WORK_ROWS = 5   # dr, dc, s2 (then its weight), a temporary, the gradient


def _differences(img: np.ndarray, work: np.ndarray | None):
    """Forward differences (zero on the last row/col) and their squared norm,
    in rows 0-2 of ``work`` (a new one when None), which it returns."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    if work is None:
        work = np.empty((TV_WORK_ROWS,) + img.shape)
    elif not work.flags.c_contiguous:
        # reshape(-1) copies a strided array, and the differences written
        # into that copy would be lost
        raise DimensionMismatch("TV scratch array must be C-contiguous")
    dr, dc, s2, tmp = work[:4]
    dr[-1, :] = 0.0
    np.subtract(img[1:, :], img[:-1, :], out=dr[:-1, :])
    # dc on the flat grid: each row's last entry wraps into the next row,
    # and zeroing the last column afterwards overwrites it
    flat = img.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=dc.reshape(-1)[:-1])
    dc[:, -1] = 0.0
    np.multiply(dr, dr, out=s2)
    s2 += np.multiply(dc, dc, out=tmp)
    return work


def tv_value(img: np.ndarray, work: np.ndarray | None = None) -> float:
    """Smoothed isotropic total variation with forward differences and
    replicate edges: sum over pixels of sqrt(dr^2 + dc^2 + TV_EPS), where
    dr/dc are the forward differences (zero on the last row/col)."""
    s2 = _differences(img, work)[2]
    s2 += TV_EPS
    s2 **= 0.5
    return float(np.sum(s2))


def tv_grad(img: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of tv_value with respect to every pixel; with
    ``work``, the result is its last row."""
    dr, dc, w, tmp, grad = _differences(img, work)
    w += TV_EPS
    w **= -0.5
    np.negative(w, out=grad)
    grad *= np.add(dr, dc, out=tmp)
    grad[1:, :] += np.multiply(w, dr, out=tmp)[:-1, :]
    # the column scatter on the flat grid: each row's last entry lands on the
    # next row's first, so it is set to -0.0, which adds to any float
    # (+0.0 included) without changing a bit; +0.0 would turn -0.0 into +0.0
    np.multiply(w, dc, out=tmp)
    tmp[:, -1] = -0.0
    grad.reshape(-1)[1:] += tmp.reshape(-1)[:-1]
    return grad


def synth_phase(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Weighted sum of float64 basis grids: out = sum_l coeffs[l] * basis[l]."""
    return np.dot(coeffs.reshape(1, -1),
                  basis.reshape(len(basis), -1)).reshape(basis.shape[1:])


def project_modes(basis: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-mode float64 inner products: out[l] = sum_k basis[l, k] * weight[k]."""
    return np.dot(basis.reshape(len(basis), -1), weight.reshape(-1, 1)).reshape(-1)


def adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                support, lr, beta1: float, beta2: float,
                bc1: float, bc2: float, eps: float,
                work: np.ndarray) -> None:
    """One in-place Adam step over float64 arrays of one shape.

    ``g`` is the gradient on ``p[support]`` (``...`` for all of ``p``), zero
    elsewhere. bc1/bc2 are the bias corrections (1 - beta^t) for the current
    step count; once bc1 has rounded to 1.0 (t >= 356 for beta1 0.9) its
    exact division is skipped. ``lr`` is a scalar or a rate per entry of
    ``p``. Moments are updated in place alongside the parameters.
    ``work`` is a (2, n >= p.size) float64 scratch array. The operations and
    their order are those of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``
    after the moment updates with ``g`` zero-filled to ``p``'s shape, so the
    bits are that expression's. Outside ``support`` it would add +0.0 to
    ``m * beta1`` and ``v * beta2``, which changes no bit unless the product
    is -0.0, and it never is from +0.0 starts: a nonzero moment times a beta
    above 1/2 stays nonzero, and a sum is -0.0 only when both terms are.
    """
    a, b = work[:, :p.size].reshape((2,) + p.shape)
    np.multiply(m, beta1, out=m)
    np.multiply(v, beta2, out=v)
    # the gradient terms, in a packed block of the scratch
    term = work[0, :g.size].reshape(g.shape)
    np.multiply(g, 1.0 - beta1, out=term)
    m[support] += term
    np.multiply(g, g, out=term)
    term *= 1.0 - beta2
    v[support] += term
    if bc1 == 1.0:
        np.multiply(m, lr, out=a)
    else:
        np.divide(m, bc1, out=a)
        a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p -= a
