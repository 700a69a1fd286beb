"""Numpy kernels for the per-image step: TV penalty, Zernike synthesis and
projection, and elementwise Adam.

These run tens of thousands of times per reconstruction. Callers reach them
as ``kernels.<name>`` attributes, so a profiler can wrap each one by name.

``adam_update`` takes a caller-owned ``(2, n)`` float64 scratch array as its
last argument (``pgnn.Moments`` keeps one per parameter group). It writes
every temporary into its two rows with ``out=``, so a step over the 128x128
complex spectrum allocates nothing, yet performs the same operations in the
same order as the plain allocating expression and gives the same bits.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py records this with every result; numpy is the only backend
BACKEND = "numpy"

# smoothing added under the root of the TV potential whenever eta <= 1,
# making the value differentiable at zero gradient
TV_EPS = 1e-8


def _differences(img: np.ndarray):
    """Forward differences (zero on the last row/col) and their squared norm."""
    img = np.asarray(img, dtype=np.float64)
    dr = np.zeros_like(img)
    dc = np.zeros_like(img)
    dr[:-1, :] = img[1:, :] - img[:-1, :]
    dc[:, :-1] = img[:, 1:] - img[:, :-1]
    return dr, dc, dr * dr + dc * dc


def tv_value(img: np.ndarray, eta: float) -> float:
    """Total-variation potential with forward differences and replicate edges.

    Sum over pixels of (dr^2 + dc^2 [+ eps])^(eta/2), where dr/dc are the
    forward differences (zero on the last row/col) and eps = TV_EPS is added
    inside the root for eta <= 1.
    """
    s2 = _differences(img)[2]
    # no smoothing for eta > 1: 0^positive is fine for the value
    if eta <= 1.0:
        s2 = s2 + TV_EPS
    return float(np.sum(s2 ** (0.5 * eta)))


def tv_grad(img: np.ndarray, eta: float) -> np.ndarray:
    """Exact gradient of tv_value with respect to every pixel."""
    dr, dc, s2 = _differences(img)
    if eta <= 1.0:
        w = eta * (s2 + TV_EPS) ** (0.5 * eta - 1.0)
    else:
        w = np.zeros_like(s2)
        nz = s2 > 0.0
        w[nz] = eta * s2[nz] ** (0.5 * eta - 1.0)
    grad = -w * (dr + dc)
    grad[1:, :] += (w * dr)[:-1, :]
    grad[:, 1:] += (w * dc)[:, :-1]
    return grad


def synth_phase(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Weighted sum of basis grids: out = sum_l coeffs[l] * basis[l]."""
    return np.tensordot(np.asarray(coeffs, dtype=np.float64),
                        np.asarray(basis, dtype=np.float64), axes=1)


def project_modes(basis: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-mode inner products: out[l] = sum_k basis[l, k] * weight[k]."""
    return np.tensordot(np.asarray(basis, dtype=np.float64),
                        np.asarray(weight, dtype=np.float64), axes=2)


def adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                lr: float, beta1: float, beta2: float,
                bc1: float, bc2: float, eps: float,
                work: np.ndarray) -> None:
    """One in-place Adam step over flat float64 arrays.

    bc1/bc2 are the bias corrections (1 - beta^t) for the current step count;
    moments are updated in place alongside the parameters. ``work`` is a
    (2, p.size) float64 scratch array; every temporary lives in its two rows,
    so the step allocates nothing. The operations and their order are those
    of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` after the moment
    updates, so results are bit-identical to that expression.
    """
    a, b = work[0], work[1]
    np.multiply(m, beta1, out=m)
    np.multiply(g, 1.0 - beta1, out=a)
    m += a
    np.multiply(v, beta2, out=v)
    np.multiply(g, g, out=a)
    a *= 1.0 - beta2
    v += a
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p -= a
