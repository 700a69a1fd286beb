"""Hot scalar-loop kernels, in numba and pure-numpy flavors.

Every kernel here exists twice: an ``*_nb`` version compiled with
``numba.njit`` and an ``*_np`` version written against plain numpy. The
public names (``tv_value``, ``tv_grad``, ``synth_phase``, ``project_modes``,
``adam_update``) dispatch to whichever backend is active.

Backend selection happens once at import time:

* ``FPTYCHO_NUMBA=0`` (or ``off``/``false``/``no``) forces the numpy path;
* ``FPTYCHO_NUMBA=1`` (or ``on``/``true``/``yes``) requires numba and raises
  if it cannot be imported;
* unset or anything else: numba if importable, numpy otherwise.

FFTs are deliberately NOT here: numba cannot compile ``np.fft`` in nopython
mode, so transforms stay on numpy's pocketfft in both backends. The kernels
below are the per-image-step scalar loops (TV penalty, Zernike synthesis and
projection, elementwise Adam) that run tens of thousands of times per
reconstruction. ``benchmarks/bench_kernels.py`` times the two flavors against
each other.

``adam_update`` takes a caller-owned ``(2, n)`` float64 scratch array as its
last argument (``pgnn.Moments`` keeps one per parameter group). The numpy
flavor writes every temporary into its two rows with ``out=``, so a step over
the 128x128 complex spectrum allocates nothing, yet performs the same
operations in the same order as the plain allocating expression and gives
the same bits. The numba flavor accepts the scratch and ignores it.
"""

from __future__ import annotations

import os

import numpy as np

# smoothing added under the root of the TV potential whenever eta <= 1,
# making the value differentiable at zero gradient
TV_EPS = 1e-8


# ---------------------------------------------------------------------------
# pure numpy flavor

def tv_value_np(img: np.ndarray, eta: float) -> float:
    """Total-variation potential with forward differences and replicate edges.

    Sum over pixels of (dr^2 + dc^2 [+ eps])^(eta/2), where dr/dc are the
    forward differences (zero on the last row/col) and eps = TV_EPS is added
    inside the root for eta <= 1.
    """
    img = np.asarray(img, dtype=np.float64)
    dr = np.zeros_like(img)
    dc = np.zeros_like(img)
    dr[:-1, :] = img[1:, :] - img[:-1, :]
    dc[:, :-1] = img[:, 1:] - img[:, :-1]
    s2 = dr * dr + dc * dc
    if eta <= 1.0:
        s2 = s2 + TV_EPS
        return float(np.sum(s2 ** (0.5 * eta)))
    # eta > 1: no smoothing; 0^positive is fine for the value
    return float(np.sum(s2 ** (0.5 * eta)))


def tv_grad_np(img: np.ndarray, eta: float) -> np.ndarray:
    """Exact gradient of tv_value_np with respect to every pixel."""
    img = np.asarray(img, dtype=np.float64)
    dr = np.zeros_like(img)
    dc = np.zeros_like(img)
    dr[:-1, :] = img[1:, :] - img[:-1, :]
    dc[:, :-1] = img[:, 1:] - img[:, :-1]
    s2 = dr * dr + dc * dc
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


def synth_phase_np(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Weighted sum of basis grids: out = sum_l coeffs[l] * basis[l]."""
    return np.tensordot(np.asarray(coeffs, dtype=np.float64),
                        np.asarray(basis, dtype=np.float64), axes=1)


def project_modes_np(basis: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-mode inner products: out[l] = sum_k basis[l, k] * weight[k]."""
    return np.tensordot(np.asarray(basis, dtype=np.float64),
                        np.asarray(weight, dtype=np.float64), axes=2)


def adam_update_np(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
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


# ---------------------------------------------------------------------------
# numba flavor

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    njit = None
    HAVE_NUMBA = False


if HAVE_NUMBA:

    @njit(cache=True)
    def _tv_value_nb(img, eta, eps):
        rows, cols = img.shape
        acc = 0.0
        for r in range(rows):
            for c in range(cols):
                dr = img[r + 1, c] - img[r, c] if r + 1 < rows else 0.0
                dc = img[r, c + 1] - img[r, c] if c + 1 < cols else 0.0
                acc += (dr * dr + dc * dc + eps) ** (0.5 * eta)
        return acc

    @njit(cache=True)
    def _tv_grad_nb(img, eta, eps, smoothed):
        rows, cols = img.shape
        grad = np.zeros((rows, cols))
        for r in range(rows):
            for c in range(cols):
                dr = img[r + 1, c] - img[r, c] if r + 1 < rows else 0.0
                dc = img[r, c + 1] - img[r, c] if c + 1 < cols else 0.0
                s2 = dr * dr + dc * dc + eps
                if smoothed or s2 > 0.0:
                    w = eta * s2 ** (0.5 * eta - 1.0)
                else:
                    w = 0.0
                grad[r, c] -= w * (dr + dc)
                if r + 1 < rows:
                    grad[r + 1, c] += w * dr
                if c + 1 < cols:
                    grad[r, c + 1] += w * dc
        return grad

    @njit(cache=True)
    def _synth_phase_nb(basis, coeffs):
        nmodes, rows, cols = basis.shape
        out = np.zeros((rows, cols))
        for l in range(nmodes):
            cl = coeffs[l]
            if cl == 0.0:
                continue
            for r in range(rows):
                for c in range(cols):
                    out[r, c] += cl * basis[l, r, c]
        return out

    @njit(cache=True)
    def _project_modes_nb(basis, weight):
        nmodes, rows, cols = basis.shape
        out = np.zeros(nmodes)
        for l in range(nmodes):
            acc = 0.0
            for r in range(rows):
                for c in range(cols):
                    acc += basis[l, r, c] * weight[r, c]
            out[l] = acc
        return out

    @njit(cache=True)
    def _adam_update_nb(p, g, m, v, lr, beta1, beta2, bc1, bc2, eps):
        n = p.shape[0]
        om1 = 1.0 - beta1
        om2 = 1.0 - beta2
        for i in range(n):
            gi = g[i]
            m[i] = beta1 * m[i] + om1 * gi
            v[i] = beta2 * v[i] + om2 * gi * gi
            p[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    def tv_value_nb(img: np.ndarray, eta: float) -> float:
        eps = TV_EPS if eta <= 1.0 else 0.0
        return float(_tv_value_nb(np.ascontiguousarray(img, dtype=np.float64),
                                  eta, eps))

    def tv_grad_nb(img: np.ndarray, eta: float) -> np.ndarray:
        smoothed = eta <= 1.0
        eps = TV_EPS if smoothed else 0.0
        return _tv_grad_nb(np.ascontiguousarray(img, dtype=np.float64),
                           eta, eps, smoothed)

    def synth_phase_nb(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        return _synth_phase_nb(np.ascontiguousarray(basis, dtype=np.float64),
                               np.ascontiguousarray(coeffs, dtype=np.float64))

    def project_modes_nb(basis: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return _project_modes_nb(np.ascontiguousarray(basis, dtype=np.float64),
                                 np.ascontiguousarray(weight, dtype=np.float64))

    def adam_update_nb(p, g, m, v, lr, beta1, beta2, bc1, bc2, eps,
                       work) -> None:
        # the compiled loop keeps its temporaries in registers: work is unused
        _adam_update_nb(p, np.ascontiguousarray(g), m, v,
                        lr, beta1, beta2, bc1, bc2, eps)


# ---------------------------------------------------------------------------
# backend selection

def _pick_backend() -> str:
    flag = os.environ.get("FPTYCHO_NUMBA", "").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return "numpy"
    if flag in ("1", "on", "true", "yes"):
        if not HAVE_NUMBA:
            raise ImportError("FPTYCHO_NUMBA=1 but numba is not importable")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


BACKEND = _pick_backend()

if BACKEND == "numba":
    tv_value = tv_value_nb
    tv_grad = tv_grad_nb
    synth_phase = synth_phase_nb
    project_modes = project_modes_nb
    adam_update = adam_update_nb
else:
    tv_value = tv_value_np
    tv_grad = tv_grad_np
    synth_phase = synth_phase_np
    project_modes = project_modes_np
    adam_update = adam_update_np
