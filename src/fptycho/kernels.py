"""Numpy kernels for the per-image step: TV penalty, Zernike synthesis and
projection (np.tensordot's reshapes and one ``dot``), and elementwise Adam.

These run tens of thousands of times per reconstruction. Callers reach them
as ``kernels.<name>`` attributes, so a profiler can wrap each one by name.

``adam_update`` decays the moments and steps the arrays it is given (a
``pgnn`` object stage packs its live box of the spectrum, a pupil stage steps the
pupil as stored, on its support), but adds gradient terms, and takes the root
it keeps of the second moment, only on the block ``support`` the gradient covers.
``tv_value`` and ``tv_grad`` run every ufunc on contiguous views (row blocks,
or the flat grid for the column differences) of one new array: on a strided
column view numpy goes through its buffered iterator, which allocates and
copies on every call, and takes about twice as long. ``tv_grad`` can also hand
back the value, so a caller that needs both forms the differences once.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench/run.py records this with every result; numpy is the only backend
BACKEND = "numpy"

# smoothing added under the root of the TV potential, making the value
# differentiable at zero gradient
TV_EPS = 1e-8


def _differences(img: np.ndarray) -> np.ndarray:
    """A new (4, rows, cols) array: the forward differences dr and dc (zero on
    the last row/col) and their squared norm in rows 0-2, then a temporary."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    work = np.empty((4,) + img.shape)
    dr, dc, s2, tmp = work
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


def tv_value(img: np.ndarray) -> float:
    """Smoothed isotropic total variation with forward differences and
    replicate edges: sum over pixels of sqrt(dr^2 + dc^2 + TV_EPS), where
    dr/dc are the forward differences (zero on the last row/col)."""
    s2 = _differences(img)[2]
    s2 += TV_EPS
    s2 **= 0.5
    return float(np.sum(s2))


def tv_grad(img: np.ndarray, value: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of tv_value with respect to every pixel, from one pass
    over the differences: the root r = sqrt(dr^2 + dc^2 + TV_EPS) is taken
    once and its reciprocal 1 / r weights the gradient (within rounding of the
    (r * r) ** -0.5 weight: a few 1e-16 of the gradient's largest magnitude).
    Given ``value``, a one-entry float64 array, it also sets value[0] to the
    sum of r, tv_value(img) bit for bit; the gradient stays the return value."""
    dr, dc, w, tmp = _differences(img)
    w += TV_EPS
    np.sqrt(w, out=w)
    if value is not None:
        value[0] = np.sum(w)
    np.divide(1.0, w, out=w)
    grad = np.negative(w)
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
                bc1: float, bc2: float, eps: float) -> None:
    """One in-place Adam step over float64 arrays of one shape, where ``v``
    holds s, the root of the second moment.

    ``g`` is the gradient on ``p[support]`` (``...`` for all of ``p``); off
    it the step only decays the moments. bc1/bc2 are the bias corrections
    (1 - beta^t) for the current step count, folded into the scalars
    alpha_t = lr * sqrt(bc2) / bc1 and eps_t = eps * sqrt(bc2), the reordering
    in Kingma & Ba's Algorithm 1 footnote (ICLR 2015). ``lr`` is a scalar or a
    rate per entry of ``p``. The bits are those of ``m *= beta1`` and
    ``s *= sqrt(beta2)`` everywhere, ``m += (1 - beta1) * g`` and
    ``s = sqrt(s * s + (1 - beta2) * g * g)`` on the support, then
    ``p -= alpha_t * m / (s + eps_t)``: textbook Adam's step in real arithmetic,
    with one division per entry and no root off the support. Off the support
    the first moment has the bits of adding a zero-filled gradient's +0.0,
    which changes no bit unless ``m * beta1`` is -0.0, and it never is from
    +0.0 starts: a nonzero moment times a beta above 1/2 stays nonzero, and a
    sum is -0.0 only when both terms are. The root is never negative or -0.0
    either: ``s * sqrt(beta2)`` keeps the sign of ``s``, and its root update
    takes the root of a sum of two terms that are each +0.0 or positive. The
    root update is not applied off the support, where ``sqrt(s * s)`` is not
    ``s`` once ``s * s`` underflows (s below about 1.5e-154).
    """
    sqrt_bc2 = math.sqrt(bc2)
    m *= beta1
    v *= math.sqrt(beta2)
    m[support] += g * (1.0 - beta1)
    s = v[support]   # a view: the root update lands in v
    s *= s
    s += g * g * (1.0 - beta2)
    np.sqrt(s, out=s)
    a = m * (lr * (sqrt_bc2 / bc1))
    b = v + eps * sqrt_bc2
    a /= b
    p -= a
