"""Numpy kernels for the per-image step: TV penalty, Zernike synthesis and
projection (np.tensordot's reshapes and one ``dot``), and elementwise Adam.

These run tens of thousands of times per reconstruction. Callers reach them
as ``kernels.<name>`` attributes, so a profiler can wrap each one by name.

``adam_update`` steps the arrays it is given (a ``pgnn`` object stage packs its
live box of the spectrum, a pupil stage steps the pupil as stored, on its
support) on moments held in scaled form, which leaves the moments off the block
``support`` the gradient covers untouched: no decay pass runs over them.
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
                bc1: float, bc2: float, eps: float, k: int) -> None:
    """One in-place Adam step over float64 arrays of one shape, on moments held
    in scaled form: with k the count of steps since they were last textbook,
    this one included, ``m`` holds M = m / beta1**k and ``v`` holds
    S = s / sqrt(beta2**k), s being the root of the second moment.

    ``g`` is the gradient on ``p[support]`` (``...`` for all of ``p``). Off it
    the step leaves M and S alone, which is the textbook decay in the scaled
    form; on it, M += g * (1 - beta1) / beta1**k and
    S = sqrt(S * S + (1 - beta2) * g * g / beta2**k), in place when ``support``
    is ``...``, otherwise on packed copies of the block (a ufunc on a strided
    block takes about four times as long) written back into ``m`` and ``v``.
    bc1/bc2 are the bias corrections (1 - beta^t) for the current step count,
    folded into the scalars alpha_t = lr * sqrt(bc2) / bc1 and
    eps_t = eps * sqrt(bc2), the reordering in Kingma & Ba's Algorithm 1
    footnote (ICLR 2015), and the step is ``p -= alpha_t * beta1**k /
    sqrt(beta2**k) * M / (S + eps_t / sqrt(beta2**k))``: textbook Adam's step
    in real arithmetic, with one division per entry, no root off the block and
    four passes over ``p``.
    ``lr`` is a scalar or a rate per entry of ``p``. Entries off every block
    keep their bits, +0.0 moments included; on a block, M + g * c is -0.0
    only when both terms are, and the root is never -0.0. The caller folds
    the scales back in (``pgnn.Moments.fold``) before beta1**k gets small
    enough for M to overflow.
    """
    d1, d2 = beta1 ** k, beta2 ** k   # the decay the scaled moments leave out
    r2 = math.sqrt(d2)
    mb, sb = ((m, v) if support is ... else
              (np.ascontiguousarray(m[support]), np.ascontiguousarray(v[support])))
    mb += g * ((1.0 - beta1) / d1)
    sb *= sb
    sb += g * g * ((1.0 - beta2) / d2)
    np.sqrt(sb, out=sb)
    if mb is not m:   # a block; numpy skips the copy when mb views m's own memory
        m[support], v[support] = mb, sb
    sqrt_bc2 = math.sqrt(bc2)
    a = m * (lr * (sqrt_bc2 / bc1 * d1 / r2))
    b = v + eps * sqrt_bc2 / r2
    a /= b
    p -= a
