"""Numpy/numba kernel parity and backend selection."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import allocating_adam
from fptycho import kernels

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                 reason="numba not importable")


def _images():
    rng = np.random.Generator(np.random.PCG64(50))
    return [rng.random((16, 16)),
            np.full((8, 8), 2.0),
            np.array([[0.0, 1.0], [0.0, 1.0]])]


@needs_numba
@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_tv_value_flavors_agree(eta):
    for img in _images():
        a = kernels.tv_value_np(img, eta)
        b = kernels.tv_value_nb(img, eta)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-15)


@needs_numba
@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_tv_grad_flavors_agree(eta):
    for img in _images():
        a = kernels.tv_grad_np(img, eta)
        b = kernels.tv_grad_nb(img, eta)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


@needs_numba
def test_synth_phase_flavors_agree():
    rng = np.random.Generator(np.random.PCG64(51))
    basis = rng.standard_normal((5, 8, 8))
    coeffs = rng.standard_normal(5)
    a = kernels.synth_phase_np(basis, coeffs)
    b = kernels.synth_phase_nb(basis, coeffs)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


@needs_numba
def test_project_modes_flavors_agree():
    rng = np.random.Generator(np.random.PCG64(52))
    basis = rng.standard_normal((5, 8, 8))
    weight = rng.standard_normal((8, 8))
    a = kernels.project_modes_np(basis, weight)
    b = kernels.project_modes_nb(basis, weight)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


@needs_numba
def test_adam_update_flavors_agree():
    rng = np.random.Generator(np.random.PCG64(53))
    p0 = rng.standard_normal(100)
    g = rng.standard_normal(100)
    m0 = rng.random(100) * 0.1
    v0 = rng.random(100) * 0.01
    pa, ma, va = p0.copy(), m0.copy(), v0.copy()
    pb, mb, vb = p0.copy(), m0.copy(), v0.copy()
    args = (0.01, 0.9, 0.999, 1 - 0.9 ** 3, 1 - 0.999 ** 3, 1e-8)
    work = np.empty((2, 100))
    kernels.adam_update_np(pa, g, ma, va, *args, work)
    kernels.adam_update_nb(pb, g, mb, vb, *args, work)
    assert np.allclose(pa, pb, rtol=1e-13, atol=1e-15)
    assert np.allclose(ma, mb, rtol=1e-13, atol=1e-15)
    assert np.allclose(va, vb, rtol=1e-13, atol=1e-15)


def _signed_zeros(rng, n):
    """Random values with exact zeros of both signs mixed in."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)
    pick = rng.random(n)
    x[pick < 0.15] = 0.0
    x[pick > 0.85] = -0.0
    return x


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("seed", [60, 61])
def test_scratch_adam_is_bitwise_the_allocating_expression(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = _signed_zeros(rng, n)
    ref = [p.copy(), np.zeros(n), np.zeros(n)]
    new = [p.copy(), np.zeros(n), np.zeros(n)]
    work = np.full((2, n), np.nan)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 61):
        g = _signed_zeros(rng, n)
        if t % 10 == 0:
            g[:] = 0.0 if t % 20 else -0.0
        lr = float(rng.choice([1e-5, 1e-3, 0.3]))
        args = (lr, b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, eps)
        allocating_adam(ref[0], g, ref[1], ref[2], *args)
        kernels.adam_update_np(new[0], g, new[1], new[2], *args, work)
        for a, b in zip(ref, new):
            assert a.tobytes() == b.tobytes(), f"step {t}"


def test_active_backend_is_consistent():
    assert kernels.BACKEND in ("numpy", "numba")
    if kernels.BACKEND == "numba":
        assert kernels.tv_value is kernels.tv_value_nb
    else:
        assert kernels.tv_value is kernels.tv_value_np


def _backend_in_subprocess(flag):
    env = dict(os.environ)
    env["FPTYCHO_NUMBA"] = flag
    out = subprocess.run(
        [sys.executable, "-c", "import fptycho.kernels as k; print(k.BACKEND)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_env_flag_forces_numpy_backend():
    assert _backend_in_subprocess("0") == "numpy"


@needs_numba
def test_env_flag_forces_numba_backend():
    assert _backend_in_subprocess("1") == "numba"
