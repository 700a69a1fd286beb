"""Scratch-buffer Adam against the allocating expression it replaced."""

import numpy as np
import pytest

from conftest import allocating_adam
from fptycho import kernels


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
        kernels.adam_update(new[0], g, new[1], new[2], *args, work)
        for a, b in zip(ref, new):
            assert a.tobytes() == b.tobytes(), f"step {t}"
