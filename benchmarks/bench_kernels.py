"""Time the numba kernel flavors against their pure-numpy twins.

Sizes mirror the real per-image workload of the reference problem: 128x128
spatial grids for the TV penalty, a 9-mode basis on 32x32 pupils, and Adam
over the interleaved float view of a 128x128 complex spectrum.

Run:  python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from fptycho import kernels


def bench(fn, args, repeats):
    fn(*args)  # warm-up (and numba compilation)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def adam_args(rng):
    n = 128 * 128 * 2
    return (rng.standard_normal(n), rng.standard_normal(n),
            np.zeros(n), np.zeros(n), 1e-3, 0.9, 0.999, 0.1, 0.001, 1e-8,
            np.empty((2, n)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.PCG64(0))
    img = rng.random((128, 128))
    basis = rng.standard_normal((9, 32, 32))
    coeffs = rng.standard_normal(9)
    weight = rng.standard_normal((32, 32))

    cases = [
        ("tv_value", kernels.tv_value_np, (img, 1.0)),
        ("tv_grad", kernels.tv_grad_np, (img, 1.0)),
        ("synth_phase", kernels.synth_phase_np, (basis, coeffs)),
        ("project_modes", kernels.project_modes_np, (basis, weight)),
        ("adam_update", kernels.adam_update_np, adam_args(rng)),
    ]

    print(f"active backend: {kernels.BACKEND} "
          f"(numba importable: {kernels.HAVE_NUMBA})")
    print(f"{'kernel':<14} {'numpy':>12} {'numba':>12} {'speedup':>9}")
    for name, np_fn, call_args in cases:
        t_np = bench(np_fn, call_args, args.repeats)
        if kernels.HAVE_NUMBA:
            nb_fn = getattr(kernels, f"{name}_nb")
            t_nb = bench(nb_fn, call_args, args.repeats)
            ratio = t_np / t_nb if t_nb > 0 else float("inf")
            print(f"{name:<14} {t_np * 1e6:>10.1f}us {t_nb * 1e6:>10.1f}us "
                  f"{ratio:>8.2f}x")
        else:
            print(f"{name:<14} {t_np * 1e6:>10.1f}us {'-':>12} {'-':>9}")


if __name__ == "__main__":
    main()
