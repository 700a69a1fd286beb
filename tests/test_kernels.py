"""The Adam and TV kernels against the plain allocating expressions whose
bits they keep (Adam updates its scaled moments on a block alone, and TV runs
on contiguous views of one array), and Adam on scaled moments, folded as
``pgnn.adam_step`` folds them, against the textbook Adam that stores the
second moment."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocating_adam, power_tv_grad
from fptycho import kernels
from fptycho.pgnn import Moments, adam_step


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
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 61):
        g = _signed_zeros(rng, n)
        if t % 10 == 0:
            g[:] = 0.0 if t % 20 else -0.0
        lr = float(rng.choice([1e-5, 1e-3, 0.3]))
        args = (lr, b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, eps, t)
        allocating_adam(ref[0], g, ref[1], ref[2], *args)
        kernels.adam_update(new[0], g, new[1], new[2], ..., *args)
        for a, b in zip(ref, new):
            assert a.tobytes() == b.tobytes(), f"step {t}"


# finite values that keep g * g finite; hypothesis draws signed zeros and
# subnormals among them, and the explicit ones make sure each kind appears
_ADAM_VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_support_adam_is_bitwise_the_full_grid_expression(data):
    """The kernel updates the scaled moments only on its support, and the
    full-grid expression masked to that block has its bits (kernels.adam_update).
    The subnormal and tiny draws make S * S underflow, where a root update off
    the block would change bits."""
    def grid(shape):
        return np.array(data.draw(st.lists(_ADAM_VALUES, min_size=shape[0] * shape[1],
                                           max_size=shape[0] * shape[1])),
                        dtype=np.float64).reshape(shape)

    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    ref = [grid((rows, cols)), np.zeros((rows, cols)), np.zeros((rows, cols))]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0

    def args():
        lr = data.draw(st.sampled_from([1e-5, 1e-3, 0.3]))
        return lr, b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, eps, t

    # moments after k full-grid steps (k = 0: the +0.0 starts)
    for _ in range(data.draw(st.integers(0, 3))):
        t += 1
        allocating_adam(ref[0], grid((rows, cols)), ref[1], ref[2], *args())
    new = [a.copy() for a in ref]
    for _ in range(data.draw(st.integers(1, 3))):
        t += 1
        r0 = data.draw(st.integers(0, rows))
        r1 = data.draw(st.integers(r0, rows))
        c0 = data.draw(st.integers(0, cols))
        c1 = data.draw(st.integers(c0, cols))
        support = slice(r0, r1), slice(c0, c1)
        g = grid((r1 - r0, c1 - c0))
        full = np.zeros((rows, cols))
        full[support] = g
        hit = np.zeros((rows, cols), dtype=bool)
        hit[support] = True
        step = args()
        allocating_adam(ref[0], full, ref[1], ref[2], *step, hit=hit)
        kernels.adam_update(new[0], g, new[1], new[2], support, *step)
        for a, b in zip(ref, new):
            assert a.tobytes() == b.tobytes(), f"step {t}, support {support}"


@pytest.mark.parametrize("t", [355, 356, 357])
@pytest.mark.parametrize("block", [False, True], ids=["whole", "block"])
@pytest.mark.parametrize("per_entry_rate", [False, True], ids=["scalar_lr", "entry_lr"])
def test_adam_skips_a_rounded_bias_correction_at_the_same_bits(t, block,
                                                               per_entry_rate):
    """From t = 356 the first bias correction 1 - 0.9**t is 1.0: on either
    side of that boundary the kernel's folded rate lr * (sqrt(bc2) / bc1) and
    guard eps * sqrt(bc2), with the moments' scales of t steps, give the
    allocating expression's bits, on the whole array and on a block. A rate
    per entry gives the bits of a separate allocating step per rate."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    assert 1.0 - b1 ** 355 < 1.0 == 1.0 - b1 ** 356
    rng = np.random.Generator(np.random.PCG64(t))
    shape = (6, 8)
    start = [_signed_zeros(rng, 48).reshape(shape),
             rng.standard_normal(shape) * 1e-3, rng.random(shape) * 1e-6 + 1e-12]
    support = (slice(1, 4), slice(2, 7)) if block else ...
    hit = np.zeros(shape, dtype=bool)
    hit[support] = True
    full = np.zeros(shape)
    full[support] = _signed_zeros(rng, full[support].size).reshape(full[support].shape)
    bcs = 1.0 - b1 ** t, 1.0 - b2 ** t
    rates = (1e-3, 0.3) if per_entry_rate else (1e-3, 1e-3)
    ref = [a.copy() for a in start]
    for half, lr in zip((slice(0, 3), slice(3, 6)), rates):
        allocating_adam(ref[0][half], full[half], ref[1][half], ref[2][half],
                        lr, b1, b2, *bcs, eps, t, hit=hit[half])
    new = [a.copy() for a in start]
    lr = np.repeat(rates, 24).reshape(shape) if per_entry_rate else rates[0]
    kernels.adam_update(new[0], full[support].copy(), new[1], new[2], support,
                        lr, b1, b2, *bcs, eps, t)
    for a, b in zip(ref, new):
        assert a.tobytes() == b.tobytes()


# fixed before the test was first run, from rounding: each side rounds every
# step, the scaled form in its accumulated moments and its folds, textbook
# Adam in its decays, so over 2,400 steps an entry may drift by a few 1e-13
# relative (the root form alone drifted by 6.7e-14)
_DRIFT = 1e-12


def test_scaled_adam_stays_within_rounding_of_textbook_adam():
    """2,400 ``adam_step`` calls on a moving block, with a rate per entry, t
    crossing 356 and the moments folded mid-stage (beta1**k reaches
    ADAM_FOLD_FLOOR at k = 656) and once at the end, against textbook Adam
    that stores the second moment v: the first moments stay within _DRIFT of
    sqrt(v), the roots within _DRIFT of sqrt(v) and the parameters'
    displacement within _DRIFT of the textbook's largest. Rows 10-11 and
    column 9 never get a gradient: their parameters and moments keep their
    +0.0 bits, so a pgnn object stage's box (the rows and columns with a
    nonzero moment) cannot grow."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = np.random.Generator(np.random.PCG64(62))
    shape = (12, 10)
    start = rng.standard_normal(shape)
    start[10:, :] = start[:, 9] = 0.0
    lr = rng.choice([1e-5, 1e-3, 3e-2], size=shape)
    p, mom = start.copy(), Moments.like(start)
    ref_p, ref_m, ref_v = start.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 2401):
        r0, c0 = (5 * t) % 7, (3 * t) % 5
        support = slice(r0, r0 + 1 + t % 4), slice(c0, c0 + 2 + t % 4)
        g = np.zeros(shape)
        g[support] = (rng.standard_normal(g[support].shape)
                      * 10.0 ** rng.uniform(-3, 1, g[support].shape))
        adam_step(p, g[support].copy(), mom, lr, support)
        ref_m = b1 * ref_m + (1.0 - b1) * g
        ref_v = b2 * ref_v + (1.0 - b2) * g * g
        ref_p -= lr * (ref_m / (1.0 - b1 ** t)) / (np.sqrt(ref_v / (1.0 - b2 ** t)) + eps)
    assert mom.t == 2400 and mom.k == 2400 - 3 * 655   # three mid-stage folds
    mom.fold()
    reached = ref_v > 0.0
    assert not reached[10:, :].any() and not reached[:, 9].any() and reached[:10, :9].all()
    root = np.sqrt(ref_v[reached])
    assert (np.abs(mom.m[reached] - ref_m[reached]) / root).max() <= _DRIFT
    assert (np.abs(mom.v[reached] - root) / root).max() <= _DRIFT
    moved = np.abs(p - ref_p).max() / np.abs(ref_p - start).max()
    assert moved <= _DRIFT
    for a in (p, mom.m, mom.v):
        assert not a[~reached].view(np.uint64).any()


def allocating_tv(img):
    """The plain TV value and gradient, on strided slices: the bitwise
    reference for ``tv_value`` and ``tv_grad``, which weights the gradient
    with the reciprocal of the root it sums for the value."""
    dr = np.zeros_like(img)
    dc = np.zeros_like(img)
    dr[:-1, :] = img[1:, :] - img[:-1, :]
    dc[:, :-1] = img[:, 1:] - img[:, :-1]
    r = np.sqrt(dr * dr + dc * dc + kernels.TV_EPS)
    w = 1.0 / r
    grad = -w * (dr + dc)
    grad[1:, :] += (w * dr)[:-1, :]
    grad[:, 1:] += (w * dc)[:, :-1]
    return float(np.sum(r)), grad


def _tv_image(shape):
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    return _signed_zeros(rng, shape[0] * shape[1]).reshape(shape)


_TV_SHAPES = [(1, 1), (1, 7), (7, 1), (6, 5), (32, 32), (128, 128)]
# the flat column scatter adds each row's last entry into the next row's
# first: the reference gradient keeps a -0.0 in column 0 here, which adding
# +0.0 there would turn into +0.0
_SIGNED_ZERO_COLUMN = np.array([[0.0, 0.0], [-0.0, 0.0], [-0.0, 1.0]])
_TV_CASES = pytest.mark.parametrize(
    "img", [_tv_image(shape) for shape in _TV_SHAPES] + [_SIGNED_ZERO_COLUMN],
    ids=["x".join(map(str, shape)) for shape in _TV_SHAPES] + ["signed_zero_column"])


@_TV_CASES
def test_scratch_tv_is_bitwise_the_allocating_expression(img):
    value, grad = allocating_tv(img)
    assert kernels.tv_value(img) == value
    assert kernels.tv_grad(img).tobytes() == grad.tobytes()


@_TV_CASES
def test_tv_grad_hands_back_tv_value_bit_for_bit(img):
    """One pass gives both: the value tv_grad writes into its one-entry
    output is tv_value's, and asking for it changes no gradient bit."""
    held = np.full(1, np.nan)
    grad = kernels.tv_grad(img, held)
    assert held.tobytes() == np.float64(kernels.tv_value(img)).tobytes()
    assert grad.tobytes() == kernels.tv_grad(img).tobytes()


# fixed before the test was first run, from rounding: 1 / sqrt(x) and
# x ** -0.5 each round once or twice, so a weight moves by a few ulps, and a
# gradient entry sums at most four weighted differences of magnitude <= 1
_TV_DRIFT = 2e-15


@_TV_CASES
def test_tv_grad_stays_within_rounding_of_the_power_form(img):
    """The weight 1 / r moves the gradient from the (...) ** -0.5 form by
    rounding alone: at most _TV_DRIFT of its largest magnitude."""
    ref = power_tv_grad(img)
    assert np.abs(kernels.tv_grad(img) - ref).max() <= _TV_DRIFT * np.abs(ref).max()


def test_tv_value_allocates_four_grids():
    """tv_value's work array holds dr, dc, their squared norm and a temporary:
    on a 256x256 grid its peak is 4 grids and a little more (a fifth grid
    used by tv_grad alone would break the bound)."""
    img = _tv_image((256, 256))
    grid = img.nbytes
    tracemalloc.start()
    try:
        kernels.tv_value(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * grid + grid // 8


@pytest.mark.parametrize("count", [9, 1])
def test_zernike_products_equal_tensordot(count):
    """synth_phase and project_modes make np.tensordot's own ``dot`` call."""
    rng = np.random.Generator(np.random.PCG64(count))
    basis = rng.standard_normal((count, 32, 32))
    basis[:, rng.random((32, 32)) < 0.2] = 0.0   # off-disk bins
    coeffs = rng.standard_normal(count)
    # the pupil step projects the imaginary part of a complex grid: a view
    weight = (rng.standard_normal((32, 32))
              + 1j * rng.standard_normal((32, 32))).imag
    phase = kernels.synth_phase(basis, coeffs)
    expected = np.tensordot(coeffs, basis, axes=1)
    assert phase.shape == expected.shape
    assert phase.tobytes() == expected.tobytes()
    modes = kernels.project_modes(basis, weight)
    expected = np.tensordot(basis, weight, axes=2)
    assert modes.shape == expected.shape == (count,)
    assert modes.tobytes() == expected.tobytes()
