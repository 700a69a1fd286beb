"""Gradient-descent solver: forward graph, gradients, Adam, stages, TV."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (allocating_adam, fd_check, fold_moments, grid_config,
                      power_tv_grad, textured_object)
from fptycho.epie import EpieConfig, run_epie
from fptycho.errors import DimensionMismatch, NumericalError
from fptycho.field import center_shift, dft2, wrap_phase
from fptycho.kernels import tv_grad, tv_value
from fptycho.pgnn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_FOLD_FLOOR, AMP_FLOOR,
                          TV_REFRESH, Moments, ObjectStage, PgnnConfig, PgnnModel, PupilStage,
                          adam_step, run_pgnn)
from fptycho.optics import (Illumination, OpticalConfig, defocus_phase, make_ctf,
                            pupil_support, zernike_basis)
from fptycho.simulate import GroundTruth, simulate_dataset


# -- gradient correctness (the keystone) -----------------------------------

def test_every_gradient_block_matches_finite_differences(fd_campaign):
    assert len(fd_campaign) >= 20
    failures = [(label, worst) for label, worst in fd_campaign
                if worst > 1e-4]
    assert not failures, f"gradient mismatches: {failures}"


# sine positions per LED-grid axis; each shifts a capture of up to 6 pixels
# a side by at most one spectrum bin in fd_check's optics
_LED_AXIS = {1: (0.0,), 2: (-0.12, 0.12), 3: (-0.12, 0.0, 0.12)}


@settings(max_examples=20, deadline=None)
@example(3, 5, 3, 3, 2, False, True, 0)
@example(5, 5, 3, 2, 1, True, False, 1)
@given(st.integers(3, 6), st.integers(3, 6), st.sampled_from([2, 3]),
       st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_gradients_match_finite_differences_on_odd_geometries(
        rows, cols, upsample, leds_x, leds_y, use_zernike, tv, seed):
    leds = tuple(Illumination(sx, sy) for sy in _LED_AXIS[leds_y]
                 for sx in _LED_AXIS[leds_x])
    worst = fd_check(seed, use_zernike, 1e-3 if tv else 0.0, low=(rows, cols),
                     upsample=upsample, leds=leds)
    assert worst <= 1e-4


def test_gradients_vanish_at_ground_truth(small_instance):
    cfg, obj, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    state.object_spectrum = center_shift(dft2(obj)) / (32 * 32)
    worst = 0.0
    for n in range(len(images)):
        g = model.gradients(state, n)
        worst = max(worst,
                    float(np.max(np.abs(g["object"]))),
                    float(np.max(np.abs(g["pupil"]))))
    # measured 1.5e-11 on this instance
    assert worst <= 1e-10


def test_the_piston_mode_is_a_global_phase_the_data_cannot_see(small_instance):
    """Noll mode 1 (piston) multiplies the pupil by one phase factor, which no
    capture sees: on random states, shifting its coefficient by 0.7 rad moves
    each image's data loss by no more than 1e-14 relative (measured 2.7e-15
    over 20 states), and a pupil step's piston gradient is at most 1e-12 of
    the largest other mode's (measured 1.4e-13). Adam's root for piston so
    stays far below ADAM_EPS (ROADMAP item 4)."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    zern = slice(model.index.size, None)
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(seed))
        state = model.initial_state()
        state.object_spectrum *= 1.0 + 0.3 * (rng.standard_normal(model.high_shape)
                                              + 1j * rng.standard_normal(model.high_shape))
        state.pupil_params[:model.index.size] = 0.5 + rng.random(model.index.size)
        state.zern_coeffs[...] = rng.standard_normal(model.basis.count)
        for n in range(len(images)):
            loss, piston = model.forward(state, n).data_loss, state.zern_coeffs[0]
            state.zern_coeffs[0] = piston + 0.7
            shifted = model.forward(state, n).data_loss
            state.zern_coeffs[0] = piston
            assert abs(shifted - loss) <= 1e-14 * loss, (seed, n)
            g = PupilStage(model, state).gradient(n)[0][zern]
            assert abs(g[0]) <= 1e-12 * np.max(np.abs(g[1:])), (seed, n)


def test_object_gradient_is_linear_in_the_residual(small_instance):
    # all-dark captures pin the amplitude-replaced target at zero, so the
    # per-image residual IS the predicted spectrum; doubling the object
    # spectrum then doubles the residual, and the object gradient must
    # double bit-exactly
    cfg, _, _ = small_instance
    dark = [np.zeros((16, 16)) for _ in range(9)]
    model = PgnnModel(dark, cfg, PgnnConfig())
    rng = np.random.Generator(np.random.PCG64(40))
    state = model.initial_state()
    state.object_spectrum += (rng.standard_normal((32, 32))
                              + 1j * rng.standard_normal((32, 32)))
    doubled = model.initial_state()
    doubled.object_spectrum = 2.0 * state.object_spectrum
    for n in (0, 4):
        g1 = model.gradients(state, n)
        g2 = model.gradients(doubled, n)
        assert np.array_equal(g2["object"], 2.0 * g1["object"])


# -- forward model and losses ----------------------------------------------

def test_zero_object_loss_equals_window_area_times_intensity_sum(
        small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    state.object_spectrum[:] = 0.0
    for n in (0, 4, 8):
        fw = model.forward(state, n)
        expected_target = center_shift(
            dft2(np.sqrt(images[n]).astype(np.complex128)))
        assert np.allclose(fw.target, expected_target, atol=1e-9)
        expected = (16 * 16) * float(np.sum(images[n]))
        assert fw.data_loss == pytest.approx(expected, rel=1e-12)


def test_data_loss_matches_scalar_loop(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    rng = np.random.Generator(np.random.PCG64(41))
    state = model.initial_state()
    state.object_spectrum += 0.1 * (rng.standard_normal((32, 32))
                                    + 1j * rng.standard_normal((32, 32)))
    fw = model.forward(state, 5)
    predicted = model.predicted_spectrum(state, 5)
    assert np.array_equal(fw.residual, predicted - fw.target)
    acc = 0.0
    for r in range(16):
        for c in range(16):
            d = predicted[r, c] - fw.target[r, c]
            acc += d.real * d.real + d.imag * d.imag
    assert fw.data_loss == pytest.approx(acc, rel=1e-12)


def test_loss_at_ground_truth_is_negligible(small_instance):
    cfg, obj, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    state.object_spectrum = center_shift(dft2(obj)) / (32 * 32)
    loss = model.dataset_loss(state)
    scale = sum(float(np.vdot(p, p).real)
                for p in (model.predicted_spectrum(state, n)
                          for n in range(len(images))))
    assert loss <= 1e-16 * scale


@pytest.mark.parametrize("pcfg", [
    PgnnConfig(), PgnnConfig(zernike_modes=None, tv_alpha1=1e-3, tv_alpha2=1e-3)],
    ids=["zernike", "free_pupil_tv"])
def test_dataset_loss_equals_the_per_image_forward_losses(small_instance, pcfg):
    cfg, _, images = small_instance
    rng = np.random.Generator(np.random.PCG64(41))
    model = PgnnModel(images, cfg, pcfg)
    state = model.initial_state()
    state.object_spectrum += 1e-3 * (rng.standard_normal(model.high_shape)
                                     + 1j * rng.standard_normal(model.high_shape))
    if pcfg.zernike_modes is None:
        state.pupil_params += 0.1 * rng.standard_normal(state.pupil_params.shape)
    else:
        state.zern_coeffs[...] += 0.1 * rng.standard_normal(state.zern_coeffs.shape)
    data = 0.0
    for n in range(len(images)):
        data += model.forward(state, n).data_loss
    assert (model.dataset_loss(state)
            == data + len(images) * model.tv_penalty(state)[0])


def test_total_loss_recomposes_from_its_three_terms(small_instance):
    cfg, _, images = small_instance
    pcfg = PgnnConfig(tv_alpha1=2e-3, tv_alpha2=3e-3)
    model = PgnnModel(images, cfg, pcfg)
    rng = np.random.Generator(np.random.PCG64(42))
    state = model.initial_state()
    state.object_spectrum += 0.05 * (rng.standard_normal((32, 32))
                                     + 1j * rng.standard_normal((32, 32)))
    spatial = model.spatial_object(state)
    expected = (model.forward(state, 2).data_loss
                + 2e-3 * tv_value(np.abs(spatial))
                + 3e-3 * tv_value(wrap_phase(np.angle(spatial))))
    assert model.total_loss(state, 2) == pytest.approx(expected, rel=1e-12)


def test_total_loss_without_tv_is_exactly_the_data_loss(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    assert model.total_loss(state, 0) == model.forward(state, 0).data_loss


def test_constant_object_has_zero_tv_penalty(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=1e-3, tv_alpha2=1e-3))
    state = model.initial_state()
    state.object_spectrum[:] = 0.0
    state.object_spectrum[16, 16] = 0.7     # DC-only spectrum, constant field
    penalty = model.tv_penalty(state)[0]
    # the smoothed potential contributes sqrt(TV_EPS) per pixel, nothing more
    floor = (1e-3 + 1e-3) * (32 * 32) * np.sqrt(1e-8)
    assert penalty <= floor * (1 + 1e-9)


def test_solvers_share_the_same_starting_object(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    own = model.spatial_object(model.initial_state())
    baseline, _, _ = run_epie(images, cfg, EpieConfig(iterations=0))
    assert np.allclose(own, baseline, atol=1e-12 * np.max(np.abs(baseline)))


# -- total-variation kernel ------------------------------------------------

def test_tv_of_constant_image_is_the_smoothing_floor():
    img = np.full((8, 8), 3.25)
    # every pixel contributes sqrt(TV_EPS)
    assert tv_value(img) == pytest.approx(64 * np.sqrt(1e-8), rel=1e-9)


def test_tv_of_two_column_step_is_two():
    img = np.array([[0.0, 1.0], [0.0, 1.0]])
    val = tv_value(img)
    assert val == pytest.approx(2.00020001, abs=1e-8)   # frozen smoothed value
    assert val == pytest.approx(2.0, abs=5e-4)


def test_tv_grad_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(43))
    img = rng.random((8, 8))
    grad = tv_grad(img)
    h = 1e-6
    for r in range(8):
        for c in range(8):
            orig = img[r, c]
            img[r, c] = orig + h
            lp = tv_value(img)
            img[r, c] = orig - h
            lm = tv_value(img)
            img[r, c] = orig
            fd = (lp - lm) / (2 * h)
            an = grad[r, c]
            assert (abs(fd - an) <= 1e-8
                    or abs(fd - an) / max(abs(fd), abs(an)) <= 1e-5)


def allocating_tv_eval(model, state):
    """The TV value and object-spectrum gradient from the plain expression:
    the bitwise reference for ``PgnnModel.tv_penalty``. With
    u = z / max(|z|, AMP_FLOOR), the spatial gradient is the one complex
    product u * (alpha1 * grad_amp + 1j * alpha2 * grad_phase / max(|z|, AMP_FLOOR))."""
    pcfg = model.pcfg
    spatial = model.spatial_object(state)
    amp = np.abs(spatial)
    inv = 1.0 / np.maximum(amp, AMP_FLOOR)
    value = 0.0
    weight = np.zeros(model.high_shape, dtype=np.complex128)
    if pcfg.tv_alpha1 > 0.0:
        value += pcfg.tv_alpha1 * tv_value(amp)
        weight.real = pcfg.tv_alpha1 * tv_grad(amp)
    if pcfg.tv_alpha2 > 0.0:
        phase = wrap_phase(np.angle(spatial))
        value += pcfg.tv_alpha2 * tv_value(phase)
        weight.imag = pcfg.tv_alpha2 * tv_grad(phase) * inv
    return value, center_shift(dft2(spatial * inv * weight))


def two_term_tv_eval(model, state):
    """The TV gradient as the sum of its amplitude and phase terms,
    alpha1 * grad_amp * z / g + alpha2 * grad_phase * 1j * z / g^2 with
    g = max(|z|, AMP_FLOOR) and the ``(...) ** -0.5`` TV weight:
    ``tv_penalty``'s expression before each TV image became one pass."""
    pcfg = model.pcfg
    spatial = model.spatial_object(state)
    amp = np.abs(spatial)
    g_spatial = np.zeros_like(spatial)
    guarded = np.maximum(amp, AMP_FLOOR)
    if pcfg.tv_alpha1 > 0.0:
        g_spatial += pcfg.tv_alpha1 * power_tv_grad(amp) * (spatial / guarded)
    if pcfg.tv_alpha2 > 0.0:
        phase = wrap_phase(np.angle(spatial))
        g_spatial += (pcfg.tv_alpha2 * power_tv_grad(phase)
                      * (1j * spatial / (guarded * guarded)))
    return center_shift(dft2(g_spatial))


_ALPHAS = pytest.mark.parametrize("alphas", [(2e-3, 3e-3), (2e-3, 0.0), (0.0, 3e-3)])


def _tv_states(model):
    """A perturbed start twice, then an object dark (|z| below AMP_FLOOR) on a
    block of pixels, then a wholly dark one: the AMP_FLOOR lanes."""
    rng = np.random.Generator(np.random.PCG64(44))
    state = model.initial_state()
    for _ in range(2):
        state.object_spectrum += 0.05 * (rng.standard_normal(model.high_shape)
                                         + 1j * rng.standard_normal(model.high_shape))
        yield state
    spatial = model.spatial_object(state)
    spatial[4:12, 8:20] *= 1e-15
    state.object_spectrum[...] = center_shift(dft2(spatial)) / spatial.size
    assert 0.0 < np.abs(model.spatial_object(state)[4:12, 8:20]).max() < AMP_FLOOR
    yield state
    state.object_spectrum[:] = 0.0
    yield state


@_ALPHAS
def test_scratch_tv_eval_is_bitwise_the_allocating_expression(small_instance, alphas):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=alphas[0], tv_alpha2=alphas[1]))
    for state in _tv_states(model):
        value, grad = model.tv_penalty(state)
        ref_value, ref_grad = allocating_tv_eval(model, state)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()


# fixed before the test was first run: the one product rounds its terms in
# another order than the two-term sum, and the TV weight moves by a few ulps
# (test_kernels._TV_DRIFT), so the spectrum moves by a few ulps of its largest
# magnitude; a few 1e-16 was measured on a prototype
_TV_PENALTY_DRIFT = 2e-15


@_ALPHAS
def test_tv_penalty_stays_within_rounding_of_the_two_term_expression(small_instance,
                                                                     alphas):
    """One pass per TV image keeps the value's bits and moves the gradient from
    the two-term expression by rounding alone, dark lanes included."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=alphas[0], tv_alpha2=alphas[1]))
    for state in _tv_states(model):
        spatial = model.spatial_object(state)
        value, grad = model.tv_penalty(state)
        assert value == (alphas[0] * tv_value(np.abs(spatial))
                         + alphas[1] * tv_value(wrap_phase(np.angle(spatial))))
        ref = two_term_tv_eval(model, state)
        assert np.abs(grad - ref).max() <= _TV_PENALTY_DRIFT * np.abs(ref).max()


@pytest.mark.parametrize("alphas", [(2e-3, 3e-3), (2e-3, 0.0), (0.0, 3e-3), (0.0, 0.0)])
def test_pupil_stage_holds_the_tv_value_without_its_gradient(small_instance, alphas):
    """A pupil stage holds tv_penalty's value, bit for bit, from the two
    ``kernels.tv_value`` calls alone (``PgnnModel.tv_value``)."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=alphas[0], tv_alpha2=alphas[1]))
    for state in _tv_states(model):
        held = PupilStage(model, state).tv_value
        assert np.float64(held).tobytes() == np.float64(model.tv_penalty(state)[0]).tobytes()
        assert np.float64(model.tv_value(state)).tobytes() == np.float64(held).tobytes()


@pytest.mark.parametrize("alphas", [(0.0, 0.0), (2e-3, 3e-3)], ids=["no_tv", "tv"])
def test_gradients_leave_the_object_gradient_grid_clean(small_instance, alphas):
    """A call for another image sees none of the previous call's window:
    the object gradient starts from a fresh grid each call."""
    cfg, _, images = small_instance
    pcfg = PgnnConfig(tv_alpha1=alphas[0], tv_alpha2=alphas[1])
    model = PgnnModel(images, cfg, pcfg)
    state = model.initial_state()
    model.gradients(state, 3)
    again = model.gradients(state, 5)
    fresh = PgnnModel(images, cfg, pcfg).gradients(state, 5)
    assert all(again[key].tobytes() == fresh[key].tobytes() for key in fresh)


@pytest.mark.parametrize("tv", [True, False], ids=["tv", "no_tv"])
def test_gradients_and_total_loss_stay_exact_between_tv_refreshes(small_instance, tv):
    """An object stage holds its TV penalty between refreshes, but
    ``gradients`` and ``total_loss``, the references of the finite-difference
    checks, still evaluate it at the state they are given, bit for bit; and
    calling them mid-stage leaves the stage's held penalty alone. Their object
    gradient is the TV gradient (zeros without TV) plus the data gradient
    added on the window, formed without a stage (``_reference_stage`` relies
    on it)."""
    cfg, _, images = small_instance
    alpha1, alpha2 = (2e-3, 3e-3) if tv else (0.0, 0.0)
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=alpha1, tv_alpha2=alpha2))
    probed, plain = model.initial_state(), model.initial_state()
    stage_probed, stage_plain = ObjectStage(model, probed), ObjectStage(model, plain)
    stale = 0
    for n in model.order[:2 * TV_REFRESH + 1]:
        loss = model.step(probed, n, stage_probed)
        assert loss == model.step(plain, n, stage_plain)
        value, tv_gradient = allocating_tv_eval(model, probed)
        stale += value != stage_probed.tv_value
        fw = model.forward(probed, n)
        assert model.total_loss(probed, n) == fw.data_loss + value
        want = tv_gradient.copy() if tv else np.zeros_like(probed.object_spectrum)
        want[model.windows[n]] += (2.0 * model.area_low * np.conj(model.pupil(probed))
                                   * fw.residual)
        assert model.gradients(probed, n)["object"].tobytes() == want.tobytes()
    if tv:
        assert stage_probed.steps == 2 * TV_REFRESH + 1
    assert stale == (2 * TV_REFRESH + 1 if tv else 0)
    stage_probed.close()
    stage_plain.close()
    assert _state_bytes(probed) == _state_bytes(plain)


def _grid_256(pcfg: PgnnConfig):
    """A 256x256 spectrum recovered from 3x3 captures of 16x16: the model
    and its initial state."""
    cfg = grid_config(n_low=16, upsample=16, half_span=0.05)
    obj = textured_object(256, amp_seed=5, phase_seed=6, amp_beta=0.8,
                          phase_beta=0.8, amp_floor=0.3, phase_span=1.5)
    model = PgnnModel(simulate_dataset(GroundTruth(obj, make_ctf(cfg)), cfg), cfg, pcfg)
    return model, model.initial_state()


def test_tv_object_steps_allocate_a_bounded_number_of_grids():
    """Counted in 256x256 float64 grids, a TV object step's transient peak is
    Adam's temporaries on the whole complex spectrum, 4 grids (measured 4
    grids and 552 B), when it holds the TV penalty, which it copies into the
    stage's gradient grid. A refresh step evaluates the penalty first, and its
    peak there is 11 grids (measured 11 grids and 12,616 B), in the phase's
    ``tv_grad``: the spatial object and the complex weight (2 grids each), the
    reciprocal amplitude, the phase, and the kernel's four work grids and its
    gradient. A held step that re-evaluated TV, or a full-grid temporary added
    at either peak, would break the bound."""
    model, state = _grid_256(PgnnConfig(tv_alpha1=1e-3, tv_alpha2=1e-3))
    stage = ObjectStage(model, state)
    grid = np.empty(model.high_shape).nbytes
    model.step(state, 0, stage)
    for n in range(1, 2 * TV_REFRESH + 1):
        tracemalloc.start()
        try:
            model.step(state, n, stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = 11 if n % TV_REFRESH == 0 else 4
        assert peak < grids * grid + grid // 8, f"step {n}"
    assert stage.steps == 2 * TV_REFRESH + 1


def test_object_step_without_tv_allocates_no_full_grid():
    """Without TV the object step hands Adam the data gradient on its window
    alone: no full-grid gradient exists, and Adam's temporaries are the size
    of the packed box, so what a step allocates is a few window-sized arrays."""
    model, state = _grid_256(PgnnConfig())
    stage = ObjectStage(model, state)
    model.step(state, 0, stage)
    tracemalloc.start()
    try:
        for n in range(len(model.windows)):
            model.step(state, n, stage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.empty(model.high_shape).nbytes // 8


def test_total_loss_without_tv_allocates_no_spectrum_grid():
    """With TV off the penalty is 0.0 and no grid: what total_loss allocates
    is capture-sized, far under one spectrum grid."""
    model, state = _grid_256(PgnnConfig())
    tracemalloc.start()
    try:
        model.total_loss(state, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.object_spectrum.nbytes


def _object_size(obj) -> int:
    """Bytes of a nest of lists and tuples of small objects, as allocated."""
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(map(_object_size, obj))
    return sys.getsizeof(obj)


def test_opening_an_object_stage_without_tv_allocates_no_adam_scratch():
    """Without TV the live box is found with no grid-sized temporary: opening
    the stage allocates its packed spectrum, m and v, the pupil and its
    weight on the reach, the blocks and a few small objects (measured 1.7 KB),
    and no other box- or grid-sized array (m and v are 9,248 B on this 17x17
    box)."""
    model, state = _grid_256(PgnnConfig())
    tracemalloc.start()
    try:
        stage = ObjectStage(model, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.moments is not state.moments["object"]
    arrays = (stage.spectrum, stage.moments.m, stage.moments.v, stage.pupil, stage.weight)
    assert peak < sum(a.nbytes for a in arrays) + _object_size(stage.blocks) + 4096


@pytest.mark.parametrize("modes", [9, None], ids=["zernike", "free_pupil"])
def test_opening_a_pupil_stage_allocates_no_adam_scratch(small_instance, modes):
    """Opening a pupil stage allocates its rates, the capture grid it scatters
    the pupil into, the frozen object's weight grid with the support's
    offsets, and a few small objects: no copy of the parameters or moments it
    steps and nothing per window."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(zernike_modes=modes))
    state = model.initial_state()
    tracemalloc.start()
    try:
        stage = PupilStage(model, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.params is state.pupil_params and stage.moments is state.moments["pupil"]
    arrays = [stage.lr, stage.pupil, stage.object_weight, stage.offsets]
    assert peak < sum(np.asarray(a).nbytes for a in arrays if a is not None) + 4096


# -- Adam ------------------------------------------------------------------

def test_adam_first_step_matches_hand_value():
    p = np.array([0.0])
    mom = Moments.like(p)
    adam_step(p, np.array([1.0]), mom, lr=0.01)
    assert p[0] == pytest.approx(-0.01 / (1 + 1e-8), rel=1e-12)
    assert mom.t == 1


def test_adam_zero_gradient_changes_nothing():
    p = np.array([1.5, -2.5])
    mom = Moments.like(p)
    adam_step(p, np.zeros(2), mom, lr=0.1)
    assert np.array_equal(p, np.array([1.5, -2.5]))


def test_adam_equal_gradients_give_equal_updates():
    p = np.array([1.0, 1.0])
    mom = Moments.like(p)
    adam_step(p, np.array([0.3, 0.3]), mom, lr=0.05)
    assert p[0] == p[1]
    assert p[0] != 1.0


def test_adam_validates_step_count_and_shapes():
    # a rejected step leaves the count where it was; each taken step adds one
    p = np.array([0.0])
    mom = Moments.like(p)
    with pytest.raises(DimensionMismatch):
        adam_step(p, np.array([1.0, 2.0]), mom, lr=0.1)
    assert mom.t == 0 and p[0] == 0.0
    for t in (1, 2, 3):
        adam_step(p, np.array([1.0]), mom, lr=0.1)
        assert mom.t == t


@pytest.mark.parametrize("lr_shape", [(5,), (6, 1), (1,)])
def test_adam_rejects_a_misshapen_rate_before_touching_the_state(lr_shape):
    """A rate that is neither a scalar nor one per parameter is refused before
    the step, as an array or as a list: the parameters, both moments, the
    count and the moments' scale keep their bits. A list of one rate per
    parameter is taken, with the bits of the array's step."""
    rng = np.random.Generator(np.random.PCG64(47))
    p = rng.standard_normal(6)
    mom = Moments.like(p)
    adam_step(p, rng.standard_normal(6), mom, lr=np.full(6, 0.1))
    before = [p.tobytes(), mom.m.tobytes(), mom.v.tobytes()]
    for lr in (np.full(lr_shape, 0.1), np.full(lr_shape, 0.1).tolist()):
        with pytest.raises(DimensionMismatch, match="shapes differ"):
            adam_step(p, rng.standard_normal(6), mom, lr=lr)
        assert [p.tobytes(), mom.m.tobytes(), mom.v.tobytes()] == before
        assert mom.t == mom.k == 1
    g, rates = rng.standard_normal(6), rng.random(6)
    stepped = []
    for lr in (rates, rates.tolist()):
        q, q_mom = p.copy(), Moments(mom.m.copy(), mom.v.copy(), mom.t, mom.k)
        adam_step(q, g, q_mom, lr=lr)
        assert q_mom.t == q_mom.k == 2
        stepped.append([q.tobytes(), q_mom.m.tobytes(), q_mom.v.tobytes()])
    assert stepped[0] == stepped[1] and stepped[0][0] != before[0]


# a block of the 8x6 grid, a box around it, and the block in box coordinates
_BLOCK = slice(3, 5), slice(1, 4)
_BOX = slice(2, 6), slice(1, 5)
_IN_BOX = slice(1, 3), slice(0, 3)


def _unpack(box_arrays, grid):
    """``grid`` with its ``_BOX`` replaced by each packed array in turn."""
    out = []
    for a in box_arrays:
        full = grid.copy()
        full[_BOX] = a
        out.append(full.tobytes())
    return out


def test_adam_rows_and_support_give_the_full_grid_step():
    """A step on packed copies of a box, with the gradient on the whole box
    or on its nonzero block as ``support`` (box coordinates), equals the
    allocating full-grid step when the gradient and the moments are zero off
    that block; a support that runs past the box is refused."""
    rng = np.random.Generator(np.random.PCG64(46))
    start = rng.standard_normal((8, 6))
    grads = []
    for _ in range(3):
        g = np.zeros((8, 6))
        g[_BLOCK] = rng.standard_normal((2, 3))
        grads.append(g)
    ref, ref_mom = start.copy(), Moments.like(start)
    for g in grads:
        _reference_adam(ref, g, ref_mom, 0.1, _block_mask(start.shape, _BLOCK))
    zeros = np.zeros_like(start)
    for use_support in (False, True):
        p, mom = start[_BOX].copy(), Moments.like(start[_BOX])
        for g in grads:
            if use_support:
                adam_step(p, g[_BLOCK].copy(), mom, 0.1, _IN_BOX)
            else:
                adam_step(p, g[_BOX].copy(), mom, 0.1)
        assert _unpack([p], start) == [ref.tobytes()]
        assert _unpack([mom.m, mom.v], zeros) == [ref_mom.m.tobytes(),
                                                  ref_mom.v.tobytes()]
    with pytest.raises(DimensionMismatch, match="shapes differ"):
        adam_step(p, grads[0][_BLOCK].copy(), mom, 0.1, (slice(3, 5), slice(0, 3)))


@pytest.mark.parametrize("t", [355, 356, 357])
def test_adam_step_across_the_rounded_bias_correction_is_the_allocating_step(t):
    """Step t = 356 is the first whose 1 - beta1**t is 1.0: on either side of
    it the folded bias corrections give whole-array and block steps the bits
    of the allocating full-grid step."""
    rng = np.random.Generator(np.random.PCG64(t))
    start = rng.standard_normal((8, 6))
    g, m0, v0 = np.zeros((3, 8, 6))
    g[_BLOCK], m0[_BLOCK] = rng.standard_normal((2, 2, 3))
    v0[_BLOCK] = rng.random((2, 3)) + 1e-3
    ref, ref_mom = start.copy(), Moments(m0.copy(), v0.copy(), t - 1)
    _reference_adam(ref, g, ref_mom, 0.1, _block_mask(start.shape, _BLOCK))
    p, mom = start.copy(), Moments(m0.copy(), v0.copy(), t - 1)
    adam_step(p, g, mom, 0.1)
    assert mom.t == t
    assert [p.tobytes(), mom.m.tobytes(), mom.v.tobytes()] == [
        ref.tobytes(), ref_mom.m.tobytes(), ref_mom.v.tobytes()]
    p, mom = start[_BOX].copy(), Moments(m0[_BOX].copy(), v0[_BOX].copy(), t - 1)
    adam_step(p, g[_BLOCK].copy(), mom, 0.1, _IN_BOX)
    assert mom.t == t
    assert _unpack([p], start) + _unpack([mom.m, mom.v], m0 * 0.0) == [
        ref.tobytes(), ref_mom.m.tobytes(), ref_mom.v.tobytes()]


def test_adam_rejects_strided_arrays_instead_of_losing_the_update():
    # ravel() of a strided view is a copy: the moments would advance while
    # the update landed in the copy and the parameter stayed at 1.0
    p = np.ones((4, 4))[:, ::2]
    mom = Moments.like(p)
    with pytest.raises(DimensionMismatch, match="contiguous"):
        adam_step(p, np.ones((4, 2)), mom, lr=0.1)
    assert np.all(p == 1.0) and np.all(mom.m == 0.0) and np.all(mom.v == 0.0)
    assert mom.t == mom.k == 0
    packed = np.ones((4, 2))
    with pytest.raises(DimensionMismatch, match="contiguous"):
        adam_step(packed, np.ones((4, 4))[:, ::2], mom := Moments.like(packed), lr=0.1)
    assert mom.t == mom.k == 0
    strided = Moments(m=np.zeros((4, 4))[:, ::2], v=np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch, match="contiguous"):
        adam_step(packed, np.ones((4, 2)), strided, lr=0.1)
    assert strided.t == strided.k == 0
    adam_step(packed, np.ones((4, 2)), Moments.like(packed), lr=0.1)
    assert np.all(packed < 1.0)


# -- stages and full runs --------------------------------------------------

def test_object_stage_freezes_pupil_parameters(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(epochs_per_stage=1))
    state = model.initial_state()
    pupil0 = state.pupil_params.copy()
    spec0 = state.object_spectrum.copy()
    model.run_stage(state, 1)
    assert np.array_equal(state.pupil_params, pupil0)
    assert not np.array_equal(state.object_spectrum, spec0)
    assert state.moments["pupil"].t == 0
    assert state.moments["object"].t == len(images)


def test_pupil_stage_freezes_object_spectrum(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(epochs_per_stage=1))
    state = model.initial_state()
    model.run_stage(state, 1)
    spec1 = state.object_spectrum.copy()
    steps1 = state.moments["object"].t
    model.run_stage(state, 2)
    assert np.array_equal(state.object_spectrum, spec1)
    assert state.moments["object"].t == steps1
    assert np.all(model.pupil(state)[~pupil_support(cfg)] == 0.0)


def test_free_pupil_stage_respects_the_support_mask(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(zernike_modes=None,
                                              epochs_per_stage=1))
    state = model.initial_state()
    assert state.zern_coeffs is None
    assert state.pupil_params.shape == (2 * np.count_nonzero(pupil_support(cfg)),)
    model.run_stage(state, 1)
    model.run_stage(state, 2)
    assert np.all(model.pupil(state)[~pupil_support(cfg)] == 0.0)


@pytest.mark.parametrize("modes", [9, None], ids=["zernike", "free_pupil"])
def test_a_pupil_stage_leaves_positive_zeros_and_zero_moments_off_the_support(
        small_instance, modes):
    """The pupil and its moments are stored on the support alone, and every
    stored entry is stepped: the capture-grid pupil is +0.0 off the support
    bit for bit, not -0.0, and no moment is held there."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(epochs_per_stage=1, zernike_modes=modes))
    state = model.initial_state()
    for stage in (1, 2, 3, 4):
        model.run_stage(state, stage)
    off = ~model.support
    assert model.pupil(state)[off].tobytes() == bytes(16 * np.count_nonzero(off))
    mom = state.moments["pupil"]
    assert mom.m.shape == mom.v.shape == state.pupil_params.shape
    assert np.all(mom.v > 0.0)


def _one_led_model(rows, cols, reference, seed):
    """A one-capture model on a rows x cols grid, the reference problem's optics
    or wider ones whose support (strictly inside the cutoff) and basis disk (rim
    kept) differ, and its initial state."""
    rng = np.random.Generator(np.random.PCG64(seed))
    optics = (dict(wavelength_um=0.532, na=0.1, camera_pixel_um=3.45) if reference
              else dict(wavelength_um=0.5, na=0.25, camera_pixel_um=2.0))
    cfg = OpticalConfig(magnification=2.0, low_rows=rows, low_cols=cols, upsample=2,
                        illuminations=(Illumination(0.0, 0.0),), **optics)
    model = PgnnModel([rng.random((rows, cols)) + 0.1], cfg, PgnnConfig())
    return model, model.initial_state(), rng


@settings(max_examples=60, deadline=None)
@example(8, 8, False, -4.0, 0)   # the disk keeps two rim bins the support drops
@example(32, 32, True, 1.0, 1)   # the reference problem's optics
@given(st.integers(3, 40), st.integers(3, 40), st.booleans(), st.floats(-4.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_pupil_stage_synthesises_the_model_pupil_on_its_support(
        rows, cols, reference, scale, seed):
    """The capture-grid pupil a pupil stage hands the forward model is
    ``PgnnModel.pupil(state)`` bit for bit, +0.0 off the support, at
    coefficients of 1e-4 to 10: both synthesise the phase over the support's
    columns alone (``PgnnModel.basis``). That product rounds the last bit
    differently from one over the whole grid: at each support pixel the two
    pupils differ by no more than amp * (2 * 9 * eps * sum_l |c_l Z_l| +
    4 * eps), the two nine-term products' forward error bound plus rounding in
    ``exp`` and the product (measured at most 0.097 of it in 3,000 draws; 1e-14
    of the largest magnitude is exceeded once the phase nears 100 rad)."""
    model, state, rng = _one_led_model(rows, cols, reference, seed)
    amp = rng.random((rows, cols)) + 0.5
    state.pupil_params[:model.index.size] = amp.reshape(-1)[model.index]
    state.zern_coeffs[...] = rng.standard_normal(model.basis.count) * 10.0 ** scale
    assert model.basis.grids.shape == (model.basis.count, model.index.size)
    assert model.basis.grids.flags.c_contiguous
    stage = PupilStage(model, state)
    stage.gradient(0)
    expected = model.pupil(state)
    assert stage.pupil.tobytes() == expected.tobytes()
    assert stage.pupil[~model.support].tobytes() == bytes(16 * np.count_nonzero(~model.support))
    full = zernike_basis(model.cfg, model.basis.count).pupil(amp, state.zern_coeffs)[0]
    terms = np.abs(state.zern_coeffs) @ np.abs(model.basis.grids)
    eps = np.finfo(np.float64).eps
    bound = amp[model.support] * (2 * 9 * eps * terms + 4 * eps)
    assert np.all(np.abs(stage.pupil[model.support] - full[model.support]) <= bound)


def test_pupil_stage_gathers_the_frozen_object_weight_of_every_window():
    """The object weight a pupil step takes at ``offsets + origins[n]`` from the
    stage's held grid is 2 * area * conj(window n of the spectrum) on the
    support, bit for bit, for every window of the reference problem (225) and
    of an odd grid (13x11 captures, 3x upsampling, 5x5 LEDs)."""
    rng = np.random.Generator(np.random.PCG64(29))
    steps = (-0.1, -0.05, 0.0, 0.05, 0.1)
    odd = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=13, low_cols=11, upsample=3,
                        illuminations=tuple(Illumination(x, y) for y in steps for x in steps))
    for cfg in (grid_config(), odd):
        images = [rng.random(cfg.low_shape) for _ in cfg.illuminations]
        model = PgnnModel(images, cfg, PgnnConfig())
        state = model.initial_state()
        state.object_spectrum[...] = (rng.standard_normal(model.high_shape)
                                      + 1j * rng.standard_normal(model.high_shape))
        stage = PupilStage(model, state)
        assert len(model.windows) == len(cfg.illuminations) and model.index.size > 10
        for n, win in enumerate(model.windows):
            expected = 2.0 * model.area_low * np.conj(state.object_spectrum[win])
            taken = stage.object_weight.take(stage.offsets + model.origins[n])
            assert taken.tobytes() == expected.reshape(-1)[model.index].tobytes(), n


def test_first_stage_lowers_the_dataset_loss(small_instance):
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    before = model.dataset_loss(state)
    model.run_stage(state, 1)
    assert model.dataset_loss(state) < before


def test_zero_stages_returns_the_initialization(small_instance):
    cfg, _, images = small_instance
    spatial, pupil, history, state = run_pgnn(images, cfg,
                                              PgnnConfig(stages=0))
    model = PgnnModel(images, cfg, PgnnConfig())
    fresh = model.initial_state()
    assert history == []
    assert np.array_equal(spatial, model.spatial_object(fresh))
    assert np.array_equal(pupil, model.pupil(fresh))
    assert all(mom.t == 0 for mom in state.moments.values())


def test_runs_are_bitwise_deterministic(small_instance):
    cfg, _, images = small_instance
    pcfg = PgnnConfig(stages=2, epochs_per_stage=1)
    a = run_pgnn(images, cfg, pcfg)
    b = run_pgnn(images, cfg, pcfg)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


# the overflowed state propagates non-finite values through the forward model
# before the loss check raises, so numpy warns along the way
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_learning_rate_raises_numerical_error(small_instance):
    cfg, _, images = small_instance
    pcfg = PgnnConfig(stages=1, epochs_per_stage=2, lr_object=1e160)
    with pytest.raises(NumericalError):
        run_pgnn(images, cfg, pcfg)


def test_nonfinite_loss_names_the_stage_epoch_and_image(small_instance):
    cfg, _, images = small_instance
    bad = [im.copy() for im in images]
    bad[7][3, 5] = np.nan
    with pytest.raises(NumericalError, match="stage 1 epoch 1 at image 7"):
        run_pgnn(bad, cfg, PgnnConfig(stages=2, epochs_per_stage=2))


def test_config_validation():
    with pytest.raises(ValueError):
        PgnnConfig(stages=-1)
    with pytest.raises(ValueError):
        PgnnConfig(tv_alpha1=-1e-3)
    # NaN passes a '< 0' check, and a NaN TV weight used to read as "TV off"
    for name in ("lr_object", "lr_pupil_amp", "lr_zern", "tv_alpha1",
                 "tv_alpha2"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                PgnnConfig(**{name: value})
    assert PgnnConfig(zernike_modes=None).zernike_modes is None
    assert PgnnConfig(zernike_modes=1).zernike_modes == 1
    for modes in (0, -3):
        with pytest.raises(ValueError, match="zernike_modes"):
            PgnnConfig(zernike_modes=modes)


def test_image_count_must_match_led_count(reference_cfg):
    with pytest.raises(DimensionMismatch):
        PgnnModel([np.ones((32, 32))] * 4, reference_cfg, PgnnConfig())


def test_a_misshapen_capture_is_named(small_instance):
    cfg, _, images = small_instance
    bad = list(images)
    bad[7] = np.ones((8, 8))
    with pytest.raises(DimensionMismatch, match=r"image 7 is \(8, 8\)"):
        PgnnModel(bad, cfg, PgnnConfig())


# -- stage caching is bitwise-neutral --------------------------------------

def _reference_adam(param, grad, mom, lr, hit=True):
    """The allocating Adam step through the same flat views, folding first
    where ``adam_step`` folds; ``hit`` masks the gradient's block, as in
    ``allocating_adam``."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    if b1 ** (mom.k + 1) < ADAM_FOLD_FLOOR:
        _reference_fold(mom)
    mom.t += 1
    mom.k += 1
    t = mom.t
    allocating_adam(param.ravel(), grad.ravel(), mom.m.ravel(), mom.v.ravel(),
                    lr, b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, ADAM_EPS, mom.k, np.ravel(hit))


def _reference_fold(mom):
    """``Moments.fold`` as whole-array expressions."""
    fold_moments(mom.m, mom.v, ADAM_BETA1, ADAM_BETA2, mom.k)
    mom.k = 0


def _block_mask(shape, block):
    """A boolean mask of ``shape``, True on ``block``."""
    hit = np.zeros(shape, dtype=bool)
    hit[block] = True
    return hit


def _reference_stage(model, state, stage_index):
    """run_stage holding nothing per stage but an object stage's TV penalty:
    every step recomputes the pupil and its phase factor, allocates a fresh
    gradient grid and takes the allocating Adam step on the whole object
    (without TV, the moments' gradient update on window n alone), or
    on the pupil (the support's amplitudes and the coefficients, each block its
    own step at its own rate). With
    TV an object step holds the value and gradient ``allocating_tv_eval`` gave
    at the stage's last refresh (steps 0, TV_REFRESH, 2 TV_REFRESH, ... across
    its epochs) and adds its data gradient onto a copy of that gradient on its
    window; other steps take ``total_loss`` and ``gradients``. The moments
    fold where ``adam_step`` folds them and as the stage ends. Like
    ``run_stage``, it raises NumericalError after the step of the first
    non-finite loss, folded."""
    pcfg = model.pcfg
    update_object = stage_index % 2 == 1
    if model.basis is None:   # re and im of each support entry
        blocks = [(..., pcfg.lr_pupil_amp)]
    else:
        blocks = [(slice(None, model.index.size), pcfg.lr_pupil_amp),
                  (slice(model.index.size, None), pcfg.lr_zern)]
    losses = []
    steps = 0
    mom = state.moments["object" if update_object else "pupil"]
    try:
        for _ in range(pcfg.epochs_per_stage):
            acc = 0.0
            for n in model.order:
                if update_object and model.tv:
                    if steps % TV_REFRESH == 0:
                        tv_value, tv_gradient = allocating_tv_eval(model, state)
                    steps += 1
                    fw = model.forward(state, n)
                    loss = fw.data_loss + tv_value
                    g_object = tv_gradient.copy()
                    g_object[model.windows[n]] += (2.0 * model.area_low
                                                   * np.conj(model.pupil(state))
                                                   * fw.residual)
                    g = {"object": g_object.view(np.float64)}
                else:
                    loss = model.total_loss(state, n)
                    g = model.gradients(state, n)
                if update_object:
                    # without TV the gradient's block is window n, on the float view
                    rs, cs = model.windows[n]
                    hit = model.tv or _block_mask(g["object"].shape,
                                                  (rs, slice(2 * cs.start, 2 * cs.stop)))
                    _reference_adam(state.object_spectrum.view(np.float64),
                                    g["object"], mom, pcfg.lr_object, hit)
                else:
                    # each block of the pupil's parameters (the support's, then a
                    # Zernike pupil's coefficients) as its own allocating step
                    # with its own scalar rate: that proves the per-entry rates
                    # bit-exact
                    if ADAM_BETA1 ** (mom.k + 1) < ADAM_FOLD_FLOOR:
                        _reference_fold(mom)
                    mom.t += 1
                    mom.k += 1
                    for block, lr in blocks:
                        allocating_adam(state.pupil_params[block], g["pupil"][block],
                                        mom.m[block], mom.v[block], lr, ADAM_BETA1,
                                        ADAM_BETA2, 1.0 - ADAM_BETA1 ** mom.t,
                                        1.0 - ADAM_BETA2 ** mom.t, ADAM_EPS, mom.k)
                if not np.isfinite(loss):
                    raise NumericalError(f"non-finite loss at image {n}")
                acc += loss
            losses.append(acc)
    finally:
        _reference_fold(mom)
    return losses


def _state_bytes(state):
    arrays = [state.object_spectrum, state.pupil_params]
    for name in sorted(state.moments):
        arrays += [state.moments[name].m, state.moments[name].v]
    return ([a.tobytes() for a in arrays],
            [(state.moments[name].t, state.moments[name].k) for name in sorted(state.moments)])


@pytest.mark.parametrize("pcfg", [
    PgnnConfig(epochs_per_stage=2),
    PgnnConfig(epochs_per_stage=2, zernike_modes=None),
    PgnnConfig(epochs_per_stage=2, tv_alpha1=1e-3, tv_alpha2=1e-3),
], ids=["zernike", "free_pupil", "tv"])
def test_run_stage_matches_a_loop_that_recomputes_every_step(small_instance,
                                                             pcfg):
    cfg, obj, _ = small_instance
    pupil = make_ctf(cfg) * np.exp(1j * defocus_phase(cfg, 20.0))
    images = simulate_dataset(GroundTruth(obj, pupil), cfg)
    model = PgnnModel(images, cfg, pcfg)
    fast, slow = model.initial_state(), model.initial_state()
    start = _state_bytes(fast)
    for stage in (1, 2, 3, 4):
        fast_losses = model.run_stage(fast, stage)
        slow_losses = _reference_stage(model, slow, stage)
        assert (np.array(fast_losses).tobytes()
                == np.array(slow_losses).tobytes()), f"stage {stage}"
        assert _state_bytes(fast) == _state_bytes(slow), f"stage {stage}"
    moved = _state_bytes(fast)[0]
    assert all(a != b for a, b in zip(moved, start[0]))


@pytest.mark.parametrize("pcfg", [
    PgnnConfig(epochs_per_stage=1),
    PgnnConfig(epochs_per_stage=1, zernike_modes=None),
    PgnnConfig(epochs_per_stage=1, tv_alpha1=1e-3, tv_alpha2=1e-3),
], ids=["zernike", "free_pupil", "tv"])
def test_run_stage_across_the_rounded_bias_correction_matches_the_loop(
        small_instance, pcfg):
    """With every step count preset to 350, both stages cross t = 356, from
    which 1 - beta1**t is 1.0: still bit for bit the recomputing, allocating
    loop."""
    cfg, obj, _ = small_instance
    pupil = make_ctf(cfg) * np.exp(1j * defocus_phase(cfg, 20.0))
    images = simulate_dataset(GroundTruth(obj, pupil), cfg)
    model = PgnnModel(images, cfg, pcfg)
    fast, slow = model.initial_state(), model.initial_state()
    for state in (fast, slow):
        for mom in state.moments.values():
            mom.t = 350
    for stage in (1, 2):
        fast_losses = model.run_stage(fast, stage)
        slow_losses = _reference_stage(model, slow, stage)
        assert (np.array(fast_losses).tobytes()
                == np.array(slow_losses).tobytes()), f"stage {stage}"
        assert _state_bytes(fast) == _state_bytes(slow), f"stage {stage}"
    assert all(mom.t == 350 + len(images) for mom in fast.moments.values())


# object Adam runs on a packed box without TV; the tests above check it
# against the full-grid allocating step only while the box is strict
def test_object_adam_rows_span_the_rows_the_data_reaches(small_instance):
    """The box spans the rows and columns the windows' reach covers; its
    arrays are packed copies. A pupil stage steps the state's own pupil: the
    support's amplitudes and the coefficients."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    stage = ObjectStage(model, state)
    assert stage.box == (slice(8, 25), slice(8, 25))
    assert stage.params.shape == (17, 34) and stage.params.flags.c_contiguous
    assert not any(np.shares_memory(array, state.object_spectrum)
                   for array in (stage.spectrum, stage.params))
    assert stage.moments is not state.moments["object"]
    stage = PupilStage(model, state)
    count = int(model.support.sum()) + model.basis.count
    assert stage.params is state.pupil_params and stage.params.shape == (count,)
    assert stage.moments is state.moments["pupil"]


def test_tv_object_adam_runs_on_every_row(small_instance):
    """With TV the box is the whole grid, and Adam steps the state's own
    spectrum and moments."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha2=1e-3))
    state = model.initial_state()
    stage = ObjectStage(model, state)
    assert stage.box == (slice(0, 32), slice(0, 32))
    assert stage.spectrum is state.object_spectrum
    assert np.shares_memory(stage.params, state.object_spectrum)
    assert stage.moments is state.moments["object"]


@pytest.mark.parametrize("widen", ["moments", "moments_column"])
def test_object_adam_rows_follow_the_held_pupil_and_the_moments(small_instance,
                                                                widen):
    """Moments left nonzero outside the rows or columns the data reaches
    widen the box: the step still equals the full-grid allocating one, bit
    for bit."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(epochs_per_stage=1,
                                              zernike_modes=None))
    fast, slow = model.initial_state(), model.initial_state()
    for state in (fast, slow):
        m, v = state.moments["object"].m, state.moments["object"].v
        if widen == "moments":
            m[1, 5] = 1e-3
            v[30, 2] = 1e-6
        else:
            # complex columns 2 and 30 of row 12, a row the data reaches
            m[12, 4] = 1e-3
            v[12, 61] = 1e-6
    rows, cols = ObjectStage(model, fast).box
    outside = np.ones(32, dtype=bool)
    outside[8:25] = False
    start = fast.object_spectrum.copy()
    model.run_stage(fast, 1)
    _reference_stage(model, slow, 1)
    assert _state_bytes(fast) == _state_bytes(slow)
    if widen.endswith("column"):
        assert rows == slice(8, 25)
        assert cols == slice(2, 31)
        assert not np.array_equal(fast.object_spectrum[:, outside],
                                  start[:, outside])
    else:
        assert rows.start < 8 and rows.stop == 31
        assert not np.array_equal(fast.object_spectrum[outside], start[outside])


@pytest.mark.parametrize("tv", [False, True], ids=["box", "tv"])
def test_a_stage_that_raises_leaves_the_state_of_the_step_loop(small_instance, tv):
    """An object stage that raises NumericalError partway through leaves in
    ``state`` what the full-grid step loop leaves at the same image: its box
    is written back, the failing step included, and its moments are folded
    back into textbook ones."""
    cfg, _, images = small_instance
    pcfg = PgnnConfig(epochs_per_stage=2, tv_alpha1=1e-3 if tv else 0.0)
    model = PgnnModel(images, cfg, pcfg)
    # a capture 1e160 times too bright: its data term overflows to inf, its
    # gradient stays finite (the second moment overflows)
    bad = model.order[4]
    model.amplitudes[bad] = model.amplitudes[bad] * 1e160
    fast, slow = model.initial_state(), model.initial_state()
    start = _state_bytes(fast)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match=f"object stage 1 epoch 1 at image {bad}"):
            model.run_stage(fast, 1)
        with pytest.raises(NumericalError):
            _reference_stage(model, slow, 1)
    assert fast.moments["object"].t == 5
    assert all(mom.k == 0 for mom in fast.moments.values())   # folded as it raised
    assert _state_bytes(fast) == _state_bytes(slow)
    assert _state_bytes(fast)[0][0] != start[0][0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_stage_past_the_fold_floor_folds_and_matches_the_step_loop():
    """A stage of 700 steps on a tiny problem (two LEDs, 4x4 captures) passes
    k = 656, where beta1**k first falls below ADAM_FOLD_FLOOR: each group's
    moments fold there and as the stage closes, finite and without a
    RuntimeWarning, bit for bit as the recomputing, allocating loop folds."""
    assert ADAM_BETA1 ** 655 >= ADAM_FOLD_FLOOR > ADAM_BETA1 ** 656
    rng = np.random.Generator(np.random.PCG64(5))
    leds = (Illumination(-0.12, 0.0), Illumination(0.12, 0.0))
    cfg = OpticalConfig(wavelength_um=0.5, na=0.25, magnification=2.0, camera_pixel_um=2.0,
                        low_rows=4, low_cols=4, upsample=2, illuminations=leds)
    model = PgnnModel([rng.random((4, 4)) + 0.1 for _ in leds], cfg,
                      PgnnConfig(epochs_per_stage=350))
    fast, slow = model.initial_state(), model.initial_state()
    for stage, group in ((1, "object"), (2, "pupil")):
        fast_losses = model.run_stage(fast, stage)
        slow_losses = _reference_stage(model, slow, stage)
        assert np.array(fast_losses).tobytes() == np.array(slow_losses).tobytes()
        assert _state_bytes(fast) == _state_bytes(slow)
        mom = fast.moments[group]
        assert mom.t == 700 and mom.k == 0
        assert np.isfinite(mom.m).all() and np.isfinite(mom.v).all()


# -- end-to-end behavior on the reference problem --------------------------

def test_infocus_run_collapses_the_loss(pgnn_infocus):
    _, _, history, _ = pgnn_infocus
    assert len(history) == 50
    assert history[-1] <= 1e-3 * history[0]


def test_first_stage_epochs_descend_at_reference_scale(pgnn_infocus):
    _, _, history, _ = pgnn_infocus
    assert history[4] < history[0]


def test_zernike_pupil_beats_free_pupil_on_aberrated_data(
        pgnn_defocus_zern, pgnn_defocus_nozern):
    assert pgnn_defocus_zern[2][-1] < pgnn_defocus_nozern[2][-1]


def test_recovered_defocus_coefficient_dominates_non_gauge_modes(
        pgnn_defocus_zern):
    coeffs = pgnn_defocus_zern[3].zern_coeffs
    # piston and the two tilts are gauge freedoms; among the rest the
    # defocus coefficient must carry the aberration
    non_gauge = np.abs(coeffs[3:])
    assert non_gauge[0] == np.max(non_gauge)
    assert non_gauge[0] > 10 * np.max(non_gauge[1:])
