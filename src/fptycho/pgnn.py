"""Gradient-descent reconstruction with alternating object/pupil stages.

The learnable parameters are the DC-centered object spectrum as two real
channels, and the pupil either as amplitude-plus-Zernike-phase (zernike_modes
set) or as free complex entries (zernike_modes None), stored on the pupil's
support alone: nothing off the coherent passband is learned. The stored spectrum is
mean-normalized (the DC bin equals the spatial mean of the object), so
parameter magnitudes stay O(1) regardless of grid size and one learning rate
serves every dataset; the forward model reapplies the window pixel count when
forming field spectra.
Each image step forms the modeled window spectrum, builds the
amplitude-replaced target with the phase of the current model (the target is
a constant of the step: no gradient flows through it), and takes one Adam
step on the active parameter group against

    |target - model|^2 summed over the window
    + tv_alpha1 * TV(amplitude of the spatial object)
    + tv_alpha2 * TV(wrapped phase of the spatial object).

Stages alternate: odd stages (1-based) update the object, even stages the
pupil. An ``ObjectStage`` or ``PupilStage`` holds what the frozen group fixes
for the whole stage (the data-gradient weight of the frozen pupil or object);
an object stage also holds a packed copy of the object's live box, which its
``close`` writes back, while a pupil stage steps the state's packed pupil
itself, on the support alone: the Zernike modes are held there
(``PgnnModel.basis``). Either ``close`` folds Adam's scaled ``Moments``.
``run_stage`` opens one, sweeps ``step`` over the images and closes it.
``gradients`` and ``total_loss`` hold nothing.

All gradients are true real-parameter gradients (for a complex array they are
d/dRe + i*d/dIm), verified against central finite differences of the
frozen-target loss; see tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .epie import (ap_project, initial_object_spectrum, measured_amplitudes,
                   spectral_misfit, sweep, traversal_order)
from .errors import DimensionMismatch
from .field import dft2, center_shift, idft2, inverse_center_shift, window, wrap_phase
from .optics import (OpticalConfig, ZernikeBasis, illumination_offsets,
                     pupil_support, zernike_basis)

AMP_FLOOR = 1e-12  # guards divisions by |object| in the TV chain
TV_REFRESH = 4  # object steps per TV evaluation; the held penalty serves the rest

# Adam decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Moments fold once beta1**k would fall below this (k = 656): the scaled first
# moment then stays below 1e30 times a gradient, finite wherever g * g is
ADAM_FOLD_FLOOR = 1e-30


@dataclass(frozen=True)
class PgnnConfig:
    stages: int = 10
    epochs_per_stage: int = 5
    # measured on the test suite's reference problem defocused by 50 um: the
    # default 10 stages stop short of convergence (passband amplitude error
    # 0.114, dataset loss 1.68e3), 20 stages reach 0.014 / 229 and 30 no
    # lower (0.014 / 252). The loss then stays near a floor that grows about
    # 4x when all three rates double (0.024 / 1.03e3 after 30 stages; half
    # the rates: 0.018 / 64, still falling)
    lr_object: float = 1.8e-5
    lr_pupil_amp: float = 1e-5
    lr_zern: float = 1e-3
    tv_alpha1: float = 0.0
    tv_alpha2: float = 0.0
    zernike_modes: int | None = 9   # None: a free complex pupil

    def __post_init__(self):
        if self.stages < 0 or self.epochs_per_stage < 0:
            raise ValueError("stages and epochs_per_stage must be >= 0")
        # NaN would pass the '< 0' checks below
        for name in ("lr_object", "lr_pupil_amp", "lr_zern",
                     "tv_alpha1", "tv_alpha2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tv_alpha1 < 0 or self.tv_alpha2 < 0:
            raise ValueError("TV weights must be >= 0")
        if self.zernike_modes is not None and self.zernike_modes < 1:
            raise ValueError("zernike_modes must be >= 1, or None for a free pupil")


@dataclass
class Moments:
    """Adam state of one parameter array over its float view: the first moment
    ``m``, ``v``, which holds the root of the second moment, and the count ``t``
    of steps taken. Within a stage both are divided by the decay of the ``k``
    steps since they were last textbook (``kernels.adam_update``), which ``fold``
    multiplies back in; a stage folds as it closes."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    k: int = 0

    @classmethod
    def like(cls, view: np.ndarray) -> "Moments":
        return cls(m=np.zeros_like(view), v=np.zeros_like(view))

    def fold(self) -> None:
        """Make ``m`` and ``v`` textbook moments again (k = 0)."""
        if self.k:
            self.m *= ADAM_BETA1 ** self.k
            self.v *= math.sqrt(ADAM_BETA2 ** self.k)
            self.k = 0


@dataclass
class PgnnState:
    object_spectrum: np.ndarray   # complex128 (high), centered, mean-normalized
    # float64, the pupil on its support (PgnnModel.index): a Zernike pupil's
    # amplitudes then its zernike_modes coefficients, or a free pupil's re/im interleaved
    pupil_params: np.ndarray
    zernike_modes: int | None = None
    moments: dict[str, Moments] = field(default_factory=dict)

    @property
    def zern_coeffs(self) -> np.ndarray | None:
        """The Zernike coefficients, a view of the tail of ``pupil_params``."""
        if self.zernike_modes is None:
            return None
        return self.pupil_params[self.pupil_params.size - self.zernike_modes:]


class ForwardResult(NamedTuple):
    residual: np.ndarray    # modeled minus amplitude-replaced window spectrum
    target: np.ndarray      # amplitude-replaced spectrum; constant per step
    data_loss: float


class PgnnModel:
    """Bundles the dataset, optics, config, and precomputed geometry."""

    def __init__(self, images: list[np.ndarray], cfg: OpticalConfig,
                 pcfg: PgnnConfig = PgnnConfig()):
        self.amplitudes = measured_amplitudes(images, cfg)
        self.cfg = cfg
        self.pcfg = pcfg
        self.support = pupil_support(cfg)
        self.index = np.flatnonzero(self.support)   # the support's flat capture-grid indices
        self.basis: ZernikeBasis | None = None   # the modes on the support: (count, index.size)
        if pcfg.zernike_modes is not None:
            full = zernike_basis(cfg, pcfg.zernike_modes)
            self.basis = ZernikeBasis(np.ascontiguousarray(full.grids[:, self.support]),
                                      full.disk[self.support])
        self.high_shape = (cfg.high_rows, cfg.high_cols)
        # the object-spectrum window each image addresses, and its first entry's flat index
        self.windows = [window(self.high_shape, off, cfg.low_rows, cfg.low_cols)
                        for off in illumination_offsets(cfg)]
        self.origins = [rs.start * cfg.high_cols + cs.start for rs, cs in self.windows]
        # field spectra are low_area * window * pupil; keeping the stored
        # spectrum divided by this puts every parameter on an O(1) scale
        self.area_low = cfg.low_rows * cfg.low_cols
        self.order = traversal_order(cfg)
        self.tv = pcfg.tv_alpha1 > 0.0 or pcfg.tv_alpha2 > 0.0

    # -- state ------------------------------------------------------------

    def initial_state(self) -> PgnnState:
        """Same starting point as the AP baseline: up-sampled sqrt of the
        most-axial capture with zero phase, binary CTF pupil (1 on the support)."""
        spectrum = initial_object_spectrum(self.amplitudes, self.cfg) / self.area_low
        if self.basis is None:
            params = np.ones(self.index.size, dtype=np.complex128).view(np.float64)
        else:
            params = np.append(np.ones(self.index.size), np.zeros(self.basis.count))
        return PgnnState(spectrum, params, self.pcfg.zernike_modes,
                         {"object": Moments.like(spectrum.view(np.float64)),
                          "pupil": Moments.like(params)})

    def pupil(self, state: PgnnState) -> np.ndarray:
        """The capture-grid pupil: ``state.pupil_params`` scattered onto the
        support, +0.0 off it; a Zernike pupil is synthesised on the support alone."""
        pupil = np.zeros(self.cfg.low_shape, dtype=np.complex128)
        params = state.pupil_params
        pupil.reshape(-1)[self.index] = (
            params.view(np.complex128) if self.basis is None
            else self.basis.pupil(params[:self.index.size], state.zern_coeffs)[0])
        return pupil

    # -- forward and loss --------------------------------------------------

    def predicted_spectrum(self, state: PgnnState, n: int,
                           pupil: np.ndarray | None = None) -> np.ndarray:
        """Modeled window spectrum for image n (centered layout), formed on a
        packed copy of the window: numpy's loops on a strided view take longer."""
        if pupil is None:
            pupil = self.pupil(state)
        spectrum = state.object_spectrum[self.windows[n]].copy()
        np.multiply(self.area_low, spectrum, out=spectrum)
        return np.multiply(spectrum, pupil, out=spectrum)

    def forward(self, state: PgnnState, n: int,
                pupil: np.ndarray | None = None) -> ForwardResult:
        predicted = self.predicted_spectrum(state, n, pupil)
        target = ap_project(predicted, self.amplitudes[n])[0]
        residual = predicted - target
        return ForwardResult(residual, target, float(np.vdot(residual, residual).real))

    def spatial_object(self, state: PgnnState) -> np.ndarray:
        """Physical-units high-res object from the mean-normalized state."""
        rows, cols = self.high_shape
        spatial = idft2(inverse_center_shift(state.object_spectrum))
        spatial *= rows * cols
        return spatial

    def tv_penalty(self, state: PgnnState) -> tuple[float, np.ndarray]:
        """TV penalty and its object-spectrum gradient (with TV off, 0.0 and a
        read-only zero grid that allocates nothing). Each TV image is one
        ``kernels.tv_grad`` pass, which also gives its value. With
        u = z / max(|z|, AMP_FLOOR) (multiplied by the reciprocal: the
        quotient's bits bar the sign of a zero part, see field.phase_unit),
        the spatial gradient is one complex product,
        u * (alpha1 * grad_amp + 1j * alpha2 * grad_phase / max(|z|, AMP_FLOOR))."""
        if not self.tv:
            return 0.0, np.broadcast_to(np.complex128(0.0), self.high_shape)
        pcfg = self.pcfg
        spatial = self.spatial_object(state)
        weight = np.empty(self.high_shape, dtype=np.complex128)
        value, held = 0.0, np.empty(1)
        inv = np.abs(spatial)   # the amplitude, until its reciprocal replaces it
        if pcfg.tv_alpha1 > 0.0:
            np.multiply(kernels.tv_grad(inv, held), pcfg.tv_alpha1, out=weight.real)
            value += pcfg.tv_alpha1 * float(held[0])
        else:
            weight.real = 0.0
        np.maximum(inv, AMP_FLOOR, out=inv)
        np.divide(1.0, inv, out=inv)
        if pcfg.tv_alpha2 > 0.0:
            grad = kernels.tv_grad(wrap_phase(np.angle(spatial)), held)
            value += pcfg.tv_alpha2 * float(held[0])
            grad *= pcfg.tv_alpha2
            np.multiply(grad, inv, out=weight.imag)
        else:
            weight.imag = 0.0
        spatial *= inv
        # u on the left: numpy's complex product can round a * b and b * a differently
        np.multiply(spatial, weight, out=weight)
        # adjoint of the mean-normalized synthesis (idft2 * pixel count):
        # the 1/N of idft2 cancels, leaving the plain forward transform
        return value, center_shift(dft2(weight))

    def tv_value(self, state: PgnnState) -> float:
        """The TV penalty alone, ``tv_penalty(state)[0]``'s bits (0.0 with TV off)."""
        if not self.tv:
            return 0.0
        pcfg = self.pcfg
        spatial = self.spatial_object(state)
        value = 0.0
        if pcfg.tv_alpha1 > 0.0:
            value += pcfg.tv_alpha1 * kernels.tv_value(np.abs(spatial))
        if pcfg.tv_alpha2 > 0.0:
            value += pcfg.tv_alpha2 * kernels.tv_value(wrap_phase(np.angle(spatial)))
        return value

    def total_loss(self, state: PgnnState, n: int) -> float:
        return self.forward(state, n).data_loss + self.tv_value(state)

    def dataset_loss(self, state: PgnnState) -> float:
        """Frozen-state total loss accumulated over every image."""
        data = spectral_misfit(self.area_low * state.object_spectrum,
                               self.pupil(state), self.amplitudes, self.cfg)
        return data + len(self.amplitudes) * self.tv_value(state)

    # -- gradients and optimization ----------------------------------------

    def gradients(self, state: PgnnState, n: int) -> dict[str, np.ndarray]:
        """Real-parameter gradients of total_loss at image n, as float64
        arrays keyed like ``state.moments``. The object gradient covers the
        full grid: the TV gradient (or zeros) plus the data term's
        2 * area * conj(pupil) * residual on the window. The pupil gradient is
        a pupil stage's, laid out like ``state.pupil_params``.

        The amplitude-replaced target is treated as a constant (matching the
        loss the solver actually descends); finite differences of that
        frozen-target loss are the reference the tests check against.
        """
        pupil = self.pupil(state)
        g_object = self.tv_penalty(state)[1].copy()
        g_object[self.windows[n]] += (2.0 * self.area_low * np.conj(pupil)
                                      * self.forward(state, n, pupil).residual)
        return {"object": g_object.view(np.float64),
                "pupil": PupilStage(self, state).gradient(n)[0]}

    def step(self, state: PgnnState, n: int, stage: ObjectStage | PupilStage) -> float:
        """One per-image Adam step on the group ``stage`` updates; returns the
        data term before the update plus the stage's held TV penalty."""
        grad, support, loss = stage.gradient(n)
        adam_step(stage.params, grad, stage.moments, stage.lr, support)
        return loss + stage.tv_value

    def run_stage(self, state: PgnnState, stage_index: int) -> list[float]:
        """One stage (1-based index): odd updates the object, even the pupil.
        Returns the per-epoch accumulated pre-update losses of ``step``; the first
        non-finite loss raises NumericalError naming the group, stage, epoch
        and image. The stage closes as it returns or raises, so ``state`` is current."""
        group = "object" if stage_index % 2 == 1 else "pupil"
        stage = (ObjectStage if group == "object" else PupilStage)(self, state)
        try:
            return [sweep(self.order, lambda n: self.step(state, n, stage),
                          f"{group} stage {stage_index} epoch {epoch}")
                    for epoch in range(1, self.pcfg.epochs_per_stage + 1)]
        finally:
            stage.close()

    def run(self) -> tuple[np.ndarray, np.ndarray, list[float], PgnnState]:
        state = self.initial_state()
        history = []
        for stage in range(1, self.pcfg.stages + 1):
            history.extend(self.run_stage(state, stage))
        return self.spatial_object(state), self.pupil(state), history, state


def run_pgnn(images: list[np.ndarray], cfg: OpticalConfig,
             pcfg: PgnnConfig = PgnnConfig()):
    """Convenience wrapper; returns (spatial object, pupil, loss history, state)."""
    return PgnnModel(images, cfg, pcfg).run()


class ObjectStage:
    """An object stage, the pupil frozen. It holds the ``pupil``, the spans ``reach``
    of its nonzero rows and columns (within the support's, where the pupil is stored),
    its data-gradient ``weight`` 2 * area * conj(pupil) packed on the reach, and the
    ``box`` Adam runs on: the rows and columns a reach covers through any window or a
    nonzero moment holds (with TV, the grid). Off the box Adam's scaled moments are never
    written, so +0.0 moments and the parameters keep their bits (and no step makes a
    -0.0 moment or root; see ``kernels.adam_update``). Unless the box is the grid,
    ``spectrum`` (whose float view is ``params``) and ``moments`` are packed copies of
    it, which ``close`` folds and writes back; ``blocks`` holds per window its part in
    the box and gradient support in ``params``. With TV the stage evaluates the
    penalty and its dense gradient every ``TV_REFRESH`` of its ``steps`` and holds
    them (``tv_value``, ``tv_gradient``) in between (lazy regularization, Karras et
    al., CVPR 2020); each step adds its data gradient onto the held one in ``grad``
    on its block, which the next step restores (``last``)."""

    def __init__(self, model: PgnnModel, state: PgnnState):
        self.model, self.state = model, state
        self.pupil = pupil = model.pupil(state)
        reached = np.any(pupil, axis=1), np.any(pupil, axis=0)
        mom = state.moments["object"]
        # rows and columns holding nonzero moment bits (-0.0 too), with no grid-sized temporary
        bits = [a.view(np.uint64).reshape(*model.high_shape, 2) for a in (mom.m, mom.v)]
        live = [np.any(bits[0], axis=axes) | np.any(bits[1], axis=axes) | model.tv
                for axes in ((1, 2), (0, 2))]
        for axis in (0, 1):
            for start in {win[axis].start for win in model.windows}:
                live[axis][start:start + reached[axis].size] |= reached[axis]
        self.box, self.reach = tuple(map(_span, live)), tuple(map(_span, reached))
        self.weight = 2.0 * model.area_low * np.conj(pupil[self.reach])
        (br, bc), (rr, rc) = self.box, self.reach
        self.fbox = br, slice(2 * bc.start, 2 * bc.stop)   # on the float view
        self.spectrum, self.moments = state.object_spectrum, mom
        if self.spectrum[self.box].shape != model.high_shape:
            self.spectrum = self.spectrum[self.box].copy()
            self.moments = Moments(mom.m[self.fbox].copy(), mom.v[self.fbox].copy(), mom.t)
        self.params, self.lr = self.spectrum.view(np.float64), model.pcfg.lr_object
        self.blocks = []
        for rs, cs in model.windows:
            r, c = rs.start - br.start, 2 * (cs.start - bc.start)   # the window's origin
            hit = slice(r + rr.start, r + rr.stop), slice(c + 2 * rc.start, c + 2 * rc.stop)
            self.blocks.append(((_within(rs, br), _within(cs, bc)), hit))
        self.tv_value = 0.0
        if model.tv:   # step 0 refreshes the held penalty
            self.steps, self.tv_gradient, self.last = 0, None, ...
            self.grad = np.empty(model.high_shape, dtype=np.complex128).view(np.float64)

    def gradient(self, n: int) -> tuple[np.ndarray, object, float]:
        """Image n's object gradient as float64, its ``support`` in ``params`` and the
        data term, taken on the reach alone (off it, it is +-0.0, which Adam may skip)
        once window n's part of a packed box is copied into the state for ``forward``;
        with TV, added onto the held TV gradient in ``grad``, which holds it bar the
        last step's block: a refresh copies it whole, other steps that block."""
        model, state = self.model, self.state
        part, support = self.blocks[n]
        if self.spectrum is not state.object_spectrum:
            state.object_spectrum[self.box][part] = self.spectrum[part]
        fw = model.forward(state, n, self.pupil)
        data = (self.weight * fw.residual[self.reach]).view(np.float64)
        if not model.tv:
            return data, support, fw.data_loss
        if self.steps % TV_REFRESH == 0:   # the box is the grid
            self.tv_value, self.tv_gradient = model.tv_penalty(state)
            self.last = ...   # restore all of it
        self.grad[self.last] = self.tv_gradient.view(np.float64)[self.last]
        self.steps, self.last = self.steps + 1, support
        self.grad[support] += data
        return self.grad, ..., fw.data_loss

    def close(self) -> None:
        """Fold the moments, and write a packed box (spectrum, moments and step count)
        back into the state."""
        self.moments.fold()
        if self.moments is not (mom := self.state.moments["object"]):
            self.state.object_spectrum[self.box] = self.spectrum
            mom.m[self.fbox], mom.v[self.fbox], mom.t = (self.moments.m, self.moments.v,
                                                         self.moments.t)


class PupilStage:
    """A pupil stage, the object frozen: Adam on ``state.pupil_params`` itself (a
    Zernike pupil's rate per entry in ``lr``: ``lr_pupil_amp`` on the amplitudes,
    ``lr_zern`` on the coefficients; Adam is elementwise, so the bits of separate
    steps). It holds the frozen object's data-gradient weight 2 * area *
    conj(spectrum) as a flat grid (``object_weight``), of which a step takes the
    support's entries in window n at ``offsets`` + ``model.origins[n]``; the TV
    penalty's value (``PgnnModel.tv_value``; no pupil step needs its gradient); and
    the capture grid ``pupil`` that ``gradient`` scatters the pupil into for
    ``forward``, zero off the support. ``close`` folds the moments."""

    def __init__(self, model: PgnnModel, state: PgnnState):
        self.model, self.state = model, state
        self.params, self.moments = state.pupil_params, state.moments["pupil"]
        pcfg = model.pcfg
        self.lr = (pcfg.lr_pupil_amp if model.basis is None
                   else np.repeat([pcfg.lr_pupil_amp, pcfg.lr_zern],
                                  [model.index.size, model.basis.count]))
        self.pupil = np.zeros(model.cfg.low_shape, dtype=np.complex128)
        index, (_, cols) = model.index, model.cfg.low_shape
        self.offsets = index + index // cols * (model.high_shape[1] - cols)
        self.object_weight = np.conj(state.object_spectrum).reshape(-1)
        np.multiply(2.0 * model.area_low, self.object_weight, out=self.object_weight)
        self.tv_value = model.tv_value(state)

    def gradient(self, n: int) -> tuple[np.ndarray, object, float]:
        """Image n's pupil gradient, laid out like ``params``, and the data term, all
        on the support: a Zernike pupil is synthesised there (``ZernikeBasis.pupil``,
        as ``PgnnModel.pupil`` does) and its coefficient weight projected there."""
        model, index = self.model, self.model.index
        if model.basis is None:
            pupil = self.params.view(np.complex128)
        else:
            pupil, phase_factor = model.basis.pupil(self.params[:index.size],
                                                    self.params[index.size:])
        self.pupil.reshape(-1)[index] = pupil
        fw = model.forward(self.state, n, self.pupil)
        g_pupil = (self.object_weight.take(self.offsets + model.origins[n])
                   * fw.residual.reshape(-1)[index])
        if model.basis is None:
            return g_pupil.view(np.float64), ..., fw.data_loss
        return (np.concatenate(((np.conj(phase_factor) * g_pupil).real,
                                kernels.project_modes(model.basis.grids,
                                                      (g_pupil * np.conj(pupil)).imag))),
                ..., fw.data_loss)

    def close(self) -> None:
        """Fold the moments; Adam steps the state's own arrays, so nothing is written back."""
        self.moments.fold()


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of ``mask``."""
    hit = np.flatnonzero(mask)
    return slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0)


def _within(span: slice, box: slice) -> slice:
    """The part of ``span`` inside ``box``, in box coordinates."""
    lo = max(span.start, box.start) - box.start
    return slice(lo, max(lo, min(span.stop, box.stop) - box.start))


def adam_step(param_view: np.ndarray, grad_view: np.ndarray, moments: Moments,
              lr: float | np.ndarray, support=...) -> None:
    """Bias-corrected Adam step, in place, on C-contiguous float64 arrays.

    ``grad_view`` is the gradient on ``param_view[support]``, zero elsewhere:
    all of ``param_view`` by default, or a (row slice, column slice) block.
    Complex parameters participate as their float views (two real scalars per
    element). ``lr`` is a scalar or a rate per entry of ``param_view``. The
    step advances ``moments.t``, the count the bias corrections use, and
    ``moments.k``, the steps the scaled moments hold, folding them first if
    beta1**k would drop below ADAM_FOLD_FLOOR; a rejected step changes nothing.
    """
    if not isinstance(lr, (float, np.ndarray)):
        lr = np.asarray(lr, dtype=np.float64)   # a list of rates, say
    if not (param_view.shape == moments.m.shape == moments.v.shape
            and grad_view.shape == param_view[support].shape
            and (isinstance(lr, float) or lr.shape in ((), param_view.shape))):
        raise DimensionMismatch("param/grad/moment/rate shapes differ")
    # packed arrays only: on a strided view every ufunc would leave numpy's packed loops
    if not (param_view.flags.c_contiguous and grad_view.flags.c_contiguous
            and moments.m.flags.c_contiguous and moments.v.flags.c_contiguous):
        raise DimensionMismatch("param/grad/moment arrays must be C-contiguous")
    if ADAM_BETA1 ** (moments.k + 1) < ADAM_FOLD_FLOOR:
        moments.fold()
    moments.t += 1
    moments.k += 1
    kernels.adam_update(param_view, grad_view, moments.m, moments.v, support, lr,
                        ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1 ** moments.t,
                        1.0 - ADAM_BETA2 ** moments.t, ADAM_EPS, moments.k)
