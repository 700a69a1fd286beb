"""Gradient-descent reconstruction with alternating object/pupil stages.

The learnable parameters are the DC-centered object spectrum as two real
channels, and the pupil either as amplitude-plus-Zernike-phase (zernike_modes
set) or as a free complex grid (zernike_modes None). The stored spectrum is
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
pupil; ``param_group`` names the one array each updates. Frozen groups keep
parameters and Adam state bit-identical through the stage, so
``stage_constants`` computes what depends only on them once when the stage
starts, and ``run_stage`` passes it to every ``step``: the pupil and the box of
the spectrum Adam runs on for an object stage, the TV penalty for a pupil stage.
Without TV that box is a packed copy, and a step hands Adam only the data
gradient on the part of its window the pupil reaches. With TV an object
stage holds the penalty and its dense gradient across ``TV_REFRESH`` steps (lazy
regularization, Karras et al., CVPR 2020); ``gradients`` and ``total_loss`` do not.

All gradients are true real-parameter gradients (for a complex array they are
d/dRe + i*d/dIm), verified against central finite differences of the
frozen-target loss; see tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .epie import (ap_project, initial_object_spectrum, measured_amplitudes,
                   spectral_misfit, sweep, traversal_order)
from .errors import DimensionMismatch
from .field import (dft2, center_shift, idft2, inverse_center_shift,
                    window, wrap_phase)
from .optics import (OpticalConfig, ZernikeBasis, illumination_offsets,
                     make_ctf, pupil_support, zernike_basis)

AMP_FLOOR = 1e-12  # guards divisions by |object| in the TV chain
TV_REFRESH = 4  # object steps per TV evaluation; the held penalty serves the rest

# Adam decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """Adam state of one parameter array: first/second moments over its float
    view and the count ``t`` of steps taken, plus the (2, size) scratch that
    ``kernels.adam_update`` works in."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, self.m.size))

    @classmethod
    def like(cls, view: np.ndarray) -> "Moments":
        return cls(m=np.zeros_like(view), v=np.zeros_like(view))


@dataclass
class PgnnState:
    object_spectrum: np.ndarray          # complex128 (high), centered, mean-normalized
    pupil_params: np.ndarray | None = None  # Zernike: amplitude (pupil_shape), coefficients
    pupil_shape: tuple[int, int] | None = None
    pupil_free: np.ndarray | None = None   # complex128 (low) otherwise
    moments: dict[str, Moments] = field(default_factory=dict)

    # views of pupil_params, its one stored copy, so a copied state stays whole
    @property
    def pupil_amp(self) -> np.ndarray | None:
        if self.pupil_params is None:
            return None
        area = math.prod(self.pupil_shape)
        return self.pupil_params[:area].reshape(self.pupil_shape)

    @property
    def zern_coeffs(self) -> np.ndarray | None:
        if self.pupil_params is None:
            return None
        return self.pupil_params[math.prod(self.pupil_shape):]


@dataclass(frozen=True)
class ForwardResult:
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
        self.basis: ZernikeBasis | None = (
            None if pcfg.zernike_modes is None
            else zernike_basis(cfg, pcfg.zernike_modes))
        self.high_shape = (cfg.high_rows, cfg.high_cols)
        # the object-spectrum window each image addresses
        self.windows = [window(self.high_shape, off, cfg.low_rows, cfg.low_cols)
                        for off in illumination_offsets(cfg)]
        # field spectra are low_area * window * pupil; keeping the stored
        # spectrum divided by this puts every parameter on an O(1) scale
        self.area_low = cfg.low_rows * cfg.low_cols
        self.order = traversal_order(cfg)
        self.lr_pupil = pcfg.lr_pupil_amp if self.basis is None else np.repeat(
            [pcfg.lr_pupil_amp, pcfg.lr_zern], [self.area_low, self.basis.count])
        self.tv = pcfg.tv_alpha1 > 0.0 or pcfg.tv_alpha2 > 0.0
        # the dense object-spectrum gradient of a TV step (see
        # _object_gradient), and the scratch grids of tv_penalty: with them a
        # dense object step allocates no full-grid temporaries, whose cost
        # would hang on the allocator
        if self.tv:
            self.g_object = np.empty(self.high_shape, dtype=np.complex128)
            self.tv_complex = np.empty((2, *self.high_shape), dtype=np.complex128)
            self.tv_real = np.empty((3 + kernels.TV_WORK_ROWS, *self.high_shape))

    # -- state ------------------------------------------------------------

    def initial_state(self) -> PgnnState:
        """Same starting point as the AP baseline: up-sampled sqrt of the
        most-axial capture with zero phase, binary CTF pupil."""
        spectrum = initial_object_spectrum(self.amplitudes, self.cfg) / self.area_low
        if self.basis is None:
            state = PgnnState(spectrum, pupil_free=make_ctf(self.cfg))
        else:
            params = np.append(make_ctf(self.cfg).real, np.zeros(self.basis.count))
            state = PgnnState(spectrum, pupil_params=params, pupil_shape=self.cfg.low_shape)
        state.moments = {key: Moments.like(view)
                         for key, view, _ in (self.param_group(state, True),
                                              self.param_group(state, False))}
        return state

    def param_group(self, state: PgnnState, update_object: bool) -> tuple:
        """(moment key, float64 view, learning rate) of the one array an object or
        pupil step updates, complex arrays viewed interleaved; a Zernike pupil's
        rate is per entry (Adam is elementwise: the bits of separate steps)."""
        if update_object:
            return "object", state.object_spectrum.view(np.float64), self.pcfg.lr_object
        if self.basis is None:
            return "pupil", state.pupil_free.view(np.float64), self.lr_pupil
        return "pupil", state.pupil_params, self.lr_pupil

    def pupil(self, state: PgnnState) -> np.ndarray:
        if self.basis is None:
            return state.pupil_free
        return self.basis.pupil(state.pupil_amp, state.zern_coeffs)[0]

    # -- forward and loss --------------------------------------------------

    def predicted_spectrum(self, state: PgnnState, n: int,
                           pupil: np.ndarray | None = None) -> np.ndarray:
        """Modeled window spectrum for image n (centered layout)."""
        if pupil is None:
            pupil = self.pupil(state)
        return self.area_low * state.object_spectrum[self.windows[n]] * pupil

    def forward(self, state: PgnnState, n: int,
                pupil: np.ndarray | None = None) -> ForwardResult:
        predicted = self.predicted_spectrum(state, n, pupil)
        target = ap_project(predicted, self.amplitudes[n])[0]
        residual = predicted - target
        return ForwardResult(residual=residual, target=target,
                             data_loss=float(np.vdot(residual, residual).real))

    def spatial_object(self, state: PgnnState, out: np.ndarray | None = None,
                       shifted: np.ndarray | None = None) -> np.ndarray:
        """Physical-units high-res object from the mean-normalized state;
        ``out`` and ``shifted`` are optional grids for it and for the
        inverse-shifted spectrum."""
        rows, cols = self.high_shape
        spatial = idft2(inverse_center_shift(state.object_spectrum, shifted), out)
        spatial *= rows * cols
        return spatial

    def tv_penalty(self, state: PgnnState) -> float:
        """TV penalty; with TV on, its object-spectrum gradient fills ``g_object``."""
        if not self.tv:
            return 0.0
        pcfg = self.pcfg
        # every full-grid temporary lives in the scratch grids; each line
        # keeps the operand order of the plain expression, so the bits match
        spatial, term = self.tv_complex
        g_spatial = self.g_object
        amp, guarded, phase = self.tv_real[:3]
        work = self.tv_real[3:]
        self.spatial_object(state, out=spatial, shifted=term)
        np.abs(spatial, out=amp)
        value = 0.0
        g_spatial.fill(0.0)
        np.maximum(amp, AMP_FLOOR, out=guarded)
        if pcfg.tv_alpha1 > 0.0:
            value += pcfg.tv_alpha1 * kernels.tv_value(amp, work)
            ga = kernels.tv_grad(amp, work)
            # g_spatial += alpha1 * ga * (spatial / guarded)
            ga *= pcfg.tv_alpha1
            g_spatial += np.multiply(ga, np.divide(spatial, guarded, out=term), out=term)
        if pcfg.tv_alpha2 > 0.0:
            # np.angle(spatial), wrapped
            wrap_phase(np.arctan2(spatial.imag, spatial.real, out=phase), out=phase)
            value += pcfg.tv_alpha2 * kernels.tv_value(phase, work)
            gp = kernels.tv_grad(phase, work)
            # g_spatial += alpha2 * gp * (1j * spatial / (guarded * guarded))
            gp *= pcfg.tv_alpha2
            guarded *= guarded
            np.divide(np.multiply(1j, spatial, out=term), guarded, out=term)
            g_spatial += np.multiply(gp, term, out=term)
        # adjoint of the mean-normalized synthesis (idft2 * pixel count):
        # the 1/N of idft2 cancels, leaving the plain forward transform
        center_shift(dft2(g_spatial, out=term), out=self.g_object)
        return value

    def total_loss(self, state: PgnnState, n: int) -> float:
        return self.forward(state, n).data_loss + self.tv_penalty(state)

    def dataset_loss(self, state: PgnnState) -> float:
        """Frozen-state total loss accumulated over every image."""
        data = spectral_misfit(self.area_low * state.object_spectrum,
                               self.pupil(state), self.amplitudes, self.cfg)
        return data + len(self.amplitudes) * self.tv_penalty(state)

    # -- gradients ---------------------------------------------------------

    def _object_gradient(self, state: PgnnState, n: int,
                         held: dict) -> tuple[np.ndarray, object, float]:
        """Object-spectrum gradient of the step's loss at image n as float64, its
        ``support`` in ``held["params"]``, and the data term, taken (once window n's
        part in a packed box is copied into ``state``) on the rows and columns the
        held pupil reaches (off them it is +-0.0, which Adam may skip); with TV it is
        added onto a copy of the stage's held TV gradient (refreshed every
        ``TV_REFRESH`` calls) in ``g_object``."""
        part, support = held["blocks"][n]
        if held["spectrum"] is not state.object_spectrum:
            state.object_spectrum[held["box"]][part] = held["spectrum"][part]
        fw = self.forward(state, n, held["pupil"])
        reach = held["reach"]
        data = (held["weight"][reach] * fw.residual[reach]).view(np.float64)
        if self.tv:
            if held["steps"] % TV_REFRESH == 0:
                held["tv_value"] = self.tv_penalty(state)
                np.copyto(held["tv_gradient"], self.g_object)
            else:
                np.copyto(self.g_object, held["tv_gradient"])
            held["steps"] += 1
            self.g_object.view(np.float64)[support] += data   # the box is the grid
            return self.g_object.view(np.float64), ..., fw.data_loss
        return data, support, fw.data_loss

    def _pupil_gradient(self, state: PgnnState, n: int) -> tuple[np.ndarray, float]:
        """Pupil-parameter gradient of the data term at image n, as a float64
        array laid out like ``param_group``'s view, and that term."""
        if self.basis is None:
            pupil = state.pupil_free
        else:
            pupil, phase_factor = self.basis.pupil(state.pupil_amp, state.zern_coeffs)
        fw = self.forward(state, n, pupil)
        patch = state.object_spectrum[self.windows[n]]
        g_pupil = 2.0 * self.area_low * np.conj(patch) * fw.residual
        if self.basis is None:
            return g_pupil.view(np.float64), fw.data_loss
        weight = (g_pupil * np.conj(pupil)).imag
        return np.append((np.conj(phase_factor) * g_pupil).real,
                         kernels.project_modes(self.basis.grids, weight)), fw.data_loss

    def gradients(self, state: PgnnState, n: int) -> dict[str, np.ndarray]:
        """Real-parameter gradients of total_loss at image n, as float64
        arrays keyed like ``state.moments``. The object gradient covers the
        full grid: the data term lives on the window, TV terms are dense.

        The amplitude-replaced target is treated as a constant (matching the
        loss the solver actually descends); finite differences of that
        frozen-target loss are the reference the tests check against.
        """
        held = self.stage_constants(state, True)
        grad, support, _ = self._object_gradient(state, n, held)
        g_object = np.zeros_like(state.object_spectrum).view(np.float64)
        g_object[held["fbox"]][support] = grad
        return {"object": g_object, "pupil": self._pupil_gradient(state, n)[0]}

    # -- optimization ------------------------------------------------------

    def stage_constants(self, state: PgnnState, update_object: bool) -> dict:
        """What a stage holds fixed, for ``step``: Adam's ``params``, ``moments`` and
        ``lr``, and the TV penalty (pupil steps), or the pupil, its data-gradient
        ``weight`` 2 * area * conj(pupil), the spans ``reach`` of its nonzero rows and
        columns, the ``box`` and per window its part in the box and gradient support
        in ``params`` (``blocks``); with TV also the held ``tv_value``, ``tv_gradient``
        and count of ``steps``. The box spans the rows and columns a reach covers or a
        nonzero moment holds (with TV, the grid); off it Adam's update is pure decay,
        which keeps +0.0 moments and parameters (and no step makes a -0.0 moment; see
        ``kernels.adam_update``). Unless it is the grid, ``spectrum`` (whose float view
        is ``params``) and ``moments`` are packed copies of the box."""
        if not update_object:
            key, view, lr = self.param_group(state, False)
            return {"tv_value": self.tv_penalty(state), "params": view,
                    "moments": state.moments[key], "lr": lr}
        pupil = self.pupil(state)
        reached = np.any(pupil, axis=1), np.any(pupil, axis=0)
        mom = state.moments["object"]
        nonzero = np.any((mom.m.view(np.uint64) | mom.v.view(np.uint64)).reshape(-1, 2), axis=1)
        live = [np.any(nonzero.reshape(self.high_shape), axis=a) | self.tv for a in (1, 0)]
        for axis in (0, 1):
            for start in {win[axis].start for win in self.windows}:
                live[axis][start:start + reached[axis].size] |= reached[axis]
        box, reach = tuple(map(_span, live)), tuple(map(_span, reached))
        fbox = box[0], slice(2 * box[1].start, 2 * box[1].stop)   # on the float view
        spectrum, moments = state.object_spectrum, mom
        if spectrum[box].shape != self.high_shape:
            spectrum = spectrum[box].copy()
            moments = Moments(mom.m[fbox].copy(), mom.v[fbox].copy(), mom.t)
        (br, bc), (rr, rc) = box, reach
        blocks = []
        for rs, cs in self.windows:
            r, c = rs.start - br.start, 2 * (cs.start - bc.start)   # the window's origin
            hit = slice(r + rr.start, r + rr.stop), slice(c + 2 * rc.start, c + 2 * rc.stop)
            blocks.append(((_within(rs, br), _within(cs, bc)), hit))
        held = {"pupil": pupil, "weight": 2.0 * self.area_low * np.conj(pupil),
                "reach": reach, "box": box, "fbox": fbox, "blocks": blocks,
                "spectrum": spectrum, "params": spectrum.view(np.float64),
                "moments": moments, "lr": self.pcfg.lr_object, "tv_value": 0.0}
        if self.tv:
            held.update(steps=0, tv_gradient=np.empty_like(self.g_object))
        return held

    def step(self, state: PgnnState, n: int, update_object: bool,
             held: dict) -> float:
        """One per-image Adam step on the active group; returns the data term
        before the update plus the held TV penalty. ``held`` is the stage's
        ``stage_constants``, taken while the group it holds is frozen."""
        if update_object:
            grad, support, loss = self._object_gradient(state, n, held)
        else:
            (grad, loss), support = self._pupil_gradient(state, n), ...
        loss += held["tv_value"]
        adam_step(held["params"], grad, held["moments"], held["lr"], support)
        if not update_object:
            pupil = state.pupil_free if self.basis is None else state.pupil_amp
            pupil *= self.support
        return loss

    def run_stage(self, state: PgnnState, stage_index: int) -> list[float]:
        """One stage (1-based index): odd updates the object, even the pupil.
        Returns the per-epoch accumulated pre-update losses of ``step``; the first
        non-finite loss raises NumericalError naming the group, stage, epoch
        and image. It writes a packed box back into ``state`` as it returns or raises."""
        update_object = stage_index % 2 == 1
        held = self.stage_constants(state, update_object)
        group = "object" if update_object else "pupil"
        try:
            return [sweep(self.order,
                          lambda n: self.step(state, n, update_object, held),
                          f"{group} stage {stage_index} epoch {epoch}")
                    for epoch in range(1, self.pcfg.epochs_per_stage + 1)]
        finally:
            if (packed := held["moments"]) is not (mom := state.moments[group]):
                state.object_spectrum[held["box"]] = held["spectrum"]
                mom.m[held["fbox"]], mom.v[held["fbox"]], mom.t = packed.m, packed.v, packed.t

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
    step advances ``moments.t``, the count the bias corrections use.
    """
    if not (param_view.shape == moments.m.shape == moments.v.shape
            and grad_view.shape == param_view[support].shape):
        raise DimensionMismatch("param/grad/moment shapes differ")
    # packed arrays only: on a strided view every ufunc would leave numpy's packed loops
    if not all(a.flags.c_contiguous for a in (param_view, grad_view, moments.m, moments.v)):
        raise DimensionMismatch("param/grad/moment arrays must be C-contiguous")
    moments.t += 1
    kernels.adam_update(param_view, grad_view, moments.m, moments.v, support, lr,
                        ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1 ** moments.t,
                        1.0 - ADAM_BETA2 ** moments.t, ADAM_EPS, moments.work)
