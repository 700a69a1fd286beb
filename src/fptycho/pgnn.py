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
pupil. Frozen groups keep parameters, Adam moments, and step counts
bit-identical through the stage, so ``run_stage`` computes what depends only
on them once when the stage starts and passes it to every ``step``: the pupil
for an object stage, the TV penalty for a pupil stage. A step on its own
computes the same values itself, so it gets the same bits.

All gradients are true real-parameter gradients (for a complex array they are
d/dRe + i*d/dIm), verified against central finite differences of the
frozen-target loss; see tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .epie import (ap_project, check_image_count, initial_object_spectrum,
                   traversal_order)
from .errors import DimensionMismatch, NumericalError
from .field import (dft2, center_shift, idft2, inverse_center_shift,
                    window, wrap_phase)
from .optics import (OpticalConfig, ZernikeBasis, illumination_offsets,
                     make_ctf, pupil_support, zernike_basis)

AMP_FLOOR = 1e-12  # guards divisions by |object| in the TV chain

# Adam decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PgnnConfig:
    stages: int = 10
    epochs_per_stage: int = 5
    # learning rates calibrated against the end-to-end acceptance runs: the
    # per-image Adam iteration settles into a limit cycle whose loss floor
    # grows as lr^2, so the object rate must sit well below the step sizes
    # usual for batch training
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
    """Adam first/second moments over the float view of one parameter array,
    plus the (2, size) scratch that ``kernels.adam_update`` works in."""

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, self.m.size))

    @classmethod
    def like(cls, view: np.ndarray) -> "Moments":
        return cls(m=np.zeros_like(view), v=np.zeros_like(view))


@dataclass
class PgnnState:
    object_spectrum: np.ndarray          # complex128 (high), centered, mean-normalized
    pupil_amp: np.ndarray | None         # float64 (low) with a Zernike pupil
    zern_coeffs: np.ndarray | None       # (modes,) float64 with a Zernike pupil
    pupil_free: np.ndarray | None        # complex128 (low) otherwise
    moments: dict[str, Moments] = field(default_factory=dict)
    object_steps: int = 0
    pupil_steps: int = 0


@dataclass(frozen=True)
class ForwardResult:
    predicted: np.ndarray   # modeled window spectrum (centered layout)
    target: np.ndarray      # amplitude-replaced spectrum; constant per step
    data_loss: float


@dataclass(frozen=True)
class Grads:
    """Real-parameter gradients; object_spectrum covers the full grid (the
    data term lives on the current window, TV terms are dense)."""

    object_spectrum: np.ndarray | None = None
    pupil_amp: np.ndarray | None = None
    zern_coeffs: np.ndarray | None = None
    pupil_free: np.ndarray | None = None


class PgnnModel:
    """Bundles the dataset, optics, config, and precomputed geometry."""

    def __init__(self, images: list[np.ndarray], cfg: OpticalConfig,
                 pcfg: PgnnConfig = PgnnConfig()):
        check_image_count(images, cfg)
        self.images = [np.asarray(im, dtype=np.float64) for im in images]
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

    # -- state ------------------------------------------------------------

    def initial_state(self) -> PgnnState:
        """Same starting point as the AP baseline: up-sampled sqrt of the
        most-axial capture with zero phase, binary CTF pupil."""
        spectrum = initial_object_spectrum(self.images, self.cfg) / self.area_low
        if self.basis is None:
            state = PgnnState(object_spectrum=spectrum, pupil_amp=None,
                             zern_coeffs=None, pupil_free=make_ctf(self.cfg))
        else:
            state = PgnnState(object_spectrum=spectrum,
                             pupil_amp=make_ctf(self.cfg).real.copy(),
                             zern_coeffs=np.zeros(self.basis.count),
                             pupil_free=None)
        for name, view in self._param_views(state).items():
            state.moments[name] = Moments.like(view)
        return state

    def _param_views(self, state: PgnnState) -> dict[str, np.ndarray]:
        """Float64 views of every parameter array (complex ones interleaved)."""
        views = {"object": state.object_spectrum.view(np.float64)}
        if self.basis is None:
            views["pupil_free"] = state.pupil_free.view(np.float64)
        else:
            views["pupil_amp"] = state.pupil_amp
            views["zern"] = state.zern_coeffs
        return views

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
        target = ap_project(predicted, self.images[n])[0]
        diff = target - predicted
        return ForwardResult(predicted=predicted, target=target,
                             data_loss=float(np.vdot(diff, diff).real))

    def spatial_object(self, state: PgnnState) -> np.ndarray:
        """Physical-units high-res object from the mean-normalized state."""
        rows, cols = self.high_shape
        return idft2(inverse_center_shift(state.object_spectrum)) * (rows * cols)

    def _tv_eval(self, state: PgnnState, want_grad: bool):
        """TV penalty value and (optionally) its object-spectrum gradient."""
        pcfg = self.pcfg
        if pcfg.tv_alpha1 == 0.0 and pcfg.tv_alpha2 == 0.0:
            return 0.0, None
        spatial = self.spatial_object(state)
        amp = np.abs(spatial)
        value = 0.0
        if want_grad:
            g_spatial = np.zeros_like(spatial)
            guarded = np.maximum(amp, AMP_FLOOR)
        if pcfg.tv_alpha1 > 0.0:
            value += pcfg.tv_alpha1 * kernels.tv_value(amp)
            if want_grad:
                ga = kernels.tv_grad(amp)
                g_spatial += pcfg.tv_alpha1 * ga * (spatial / guarded)
        if pcfg.tv_alpha2 > 0.0:
            phase = wrap_phase(np.angle(spatial))
            value += pcfg.tv_alpha2 * kernels.tv_value(phase)
            if want_grad:
                gp = kernels.tv_grad(phase)
                g_spatial += pcfg.tv_alpha2 * gp * (1j * spatial / (guarded * guarded))
        if not want_grad:
            return value, None
        # adjoint of the mean-normalized synthesis (idft2 * pixel count):
        # the 1/N of idft2 cancels, leaving the plain forward transform
        g_spec = center_shift(dft2(g_spatial))
        return value, g_spec

    def tv_penalty(self, state: PgnnState) -> float:
        return self._tv_eval(state, want_grad=False)[0]

    def total_loss(self, state: PgnnState, n: int) -> float:
        return self.forward(state, n).data_loss + self.tv_penalty(state)

    def dataset_loss(self, state: PgnnState) -> float:
        """Frozen-state total loss accumulated over every image."""
        data = sum(self.forward(state, n).data_loss
                   for n in range(len(self.images)))
        return data + len(self.images) * self.tv_penalty(state)

    # -- gradients ---------------------------------------------------------

    def _object_gradient(self, state: PgnnState, n: int, pupil: np.ndarray,
                         zero_grid: np.ndarray) -> tuple[np.ndarray, float]:
        """Object-spectrum gradient of total_loss at image n, and that loss.

        Without TV the data term is written into the window of ``zero_grid``,
        an all-zero grid the caller zeroes again after use; with TV it is
        added into the window of the dense TV gradient."""
        win = self.windows[n]
        fw = self.forward(state, n, pupil)
        data = 2.0 * self.area_low * np.conj(pupil) * (fw.predicted - fw.target)
        tv_val, g_object = self._tv_eval(state, want_grad=True)
        if g_object is None:
            g_object = zero_grid
            g_object[win] = data
        else:
            g_object[win] += data
        return g_object, fw.data_loss + tv_val

    def _pupil_gradient(self, state: PgnnState, n: int) -> tuple[Grads, float]:
        """Pupil-parameter gradients of the data term at image n, and that term."""
        if self.basis is None:
            pupil = state.pupil_free
        else:
            pupil, phase_factor = self.basis.pupil(state.pupil_amp, state.zern_coeffs)
        fw = self.forward(state, n, pupil)
        patch = state.object_spectrum[self.windows[n]]
        g_pupil = 2.0 * self.area_low * np.conj(patch) * (fw.predicted - fw.target)
        if self.basis is None:
            return Grads(pupil_free=g_pupil), fw.data_loss
        # .real of a complex array is a strided view; Adam wants it packed
        g_amp = np.ascontiguousarray((np.conj(phase_factor) * g_pupil).real)
        weight = (g_pupil * np.conj(pupil)).imag
        g_zern = kernels.project_modes(self.basis.grids, weight)
        return Grads(pupil_amp=g_amp, zern_coeffs=g_zern), fw.data_loss

    def gradients(self, state: PgnnState, n: int) -> Grads:
        """Real-parameter gradients of total_loss at image n, all blocks.

        The amplitude-replaced target is treated as a constant (matching the
        loss the solver actually descends); finite differences of that
        frozen-target loss are the reference the tests check against.
        """
        g_object = self._object_gradient(
            state, n, self.pupil(state),
            np.zeros(self.high_shape, dtype=np.complex128))[0]
        return replace(self._pupil_gradient(state, n)[0],
                       object_spectrum=g_object)

    # -- optimization ------------------------------------------------------

    def step(self, state: PgnnState, n: int, update_object: bool, *,
             pupil: np.ndarray | None = None,
             zero_grid: np.ndarray | None = None,
             tv_value: float | None = None) -> float:
        """One per-image Adam step on the active group; returns total_loss
        evaluated before the update.

        ``run_stage`` passes what its stage holds fixed: the pupil and an
        all-zero gradient grid to object steps, the TV penalty to pupil
        steps. A step on its own computes them."""
        pcfg = self.pcfg
        moments = state.moments
        if update_object:
            if pupil is None:
                pupil = self.pupil(state)
            if zero_grid is None:
                zero_grid = np.zeros(self.high_shape, dtype=np.complex128)
            g_object, loss = self._object_gradient(state, n, pupil, zero_grid)
            state.object_steps += 1
            adam_step(state.object_spectrum.view(np.float64),
                      g_object.view(np.float64), moments["object"],
                      pcfg.lr_object, state.object_steps)
            zero_grid[self.windows[n]] = 0.0
            return loss
        if tv_value is None:
            tv_value = self.tv_penalty(state)
        grads, data_loss = self._pupil_gradient(state, n)
        state.pupil_steps += 1
        if self.basis is None:
            adam_step(state.pupil_free.view(np.float64),
                      grads.pupil_free.view(np.float64),
                      moments["pupil_free"], pcfg.lr_pupil_amp,
                      state.pupil_steps)
            state.pupil_free *= self.support
        else:
            adam_step(state.pupil_amp, grads.pupil_amp, moments["pupil_amp"],
                      pcfg.lr_pupil_amp, state.pupil_steps)
            adam_step(state.zern_coeffs, grads.zern_coeffs, moments["zern"],
                      pcfg.lr_zern, state.pupil_steps)
            state.pupil_amp *= self.support
        return data_loss + tv_value

    def run_stage(self, state: PgnnState, stage_index: int) -> list[float]:
        """One stage (1-based index): odd updates the object, even the pupil.
        Returns the per-epoch accumulated pre-update losses."""
        update_object = stage_index % 2 == 1
        if update_object:
            held = dict(pupil=self.pupil(state),
                        zero_grid=np.zeros(self.high_shape, dtype=np.complex128))
        else:
            held = dict(tv_value=self.tv_penalty(state))
        epoch_losses = []
        for _ in range(self.pcfg.epochs_per_stage):
            acc = 0.0
            for n in self.order:
                acc += self.step(state, n, update_object, **held)
            if not np.isfinite(acc):
                raise NumericalError(
                    f"loss became non-finite in stage {stage_index}")
            epoch_losses.append(acc)
        return epoch_losses

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


def adam_step(param_view: np.ndarray, grad_view: np.ndarray, moments: Moments,
              lr: float, t: int, beta1: float = ADAM_BETA1,
              beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    """Standalone bias-corrected Adam step over float64 views (in place).

    Complex parameters participate as their float views (two real scalars per
    element). ``t`` is the 1-based step count for the bias corrections.
    """
    if t < 1:
        raise ValueError("step count t must be >= 1")
    arrays = (param_view, grad_view, moments.m, moments.v)
    if any(a.shape != param_view.shape for a in arrays):
        raise DimensionMismatch("param/grad/moment shapes differ")
    # ravel() copies a strided array, and an update written into that copy
    # would be lost while the moments still advanced
    if not all(a.flags.c_contiguous for a in arrays):
        raise DimensionMismatch("param/grad/moment arrays must be C-contiguous")
    kernels.adam_update(param_view.ravel(), grad_view.ravel(),
                        moments.m.ravel(), moments.v.ravel(), lr,
                        beta1, beta2, 1.0 - beta1 ** t, 1.0 - beta2 ** t, eps,
                        moments.work)
