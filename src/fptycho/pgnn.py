"""Gradient-descent reconstruction with alternating object/pupil stages.

The learnable parameters are the DC-centered object spectrum as two real
channels, and the pupil either as amplitude-plus-Zernike-phase (use_zernike)
or as a free complex grid. The stored spectrum is mean-normalized (the DC bin
equals the spatial mean of the object), so parameter magnitudes stay O(1)
regardless of grid size and one learning rate serves every dataset; the
forward model reapplies the window pixel count when forming field spectra.
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
on them once when the stage starts: the pupil for an object stage, the TV
penalty for a pupil stage. Every step then gets the same bits it would have
computed itself.

All gradients are true real-parameter gradients (for a complex array they are
d/dRe + i*d/dIm), verified against central finite differences of the
frozen-target loss; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .epie import ap_project, initial_object_spectrum, traversal_order
from .errors import DimensionMismatch, NumericalError
from .field import (dft2, center_shift, grid_center, idft2,
                    inverse_center_shift, wrap_phase, window_bounds)
from .optics import (OpticalConfig, ZernikeBasis, illumination_offsets,
                     make_ctf, pupil_support, zernike_basis)

AMP_FLOOR = 1e-12  # guards divisions by |object| in the TV chain


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
    tv_eta: float = 1.0
    use_zernike: bool = True
    zernike_modes: int = 9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    traversal: str = "center_out"

    def __post_init__(self):
        if self.stages < 0 or self.epochs_per_stage < 0:
            raise ValueError("stages and epochs_per_stage must be >= 0")
        if self.traversal not in ("center_out", "manifest_order"):
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if self.tv_alpha1 < 0 or self.tv_alpha2 < 0:
            raise ValueError("TV weights must be >= 0")


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
    pupil_amp: np.ndarray | None         # float64 (low) when use_zernike
    zern_coeffs: np.ndarray | None       # (modes,) float64 when use_zernike
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

    object_spectrum: np.ndarray
    pupil_amp: np.ndarray | None = None
    zern_coeffs: np.ndarray | None = None
    pupil_free: np.ndarray | None = None


@dataclass
class _Frozen:
    """Values a stage holds fixed, computed once when it starts.

    An object stage fixes the pupil and hands every step the same full-grid
    gradient buffer; a pupil stage fixes the object and so its TV penalty.
    Fields a stage does not fix stay None and are computed per step."""

    pupil: np.ndarray | None = None
    tv_value: float | None = None
    g_object: np.ndarray | None = None
    dirty: object = None   # index of g_object the previous step wrote

    def gradient_grid(self, shape, window, dense: bool) -> np.ndarray:
        """An all-zero complex grid for one object gradient that writes
        ``window`` (and, when ``dense``, adds a full-grid term)."""
        g = self.g_object
        if g is None:
            return np.zeros(shape, dtype=np.complex128)
        if self.dirty is not None:
            g[self.dirty] = 0.0
        self.dirty = Ellipsis if dense else window
        return g


_NOTHING_FROZEN = _Frozen()


class PgnnModel:
    """Bundles the dataset, optics, config, and precomputed geometry."""

    def __init__(self, images: list[np.ndarray], cfg: OpticalConfig,
                 pcfg: PgnnConfig = PgnnConfig()):
        offsets = illumination_offsets(cfg)
        if len(images) != len(offsets):
            raise DimensionMismatch(
                f"{len(images)} images for {len(offsets)} illuminations")
        self.images = [np.asarray(im, dtype=np.float64) for im in images]
        self.cfg = cfg
        self.pcfg = pcfg
        self.offsets = offsets
        self.sqrt_images = [np.sqrt(im) for im in self.images]
        self.support = pupil_support(cfg)
        self.basis: ZernikeBasis | None = (
            zernike_basis(cfg, pcfg.zernike_modes) if pcfg.use_zernike else None)
        self.high_shape = (cfg.high_rows, cfg.high_cols)
        self.center = grid_center(self.high_shape)
        # field spectra are low_area * window * pupil; keeping the stored
        # spectrum divided by this puts every parameter on an O(1) scale
        self.area_low = cfg.low_rows * cfg.low_cols
        self.order = traversal_order(cfg, pcfg.traversal)
        # (state, update_object, _Frozen) while run_stage is running
        self._stage = None

    # -- state ------------------------------------------------------------

    def initial_state(self) -> PgnnState:
        """Same starting point as the AP baseline: up-sampled sqrt of the
        most-axial capture with zero phase, binary CTF pupil."""
        spectrum = initial_object_spectrum(self.images, self.cfg) / self.area_low
        if self.pcfg.use_zernike:
            state = PgnnState(object_spectrum=spectrum,
                             pupil_amp=make_ctf(self.cfg).real.copy(),
                             zern_coeffs=np.zeros(self.pcfg.zernike_modes),
                             pupil_free=None)
        else:
            state = PgnnState(object_spectrum=spectrum, pupil_amp=None,
                             zern_coeffs=None, pupil_free=make_ctf(self.cfg))
        for name, view in self._param_views(state).items():
            state.moments[name] = Moments.like(view)
        return state

    def _param_views(self, state: PgnnState) -> dict[str, np.ndarray]:
        """Float64 views of every parameter array (complex ones interleaved)."""
        views = {"object": state.object_spectrum.view(np.float64)}
        if self.pcfg.use_zernike:
            views["pupil_amp"] = state.pupil_amp
            views["zern"] = state.zern_coeffs
        else:
            views["pupil_free"] = state.pupil_free.view(np.float64)
        return views

    def pupil(self, state: PgnnState) -> np.ndarray:
        if self.pcfg.use_zernike:
            return self._zernike_pupil(state)[0]
        return state.pupil_free

    def _zernike_pupil(self, state: PgnnState) -> tuple[np.ndarray, np.ndarray]:
        """Zernike pupil and its unit phase factor, from one synthesis."""
        phase_factor = np.exp(
            1j * kernels.synth_phase(self.basis.grids, state.zern_coeffs))
        return state.pupil_amp * phase_factor, phase_factor

    # -- forward and loss --------------------------------------------------

    def _window(self, state: PgnnState, n: int):
        off = self.offsets[n]
        r0, c0 = window_bounds(self.center[0] + off[0], self.center[1] + off[1],
                               self.cfg.low_rows, self.cfg.low_cols,
                               self.high_shape)
        return state.object_spectrum[r0:r0 + self.cfg.low_rows,
                                     c0:c0 + self.cfg.low_cols], r0, c0

    def predicted_spectrum(self, state: PgnnState, n: int,
                           pupil: np.ndarray | None = None) -> np.ndarray:
        """Modeled window spectrum for image n (centered layout)."""
        window, _, _ = self._window(state, n)
        if pupil is None:
            pupil = self.pupil(state)
        return self.area_low * window * pupil

    def forward(self, state: PgnnState, n: int,
                pupil: np.ndarray | None = None) -> ForwardResult:
        predicted = self.predicted_spectrum(state, n, pupil)
        target = ap_project(predicted, self.images[n])
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
            value += pcfg.tv_alpha1 * kernels.tv_value(amp, pcfg.tv_eta)
            if want_grad:
                ga = kernels.tv_grad(amp, pcfg.tv_eta)
                g_spatial += pcfg.tv_alpha1 * ga * (spatial / guarded)
        if pcfg.tv_alpha2 > 0.0:
            phase = wrap_phase(np.angle(spatial))
            value += pcfg.tv_alpha2 * kernels.tv_value(phase, pcfg.tv_eta)
            if want_grad:
                gp = kernels.tv_grad(phase, pcfg.tv_eta)
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

    def _eval_step(self, state: PgnnState, n: int, want_object: bool,
                   want_pupil: bool, frozen: _Frozen = _NOTHING_FROZEN
                   ) -> tuple[Grads, float]:
        """Gradient blocks plus the total loss at the same point, computed
        with one forward pass and at most one TV evaluation; ``frozen``
        supplies what the running stage holds fixed."""
        window, r0, c0 = self._window(state, n)
        phase_factor = None
        if frozen.pupil is not None:
            pupil = frozen.pupil
        elif self.pcfg.use_zernike:
            pupil, phase_factor = self._zernike_pupil(state)
        else:
            pupil = state.pupil_free
        fw = self.forward(state, n, pupil)
        residual = fw.predicted - fw.target
        if frozen.tv_value is None:
            tv_val, tv_grad_spec = self._tv_eval(state, want_grad=want_object)
        else:
            tv_val, tv_grad_spec = frozen.tv_value, None
        loss = fw.data_loss + tv_val

        g_object = None
        if want_object:
            win = (slice(r0, r0 + self.cfg.low_rows),
                   slice(c0, c0 + self.cfg.low_cols))
            g_object = frozen.gradient_grid(self.high_shape, win,
                                            dense=tv_grad_spec is not None)
            g_object[win] = 2.0 * self.area_low * np.conj(pupil) * residual
            if tv_grad_spec is not None:
                g_object += tv_grad_spec

        if not want_pupil:
            return Grads(object_spectrum=g_object), loss

        g_pupil = 2.0 * self.area_low * np.conj(window) * residual
        if self.pcfg.use_zernike:
            # .real of a complex array is a strided view; Adam wants it packed
            g_amp = np.ascontiguousarray((np.conj(phase_factor) * g_pupil).real)
            weight = (g_pupil * np.conj(pupil)).imag
            g_zern = kernels.project_modes(self.basis.grids, weight)
            return Grads(object_spectrum=g_object, pupil_amp=g_amp,
                         zern_coeffs=g_zern), loss
        return Grads(object_spectrum=g_object, pupil_free=g_pupil), loss

    def gradients(self, state: PgnnState, n: int) -> Grads:
        """Real-parameter gradients of total_loss at image n, all blocks.

        The amplitude-replaced target is treated as a constant (matching the
        loss the solver actually descends); finite differences of that
        frozen-target loss are the reference the tests check against.
        """
        return self._eval_step(state, n, want_object=True, want_pupil=True)[0]

    # -- optimization ------------------------------------------------------

    def _adam(self, state: PgnnState, name: str, view: np.ndarray,
              grad: np.ndarray, lr: float, t: int) -> None:
        pcfg = self.pcfg
        adam_step(view, grad, state.moments[name], lr, t,
                  pcfg.adam_beta1, pcfg.adam_beta2, pcfg.adam_eps)

    def step(self, state: PgnnState, n: int, update_object: bool) -> float:
        """One per-image Adam step on the active group; returns total_loss
        evaluated before the update."""
        pcfg = self.pcfg
        frozen = _NOTHING_FROZEN
        if (self._stage is not None and self._stage[0] is state
                and self._stage[1] == update_object):
            frozen = self._stage[2]
        grads, loss = self._eval_step(state, n, want_object=update_object,
                                      want_pupil=not update_object,
                                      frozen=frozen)
        if update_object:
            state.object_steps += 1
            self._adam(state, "object", state.object_spectrum.view(np.float64),
                       grads.object_spectrum.view(np.float64),
                       pcfg.lr_object, state.object_steps)
        else:
            state.pupil_steps += 1
            if pcfg.use_zernike:
                self._adam(state, "pupil_amp", state.pupil_amp,
                           grads.pupil_amp, pcfg.lr_pupil_amp,
                           state.pupil_steps)
                self._adam(state, "zern", state.zern_coeffs,
                           grads.zern_coeffs, pcfg.lr_zern, state.pupil_steps)
                state.pupil_amp *= self.support
            else:
                self._adam(state, "pupil_free", state.pupil_free.view(np.float64),
                           grads.pupil_free.view(np.float64),
                           pcfg.lr_pupil_amp, state.pupil_steps)
                state.pupil_free *= self.support
        return loss

    def run_stage(self, state: PgnnState, stage_index: int) -> list[float]:
        """One stage (1-based index): odd updates the object, even the pupil.
        Returns the per-epoch accumulated pre-update losses."""
        update_object = stage_index % 2 == 1
        if update_object:
            frozen = _Frozen(pupil=self.pupil(state),
                             g_object=np.zeros(self.high_shape,
                                               dtype=np.complex128))
        else:
            frozen = _Frozen(tv_value=self.tv_penalty(state))
        epoch_losses = []
        self._stage = (state, update_object, frozen)
        try:
            for _ in range(self.pcfg.epochs_per_stage):
                acc = 0.0
                for n in self.order:
                    acc += self.step(state, n, update_object)
                if not np.isfinite(acc):
                    raise NumericalError(
                        f"loss became non-finite in stage {stage_index}")
                epoch_losses.append(acc)
        finally:
            self._stage = None
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
              lr: float, t: int, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
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
