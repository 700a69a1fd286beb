"""Shared fixtures: the reference optical setup, textured test objects, and
session-cached reconstruction runs reused by both the per-module tests and
the end-to-end suite (several runs take tens of seconds; running each once
keeps the whole suite under a couple of minutes)."""

import math

import numpy as np
import pytest

from fptycho.epie import (EpieConfig, measured_amplitudes, run_epie,
                          spectral_misfit)
from fptycho.field import center_shift, dft2
from fptycho.kernels import TV_EPS
from fptycho.optics import (Illumination, OpticalConfig, defocus_phase,
                            make_ctf)
from fptycho.pgnn import PgnnConfig, run_pgnn
from fptycho.simulate import GroundTruth, simulate_dataset


def fractal(seed: int, n: int, beta: float) -> np.ndarray:
    """Power-law textured random field, min-max normalized to [0, 1].

    Smooth objects leave the off-axis captures nearly empty, which makes
    convergence ratios look better than they are; this texture keeps energy
    in every capture."""
    r = np.random.Generator(np.random.PCG64(seed))
    spec = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    fr = np.fft.fftfreq(n)
    rad = np.hypot(fr[:, None], fr[None, :])
    rad[0, 0] = 1.0 / n
    x = np.fft.ifft2(spec * rad ** -beta).real
    x -= x.min()
    x /= x.max()
    return x


def grid_config(n_low: int = 32, upsample: int = 4,
                half_span: float = 0.35, step: float = 0.05) -> OpticalConfig:
    """Square LED-array setup used throughout: 0.1 NA, 0.532 um, 3.45 um
    camera pixels at 2x magnification."""
    count = int(round(2 * half_span / step)) + 1
    steps = [round(-half_span + step * i, 10) for i in range(count)]
    leds = tuple(Illumination(sx, sy) for sy in steps for sx in steps)
    return OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                         camera_pixel_um=3.45, low_rows=n_low, low_cols=n_low,
                         upsample=upsample, illuminations=leds)


def textured_object(n: int, amp_seed: int, phase_seed: int,
                    amp_beta: float, phase_beta: float,
                    amp_floor: float, phase_span: float) -> np.ndarray:
    amp = amp_floor + (1.0 - amp_floor) * fractal(amp_seed, n, amp_beta)
    pha = phase_span * (fractal(phase_seed, n, phase_beta) - 0.5)
    return amp * np.exp(1j * pha)


def ap_misfit(spatial: np.ndarray, pupil: np.ndarray,
              images: list[np.ndarray], cfg: OpticalConfig) -> float:
    """One spectral-misfit functional applied to any solver's final state.

    The two engines track different internal losses, so their histories are
    not comparable; this rebuilds each low-res field spectrum from the
    (object, pupil) pair and sums the amplitude-replacement misfit."""
    spectrum = center_shift(dft2(spatial)) * cfg.spectrum_scale
    return spectral_misfit(spectrum, pupil, measured_amplitudes(images, cfg), cfg)


def allocating_adam(p, g, m, v, lr, beta1, beta2, bc1, bc2, eps, hit=True) -> None:
    """Adam on the root ``v`` = sqrt(second moment) in whole-array expressions,
    ``g`` zero-filled to ``p``'s shape: the bitwise reference for
    ``kernels.adam_update``, which works on the gradient's block in place.
    Both moments decay everywhere, and the root takes its gradient update
    where the mask ``hit`` (the block the step's gradient covers; True: all of
    ``p``) is set: a zero-filled root update would change the bits wherever
    s * s underflows. The bias corrections are folded into the rate and eps
    (Kingma & Ba, Algorithm 1's footnote)."""
    np.multiply(m, beta1, out=m)
    m += (1.0 - beta1) * g
    s = v * math.sqrt(beta2)
    v[...] = np.where(hit, np.sqrt(s * s + (1.0 - beta2) * (g * g)), s)
    p -= lr * (math.sqrt(bc2) / bc1) * m / (v + eps * math.sqrt(bc2))


def power_tv_grad(img):
    """The TV gradient with its weight taken as (dr^2 + dc^2 + TV_EPS) ** -0.5:
    ``tv_grad``'s bits before it shared the root with the value."""
    dr = np.zeros_like(img)
    dc = np.zeros_like(img)
    dr[:-1, :] = img[1:, :] - img[:-1, :]
    dc[:, :-1] = img[:, 1:] - img[:, :-1]
    w = (dr * dr + dc * dc + TV_EPS) ** -0.5
    grad = -w * (dr + dc)
    grad[1:, :] += (w * dr)[:-1, :]
    grad[:, 1:] += (w * dc)[:, :-1]
    return grad


DEFOCUS_UM = 50.0


def fd_check(seed: int, use_zernike: bool, alpha: float,
             low: tuple[int, int] = (4, 4), upsample: int = 2,
             leds: tuple[Illumination, ...] | None = None) -> float:
    """Finite-difference audit of one random gradient instance.

    Builds a ``low``-capture problem recovered at ``upsample`` times its size
    (by default 6 LEDs, 4x4 captures, 8x8 recovered; offsets stay within one
    bin for captures up to 6 pixels a side), perturbs the
    standard starting point, and central-differences EVERY real parameter of
    the frozen-target loss at h=1e-6. A coordinate passes when the
    fd/analytic gap sits under the cancellation noise floor of the loss
    (50 ulps of the loss magnitude per unit h) or agrees to 1e-4 relative;
    returns the worst relative disagreement among coordinates above the
    floor (0.0 if none)."""
    from fptycho.pgnn import PgnnConfig as _PC, PgnnModel as _PM

    rng = np.random.Generator(np.random.PCG64(seed))
    if leds is None:
        st2 = (-0.12, 0.0, 0.12)
        leds = tuple(Illumination(sx, sy) for sy in st2 for sx in st2)[:6]
    cfg = OpticalConfig(wavelength_um=0.5, na=0.25, magnification=2.0,
                        camera_pixel_um=2.0, low_rows=low[0], low_cols=low[1],
                        upsample=upsample, illuminations=leds)
    high = (cfg.high_rows, cfg.high_cols)
    pcfg = _PC(zernike_modes=6 if use_zernike else None,
               tv_alpha1=alpha, tv_alpha2=alpha)
    images = [rng.random(low) + 0.1 for _ in leds]
    model = _PM(images, cfg, pcfg)
    state = model.initial_state()
    state.object_spectrum += 0.2 * (rng.standard_normal(high)
                                    + 1j * rng.standard_normal(high))
    on_support = model.index.size
    if use_zernike:
        state.pupil_params[:on_support] += 0.15 * rng.random(on_support)
        state.zern_coeffs[...] += 0.1 * rng.standard_normal(6)
    else:
        state.pupil_params += 0.15 * rng.standard_normal(2 * on_support)
    n = int(rng.integers(0, len(leds)))

    target = model.forward(state, n).target

    def frozen_loss() -> float:
        predicted = model.predicted_spectrum(state, n)
        diff = predicted - target
        return float(np.vdot(diff, diff).real) + model.tv_penalty(state)[0]

    grads = model.gradients(state, n)
    assert grads.keys() == state.moments.keys()
    h = 1e-6
    worst = 0.0
    blocks = [(state.object_spectrum, grads["object"]),
              (state.pupil_params, grads["pupil"])]
    for arr, grad in blocks:
        flat = arr.view(np.float64).ravel() if np.iscomplexobj(arr) else arr.ravel()
        gflat = grad.ravel()
        assert gflat.size == flat.size
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = frozen_loss()
            flat[i] = orig - h
            lm = frozen_loss()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            an = float(gflat[i])
            noise = 50.0 * np.spacing(max(abs(lp), abs(lm), 1.0)) / (2.0 * h)
            if abs(fd - an) <= noise:
                continue
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    return worst


@pytest.fixture(scope="session")
def fd_campaign() -> list[tuple[str, float]]:
    """24 randomized instances (both pupil parameterizations, both TV
    weights); each entry is (label, worst relative disagreement)."""
    results = []
    for seed in range(12):
        alpha = 1e-3 if seed % 2 else 0.0
        for use_zernike in (True, False):
            label = f"seed={seed} zernike={use_zernike} alpha={alpha:g}"
            results.append((label, fd_check(seed, use_zernike, alpha)))
    return results


@pytest.fixture(scope="session")
def reference_cfg() -> OpticalConfig:
    return grid_config()


@pytest.fixture(scope="session")
def small_instance():
    """Noiseless in-focus problem small enough for exact-consistency checks:
    16x16 captures, 2x upsampling, 3x3 LEDs, textured 32x32 truth."""
    steps = (-0.05, 0.0, 0.05)
    leds = tuple(Illumination(sx, sy) for sy in steps for sx in steps)
    cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                        camera_pixel_um=3.45, low_rows=16, low_cols=16,
                        upsample=2, illuminations=leds)
    obj = textured_object(32, amp_seed=3, phase_seed=4, amp_beta=0.8,
                          phase_beta=0.8, amp_floor=0.3, phase_span=1.5)
    images = simulate_dataset(GroundTruth(obj, make_ctf(cfg)), cfg)
    return cfg, obj, images


@pytest.fixture(scope="session")
def truth_object() -> np.ndarray:
    return textured_object(128, amp_seed=11, phase_seed=12,
                           amp_beta=0.65, phase_beta=0.55,
                           amp_floor=0.15, phase_span=3.0)


@pytest.fixture(scope="session")
def defocus_pupil(reference_cfg) -> np.ndarray:
    return make_ctf(reference_cfg) * np.exp(1j * defocus_phase(reference_cfg, DEFOCUS_UM))


@pytest.fixture(scope="session")
def infocus_images(reference_cfg, truth_object) -> list[np.ndarray]:
    gt = GroundTruth(truth_object, make_ctf(reference_cfg))
    return simulate_dataset(gt, reference_cfg)


@pytest.fixture(scope="session")
def defocus_images(reference_cfg, truth_object, defocus_pupil) -> list[np.ndarray]:
    gt = GroundTruth(truth_object, defocus_pupil)
    return simulate_dataset(gt, reference_cfg)


@pytest.fixture(scope="session")
def clipped_images(defocus_images) -> list[np.ndarray]:
    """Brightest tenth of the captures clipped at half their own peak."""
    imgs = [img.copy() for img in defocus_images]
    peaks = np.array([img.max() for img in imgs])
    k = math.ceil(0.1 * len(imgs))
    for n in np.argsort(peaks)[::-1][:k]:
        imgs[n] = np.minimum(imgs[n], 0.5 * peaks[n])
    return imgs


# -- cached solver runs ----------------------------------------------------
# tuple layout: pgnn -> (spatial, pupil, history, state); epie -> (spatial,
# pupil, history)

@pytest.fixture(scope="session")
def pgnn_infocus(infocus_images, reference_cfg):
    return run_pgnn(infocus_images, reference_cfg, PgnnConfig())


@pytest.fixture(scope="session")
def epie_infocus_nopupil(infocus_images, reference_cfg):
    # in focus the pupil is the known CTF; 20 iterations is the documented
    # convergence budget for the AP baseline
    return run_epie(infocus_images, reference_cfg,
                    EpieConfig(iterations=20, pupil_update="fixed"))


@pytest.fixture(scope="session")
def pgnn_defocus_zern(defocus_images, reference_cfg):
    return run_pgnn(defocus_images, reference_cfg, PgnnConfig())


@pytest.fixture(scope="session")
def pgnn_defocus_nozern(defocus_images, reference_cfg):
    return run_pgnn(defocus_images, reference_cfg, PgnnConfig(zernike_modes=None))


@pytest.fixture(scope="session")
def pgnn_defocus_object_only(defocus_images, reference_cfg):
    # stage 1 updates the object, so a single long stage never touches the pupil
    return run_pgnn(defocus_images, reference_cfg,
                    PgnnConfig(stages=1, epochs_per_stage=50))


@pytest.fixture(scope="session")
def pgnn_defocus_tv(defocus_images, reference_cfg):
    return run_pgnn(defocus_images, reference_cfg,
                    PgnnConfig(tv_alpha1=1e-3, tv_alpha2=1e-3))


@pytest.fixture(scope="session")
def epie_defocus_default(defocus_images, reference_cfg):
    return run_epie(defocus_images, reference_cfg, EpieConfig(iterations=50))


@pytest.fixture(scope="session")
def epie_defocus_conventional(defocus_images, reference_cfg):
    return run_epie(defocus_images, reference_cfg,
                    EpieConfig(iterations=50, pupil_update="conventional"))


@pytest.fixture(scope="session")
def epie_defocus_fixed_pupil(defocus_images, reference_cfg):
    return run_epie(defocus_images, reference_cfg,
                    EpieConfig(iterations=50, pupil_update="fixed"))


@pytest.fixture(scope="session")
def pgnn_clipped_many_modes(clipped_images, reference_cfg):
    return run_pgnn(clipped_images, reference_cfg, PgnnConfig(zernike_modes=50))


@pytest.fixture(scope="session")
def epie_clipped_all_modes(clipped_images, reference_cfg):
    out = {}
    out["literal"] = run_epie(clipped_images, reference_cfg,
                              EpieConfig(iterations=50))
    out["conventional"] = run_epie(clipped_images, reference_cfg,
                                   EpieConfig(iterations=50,
                                              pupil_update="conventional"))
    out["fixed"] = run_epie(clipped_images, reference_cfg,
                            EpieConfig(iterations=50, pupil_update="fixed"))
    return out


# -- end-to-end result lines ----------------------------------------------

_VERDICTS: dict[int, tuple[bool, str]] = {}


def record_verdict(number: int, ok: bool, detail: str) -> None:
    _VERDICTS[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("end-to-end criteria")
    for number in sorted(_VERDICTS):
        ok, detail = _VERDICTS[number]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {word} ({detail})")
