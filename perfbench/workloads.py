"""The reference problem and the four benchmark workloads.

Every workload has the same four parts:

* ``setup(seed)`` builds its inputs; the benchmark times it as ``setup_s``;
* ``call(inputs)`` is the timed call into fptycho's public API or CLI;
* ``outcome(inputs, result)`` turns its result into an ``Outcome`` (output
  digest, image visits, quality), outside the timed call;
* ``warmup(inputs)`` is a short untimed call with the same array sizes, so the
  import and FFT-plan caches are filled before the first timed call;
* ``prepare(inputs)`` runs untimed before every timed call.

Why each workload exists is written down in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import os
import shutil
from dataclasses import dataclass

import numpy as np

import fptycho.cli
import fptycho.epie
import fptycho.evaluate
import fptycho.io
import fptycho.optics
import fptycho.pgnn
import fptycho.simulate

DEFOCUS_UM = 50.0
NOISE_SIGMA = 2.0 ** -16   # cli_roundtrip capture noise: one 16-bit step


def reference_config() -> fptycho.optics.OpticalConfig:
    """32x32 captures, 4x upsampling to 128x128, 15x15 = 225 LEDs at 0.05
    sine pitch, 0.1 NA, 0.532 um light, 3.45 um pixels at 2x."""
    steps = [round(-0.35 + 0.05 * i, 10) for i in range(15)]
    leds = tuple(fptycho.optics.Illumination(sx, sy)
                 for sy in steps for sx in steps)
    return fptycho.optics.OpticalConfig(
        wavelength_um=0.532, na=0.1, magnification=2.0, camera_pixel_um=3.45,
        low_rows=32, low_cols=32, upsample=4, illuminations=leds)


def fractal(rng: np.random.Generator, n: int, beta: float) -> np.ndarray:
    """Power-law textured random field, min-max normalized to [0, 1].

    A smooth object leaves the off-axis captures nearly empty; this texture
    keeps energy in every capture, so every image step does real work."""
    spec = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fr = np.fft.fftfreq(n)
    rad = np.hypot(fr[:, None], fr[None, :])
    rad[0, 0] = 1.0 / n
    x = np.fft.ifft2(spec * rad ** -beta).real
    x -= x.min()
    x /= x.max()
    return x


def truth_grids(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference object: amplitude in [0.15, 1], phase in [-1.5, 1.5] rad,
    both textured. It is fixed: the seed draws only the CLI capture noise."""
    amp = 0.15 + 0.85 * fractal(np.random.Generator(np.random.PCG64(11)), n, 0.65)
    phase = 3.0 * (fractal(np.random.Generator(np.random.PCG64(12)), n, 0.55) - 0.5)
    return amp, phase


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


@dataclass
class Outcome:
    sha256: str            # object, pupil and loss history (or output files)
    visits: int            # solver image visits made by the call
    finite: bool           # object, pupil and history hold no NaN/Inf
    rel_err_amp: float     # passband amplitude error against the truth
    loss_ratio: float      # last loss-history entry over the first


def solver_outcome(inputs, obj, pupil, history, visits: int) -> Outcome:
    history = np.asarray(history, dtype=np.float64)
    err = fptycho.evaluate.passband_rel_err_amp(obj, inputs.truth, inputs.cfg)
    return Outcome(sha256=digest(obj, pupil, history), visits=visits,
                   finite=all_finite(obj, pupil, history),
                   rel_err_amp=err, loss_ratio=float(history[-1] / history[0]))


# ---------------------------------------------------------------------------
# API workloads


@dataclass
class ApiInputs:
    cfg: fptycho.optics.OpticalConfig
    truth: np.ndarray
    images: list[np.ndarray]


def api_setup(seed: int) -> ApiInputs:
    """Truth, defocused pupil and noiseless captures: the test suite's
    reference problem. Nothing here depends on ``seed`` (see NOTES.md)."""
    cfg = reference_config()
    amp, phase = truth_grids(cfg.high_rows)
    truth = amp * np.exp(1j * phase)
    pupil = fptycho.optics.make_ctf(cfg) * np.exp(
        1j * fptycho.optics.defocus_phase(cfg, DEFOCUS_UM))
    images = fptycho.simulate.simulate_dataset(
        fptycho.simulate.GroundTruth(truth, pupil), cfg)
    return ApiInputs(cfg=cfg, truth=truth, images=images)


class ApiWorkload:
    """One solver call on the reference captures. ``solver`` names the
    public function (looked up at call time, so the tracer's wrapper is
    seen) and ``sweeps`` the image visits per capture that ``config`` makes."""

    setup = staticmethod(api_setup)

    def __init__(self, name: str, solver: str, config, warm, sweeps: int):
        self.name, self.solver = name, solver
        self.config, self.warm, self.sweeps = config, warm, sweeps

    def _solve(self, inputs: ApiInputs, config):
        module, func = self.solver.split(".")
        return getattr(getattr(fptycho, module), func)(inputs.images, inputs.cfg, config)

    def call(self, inputs: ApiInputs):
        return self._solve(inputs, self.config)

    def warmup(self, inputs: ApiInputs) -> None:
        self._solve(inputs, self.warm)

    def prepare(self, inputs: ApiInputs) -> None:
        pass

    def outcome(self, inputs: ApiInputs, result) -> Outcome:
        obj, pupil, history = result[:3]
        return solver_outcome(inputs, obj, pupil, history,
                              self.sweeps * len(inputs.images))


# ---------------------------------------------------------------------------
# CLI round trip


@dataclass
class CliInputs:
    cfg: fptycho.optics.OpticalConfig
    truth: np.ndarray   # the float32-rounded truth the CLI reads back
    seed: int
    work: str           # directory holding the truth grids and config


class CliWorkload:
    name = "cli_roundtrip"
    sweeps = 1

    def __init__(self, work_root: str):
        self.work_root = work_root

    def setup(self, seed: int) -> CliInputs:
        """Truth amplitude/phase grids, the complex truth for ``metrics`` and
        the optics manifest, written with fptycho's own writers."""
        cfg = reference_config()
        work = os.path.join(self.work_root, "cli")
        os.makedirs(work, exist_ok=True)
        amp, phase = truth_grids(cfg.high_rows)
        fptycho.io.write_real_grid(os.path.join(work, "amp.fpd1"), amp)
        fptycho.io.write_real_grid(os.path.join(work, "phase.fpd1"), phase)
        amp32 = amp.astype(np.float32).astype(np.float64)
        phase32 = phase.astype(np.float32).astype(np.float64)
        truth = amp32 * np.exp(1j * phase32)
        fptycho.io.write_complex_grid(os.path.join(work, "truth.fpc1"), truth)
        names = fptycho.io.default_file_names(len(cfg.illuminations))
        with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(fptycho.io.manifest_text(cfg, names, None))
        return CliInputs(cfg=cfg, truth=truth, seed=seed, work=work)

    def call(self, inputs: CliInputs) -> str:
        """Four in-process CLI commands; returns their combined stdout."""
        w = inputs.work
        sim, rec = os.path.join(w, "sim"), os.path.join(w, "rec")
        text = _io.StringIO()
        with contextlib.redirect_stdout(text):
            for argv in (
                    ["simulate", "--truth-amp", os.path.join(w, "amp.fpd1"),
                     "--truth-phase", os.path.join(w, "phase.fpd1"),
                     "--config", os.path.join(w, "config.json"),
                     "--defocus-um", str(DEFOCUS_UM),
                     "--noise-sigma", str(NOISE_SIGMA),
                     "--seed", str(inputs.seed), "--out", sim],
                    ["reconstruct", "--dataset", sim, "--method", "epie",
                     "--iterations", str(self.sweeps), "--out", rec],
                    ["metrics", "--recon", os.path.join(rec, "object.fpc1"),
                     "--truth", os.path.join(w, "truth.fpc1")],
                    ["inspect", "--dataset", sim]):
                code = fptycho.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"fptycho {argv[0]} exited {code}")
        return text.getvalue()

    def warmup(self, inputs: CliInputs) -> None:
        """One call into empty output directories: it creates every file."""
        for d in ("sim", "rec"):
            shutil.rmtree(os.path.join(inputs.work, d), ignore_errors=True)
        self.call(inputs)

    def prepare(self, inputs: CliInputs) -> None:
        """Empty the files the previous call wrote, keeping them in place.

        Creating and unlinking 230 files cost a quarter of a call on the
        2-core Xeon the benchmark was defined on, and spread by 0.6 from call
        to call, whatever the code's speed (NOTES.md); so the timed call rewrites
        existing files (the CLI opens them for writing, which truncates).
        Emptying them first keeps the check honest: a file the call fails
        to write stays empty, and its hash differs from the first call's."""
        for d in ("sim", "rec"):
            d = os.path.join(inputs.work, d)
            for fname in os.listdir(d):
                os.truncate(os.path.join(d, fname), 0)

    def outcome(self, inputs: CliInputs, stdout: str) -> Outcome:
        """Hashes every file the CLI wrote plus its stdout (which holds no
        path that changes between calls)."""
        sim, rec = os.path.join(inputs.work, "sim"), os.path.join(inputs.work, "rec")
        h = hashlib.sha256()
        for d in (sim, rec):
            for fname in sorted(os.listdir(d)):
                with open(os.path.join(d, fname), "rb") as fh:
                    h.update(fname.encode() + b"\0" + fh.read())
        h.update(stdout.encode())
        obj = fptycho.io.read_complex_grid(os.path.join(rec, "object.fpc1"))
        pupil = fptycho.io.read_complex_grid(os.path.join(rec, "pupil.fpc1"))
        out = solver_outcome(inputs, obj, pupil, read_loss_csv(os.path.join(rec, "loss.csv")),
                             self.sweeps * len(inputs.cfg.illuminations))
        out.sha256 = h.hexdigest()
        return out


def read_loss_csv(path: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if not rows or rows[0] != "epoch,loss":
        raise RuntimeError(f"{path}: unexpected header")
    return [float(r.split(",")[1]) for r in rows[1:]]


# ---------------------------------------------------------------------------
# the workload table


def make_workloads(work_root: str) -> dict:
    """The four workloads by name; ``work_root`` holds cli_roundtrip's files.
    The warm-up configurations run the same array sizes as the timed ones."""
    PC, EC = fptycho.pgnn.PgnnConfig, fptycho.epie.EpieConfig
    tv = dict(tv_alpha1=1e-3, tv_alpha2=1e-3)
    return {w.name: w for w in (
        ApiWorkload("pgnn_zern", "pgnn.run_pgnn", PC(),
                    PC(stages=2, epochs_per_stage=1), sweeps=50),
        ApiWorkload("pgnn_tv", "pgnn.run_pgnn", PC(stages=4, epochs_per_stage=1, **tv),
                    PC(stages=2, epochs_per_stage=1, **tv), sweeps=4),
        ApiWorkload("epie_conv", "epie.run_epie",
                    EC(iterations=50, pupil_update="conventional"),
                    EC(iterations=1, pupil_update="conventional"), sweeps=50),
        CliWorkload(work_root),
    )}
