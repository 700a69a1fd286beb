"""Command-line interface.

Subcommands: simulate, reconstruct, metrics, inspect. Exit codes: 0 on
success, 2 for format/manifest problems, 3 when NaN/Inf shows up in data or
solver state, 1 for anything else. All outputs are byte-deterministic for a
fixed command line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .epie import EpieConfig, run_epie
from .errors import FormatError, FptychoError, ManifestError, NumericalError
from .evaluate import metrics as compute_metrics
from .io import (OPTICS_FIELDS, Dataset, export_image, read_complex_grid,
                 read_dataset, read_manifest, read_real_grid,
                 write_complex_grid, write_dataset)
from .optics import defocus_phase, make_ctf
from .pgnn import PgnnConfig, run_pgnn
from .simulate import GroundTruth, SimOptions, simulate_dataset


def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _parse_seed(text: str) -> int:
    val = int(text)
    if not 0 <= val < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return val


def _parse_zernike(text: str) -> int | None:
    if text.lower() == "off":
        return None
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("zernike mode count must be >= 1 or 'off'")
    return val


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fptycho")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a capture set from a truth object")
    sim.add_argument("--truth-amp", required=True, help="FPD1 amplitude grid (high-res)")
    sim.add_argument("--truth-phase", required=True, help="FPD1 phase grid (high-res)")
    sim.add_argument("--config", required=True, help="manifest JSON with optics and LEDs")
    sim.add_argument("--defocus-um", type=float, default=0.0)
    sim.add_argument("--noise-sigma", type=float, default=0.0)
    sim.add_argument("--saturation", type=float, default=None,
                     help="clipping level (default: the config's saturation)")
    sim.add_argument("--seed", type=_parse_seed, default=0)
    sim.add_argument("--out", required=True)

    rec = sub.add_parser("reconstruct", help="recover object and pupil from a dataset")
    rec.add_argument("--dataset", required=True)
    rec.add_argument("--method", required=True, choices=("pgnn", "epie"))
    pdef = PgnnConfig()
    rec.add_argument("--stages", type=int, default=pdef.stages)
    rec.add_argument("--epochs", type=int, default=pdef.epochs_per_stage)
    rec.add_argument("--iterations", type=int, default=EpieConfig().iterations)
    rec.add_argument("--tv-alpha1", type=float, default=pdef.tv_alpha1)
    rec.add_argument("--tv-alpha2", type=float, default=pdef.tv_alpha2)
    rec.add_argument("--zernike", type=_parse_zernike, default=pdef.zernike_modes,
                     help="Zernike mode count, or 'off' for a free complex pupil")
    rec.add_argument("--lr-object", type=float, default=pdef.lr_object)
    rec.add_argument("--lr-pupil", type=float, default=pdef.lr_pupil_amp)
    rec.add_argument("--lr-zern", type=float, default=pdef.lr_zern)
    rec.add_argument("--out", required=True)

    met = sub.add_parser("metrics", help="compare a reconstruction with truth")
    met.add_argument("--recon", required=True, help="FPC1 complex grid")
    met.add_argument("--truth", required=True, help="FPC1 complex grid")

    ins = sub.add_parser("inspect", help="summarize a dataset directory")
    ins.add_argument("--dataset", required=True)
    return top


def cmd_simulate(args) -> int:
    cfg, files, saturation = read_manifest(args.config)
    if args.saturation is not None:
        saturation = args.saturation
    amp = read_real_grid(args.truth_amp)
    phase = read_real_grid(args.truth_phase)
    want = (cfg.high_rows, cfg.high_cols)
    if amp.shape != want or phase.shape != want:
        raise ManifestError(
            f"truth grids are {amp.shape}/{phase.shape}, config wants {want}")
    obj = amp * np.exp(1j * phase)
    pupil = make_ctf(cfg)
    if args.defocus_um != 0.0:
        pupil = pupil * np.exp(1j * defocus_phase(cfg, args.defocus_um))
    opts = SimOptions(noise_sigma=args.noise_sigma, saturation=saturation,
                      seed=args.seed)
    images = simulate_dataset(GroundTruth(object_spatial=obj, pupil=pupil),
                              cfg, opts)
    write_dataset(Dataset(optics=cfg, images=images, files=files,
                          saturation=saturation), args.out)
    print(f"wrote {len(images)} captures to {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    ds = read_dataset(args.dataset)
    if args.method == "epie":
        ecfg = EpieConfig(iterations=args.iterations)
        obj, pupil, history = run_epie(ds.images, ds.optics, ecfg)
    else:
        pcfg = PgnnConfig(stages=args.stages, epochs_per_stage=args.epochs,
                          lr_object=args.lr_object, lr_pupil_amp=args.lr_pupil,
                          lr_zern=args.lr_zern, tv_alpha1=args.tv_alpha1,
                          tv_alpha2=args.tv_alpha2,
                          zernike_modes=args.zernike)
        obj, pupil, history, _ = run_pgnn(ds.images, ds.optics, pcfg)
    if not (np.all(np.isfinite(obj.view(np.float64)))
            and np.all(np.isfinite(pupil.view(np.float64)))):
        raise NumericalError("reconstruction produced non-finite values")
    os.makedirs(args.out, exist_ok=True)
    write_complex_grid(os.path.join(args.out, "object.fpc1"), obj)
    write_complex_grid(os.path.join(args.out, "pupil.fpc1"), pupil)
    export_image(obj, os.path.join(args.out, "object_amp.pgm"), "amp")
    export_image(obj, os.path.join(args.out, "object_phase.pgm"), "phase")
    with open(os.path.join(args.out, "loss.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for i, val in enumerate(history, start=1):
            fh.write(f"{i},{_fmt(val)}\n")
    final = _fmt(history[-1]) if history else "nan"
    print(f"{args.method} reconstruction done, final loss {final}")
    return 0


def cmd_metrics(args) -> int:
    recon = read_complex_grid(args.recon)
    truth = read_complex_grid(args.truth)
    m = compute_metrics(recon, truth)
    print(f"{_fmt(m.rel_err_complex)},{_fmt(m.rel_err_amp)},{_fmt(m.psnr_amp)}")
    return 0


def cmd_inspect(args) -> int:
    ds = read_dataset(args.dataset)
    cfg = ds.optics
    print(f"images: {len(ds.images)}  capture: {cfg.low_rows}x{cfg.low_cols}  "
          f"recovered: {cfg.high_rows}x{cfg.high_cols} (upsample {cfg.upsample})")
    print("  ".join(f"{name}: {_fmt(getattr(cfg, name))}"
                    for name, typ in OPTICS_FIELDS.items() if typ is float))
    sat = "none" if ds.saturation is None else _fmt(ds.saturation)
    print(f"saturation: {sat}")
    for n, (ill, fname, img) in enumerate(
            zip(cfg.illuminations, ds.files, ds.images)):
        print(f"{n},{fname},sx={_fmt(ill.sx)},sy={_fmt(ill.sy)},"
              f"min={_fmt(img.min())},max={_fmt(img.max())},mean={_fmt(img.mean())}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "reconstruct": cmd_reconstruct,
        "metrics": cmd_metrics,
        "inspect": cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except (FormatError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FptychoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
