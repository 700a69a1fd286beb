"""Command-line interface: subcommands, outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from fptycho.cli import build_parser, main
from fptycho.epie import EpieConfig
from fptycho.io import (default_file_names, manifest_text, read_complex_grid,
                        read_dataset, write_complex_grid, write_real_grid)
from fptycho.optics import Illumination, OpticalConfig, pupil_support
from fptycho.pgnn import PgnnConfig


def _cli_config() -> OpticalConfig:
    steps = (-0.05, 0.0, 0.05)
    leds = tuple(Illumination(sx, sy) for sy in steps for sx in steps)
    return OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                         camera_pixel_um=3.45, low_rows=8, low_cols=8,
                         upsample=2, illuminations=leds)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Truth grids plus a config manifest, ready for the simulate command."""
    root = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.Generator(np.random.PCG64(95))
    amp = 0.5 + 0.5 * rng.random((16, 16))
    phase = rng.random((16, 16)) - 0.5
    write_real_grid(str(root / "amp.fpd1"), amp)
    write_real_grid(str(root / "phase.fpd1"), phase)
    (root / "config.json").write_text(
        manifest_text(_cli_config(), default_file_names(9), None))
    return root


def _simulate(cli_inputs, out_dir, *extra):
    argv = ["simulate",
            "--truth-amp", str(cli_inputs / "amp.fpd1"),
            "--truth-phase", str(cli_inputs / "phase.fpd1"),
            "--config", str(cli_inputs / "config.json"),
            "--out", str(out_dir), *extra]
    return main(argv)


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def cli_dataset(cli_inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_dataset")
    assert _simulate(cli_inputs, out) == 0
    return out


def test_simulate_writes_a_loadable_dataset(cli_dataset):
    ds = read_dataset(str(cli_dataset))
    assert len(ds.images) == 9
    assert all(img.shape == (8, 8) for img in ds.images)
    assert all(np.all(img >= 0) for img in ds.images)


def test_simulate_is_byte_deterministic(cli_inputs, cli_dataset, tmp_path):
    assert _simulate(cli_inputs, tmp_path / "again") == 0
    assert _dir_bytes(tmp_path / "again") == _dir_bytes(cli_dataset)


def test_simulate_noise_respects_the_seed(cli_inputs, tmp_path):
    for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        assert _simulate(cli_inputs, tmp_path / name,
                         "--noise-sigma", "0.01", "--seed", seed) == 0
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")
    assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "c")


@pytest.mark.parametrize("flag, level", [((), 0.5), (("--saturation", "0.25"), 0.25)],
                         ids=["config", "flag"])
def test_simulate_clips_at_the_config_saturation_unless_the_flag_is_given(
        cli_inputs, tmp_path, capsys, flag, level):
    config = tmp_path / "config.json"
    config.write_text(manifest_text(_cli_config(), default_file_names(9), 0.5))
    out = tmp_path / "sim"
    assert main(["simulate", "--truth-amp", str(cli_inputs / "amp.fpd1"),
                 "--truth-phase", str(cli_inputs / "phase.fpd1"),
                 "--config", str(config), "--out", str(out), *flag]) == 0
    ds = read_dataset(str(out))
    assert ds.saturation == level
    assert max(img.max() for img in ds.images) == level
    capsys.readouterr()
    assert main(["inspect", "--dataset", str(out)]) == 0
    assert f"saturation: {level}\n" in capsys.readouterr().out


def _reconstruct(cli_dataset, out_dir, method, *extra):
    return main(["reconstruct", "--dataset", str(cli_dataset),
                 "--method", method, "--out", str(out_dir), *extra])


def test_reconstruct_epie_writes_the_full_output_set(cli_dataset, tmp_path):
    out = tmp_path / "rec"
    assert _reconstruct(cli_dataset, out, "epie", "--iterations", "3") == 0
    for name in ("object.fpc1", "pupil.fpc1", "object_amp.pgm",
                 "object_phase.pgm", "loss.csv"):
        assert (out / name).is_file()
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]
    assert read_complex_grid(str(out / "object.fpc1")).shape == (16, 16)
    assert read_complex_grid(str(out / "pupil.fpc1")).shape == (8, 8)


def test_reconstruct_epie_is_byte_deterministic(cli_dataset, tmp_path):
    for name in ("r1", "r2"):
        assert _reconstruct(cli_dataset, tmp_path / name, "epie",
                            "--iterations", "3") == 0
    assert _dir_bytes(tmp_path / "r1") == _dir_bytes(tmp_path / "r2")


def test_reconstruct_pgnn_runs_and_logs_per_epoch(cli_dataset, tmp_path):
    out = tmp_path / "rec"
    assert _reconstruct(cli_dataset, out, "pgnn",
                        "--stages", "2", "--epochs", "1") == 0
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(np.isfinite(v) for v in vals)
    assert read_complex_grid(str(out / "object.fpc1")).shape == (16, 16)


def test_reconstruct_pgnn_free_pupil_is_byte_deterministic(cli_dataset,
                                                           tmp_path):
    for name in ("r1", "r2"):
        assert _reconstruct(cli_dataset, tmp_path / name, "pgnn", "--stages",
                            "2", "--epochs", "1", "--zernike", "off") == 0
    assert _dir_bytes(tmp_path / "r1") == _dir_bytes(tmp_path / "r2")
    pupil = read_complex_grid(str(tmp_path / "r1" / "pupil.fpc1"))
    outside = ~pupil_support(_cli_config())
    assert np.any(outside)
    assert np.all(pupil[outside] == 0)
    assert np.any(pupil[~outside] != 0)


def test_zernike_mode_count_below_one_exits_2(cli_dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _reconstruct(cli_dataset, tmp_path / "rec", "pgnn", "--zernike", "0")
    assert exc.value.code == 2
    assert "zernike mode count" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


# NaN passes a '< 0' check: these used to run as if the option were 0
@pytest.mark.parametrize("command, option", [
    ("simulate", "--noise-sigma"),
    ("simulate", "--saturation"),
    ("reconstruct", "--tv-alpha1"),
    ("reconstruct", "--tv-alpha2"),
    ("reconstruct", "--lr-object"),
])
def test_nan_options_exit_1(cli_inputs, cli_dataset, tmp_path, capsys,
                            command, option):
    out = tmp_path / "out"
    if command == "simulate":
        code = _simulate(cli_inputs, out, option, "nan")
    else:
        code = _reconstruct(cli_dataset, out, "pgnn", "--stages", "1",
                            "--epochs", "1", option, "nan")
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_of_identical_grids(tmp_path, capsys):
    rng = np.random.Generator(np.random.PCG64(96))
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    write_complex_grid(str(tmp_path / "a.fpc1"), z)
    assert main(["metrics", "--recon", str(tmp_path / "a.fpc1"),
                 "--truth", str(tmp_path / "a.fpc1")]) == 0
    parts = capsys.readouterr().out.strip().split(",")
    assert float(parts[0]) <= 1e-15   # phase-alignment fma residue
    assert parts[1] == "0"
    assert parts[2] == "inf"


def test_metrics_line_matches_the_library(tmp_path, capsys):
    from fptycho.evaluate import metrics as lib_metrics

    rng = np.random.Generator(np.random.PCG64(97))
    truth = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    write_complex_grid(str(tmp_path / "t.fpc1"), truth)
    write_complex_grid(str(tmp_path / "r.fpc1"), 1.1 * truth)
    assert main(["metrics", "--recon", str(tmp_path / "r.fpc1"),
                 "--truth", str(tmp_path / "t.fpc1")]) == 0
    parts = capsys.readouterr().out.strip().split(",")
    want = lib_metrics(read_complex_grid(str(tmp_path / "r.fpc1")),
                       read_complex_grid(str(tmp_path / "t.fpc1")))
    assert float(parts[0]) == pytest.approx(want.rel_err_complex, rel=1e-9)
    assert float(parts[1]) == pytest.approx(want.rel_err_amp, rel=1e-9)
    assert float(parts[2]) == pytest.approx(want.psnr_amp, rel=1e-9)


def test_inspect_summarizes_the_dataset(cli_dataset, capsys):
    assert main(["inspect", "--dataset", str(cli_dataset)]) == 0
    out = capsys.readouterr().out
    assert "images: 9" in out
    assert "capture: 8x8" in out
    assert "recovered: 16x16 (upsample 2)" in out
    assert "saturation: none" in out
    assert out.strip().splitlines()[-1].startswith("8,img_0008.fpd1,sx=")


def test_format_problems_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fpc1"
    write_complex_grid(str(bad), np.ones((2, 2), dtype=complex))
    bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
    code = main(["metrics", "--recon", str(bad), "--truth", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_manifest_problems_exit_2(tmp_path, capsys):
    code = main(["inspect", "--dataset", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "simulate"])
def test_manifest_that_is_not_utf8_exits_2(cli_inputs, tmp_path, capsys,
                                           command):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b"\xff" + (cli_inputs / "config.json").read_bytes())
    if command == "inspect":
        code = main(["inspect", "--dataset", str(tmp_path)])
    else:
        code = main(["simulate",
                     "--truth-amp", str(cli_inputs / "amp.fpd1"),
                     "--truth-phase", str(cli_inputs / "phase.fpd1"),
                     "--config", str(manifest), "--out", str(tmp_path / "sim")])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_bare_reconstruct_parses_to_the_config_defaults():
    args = build_parser().parse_args(["reconstruct", "--dataset", "d",
                                      "--method", "pgnn", "--out", "o"])
    pdef = PgnnConfig()
    assert (args.stages, args.epochs, args.tv_alpha1, args.tv_alpha2,
            args.zernike, args.lr_object, args.lr_pupil, args.lr_zern) == (
        pdef.stages, pdef.epochs_per_stage, pdef.tv_alpha1, pdef.tv_alpha2,
        pdef.zernike_modes, pdef.lr_object, pdef.lr_pupil_amp, pdef.lr_zern)
    assert args.iterations == EpieConfig().iterations


def test_duplicate_capture_names_exit_2(cli_inputs, tmp_path, capsys):
    doc = json.loads((cli_inputs / "config.json").read_text())
    doc["illuminations"][3]["file"] = doc["illuminations"][2]["file"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main(["simulate",
                 "--truth-amp", str(cli_inputs / "amp.fpd1"),
                 "--truth-phase", str(cli_inputs / "phase.fpd1"),
                 "--config", str(config), "--out", str(tmp_path / "sim")])
    assert code == 2
    assert "already used" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_non_finite_data_exits_3(cli_dataset, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(cli_dataset, broken)
    img = np.ones((8, 8))
    img[0, 0] = np.inf
    write_real_grid(str(broken / "img_0000.fpd1"), img)
    code = main(["inspect", "--dataset", str(broken)])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_missing_files_exit_1(tmp_path, capsys):
    code = main(["metrics", "--recon", str(tmp_path / "nope.fpc1"),
                 "--truth", str(tmp_path / "nope.fpc1")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
