"""End-to-end acceptance runs.

Each test evaluates one shipping criterion on the reference problems, records
a PASS/FAIL verdict line (printed in the terminal summary), and then asserts.
The expensive solver runs come from session-scoped fixtures shared with the
per-module tests.
"""

import numpy as np

from conftest import ap_misfit, record_verdict
from fptycho.epie import (EpieConfig, EpieState, epie_step,
                          measured_amplitudes, traversal_order)
from fptycho.evaluate import metrics, passband_rel_err_amp
from fptycho.field import center_shift, dft2
from fptycho.io import (Dataset, default_file_names, manifest_text,
                        read_complex_grid, read_dataset, write_complex_grid,
                        write_dataset, write_real_grid)
from fptycho.kernels import tv_value
from fptycho.optics import Illumination, OpticalConfig, illumination_offsets, make_ctf
from fptycho.pgnn import PgnnConfig, PgnnModel


def _verdict(number: int, ok: bool, detail: str) -> None:
    record_verdict(number, ok, detail)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_gradients_match_finite_differences(fd_campaign):
    worst = max(w for _, w in fd_campaign)
    bad = [label for label, w in fd_campaign if w > 1e-4]
    ok = len(fd_campaign) >= 20 and not bad
    _verdict(1, ok, f"worst rel gap {worst:.3g} over {len(fd_campaign)} "
                    f"instances (gate 1e-4)")
    assert ok, f"instances above gate: {bad}"


def test_acceptance_2_forward_model_is_consistent_at_ground_truth(
        small_instance):
    cfg, obj, images = small_instance

    model = PgnnModel(images, cfg, PgnnConfig())
    state = model.initial_state()
    state.object_spectrum = center_shift(dft2(obj)) / (32 * 32)
    loss = model.dataset_loss(state)
    scale = sum(float(np.vdot(p, p).real)
                for p in (model.predicted_spectrum(state, n)
                          for n in range(len(images))))
    ratio = loss / scale

    gt_state = EpieState(
        object_spectrum=center_shift(dft2(obj)) * cfg.spectrum_scale,
        pupil=make_ctf(cfg))
    before = gt_state.object_spectrum.copy()
    offsets = illumination_offsets(cfg)
    amps = measured_amplitudes(images, cfg)
    for n in traversal_order(cfg):
        epie_step(gt_state, amps[n], offsets[n], EpieConfig())
    drift = (np.linalg.norm(gt_state.object_spectrum - before)
             / np.linalg.norm(before))

    ok = ratio <= 1e-16 and drift <= 1e-10
    _verdict(2, ok, f"descent loss ratio {ratio:.3g} (gate 1e-16), "
                    f"projection sweep drift {drift:.3g} (gate 1e-10)")
    assert ok


def test_acceptance_3_noiseless_infocus_runs_converge_to_the_truth(
        pgnn_infocus, epie_infocus_nopupil, truth_object, reference_cfg):
    p_spatial, _, p_hist, _ = pgnn_infocus
    e_spatial, _, e_hist = epie_infocus_nopupil
    p_ratio = p_hist[-1] / p_hist[0]
    e_ratio = e_hist[-1] / e_hist[0]
    p_err = passband_rel_err_amp(p_spatial, truth_object, reference_cfg)
    e_err = passband_rel_err_amp(e_spatial, truth_object, reference_cfg)
    ok = (p_ratio <= 1e-3 and e_ratio <= 1e-3
          and p_err <= 0.1 and e_err <= 0.1)
    _verdict(3, ok, f"loss ratios descent {p_ratio:.3g} / projection "
                    f"{e_ratio:.3g} (gate 1e-3); passband amp errors "
                    f"{p_err:.3g} / {e_err:.3g} (gate 0.1)")
    assert ok


def test_acceptance_4_zernike_stages_recover_a_defocused_pupil(
        pgnn_defocus_zern, pgnn_defocus_nozern, epie_defocus_default,
        defocus_images, truth_object, reference_cfg):
    z_spatial, z_pupil, _, z_state = pgnn_defocus_zern
    f_spatial, f_pupil, _, _ = pgnn_defocus_nozern
    e_spatial, e_pupil, _ = epie_defocus_default

    z_fit = ap_misfit(z_spatial, z_pupil, defocus_images, reference_cfg)
    f_fit = ap_misfit(f_spatial, f_pupil, defocus_images, reference_cfg)
    e_fit = ap_misfit(e_spatial, e_pupil, defocus_images, reference_cfg)

    z_err = passband_rel_err_amp(z_spatial, truth_object, reference_cfg)
    f_err = passband_rel_err_amp(f_spatial, truth_object, reference_cfg)
    e_err = passband_rel_err_amp(e_spatial, truth_object, reference_cfg)

    non_gauge = np.abs(z_state.zern_coeffs[3:])
    dominant = non_gauge[0] == np.max(non_gauge)

    ok = (z_fit < f_fit and z_fit < e_fit
          and z_err < f_err and z_err < e_err and dominant)
    _verdict(4, ok, f"spectral misfit {z_fit:.3g} < free {f_fit:.3g} and "
                    f"projection {e_fit:.3g}; amp err {z_err:.3g} < "
                    f"{f_err:.3g} / {e_err:.3g}; defocus mode dominant: "
                    f"{dominant}")
    assert ok


def test_acceptance_5_tv_weights_smooth_without_wrecking_the_fit(
        pgnn_defocus_tv, pgnn_defocus_zern, defocus_images, reference_cfg):
    tv_spatial = pgnn_defocus_tv[0]
    base_spatial = pgnn_defocus_zern[0]
    tv_rough = tv_value(np.abs(tv_spatial))
    base_rough = tv_value(np.abs(base_spatial))

    model = PgnnModel(defocus_images, reference_cfg, PgnnConfig())
    tv_data = sum(model.forward(pgnn_defocus_tv[3], n).data_loss
                  for n in range(len(defocus_images)))
    base_data = sum(model.forward(pgnn_defocus_zern[3], n).data_loss
                    for n in range(len(defocus_images)))
    data_ratio = tv_data / base_data

    ok = tv_rough < base_rough and data_ratio <= 10.0
    _verdict(5, ok, f"amplitude roughness {tv_rough:.6g} < unregularized "
                    f"{base_rough:.6g}; data-term ratio {data_ratio:.3g} "
                    f"(gate 10)")
    assert ok


def test_acceptance_6_pupil_stages_beat_object_only_descent(
        pgnn_defocus_zern, pgnn_defocus_object_only):
    with_pupil = pgnn_defocus_zern[2][-1]
    object_only = pgnn_defocus_object_only[2][-1]
    ok = with_pupil < object_only
    _verdict(6, ok, f"final loss {with_pupil:.6g} (alternating) < "
                    f"{object_only:.6g} (object-only), equal epoch budgets")
    assert ok


def test_acceptance_7_many_mode_solver_survives_clipped_highlights(
        pgnn_clipped_many_modes, epie_clipped_all_modes, truth_object,
        reference_cfg):
    p_err = passband_rel_err_amp(pgnn_clipped_many_modes[0], truth_object,
                                 reference_cfg)
    e_errs = {name: passband_rel_err_amp(run[0], truth_object, reference_cfg)
              for name, run in epie_clipped_all_modes.items()}
    # the comparison baseline is the projection solver at its default pupil
    # update rule; other variants reported for context only
    baseline = e_errs["literal"]
    ok = p_err <= 0.25 and p_err <= baseline
    _verdict(7, ok, f"descent amp err {p_err:.3g} (gate 0.25) vs default "
                    f"projection solver {baseline:.3g} "
                    f"({', '.join(f'{k}={v:.3g}' for k, v in e_errs.items())})")
    assert ok


def test_acceptance_8_disk_cli_and_metric_plumbing_round_trips(
        small_instance, tmp_path):
    from fptycho.cli import main

    cfg, obj, images = small_instance
    checks = []

    # dataset directory round trip (float32 on disk)
    imgs32 = [img.astype(np.float32).astype(np.float64) for img in images]
    write_dataset(Dataset(optics=cfg, images=imgs32,
                          files=default_file_names(len(imgs32))),
                  str(tmp_path / "ds"))
    back = read_dataset(str(tmp_path / "ds"))
    checks.append(("dataset round trip",
                   back.optics == cfg and all(
                       np.array_equal(a, b)
                       for a, b in zip(back.images, imgs32))))

    # complex grid round trip
    obj32 = (obj.real.astype(np.float32).astype(np.float64)
             + 1j * obj.imag.astype(np.float32).astype(np.float64))
    write_complex_grid(str(tmp_path / "obj.fpc1"), obj32)
    checks.append(("complex grid round trip",
                   np.array_equal(read_complex_grid(str(tmp_path / "obj.fpc1")),
                                  obj32)))

    # metrics ignore the phase gauge
    rotated = np.exp(1j * 0.9) * obj
    checks.append(("gauge-invariant metrics",
                   metrics(rotated, obj).rel_err_complex <= 1e-12))

    # CLI pipeline is byte-deterministic end to end
    rng = np.random.Generator(np.random.PCG64(98))
    steps = (-0.05, 0.0, 0.05)
    cli_cfg = OpticalConfig(wavelength_um=0.532, na=0.1, magnification=2.0,
                            camera_pixel_um=3.45, low_rows=8, low_cols=8,
                            upsample=2,
                            illuminations=tuple(Illumination(sx, sy)
                                                for sy in steps
                                                for sx in steps))
    write_real_grid(str(tmp_path / "amp.fpd1"), 0.5 + 0.5 * rng.random((16, 16)))
    write_real_grid(str(tmp_path / "phase.fpd1"), rng.random((16, 16)) - 0.5)
    (tmp_path / "config.json").write_text(
        manifest_text(cli_cfg, default_file_names(9), None))

    def run_pipeline(tag):
        sim_dir = tmp_path / f"sim_{tag}"
        rec_dir = tmp_path / f"rec_{tag}"
        assert main(["simulate", "--truth-amp", str(tmp_path / "amp.fpd1"),
                     "--truth-phase", str(tmp_path / "phase.fpd1"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(sim_dir)]) == 0
        assert main(["reconstruct", "--dataset", str(sim_dir), "--method",
                     "epie", "--iterations", "3", "--out", str(rec_dir)]) == 0
        return {p.name: p.read_bytes()
                for d in (sim_dir, rec_dir) for p in sorted(d.iterdir())}

    checks.append(("CLI byte determinism", run_pipeline("a") == run_pipeline("b")))

    failed = [name for name, passed in checks if not passed]
    ok = not failed
    _verdict(8, ok, "all plumbing round trips byte-exact" if ok
             else f"failed: {', '.join(failed)}")
    assert ok, f"failed plumbing checks: {failed}"
