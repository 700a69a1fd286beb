"""The benchmark's tracer wraps fptycho's functions by name: every name it
looks up must exist, and uninstalling must put every original back."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fptycho
import fptycho.epie
import fptycho.pgnn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name_and_restores_the_originals():
    modules = {info.name: importlib.import_module(f"fptycho.{info.name}")
               for info in pkgutil.iter_modules(fptycho.__path__)}
    tracing = _load_tracing()
    before = {name: dict(vars(m)) for name, m in modules.items()}
    methods = {attr: vars(fptycho.pgnn.PgnnModel)[attr]
               for attr in tracing.METHODS}
    forward_capture = fptycho.simulate.forward_capture
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fptycho.simulate.forward_capture is not forward_capture
        assert fptycho.simulate.forward_capture.__wrapped__ is forward_capture
        for module, attr in tracing.SPANS:
            assert hasattr(getattr(modules[module], attr), "__wrapped__"), (
                f"{module}.{attr} is not traced")
    finally:
        tracer.uninstall()
    assert fptycho.simulate.forward_capture is forward_capture
    for name, module in modules.items():
        now = vars(module)
        assert now.keys() == before[name].keys()
        assert all(now[k] is v for k, v in before[name].items()), (
            f"fptycho.{name} not restored")
    for attr, fn in methods.items():
        assert vars(fptycho.pgnn.PgnnModel)[attr] is fn
    # perfbench/run.py records the backend with every result
    assert isinstance(fptycho.kernels.BACKEND, str)


def _traced(tracing, call):
    """Run ``call`` under a traced root span; returns the per-layer counts."""
    tracer = tracing.Tracer()
    with tracer.root("bench.call"):
        call()
    return {key: value for key, (value, _) in tracer.summary(1).items()}


def test_traced_solvers_reach_every_step_entry_point(small_instance):
    # a solver that bypasses a traced name would drop out of the benchmark's
    # per-layer split; these counts catch it
    cfg, _, images = small_instance
    tracing = _load_tracing()
    pcfg = fptycho.pgnn.PgnnConfig(stages=2, epochs_per_stage=1,
                                   tv_alpha1=1e-3, tv_alpha2=1e-3)
    counts = _traced(tracing, lambda: fptycho.pgnn.run_pgnn(images, cfg, pcfg))
    steps = pcfg.stages * pcfg.epochs_per_stage * len(images)
    assert counts["pgnn.run_pgnn.calls"] == 1
    assert counts["pgnn.step.calls"] == steps
    # one Adam call per object step, two (amplitude, Zernike) per pupil step
    assert counts["kernels.adam_update.calls"] == 3 * len(images)
    assert counts["kernels.tv_grad.calls"] > 0
    assert counts["kernels.project_modes.calls"] == len(images)

    ecfg = fptycho.epie.EpieConfig(iterations=2)
    counts = _traced(tracing, lambda: fptycho.epie.run_epie(images, cfg, ecfg))
    assert counts["epie.run_epie.calls"] == 1
    assert counts["epie.epie_step.calls"] == ecfg.iterations * len(images)
    assert counts["pgnn.step.calls"] == 0
