"""The benchmark's tracer wraps fptycho's functions by name: every name it
looks up must exist, and uninstalling must put every original back."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fptycho

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
