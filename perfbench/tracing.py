"""Per-layer tracing from outside the program.

``Tracer.install`` replaces fptycho's public functions (module attributes,
the ``PgnnModel`` methods below, and every name other fptycho modules bound
to them with ``from ... import``) by wrappers that record a span
(name, start, end, parent) and byte counts. ``uninstall`` puts the originals
back, so untraced calls in the same process run the unmodified code. No file
under ``src/`` changes.

Spans stay in memory; ``Tracer.write`` saves them once, when the run ends.
A span's self time is its duration minus the durations of its direct
children: the program runs on one thread, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

import fptycho.optics
import fptycho.pgnn

OPTICS = "optics"   # all of optics is one layer: its calls and self time add up

# (module, attribute) -> span name; several attributes may share a span
SPANS = {
    ("field", "dft2"): "field.dft2",
    ("field", "idft2"): "field.idft2",
    ("field", "center_shift"): "field.shift",
    ("field", "inverse_center_shift"): "field.shift",
    ("field", "phase_unit"): "field.phase_unit",
    ("field", "wrap_phase"): "field.wrap_phase",
    ("simulate", "forward_capture"): "simulate.forward_capture",
    ("simulate", "simulate_dataset"): "simulate.simulate_dataset",
    ("epie", "ap_project"): "epie.ap_project",
    ("epie", "epie_step"): "epie.epie_step",
    ("epie", "run_epie"): "epie.run_epie",
    ("pgnn", "run_pgnn"): "pgnn.run_pgnn",
    ("kernels", "adam_update"): "kernels.adam_update",
    ("kernels", "synth_phase"): "kernels.synth_phase",
    ("kernels", "project_modes"): "kernels.project_modes",
    ("kernels", "tv_value"): "kernels.tv_value",
    ("kernels", "tv_grad"): "kernels.tv_grad",
    ("evaluate", "metrics"): "evaluate.metrics",
    ("io", "read_dataset"): "io.read_dataset",
    ("io", "write_dataset"): "io.write_dataset",
    ("io", "write_complex_grid"): "io.write_outputs",
    ("io", "export_image"): "io.write_outputs",
    ("cli", "cmd_simulate"): "cli.simulate",
    ("cli", "cmd_reconstruct"): "cli.reconstruct",
    ("cli", "cmd_metrics"): "cli.metrics",
    ("cli", "cmd_inspect"): "cli.inspect",
}
# every public function defined in optics
SPANS.update({("optics", name): OPTICS for name, fn in vars(fptycho.optics).items()
              if callable(fn) and getattr(fn, "__module__", None) == "fptycho.optics"
              and not name.startswith("_") and not isinstance(fn, type)})

METHODS = {
    "__init__": "pgnn.init",
    "step": "pgnn.step",
    "pupil": "pgnn.pupil",
    "forward": "pgnn.forward",
    "spatial_object": "pgnn.spatial_object",
}

# grid readers and writers are counted (bytes, from file sizes) but carry no
# span of their own: their time belongs to the io or cli span that calls them
COUNTED_IO = {
    "read_real_grid": "io.bytes_read",
    "read_complex_grid": "io.bytes_read",
    "write_real_grid": "io.bytes_written",
}


def _fft_bytes(args, result) -> int:
    return np.asarray(args[0]).nbytes + result.nbytes


def steps_to_tol(history, tol: float = 0.01) -> int:
    """First 1-based epoch whose loss is within ``tol`` of the whole drop
    from the first entry to the last."""
    h = np.asarray(history, dtype=np.float64)
    if h.size == 0:
        return 0
    limit = h[-1] + tol * abs(h[0] - h[-1])
    return int(np.argmax(h <= limit)) + 1


# span name -> (counter, function of (args, result) giving its increment)
COUNTERS = {
    "field.dft2": ("field.fft.bytes_computed", _fft_bytes),
    "field.idft2": ("field.fft.bytes_computed", _fft_bytes),
    # Adam reads p, g, m, v and writes p, m, v: seven float64 streams
    "kernels.adam_update": ("kernels.adam_update.bytes_computed",
                            lambda a, r: 7 * np.asarray(a[0]).nbytes),
    "kernels.tv_value": ("kernels.tv.bytes_computed",
                         lambda a, r: np.asarray(a[0]).nbytes),
    "kernels.tv_grad": ("kernels.tv.bytes_computed",
                        lambda a, r: np.asarray(a[0]).nbytes + r.nbytes),
    "io.read_dataset": ("io.bytes_read", lambda a, r: os.path.getsize(
        os.path.join(a[0], "manifest.json"))),
    "io.write_dataset": ("io.bytes_written", lambda a, r: os.path.getsize(
        os.path.join(a[1], "manifest.json"))),
    # write_complex_grid(path, grid) and export_image(grid, path, mode)
    "io.write_outputs": ("io.bytes_written", lambda a, r: os.path.getsize(
        next(x for x in a if isinstance(x, str)))),
    "epie.run_epie": ("epie.sweeps_to_tol", lambda a, r: steps_to_tol(r[2])),
    "pgnn.run_pgnn": ("pgnn.epochs_to_tol", lambda a, r: steps_to_tol(r[2])),
}


class Tracer:
    """Records spans while installed and inside a ``root`` span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []          # [name_id, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.exceptions = 0
        self._last_exc = None
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _count(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _note_exception(self, exc: BaseException) -> None:
        if exc is not self._last_exc:
            self._last_exc = exc
            self.exceptions += 1

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_exception(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                self._count(counter[0], counter[1](args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, counter: str):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(counter, os.path.getsize(args[0]))
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Swap every traced function for its wrapper in every fptycho module."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "fptycho" or n.startswith("fptycho.")}
        wrappers = {}
        for (mod, attr), name in SPANS.items():
            fn = getattr(mods["fptycho." + mod], attr)
            wrappers[id(fn)] = self._span_wrapper(fn, name)
        io_mod = mods["fptycho.io"]
        for attr, counter in COUNTED_IO.items():
            fn = getattr(io_mod, attr)
            wrappers[id(fn)] = self._count_wrapper(fn, counter)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and w.__wrapped__ is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)
        cls = fptycho.pgnn.PgnnModel
        for attr, name in METHODS.items():
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._span_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    @contextmanager
    def root(self, name: str):
        """A benchmark-level span (``bench.setup`` or ``bench.call``); the
        program is traced, beneath it, only while it is open."""
        rec = [self._name_id(name), 0, 0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.install()
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.uninstall()
            self.stack.pop()

    def write(self, path: str) -> None:
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), name_id=arr[:, 0],
                            start_ns=arr[:, 1], end_ns=arr[:, 2], parent=arr[:, 3])

    def summary(self, repeats: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per repetition (one set-up plus one call)."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        ids, parent = arr[:, 0], arr[:, 3]
        dur = (arr[:, 2] - arr[:, 1]).astype(np.float64) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child

        def pick(name):
            return ids == self.name_ids.get(name, -1)

        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (value / repeats, unit)

        for name in dict.fromkeys([*SPANS.values(), *METHODS.values()]):
            m = pick(name)
            if name.startswith("cli."):
                put(f"{name}.wall_s", float(dur[m].sum()), "s")
            elif name == OPTICS:
                put("optics.calls", float(m.sum()), "count")
                put("optics.self_s", float(self_s[m].sum()), "s")
            else:
                put(f"{name}.calls", float(m.sum()), "count")
                put(f"{name}.self_s", float(self_s[m].sum()), "s")
        for key, unit in (("field.fft.bytes_computed", "B"),
                          ("kernels.adam_update.bytes_computed", "B"),
                          ("kernels.tv.bytes_computed", "B"),
                          ("io.bytes_read", "B"), ("io.bytes_written", "B"),
                          ("epie.sweeps_to_tol", "count"),
                          ("pgnn.epochs_to_tol", "count")):
            put(key, float(self.counters.get(key, 0)), unit)
        calls = pick("bench.call")
        out["trace.unattributed_frac"] = (
            float(self_s[calls].sum() / dur[calls].sum()), "ratio")
        out["trace.exceptions"] = (float(self.exceptions), "count")
        return out
