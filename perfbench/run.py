#!/usr/bin/env python3
"""fptycho benchmark: one workload in one process, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fptycho is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
give the machine facts and the details behind each number. Workloads,
metrics and tolerances are explained in ``perfbench/NOTES.md``.
"""

import os

# one solver thread: BLAS (used by tensordot) must not fan out
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SECONDS = 1.0  # setup_s is the median of the set-ups made in this
SETUP_MIN = 7        # much raw time, and of at least this many
CAL_PERIOD_S = 0.25  # interval between two calibration blocks
CAL_REF_S = 0.035    # block time at the reference speed (typical here; NOTES.md)

# Quality recorded for each workload on the numpy backend (rel_err_amp,
# loss_ratio), and the relative tolerance every run must meet; see NOTES.md.
REFERENCE = {
    "pgnn_zern": (0.114263, 0.00616534),
    "pgnn_tv": (0.244682, 0.590542),
    "epie_conv": (0.211438, 2.70156e-09),
    "cli_roundtrip": (0.212199, 1.0),
}
TOLERANCE = (0.05, 0.10)


def machine_facts() -> dict:
    import numpy
    import fptycho.kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": fptycho.kernels.BACKEND,
    }


def calibration_block() -> float:
    """Time a fixed piece of numpy work (no fptycho code) with the solvers'
    mix: 32x32 FFT round trips with amplitude replacement, and 128x128 FFTs
    with elementwise exp/abs. Dividing by it removes the machine's changing
    speed from a time; see NOTES.md."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    small = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    large = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    t0 = time.perf_counter()
    for _ in range(225):
        z = np.fft.ifft2(np.fft.ifftshift(small))
        a = np.abs(z)
        np.fft.fftshift(np.fft.fft2(np.sqrt(a) * (z / np.where(a == 0.0, 1.0, a))))
    for _ in range(9):
        b = np.fft.ifft2(large)
        np.fft.fft2(np.exp(1j * np.abs(b)) * b)
    return time.perf_counter() - t0


class Calibrator:
    """Times ``calibration_block`` from a SIGALRM timer every
    ``CAL_PERIOD_S`` while it is active, and converts raw times to reference
    seconds with the blocks timed during and right around each measurement.
    A signal handler runs between two bytecodes of the main thread, so
    blocks also land inside long solver calls; their time is taken out of
    the measurement they interrupt."""

    def __init__(self):
        self.blocks: list[tuple[float, float]] = []   # (end, duration)
        self.busy = 0.0

    def block(self, *_signal) -> None:
        """Time one block: the SIGALRM handler, or called between calls."""
        if self.blocks and self.blocks[-1][0] is None:
            return   # a block slower than the period: skip, do not nest
        self.blocks.append((None, 0.0))
        t0 = time.perf_counter()
        block = calibration_block()
        t1 = time.perf_counter()
        self.blocks[-1] = (t1, block)
        self.busy += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.block)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """Run ``fn()``; return its result and (start, end, seconds of work)."""
        busy, t0 = self.busy, time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, (t0, t1, t1 - t0 - (self.busy - busy))

    def reference(self, sample) -> float:
        """Work seconds of ``sample`` at the reference speed."""
        t0, t1, seconds = sample
        near = [b for end, b in self.blocks
                if t0 - CAL_PERIOD_S <= end <= t1 + CAL_PERIOD_S]
        if not near:
            near = [min(self.blocks, key=lambda eb: abs(eb[0] - t1))[1]]
        return seconds * CAL_REF_S / statistics.fmean(near)


def quality_ok(name: str, out) -> bool:
    values = (out.rel_err_amp, out.loss_ratio)
    return all(abs(v - ref) <= tol * ref
               for v, ref, tol in zip(values, REFERENCE[name], TOLERANCE))


class Runner:
    """Times calls of one workload and checks every outcome: finite, within
    the quality tolerance, and byte-identical to the first call's output."""

    def __init__(self, workload, inputs, clock):
        self.w, self.inputs, self.clock = workload, inputs, clock
        self.first = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: list[tuple[float, float, float]] = []

    def _call(self):
        try:
            return self.w.call(self.inputs)
        except Exception as exc:  # a failed run is counted, not fatal
            return exc

    def timed_call(self, scope=contextlib.nullcontext) -> float:
        """One call, timed inside ``scope`` (the tracer's root span when
        traced); the outcome is checked outside it. Returns work seconds."""
        self.attempted += 1
        self.w.prepare(self.inputs)
        with scope():
            result, sample = self.clock.measure(self._call)
        self.samples.append(sample)
        seconds = sample[2]
        if isinstance(result, Exception):
            self._fail(f"call raised {type(result).__name__}: {result}")
            return seconds
        try:
            out = self.w.outcome(self.inputs, result)
        except Exception as exc:
            self._fail(f"outcome raised {type(exc).__name__}: {exc}")
            return seconds
        if self.first is None:
            self.first = out
        if not out.finite:
            self._fail("non-finite output")
        elif out.sha256 != self.first.sha256:
            self._fail(f"output sha256 {out.sha256[:16]} differs from the first "
                       f"call's {self.first.sha256[:16]}")
        elif not quality_ok(self.w.name, out):
            self._fail(f"quality rel_err_amp={out.rel_err_amp:.6g} "
                       f"loss_ratio={out.loss_ratio:.6g} outside tolerance")
        return seconds

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


def tail(samples: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    s = sorted(samples)
    text = f"median {statistics.median(s):.6f} s, n={n}"
    if n >= 11:
        return text + f", p{100.0 * (n - 10) / n:.0f} {s[n - 11]:.6f} s"
    return text + f", max {s[-1]:.6f} s (n < 11: no percentile has ten samples beyond it)"


def run_plain(w, seed: int, seconds: float):
    with Calibrator() as cal:
        setups = []
        while len(setups) < SETUP_MIN or sum(x[2] for x in setups) < SETUP_SECONDS:
            inputs, sample = cal.measure(lambda: w.setup(seed))
            setups.append(sample)
        w.warmup(inputs)
        runner = Runner(w, inputs, cal)
        total = 0.0
        while total < seconds:
            total += runner.timed_call()
    setup_ref = [cal.reference(x) for x in setups]
    walls = [x[2] for x in runner.samples]
    walls_ref = [cal.reference(x) for x in runner.samples]
    wall = statistics.median(walls_ref)
    blocks = [b for _, b in cal.blocks]
    print(f"calibration: {len(blocks)} blocks, median {statistics.median(blocks):.6f} s, "
          f"range {min(blocks):.6f}..{max(blocks):.6f} s; reference {CAL_REF_S} s")
    print(f"setup_s: median {statistics.median(setup_ref):.6f} reference s, "
          f"n={len(setups)}; raw " + " ".join(f"{x[2]:.4f}" for x in setups))
    print(f"wall_s: {tail(walls_ref)} (reference s); raw {tail(walls)}; raw samples "
          + " ".join(f"{t:.4f}" for t in walls))
    metrics = {"setup_s": (statistics.median(setup_ref), "s"), "wall_s": (wall, "s")}
    if runner.first is not None:
        out = runner.first
        print(f"image visits per call: {out.visits}; output sha256 {out.sha256}")
        metrics["image_steps_per_s"] = (out.visits / wall, "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if runner.first is not None:
        metrics["rel_err_amp"] = (runner.first.rel_err_amp, "ratio")
        metrics["loss_ratio"] = (runner.first.loss_ratio, "ratio")
    return runner, metrics


def run_traced(w, seed: int, seconds: float):
    from tracing import Tracer

    inputs = w.setup(seed)
    w.warmup(inputs)
    # the timer stays off here: its blocks would land inside the spans, so
    # blocks run only between calls
    cal = Calibrator()
    runner = Runner(w, inputs, cal)
    tracer = Tracer()
    cal.block()
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds:
        plain.append(runner.timed_call())
        cal.block()
        with tracer.root("bench.setup"):
            runner.inputs = w.setup(seed)
        traced.append(runner.timed_call(lambda: tracer.root("bench.call")))
        cal.block()
    metrics = tracer.summary(len(traced))
    ref = [cal.reference(x) for x in runner.samples]
    metrics["trace.overhead_frac"] = (
        statistics.median(ref[1::2]) / statistics.median(ref[0::2]) - 1.0, "ratio")
    path = os.path.join(OUT, f"spans-{w.name}-seed{seed}.npz")
    tracer.write(path)
    print(f"untraced calls (raw): {tail(plain)}")
    print(f"traced calls (raw): {tail(traced)}")
    print(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    if not os.path.isfile(os.path.join(SRC, "fptycho", "__init__.py")):
        print(f"error: no fptycho sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    table = workloads.make_workloads(OUT)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload: {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    run = run_traced if args.trace else run_plain
    runner, metrics = run(w, args.seed, args.seconds)
    for why in runner.problems[:10]:
        print(f"failed: {why}")
    print(f"failed_frac: {runner.failed}/{runner.attempted}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0 and runner.first is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
