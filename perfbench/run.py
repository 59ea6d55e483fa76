"""kinemotion benchmark: train / classify / assess through ``kinemotion.cli.run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 1

One client issues commands in a closed loop, each only after the previous
one returned, for ``--seconds`` seconds.  ``--trace 0`` reports the
end-to-end metrics with tracing off, times stated at the reference speed of
hostref.py's kernel; ``--trace 1`` alternates untraced and
traced commands on the same inputs and reports the per-layer metrics.
Every command's outputs are checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "classify", "assess"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    The load is one client on a few shared cores.  There, a second BLAS
    thread made the small matrix products of this program slower, and a
    mid-sized one 40 times slower, whenever the other core was
    taken: the wait for it, not the program, set the time.  Returns nproc.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_package():
    """Import kinemotion from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kinemotion" / "__init__.py").is_file():
        raise SystemExit(f"error: no kinemotion sources under {src}")
    sys.path.insert(0, str(src))
    import kinemotion

    if Path(kinemotion.__file__).resolve().parent != src / "kinemotion":
        raise SystemExit(f"error: imported kinemotion from {kinemotion.__file__}")


def machine_info(nproc) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs, times and checks the commands of one workload."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.inputs = work_dir / "inputs"
        self.out = work_dir / "out"
        self.attempted = 0
        self.failed = 0

    def _fresh_out(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def setup(self) -> float:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            self.workload.setup(self.inputs)
        return time.perf_counter() - start

    def _call(self, argv):
        """Run one command in-process; (exit code, wall ns, captured stderr)."""
        from kinemotion import cli

        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a dead benchmark
                code = "traceback"
                traceback.print_exc(file=err)
            wall_ns = time.perf_counter_ns() - start
        return code, wall_ns, err.getvalue()

    def _record(self, label, failures, stderr):
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(failures), file=sys.stderr)
            if stderr:
                print(stderr, file=sys.stderr)

    def run(self, k, label, tracer=None):
        """Run and check the k-th command; returns (wall ns, Work)."""
        argv, work = self.workload.command(k, self.inputs, self.out)
        self._fresh_out()
        if tracer is not None:
            tracer.current_command = k
            tracer.install()
        try:
            code, wall_ns, stderr = self._call(argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = self.workload.check(k, self.inputs, self.out, code)
        self._record(f"{label} ({' '.join(argv[:1])})", failures, stderr)
        return wall_ns, work

    def run_extra(self):
        for argv, check in self.workload.extra_commands(self.inputs, self.out):
            self._fresh_out()
            code, _, stderr = self._call(argv)
            self._record(" ".join(argv[:2]), check(self.out, code), stderr)


def at_ref(fn):
    """Call ``fn()`` between two passes of the reference kernel.

    Returns ``(result, kernel seconds)``, the mean of the two passes; a wall
    time times ``REF_SECONDS / kernel seconds`` is that time at the reference
    speed (see hostref.py).
    """
    import hostref

    before = hostref.kernel_seconds()
    result = fn()
    return result, (before + hostref.kernel_seconds()) / 2


def end_to_end(runner, seconds):
    import hostref

    wl = runner.workload
    hostref.kernel_seconds()  # warm-up pass
    # Set-up is the same deterministic work each time; its median over
    # repeats made back to back, before anything else runs, is setup_s.
    setups = [at_ref(runner.setup) for _ in range(SETUP_REPEATS)]
    setup_ref = [wall * hostref.REF_SECONDS / kernel for wall, kernel in setups]
    runner.run(0, "warm-up")
    rates, ref_rates, kernels = [], [], []
    deadline = time.perf_counter() + seconds
    k = 1
    while time.perf_counter() < deadline:
        (wall_ns, work), kernel = at_ref(lambda: runner.run(k, f"command {k}"))
        rates.append(work.items / (wall_ns / 1e9))
        ref_rates.append(rates[-1] * kernel / hostref.REF_SECONDS)
        kernels.append(kernel)
        k += 1
    runner.run_extra()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_rate = statistics.median(ref_rates)
    print(f"{wl.metric} = {ref_rate:.6g} {wl.unit} at the reference speed "
          f"(ref_items_per_s: median of {len(rates)} commands); "
          f"{statistics.median(rates):.6g} {wl.unit} as measured")
    print(f"per-command {wl.unit} as measured: " + " ".join(f"{r:.1f}" for r in rates))
    print("per-command kernel ms: " + " ".join(f"{1e3 * t:.2f}" for t in kernels))
    print(f"setup_s = {statistics.median(setup_ref):.6g} s at the reference speed "
          f"(median of {len(setups)} set-ups; as measured: "
          + " ".join(f"{wall:.3f}" for wall, _ in setups) + " s)")
    print(f"peak_rss_mb = {peak_rss_mb:.6g} MiB")
    return {
        "ref_items_per_s": {"value": ref_rate, "unit": "items/s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def traced(runner, seconds, trace_path):
    import hostref
    import metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        runner.setup()
    finally:
        tracer.uninstall()
    runner.run(0, "warm-up")
    ratios, works, walls, kernels = [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 1
    while time.perf_counter() < deadline or not works:
        kernels.append(hostref.kernel_seconds())
        plain_ns, _ = runner.run(k, f"command {k} untraced")
        traced_ns, work = runner.run(k, f"command {k} traced", tracer=tracer)
        ratios.append(traced_ns / plain_ns)
        works.append(work)
        walls.append(traced_ns)
        k += 1
    runner.run_extra()

    spans = tracer.spans()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans.save(trace_path)
    run = metrics.TracedRun(spans, works, walls)
    result = metrics.per_layer(run, 100.0 * (statistics.median(ratios) - 1.0),
                               1e3 * statistics.median(kernels))
    for name, metric in result.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attributed = sum(result[f"{layer}.self_pct"]["value"] for layer in metrics.COMMAND_LAYERS)
    print(f"layer self times account for {attributed:.4f}% of the traced command wall; "
          f"unattributed {result['trace.unattributed_ms']['value']:.4g} ms per command")
    print(f"{len(spans.name)} spans from {len(works)} traced commands -> {trace_path}")
    return result


def check_declared(metrics_out, declared):
    """The metrics produced must be exactly those BENCHMARK.json declares."""
    produced = {(name, m["unit"]) for name, m in metrics_out.items()}
    want = {(m["name"], m["unit"]) for m in declared}
    if produced != want:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"extra {sorted(produced - want)}, missing {sorted(want - produced)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    import_package()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = machine_info(nproc)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))

    work_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed), work_dir)
    try:
        if args.trace:
            trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.npz"
            result = traced(runner, args.seconds, trace_path)
            declared = spec["per_layer"]
        else:
            result = end_to_end(runner, args.seconds)
            declared = spec["end_to_end"]
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check_declared(result, declared)

    print(f"error_rate = {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g} ratio (failed commands and checks)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
