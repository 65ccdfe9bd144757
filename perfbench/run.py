"""nccorr benchmark: one workload per run, as a single-caller closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from --seed only.  Each
workload has a fixed op list whose length is set by S: about S seconds of
ops on the machine the expected op times were taken on.  With --trace 0 the
loop times the list, scales every time to the reference machine's speed
with a calibration kernel run after each op (calib.py), and reports the
end-to-end metrics; with --trace 1 it runs half the list untraced and
traced, alternating, and reports the per-layer metrics.  Every op's result is checked.  The last line of
standard output is the JSON result.
"""
import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# enough ops for a tail with ten samples beyond it, and a whole number of
# every workload's input cycle
MIN_OPS = 24
# past this the loop ends at the next cycle end, so a run that has become much
# slower still finishes within the 180 s a run may take
LOOP_CAP_S = 120
SETUP_PROBES = 9
SETUP_KERNEL_PASSES = 5
WORKLOAD_NAMES = ("sweep-families", "measure-cold", "spectral-multipartite")
END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "d_bound_sum_bits": "bits",
}


def parse_args(argv):
    def nonneg(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=nonneg, required=True)
    p.add_argument("--seconds", type=int, default=30, choices=range(1, 181), metavar="1..180")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up the workload and print the seconds it took")
    return p.parse_args(argv)


def op_count(wl_cls, seconds, minimum=MIN_OPS):
    """Whole input cycles that take about `seconds` at the workload's expected op time.

    The count depends on --seconds only, so every run of a workload times the
    same ops, however fast the machine happens to be.
    """
    cycles = round(seconds / (wl_cls.expected_op_s * wl_cls.cycle))
    return max(minimum, cycles * wl_cls.cycle)


def closed_loop(wl, ops, tracer=None, kernel=None):
    """Run the ops one at a time, each starting when the previous returned.

    Returns the latencies, {op: result}, the elapsed seconds and, with a
    calibration kernel, the kernel's time after each op (else []).  Past
    LOOP_CAP_S the loop stops at the end of the current input cycle.  An op
    that raises yields its exception as its result.
    """
    latencies, results, kernel_s = [], {}, []
    start = time.perf_counter()
    for i in ops:
        if i % wl.cycle == 0 and time.perf_counter() - start > LOOP_CAP_S:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.op(i)
            else:
                with tracer.op_span(i):
                    raw = wl.op(i)
        except Exception as exc:
            raw = exc
        latencies.append(time.perf_counter() - t0)
        results[i] = raw
        if kernel is not None:
            kernel_s.append(kernel.run())
    return latencies, results, time.perf_counter() - start, kernel_s


def evaluate(wl, results):
    """{op: checked values, or None where the op failed} and the failure count."""
    out = {}
    for i, raw in results.items():
        vals = None
        if isinstance(raw, Exception):
            problems = ["".join(traceback.format_exception(raw)).rstrip()]
        else:
            try:
                vals = wl.values(i, raw)
                problems = wl.check(i, vals)
            except Exception:
                problems = [traceback.format_exc().rstrip()]
        if problems:
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
            vals = None
        out[i] = vals
    return out, sum(v is None for v in out.values())


def setup_kernel_s(kernel):
    """The calibration kernel's time just after set-up: median of a few passes."""
    return statistics.median(kernel.run() for _ in range(SETUP_KERNEL_PASSES))


def run_setup_probe(args):
    """(set-up seconds of a fresh process, import included, and its kernel seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup_s, kernel_s = done.stdout.split()
    return float(setup_s), float(kernel_s)


def openblas_info():
    """(OpenBLAS config string, its thread count) as the loaded library reports."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def metadata(args):
    import numpy as np

    blas_config, blas_threads = openblas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "nccorr_src_lines": sum(
            len(f.read_text().splitlines()) for f in sorted((SRC / "nccorr").glob("*.py"))
        ),
    }


def end_to_end(args, wl, setup_main):
    import calib
    import stats
    import workloads

    kernel = calib.Kernel()
    setup_raw = [(setup_main, setup_kernel_s(kernel))]
    setup_raw += [run_setup_probe(args) for _ in range(SETUP_PROBES)]
    gc.collect()
    raw_latencies, results, _, kernel_s = closed_loop(
        wl, range(op_count(type(wl), args.seconds)), kernel=kernel
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    vals, failed = evaluate(wl, results)
    # every time is scaled to the reference machine's speed by the kernel
    # timed around it (calib.py); the raw figures are printed beside them
    latencies = calib.scaled(raw_latencies, kernel_s)
    setup_samples = [s / calib.speed_factors([k])[0] for s, k in setup_raw]
    tail_s, tail_pct, n = stats.tail(latencies)

    def per_cycle(xs):
        return wl.cycle / statistics.median(
            sum(xs[c : c + wl.cycle]) for c in range(0, len(xs), wl.cycle)
        )

    metrics = {
        # median over the run's input cycles, so a slow spell of the machine
        # moves it less than a mean would
        "ops_per_s": per_cycle(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "d_bound_sum_bits": sum(workloads.d_bound(v) for v in vals.values() if v is not None),
    }
    print(f"op_tail_ms is p{tail_pct:.2f} of {n} ops ({stats.TAIL_MIN_BEYOND} beyond it)")
    print(f"failed_ops_ratio {stats.failed_ratio(failed, len(results)):.6g} ({failed}/{len(results)})")
    print(f"setup_s samples {[round(s, 4) for s in setup_samples]}")
    print(f"calibration kernel median {1000.0 * statistics.median(kernel_s):.4g} ms "
          f"(reference {1000.0 * calib.REFERENCE_S:.4g} ms)")
    print(f"unscaled: ops_per_s {per_cycle(raw_latencies):.6g} op/s, "
          f"op_p50_ms {1000.0 * statistics.median(raw_latencies):.6g} ms, "
          f"op_tail_ms {1000.0 * stats.tail(raw_latencies)[0]:.6g} ms, "
          f"setup_s {statistics.median(s for s, _ in setup_raw):.6g} s")
    return metrics, END_TO_END, len(results), failed


def per_layer(args, wl):
    import spans

    half = op_count(type(wl), args.seconds / 4, minimum=2 * wl.cycle)
    first, second = range(half), range(half, 2 * half)
    # untraced, traced, traced, untraced: a steady drift in machine speed
    # cancels out of the overhead.  A half is at least two input cycles, so
    # more distinct search seeds than the sample cache holds pass before an
    # op repeats, and measure-cold's repeats are still cold
    tracer = spans.Tracer()
    gc.collect()
    _, plain, plain_s, _ = closed_loop(wl, first)
    with spans.instrumented(tracer):
        _, traced, traced_s, _ = closed_loop(wl, first, tracer)
        _, traced_2, traced_2_s, _ = closed_loop(wl, second, tracer)
    _, plain_2, plain_2_s, _ = closed_loop(wl, second)
    plain.update(plain_2)
    traced.update(traced_2)
    overhead_s = traced_s + traced_2_s - plain_s - plain_2_s
    plain_vals, _ = evaluate(wl, plain)
    traced_vals, _ = evaluate(wl, traced)
    attempted = failed = 0
    for i in plain.keys() & traced.keys():
        attempted += 1
        if plain_vals[i] is None or traced_vals[i] is None:
            failed += 1
        elif repr(plain[i]) != repr(traced[i]):
            failed += 1
            print(f"op {i} failed: traced result differs from untraced", file=sys.stderr)
    print(f"traced and untraced results: {attempted - failed}/{attempted} ops bit-identical and checked")
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file)
    print(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    metrics = spans.per_layer_metrics(tracer, overhead_s)
    units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    return metrics, units, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nccorr" / "__init__.py").is_file():
        print(f"error: no nccorr sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import nccorr

    if Path(nccorr.__file__).resolve().parent != SRC / "nccorr":
        print(f"error: imported nccorr from {nccorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = wl_cls(args.seed, workdir)
        setup_main = time.perf_counter() - _T0
        if args.setup_probe:
            import calib

            print(setup_main, setup_kernel_s(calib.Kernel()))
            return 0
        if args.trace:
            metrics, units, attempted, failed = per_layer(args, wl)
        else:
            metrics, units, attempted, failed = end_to_end(args, wl, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print("meta " + json.dumps(metadata(args)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
