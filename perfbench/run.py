"""lstmpc benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the run times repeated set-ups, then makes PASSES
passes of the workload, and prints the end-to-end metrics in calibrated
time (see ``refclock``). ``--seconds`` is recorded but does not set the
run's length: every run takes each step's fastest over the same number
of passes. With ``--trace 1`` it makes one untraced and one traced
pass, in an order that alternates with the seed, and prints the per-layer
metrics of the traced pass. Outputs are checked in both modes; the last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
and the exit code is 0 only when every check passed. Details (checks,
failures by error class, trace hash, machine metadata, the generated
scenario, spans) go to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up takes a few milliseconds; it is repeated for SETUP_S.
SETUP_S = 0.5
# Passes of an e2e run; a step's time is its fastest over them. Single
# steps are lengthened by preemption, by up to 10 ms in about 2 % of control
# steps, and by speed bursts that the calibration misses, which would
# otherwise set the p99.
PASSES = 2


def machine_info():
    """Interpreter, numpy/BLAS and CPU facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "loadavg": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _check_passes(passes, kind):
    """Checks of every pass, plus determinism across passes."""
    checks = {}
    for p in passes:
        for k, ok in p["checks"].items():
            checks[k] = checks.get(k, True) and bool(ok)
    if kind == "closed_loop":
        hashes = {p.get("trace_sha256") for p in passes}
        checks["trace_identical_across_passes"] = len(hashes) == 1 and None not in hashes
    else:
        fits = {p.get("fit_pct") for p in passes}
        checks["fit_identical_across_passes"] = len(fits) == 1 and None not in fits
    return checks


def _pass_record(p):
    """A pass result without its per-step lists."""
    return {k: v for k, v in p.items() if k not in ("steps_ns", "iterations")}


def time_setup(wk, clock):
    """Wall-clock (start, end) of set-ups repeated for SETUP_S, each after
    a sample of the clock's kernel."""
    spans = []
    t_end = time.perf_counter() + SETUP_S
    while not spans or time.perf_counter() < t_end:
        clock.sample()
        t0 = time.perf_counter_ns()
        wk.setup()
        spans.append((t0, time.perf_counter_ns()))
    clock.sample()
    return spans


def run_e2e(wk):
    from refclock import RefClock
    from workloads import plain_pass, quantile

    clock = RefClock()
    setup_ns = time_setup(wk, clock)
    passes = []
    while len(passes) < PASSES:
        passes.append(plain_pass(wk, clock))
        if passes[-1]["failed"]:
            break
    checks = {"same_steps_in_every_pass": len({len(p["steps_ns"]) for p in passes}) == 1}
    setup_s = [clock.seconds(*span) for span in setup_ns]
    pass_s = [clock.seconds(*p["span_ns"]) for p in passes]
    step_ms = [min(times) * 1e3 for times in
               zip(*([clock.seconds(*span) for span in p["steps_ns"]] for p in passes))]
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_s": _metric(statistics.median(pass_s), "s"),
        "step_ms_p50": _metric(quantile(step_ms, 0.5), "ms"),
        "step_ms_p99": _metric(quantile(step_ms, 0.99), "ms"),
    }
    detail = {"kernel_ms_median": clock.kernel_s() * 1e3, "kernel_samples": len(clock.samples),
              "setup_wall_s_median": statistics.median((b - a) * 1e-9 for a, b in setup_ns),
              "setup_repeats": len(setup_ns), "pass_s": pass_s, "steps": len(step_ms),
              "step_ms_mean": statistics.fmean(step_ms) if step_ms else 0.0,
              "passes": [_pass_record(p) for p in passes]}
    return passes, metrics, checks, detail


def run_traced(wk, seed, out_dir):
    import workloads as wl

    wk.setup()
    before = wl.originals()
    if seed % 2:
        traced, tr = wl.traced_pass(wk)
        plain = wl.plain_pass(wk)
    else:
        plain = wl.plain_pass(wk)
        traced, tr = wl.traced_pass(wk)
    layer = wl.layer_metrics(tr, traced)
    layer["trace.overhead_pct"] = (100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0), "%")
    tr.write_csv(out_dir / "spans.csv")

    checks = {"wrappers_restored": all(a is b for a, b in zip(before, wl.originals()))}
    fhocp_calls = layer["mpc.fhocp_calls"][0]
    if wk.kind == "closed_loop":
        checks["fhocp_calls_equal_steps"] = fhocp_calls == len(traced["iterations"])
        if "steps" in traced:
            checks["fhocp_calls_equal_steps"] &= fhocp_calls == traced["steps"]
        checks["iterations_match_untraced"] = \
            layer["mpc.solver_iterations"][0] == sum(plain["iterations"])
    else:
        checks["no_control_layer_calls"] = (fhocp_calls == 0 and layer["refcalc.calls"][0] == 0
                                            and layer["observer.calls"][0] == 0)
    metrics = {k: _metric(v, unit) for k, (v, unit) in layer.items()}
    detail = {"order": ["traced", "untraced"] if seed % 2 else ["untraced", "traced"],
              "passes": [_pass_record(plain), _pass_record(traced)]}
    return [plain, traced], metrics, checks, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lstmpc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'lstmpc'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lstmpc
    if Path(lstmpc.__file__).resolve().parent != (SRC / "lstmpc").resolve():
        print(f"perfbench: imported lstmpc from {lstmpc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wk = wl.WORKLOADS[args.workload](args.workload, SRC / "lstmpc" / "assets", out_dir, args.seed)

    if args.trace:
        passes, metrics, checks, detail = run_traced(wk, args.seed, out_dir)
    else:
        passes, metrics, checks, detail = run_e2e(wk)
    checks.update(_check_passes(passes, wk.kind))
    errors = {}
    for p in passes:
        for name, n in p["errors"].items():
            errors[name] = errors.get(name, 0) + n
    result = {
        "correct": all(checks.values()),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "checks": checks,
                   "errors_by_class": errors, "machine": machine_info(), **detail},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
