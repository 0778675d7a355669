"""Run-to-run spread of the benchmark on unchanged code.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload closed_loop ...] \
        [--json perfbench/baseline.json]

For each workload, runs ``perfbench/run.py --trace 0`` as two sets, A and
B, of ``--runs`` runs each, one run at a time. Run i of both sets uses seed
``first_seed + i``, as the benchmark's own repeated runs use a new seed
each time, and the two runs of a seed are interleaved (A first on even i,
B first on odd i), so that both sets see the same machine states and the
same profiles. For every end-to-end metric it prints each set's median,
quartiles and spread, the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound that
``BENCHMARK.json`` fixes, and ``b_over_a``, set B's median over set A's.
``--json`` writes these records, the machine metadata and the
``closed_loop`` trace hash to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def run_once(workload, seed):
    """One benchmark run; returns its result line and its result.json."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0" / "result.json")
                        .read_text())
    ok = proc.returncode == 0 and result["correct"]
    print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
          flush=True)
    return ok, result, detail


def measure(workload, seeds, hashes):
    sets = {"A": {}, "B": {}}
    ok = True
    machine = None
    for i, seed in enumerate(seeds):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            run_ok, result, detail = run_once(workload, seed)
            ok &= run_ok
            machine = detail["machine"]
            if workload == "closed_loop":
                hashes.update(p["trace_sha256"] for p in detail["passes"]
                              if "trace_sha256" in p)
            for metric, m in result["metrics"].items():
                sets[name].setdefault(metric, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    table = {}
    for metric, bound in bounds.items():
        a, b = spread(sets["A"][metric]), spread(sets["B"][metric])
        table[metric] = {"bound": bound, "A": a, "B": b,
                         "b_over_a": b["median"] / a["median"]}
        print(f"{workload:15s} {metric:12s} bound {bound:4}  "
              f"A median {a['median']:.6g} spread {a['spread']:.4f}  "
              f"B median {b['median']:.6g} spread {b['spread']:.4f}  "
              f"b_over_a {table[metric]['b_over_a']:.4f}", flush=True)
    return ok, table, machine


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to measure (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", default=None, help="write the records to this file")
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    all_ok, tables, hashes, machine = True, {}, set(), None
    for workload in workloads:
        ok, tables[workload], machine = measure(workload, seeds, hashes)
        all_ok &= ok
    if args.json:
        Path(args.json).write_text(json.dumps({
            "what": "run-to-run spread of unchanged code, written by perfbench/spread.py: "
                    "per workload two sets A and B of --trace 0 runs; run i of both sets "
                    "uses seed first_seed + i, and the two runs of a seed are interleaved; "
                    "spread = (q3 - q1) / median from statistics.quantiles(values, n=4); "
                    "b_over_a = median of set B / median of set A",
            "run_seconds": BENCH["run_seconds"],
            "seeds": seeds,
            "all_correct": all_ok,
            "closed_loop_trace_sha256": sorted(hashes),
            "machine": machine,
            "workloads": tables,
        }, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
