"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmark/baseline.py [--seeds 1-10] [--trace 1] [--write]

Runs ``run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, for its ``run_seconds``, one process at a time, and prints
for every metric the median, the quartiles and the spread, which is the
distance between the quartiles over the median, next to the metric's bound.

Untraced, it runs the whole set twice, one set after the other, and prints
how far each median of the second set moved from the first, as a share of
the first, next to the bound: the bound must hold between two sets of runs
of the same code.  Traced, one set is enough, since the counts repeat
exactly.

``--write`` stores the sets, the moves and a record of the machine in
``benchmark/baseline.json`` (``baseline-trace.json`` for traced runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_set(spec, seeds, trace, bounds):
    """One run per (workload, seed); returns {workload: {metric: summary}}, or None."""
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return None
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {name: summarise([r["metrics"][name]["value"] for r in runs])
                             for name in runs[0]["metrics"]}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            ratio = f"  spread/bound {s['spread'] / bound:.2f}" if bound else ""
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{ratio}", flush=True)
    return summary


def moves(first, second, bounds):
    """Second median against the first, as a share of the first, per metric."""
    out = {}
    for workload, by_metric in first.items():
        out[workload] = {}
        for name, s in by_metric.items():
            move = second[workload][name]["median"] / s["median"] - 1.0
            out[workload][name] = move
            bound = bounds.get(name)
            verdict = f"  bound {bound}  {'within' if abs(move) <= bound else 'OUTSIDE'}" \
                if bound else ""
            print(f"{workload:14s} {name:16s} move {move:+.4f}{verdict}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets = []
    for k in range(1 if args.trace else 2):
        print(f"set {k + 1}", flush=True)
        summary = run_set(spec, args.seeds, args.trace, bounds)
        if summary is None:
            return 1
        sets.append(summary)
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "sets": sets}
    if len(sets) == 2:
        record["moves"] = moves(sets[0], sets[1], bounds)

    if args.write:
        out = HERE / ("baseline-trace.json" if args.trace else "baseline.json")
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
