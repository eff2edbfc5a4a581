"""qltest benchmark: one workload, timed end to end, or traced per layer.

    python3 benchmark/run.py --workload mc_ou_n100 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It measures the package under ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  Every unit's output is checked
(see checks.py); a failed check prints ``"correct": false`` and exits 1.

``--trace 0`` runs units for about ``--seconds`` of busy time and reports
the end-to-end metrics.  ``--trace 1`` runs units untraced for half
the time, then runs the same units again with every traced name wrapped,
and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from program import ROOT, ProgramMissing, import_qltest

# set-up time is the median of this process and fresh interpreters that only
# set up: on a 2-vCPU host it spreads about a quarter less than one sample
SETUP_SAMPLES = 3


def _parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1, help="workload seed (1 is the reference seed)")
    p.add_argument("--seconds", type=float, default=30.0, help="busy time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_units(workload, calls, seed, out_dir, reference, problems, *,
              seconds=None, min_units=1, units=None, tracer=None):
    """Closed loop over units 0, 1, ...; returns (busy times, outcomes).

    Runs exactly ``units`` units when given.  Otherwise it runs at least
    ``min_units``, and starts another unit while the busy time plus half a
    mean unit is below ``seconds``, so the busy time ends within about half
    a unit of ``seconds``.  Only the call into the program is timed;
    preparing inputs and checking outputs is not.
    """
    times, outcomes = [], []
    busy = 0.0
    k = 0
    while (k < units) if units is not None else (
            k < min_units or busy + 0.5 * busy / k < seconds):
        unit = workload.prepare(seed, k, out_dir)
        if tracer is not None:
            tracer.unit = k
        t0 = time.perf_counter()
        result = workload.run(calls, unit)
        elapsed = time.perf_counter() - t0
        outcome = workload.collect(unit, result)
        ref = reference[k] if k < len(reference) else None
        problems.extend(f"unit {k}: {msg}" for msg in workload.check(outcome, ref))
        times.append(elapsed)
        outcomes.append(outcome)
        busy += elapsed
        k += 1
    return times, outcomes


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter that sets up this workload and exits."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _traced(workload, seed, out_dir, reference, problems, seconds):
    """Untraced half, then the same units traced; returns (metrics, outcomes)."""
    import metrics
    import workloads
    from tracing import Tracer

    plain = workloads.raw_calls()
    times_a, outcomes_a = run_units(workload, plain, seed, out_dir, reference, problems,
                                    seconds=seconds / 2, min_units=workload.count_units)

    tracer = Tracer()
    missing = []

    def observe(layer):
        return (lambda fit: (fit.converged, fit.at_boundary)) if layer == "estimate" else None

    calls = {name: tracer.wrap(fn, f"bench.{name}", workloads.layer_of(fn),
                               observe(workloads.layer_of(fn)))
             for name, fn in plain.items()}
    try:
        for module, names in workloads.MODULE_BINDINGS:
            for name in names:
                if not hasattr(module, name):
                    missing.append(f"{module.__name__}.{name}")
                    continue
                layer = workloads.layer_of(getattr(module, name))
                tracer.replace(module, name, layer, observe(layer))
        times_b, outcomes_b = run_units(workload, calls, seed, out_dir, reference, problems,
                                        units=len(times_a), tracer=tracer)
    finally:
        tracer.restore()
    tracer.write_csv(out_dir.parent / f"spans-{workload.name}-seed{seed}.csv")

    seen = {s.name for s in tracer.spans}
    for name in missing:
        print(f"TRACE WARNING: {name} no longer exists, so its layer is not traced",
              file=sys.stderr)
    for name in workload.expected_spans:
        if name not in seen:
            print(f"TRACE WARNING: {name} received zero calls on {workload.name}",
                  file=sys.stderr)

    values = metrics.per_layer(tracer.spans, outcomes_b, sum(times_b), sum(times_a),
                               workload.count_units)
    return values, outcomes_a + outcomes_b


def main(argv=None) -> int:
    # BENCHMARK.json names the metrics each mode prints, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec)
    try:
        import_qltest()
    except (ProgramMissing, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import checks
    import metrics
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.warm_up(args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = checks.reference_units(checks.load_reference(), workload.name, args.seed)
    out_root = ROOT / "benchmark" / "out"
    out_root.mkdir(exist_ok=True)
    problems = []
    with tempfile.TemporaryDirectory(prefix="run-", dir=out_root) as tmp:
        out_dir = Path(tmp)
        if args.trace:
            values, outcomes = _traced(workload, args.seed, out_dir, reference, problems,
                                       args.seconds)
            detail = {}
        else:
            times, outcomes = run_units(workload, workloads.raw_calls(), args.seed, out_dir,
                                        reference, problems, seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup = [setup_s] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            values, detail = metrics.end_to_end(times, outcomes, setup, peak_rss_mb)

    table = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    paths = sum(o.paths for o in outcomes)
    checked = "reference and structure" if reference else "structure"
    print(f"workload {workload.name}, seed {args.seed}: {len(outcomes)} units, {paths} paths, "
          f"outputs checked for {checked}")
    for name, unit in table.items():
        print(f"{name} = {values[name]!r} {unit}")
    if detail:
        print(f"path_ms_tail is percentile {detail['tail_percentile']:.1f} "
              f"of {detail['latency_samples']} latency samples")
        print("setup_s is the median of set-ups taking "
              + ", ".join(f"{t:.3f}" for t in detail["setup_samples"]) + " s")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
