"""Record the reference outputs that checks.py compares runs against.

    python3 benchmark/record_reference.py

Runs the first units of every workload at each recorded seed and writes
``benchmark/reference.json``, one unit's outputs per line.  Units past the
recorded ones, and seeds not recorded, get the structural checks only.
Re-record only when a change is meant to alter the program's outputs, and
say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from program import ROOT, import_qltest

SEEDS = range(0, 21)
# the first units of every seed ...
UNITS = {"mc_ou_n100": 2, "mc_cir_n1000": 2, "fit_ou_n1000": 10}
# ... and at seed 1 a few more than a default-length run completes on a 2-core host
SEED_1_UNITS = {"mc_ou_n100": 8, "mc_cir_n1000": 4, "fit_ou_n1000": 160}


def _dumps(recorded: dict) -> str:
    """JSON with one unit record per line, so diffs show which unit moved."""
    lines = ['{"workloads": {']
    for i, (name, by_seed) in enumerate(recorded.items()):
        lines.append(f' "{name}": {{')
        for j, (seed, records) in enumerate(by_seed.items()):
            lines.append(f'  "{seed}": [')
            lines.append(",\n".join("   " + json.dumps(r) for r in records))
            lines.append("  ]" + ("," if j < len(by_seed) - 1 else ""))
        lines.append(" }" + ("," if i < len(recorded) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main() -> int:
    import_qltest()
    import checks
    import workloads
    from run import run_units

    out_root = ROOT / "benchmark" / "out"
    out_root.mkdir(exist_ok=True)
    recorded = {}
    for name in UNITS:
        workload = workloads.WORKLOADS[name]()
        recorded[name] = {}
        for seed in SEEDS:
            units = SEED_1_UNITS[name] if seed == 1 else UNITS[name]
            with tempfile.TemporaryDirectory(dir=out_root) as tmp:
                problems = []
                _, outcomes = run_units(workload, workloads.raw_calls(), seed,
                                        Path(tmp), [], problems, units=units)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            recorded[name][str(seed)] = [o.record for o in outcomes]
            print(f"{name} seed {seed}: {units} units recorded", flush=True)
    text = _dumps(recorded)
    json.loads(text)  # the hand-made layout must still be JSON
    checks.REFERENCE_PATH.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
