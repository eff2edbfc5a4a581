"""Output checks run on every unit, outside the timed calls.

Each unit is compared with the outputs recorded for its seed and index in
``reference.json`` (written by ``record_reference.py``), where there are
any.  For every seed the structural rules below hold as well.  A check
returns a list of problems; an empty list is a pass.

The structural rules alone cannot catch a wrong power table: with empirical
thresholds the null column is at or below the level by construction, and a
frequency always lies in [0, 1].  Only the recorded units are checked for
their values.

Tolerances are stated once here.  They let a later change that computes the
same quantities another way (analytic derivatives instead of finite
differences, say) pass, and nothing looser:

* fitted parameters: 1e-6 absolute, the gate ROADMAP sets for that change;
* statistic values, the power approximation and empirical thresholds:
  1e-4 relative, the size of a finite-difference Hessian's error;
* rejection frequencies: one replication of the cell (1/R), since a
  statistic sitting on its threshold may cross it;
* failures: no more than the reference.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
THETA_ATOL = 1e-6
VALUE_RTOL = 1e-4
_ATOL = 1e-9
_NONNEGATIVE = ("T", "AKL", "STEP_BETA", "STEP_ALPHA")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_units(reference: dict, workload: str, seed: int) -> list:
    """Recorded outputs of the first units of this workload at this seed, or []."""
    return reference["workloads"].get(workload, {}).get(str(seed), [])


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=_ATOL)


def check_table(record: dict, study, reference=None) -> list:
    """A power table from ``run_table``, against its study and a reference."""
    problems = []
    if record["h"] != list(study.h_grid) or record["statistics"] != list(study.statistics):
        return [f"table layout {record['h']} x {record['statistics']} is not the study's"]
    level = record["level"]
    for i, h in enumerate(record["h"]):
        for j, kind in enumerate(record["statistics"]):
            epow = record["epow"][i][j]
            if not 0.0 <= epow <= 1.0:
                problems.append(f"epow[h={h}, {kind}] = {epow} outside [0, 1]")
            if h == 0.0 and epow > level + 1e-12:
                problems.append(f"null rejection rate of {kind} = {epow} above level {level}")
            if record["failures"][i][j] < 0:
                problems.append(f"negative failure count at h={h}, {kind}")
    for kind, t in zip(record["statistics"], record["thresholds"]):
        if not math.isfinite(t):
            problems.append(f"threshold of {kind} is not finite")
    if reference is None:
        return problems

    cell = 1.0 / record["R"] + 1e-12
    for j, kind in enumerate(record["statistics"]):
        if not _close(record["thresholds"][j], reference["thresholds"][j]):
            problems.append(f"threshold of {kind}: {record['thresholds'][j]!r} "
                            f"!= reference {reference['thresholds'][j]!r}")
        for i, h in enumerate(record["h"]):
            got, want = record["epow"][i][j], reference["epow"][i][j]
            if abs(got - want) > cell:
                problems.append(f"epow[h={h}, {kind}] = {got!r}, reference {want!r}")
            if record["failures"][i][j] > reference["failures"][i][j]:
                problems.append(f"failures[h={h}, {kind}] = {record['failures'][i][j]}, "
                                f"reference {reference['failures'][i][j]}")
    return problems


def _in_box(theta, box) -> bool:
    return all(lo <= v <= hi for v, lo, hi in zip(theta, box.lower, box.upper))


def check_fit(record: dict, box, reference=None) -> list:
    """One fit-and-test unit, against the parameter box and a reference."""
    problems = []
    for key in ("theta_mqle", "theta_adaptive"):
        if key in record and not _in_box(record[key], box):
            problems.append(f"{key} = {record[key]} outside the parameter box")
    for kind, value in record["stats"].items():
        if not math.isfinite(value):
            problems.append(f"{kind} statistic is not finite")
        elif kind in _NONNEGATIVE and value < 0.0:
            problems.append(f"{kind} statistic = {value!r} is negative")
    for kind, p in record["p_values"].items():
        if not 0.0 <= p <= 1.0:
            problems.append(f"{kind} p-value = {p!r} outside [0, 1]")
    if "power" in record and not 0.0 <= record["power"] <= 1.0:
        problems.append(f"power approximation = {record['power']!r} outside [0, 1]")
    if reference is None:
        return problems

    for key in ("theta_mqle", "theta_adaptive", "beta_initial"):
        got, want = record.get(key), reference.get(key)
        if (got is None) != (want is None):
            problems.append(f"{key} present={got is not None}, reference present={want is not None}")
        elif got is not None and any(abs(a - b) > THETA_ATOL for a, b in zip(got, want)):
            problems.append(f"{key} = {got} differs from reference {want} by more than {THETA_ATOL}")
    if sorted(record["stats"]) != sorted(reference["stats"]):
        problems.append(f"statistics {sorted(record['stats'])} != reference {sorted(reference['stats'])}")
    for kind, want in reference["stats"].items():
        got = record["stats"].get(kind)
        if got is not None and not _close(got, want):
            problems.append(f"{kind} statistic = {got!r}, reference {want!r}")
    if ("power" in record) != ("power" in reference):
        problems.append("power approximation present in only one of output and reference")
    elif "power" in record and not _close(record["power"], reference["power"]):
        problems.append(f"power approximation = {record['power']!r}, reference {reference['power']!r}")
    return problems
