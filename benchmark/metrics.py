"""Metric definitions: end to end from unit timings, per layer from spans."""

from __future__ import annotations

import statistics

from tracing import has_ancestor, self_times

_EVAL = "estimate.ql_total"


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or fewer
    no percentile qualifies, and the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    m = len(ordered)
    if m <= 10:
        return ordered[-1], 100.0, m
    return ordered[m - 11], 100.0 * (m - 10) / m, m


def end_to_end(unit_times, outcomes, setup_samples, peak_rss_mb):
    """The end-to-end metrics of an untraced run, plus the tail's detail."""
    paths = sum(o.paths for o in outcomes)
    latencies_ms = [1e3 * t / o.paths for t, o in zip(unit_times, outcomes)]
    tail_ms, tail_pct, tail_count = tail(latencies_ms)
    values = {
        "paths_per_s": paths / sum(unit_times),
        "path_ms_p50": statistics.median(latencies_ms),
        "path_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, {"tail_percentile": tail_pct, "latency_samples": tail_count,
                    "setup_samples": list(setup_samples)}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(spans, outcomes, wall_traced, wall_untraced, count_units):
    """Per-layer metrics of the traced phase.

    Times cover every traced unit.  Counts (evaluations, fits, calls,
    failures and the ratios built from them) cover only the first
    ``count_units`` units, which every traced run completes, so they repeat
    exactly at a fixed seed.
    """
    paths = sum(o.paths for o in outcomes)
    counted_paths = sum(o.paths for o in outcomes[:count_units])
    selfs = self_times(spans)

    def counted(s):
        return s.unit < count_units

    fits = [i for i, s in enumerate(spans)
            if s.layer == "estimate" and not has_ancestor(spans, i, "estimate")]
    fit_time = sum(spans[i].duration for i in fits)
    counted_fits = [spans[i] for i in fits if counted(spans[i])]
    evals = [s for s in spans if s.name == _EVAL]
    eval_time = sum(s.duration for s in evals)
    stats_time = sum(
        s.duration for i, s in enumerate(spans)
        if s.layer == "quasilik" and s.name != _EVAL
        and not has_ancestor(spans, i, "estimate") and not has_ancestor(spans, i, "quasilik")
    )
    sim_time = sum(s.duration for s in spans if s.layer == "simulate")
    tables = [i for i, s in enumerate(spans) if s.layer == "montecarlo"]
    table_time = sum(spans[i].duration for i in tables)
    distributions = [s for s in spans if s.layer == "distributions"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    return {
        "simulate.ms_per_path": 1e3 * _ratio(sim_time, paths),
        "simulate.share": _ratio(sim_time, wall_traced),
        "estimate.ms_per_fit": 1e3 * _ratio(fit_time, len(fits)),
        "estimate.self_ms_per_fit": 1e3 * _ratio(fit_time - eval_time, len(fits)),
        "estimate.evals_per_fit": _ratio(sum(1 for s in evals if counted(s)), len(counted_fits)),
        "estimate.fits_per_path": _ratio(len(counted_fits), counted_paths),
        "estimate.converged_ratio": _ratio(
            sum(1 for s in counted_fits if s.info and s.info[0]), len(counted_fits)),
        "estimate.at_boundary_ratio": _ratio(
            sum(1 for s in counted_fits if s.info and s.info[1]), len(counted_fits)),
        "estimate.share": _ratio(fit_time, wall_traced),
        "quasilik.ql_total.us_per_call": 1e6 * _ratio(eval_time, len(evals)),
        "quasilik.stats_ms_per_path": 1e3 * _ratio(stats_time, paths),
        "quasilik.share": _ratio(eval_time + stats_time, wall_traced),
        "hypotests.ms_per_path": 1e3 * _ratio(
            sum(t for s, t in zip(spans, selfs) if s.layer == "hypotests"), paths),
        "hypotests.failures": sum(1 for s in spans
                                  if s.layer == "hypotests" and s.error and counted(s)),
        "distributions.calls_per_path": _ratio(
            sum(1 for s in distributions if counted(s)), counted_paths),
        "distributions.ms_per_path": 1e3 * _ratio(sum(s.duration for s in distributions), paths),
        "montecarlo.self_share": _ratio(sum(selfs[i] for i in tables), table_time),
        "montecarlo.failed_cells": sum(o.failed for o in outcomes[:count_units]) if tables else 0,
        "trace.overhead_share": wall_traced / wall_untraced - 1.0,
        "fail_share": _ratio(failed, attempted),
    }
