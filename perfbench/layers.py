"""Per-layer metrics of a traced run, computed from its spans.

Counts and times are per op (total over the run divided by the traced op
count), so runs of different length compare. ``*.time_s`` is inclusive
time in the layer; ``self_time_s`` excludes the layer's child spans. A
ratio whose base is zero in a workload (e.g. fits in ``gate-scan``) reads 0,
and its base is reported next to it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import ATTRS, END, NAME, PARENT, START, self_times


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) of the highest order statistic with 10 values above it.

    None below 21 values, where that statistic would not lie above the median.
    """
    n = len(values)
    if n < 21:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def span_problems(spans, traced, required) -> list[str]:
    """What the spans of each traced op lack; empty when every op is whole.

    Every op must have a ``cli.main`` span as a direct child, a span of
    each name in ``required`` below it, and span self times below it that
    add up to no more than its wall time.
    """
    own = self_times(spans)
    bounds = [r.span for r in traced] + [len(spans)]
    problems = []
    for k, rec in enumerate(traced):
        below = range(bounds[k] + 1, bounds[k + 1])
        names = {spans[i][NAME] for i in below}
        if not any(spans[i][NAME] == "cli.main" and spans[i][PARENT] == rec.span
                   for i in below):
            problems.append(f"op {rec.index}: no cli.main span")
        missing = sorted(set(required) - names)
        if missing:
            problems.append(f"op {rec.index}: no span of {missing}")
        covered = sum(own[i] for i in below)
        if covered > rec.wall_s:
            problems.append(f"op {rec.index}: span self times {covered:.6f} s "
                            f"exceed its wall time {rec.wall_s:.6f} s")
    return problems


def per_layer(spans, traced, plain) -> dict:
    """Metrics of paired untraced and traced op records."""
    n_ops = len(traced)
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def attrs(name, key):
        return [spans[i][ATTRS][key] for i in by_name[name]]

    def ratio(num, den):
        return num / den if den else 0.0

    def p50_ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    op_time = sum(r.wall_s for r in traced)
    fits = by_name["tomography.mle_fit"]
    warm = [dur(i) for i in fits if spans[i][ATTRS]["warm"]]
    cold = [dur(i) for i in fits if not spans[i][ATTRS]["warm"]]
    cold_tail = tail(cold)
    # with fewer than 21 cold fits the tail is their maximum
    cold_tail_s = cold_tail[0] if cold_tail else max(cold, default=0.0)
    resamples = sum(attrs("sampling.bootstrap", "resamples"))
    failures = sum(attrs("sampling.bootstrap", "failures"))
    physical = attrs("tomography.linear_inversion", "physical")
    points = sum(attrs("cli.run_scan", "points"))

    covered = sum(own) - sum(own[r.span] for r in traced)
    traced_p50 = statistics.median(r.wall_s for r in traced)
    plain_p50 = statistics.median(r.wall_s for r in plain)
    m = {
        "tomography.mle_fit.calls": (len(fits) / n_ops, "count"),
        "tomography.mle_fit.share": (ratio(total("tomography.mle_fit"), op_time), "1"),
        "tomography.mle_fit.warm.p50_ms": (p50_ms(warm), "ms"),
        "tomography.mle_fit.cold.p50_ms": (p50_ms(cold), "ms"),
        "tomography.mle_fit.cold.tail_ms": (1e3 * cold_tail_s, "ms"),
        "tomography.mle_fit.iterations_per_fit":
            (ratio(sum(attrs("tomography.mle_fit", "iterations")), len(fits)), "count"),
        "tomography.mle_fit.converged_ratio":
            (ratio(sum(attrs("tomography.mle_fit", "converged")), len(fits)), "1"),
        "tomography.linear_inversion.calls": (len(physical) / n_ops, "count"),
        "tomography.linear_inversion.time_s":
            (total("tomography.linear_inversion") / n_ops, "s"),
        "tomography.linear_inversion.unphysical_ratio":
            (ratio(physical.count(False), len(physical)), "1"),
        "tomography.simulate_counts.time_s":
            (total("tomography.simulate_counts") / n_ops, "s"),
        "tomography.calibrate_detection.time_s":
            (total("tomography.calibrate_detection") / n_ops, "s"),
        "sampling.bootstrap.resamples": (resamples / n_ops, "count"),
        "sampling.bootstrap.self_time_s":
            (sum(own[i] for i in by_name["sampling.bootstrap"]) / n_ops, "s"),
        "sampling.bootstrap.useful_ratio": (ratio(resamples - failures, resamples), "1"),
        "measures.fit_target_phase.calls":
            (len(by_name["measures.fit_target_phase"]) / n_ops, "count"),
        "measures.analyze.time_s": (total("measures.analyze") / n_ops, "s"),
        "cli.write_tomography.time_s": (total("cli.write_tomography") / n_ops, "s"),
        "cli.write_tomography.bytes":
            (sum(attrs("cli.write_tomography", "bytes")) / n_ops, "B"),
        "cli.analyze_density_file.time_s":
            (total("cli.analyze_density_file") / n_ops, "s"),
        "cli.run_scan.points": (points / n_ops, "count"),
        "gate.thermal_signals.calls_per_point":
            (ratio(len(by_name["gate.thermal_signals"]), points), "count"),
        "gate.thermal_signals.share": (ratio(total("gate.thermal_signals"), op_time), "1"),
        "gate.displacement_operator.calls":
            (len(by_name["gate.displacement_operator"]) / n_ops, "count"),
        "gate.displacement_operator.time_s":
            (total("gate.displacement_operator") / n_ops, "s"),
        "gate.displacement_operator.share":
            (ratio(total("gate.displacement_operator"), total("cli.run_scan")), "1"),
        "cli.write_scan_csv.time_s": (total("cli.write_scan_csv") / n_ops, "s"),
        "config.load_config.time_s": (total("config.load_config") / n_ops, "s"),
        "trace.op_p50_s": (traced_p50, "s"),
        "trace.untraced_op_p50_s": (plain_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
        "trace.spans_per_op": ((len(spans) - n_ops) / n_ops, "count"),
        "trace.span_coverage": (ratio(covered, op_time), "1"),
    }
    return m
