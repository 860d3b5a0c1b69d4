"""Arithmetic behind the benchmark's numbers.

Pure functions over timings, failure counts and trace spans, kept apart from
``run.py`` so that the tests in this directory can check them directly.

A span is a tuple ``(span_id, parent_id, name, start_s, end_s)``; the parent
is ``None`` for a root span.  Spans come from one thread, so the children of
a span cover disjoint parts of its interval.
"""

from __future__ import annotations

from dataclasses import dataclass

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile that still has ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, count)``.  The value is the order statistic
    with exactly ``TAIL_BEYOND`` samples after it in sorted order;
    ``percentile`` is the share of samples at or below it, in percent.  With
    ``TAIL_BEYOND`` or fewer samples no such percentile exists, so the
    maximum is returned with percentile 100 and the caller reports the count
    beside it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of an empty sample")
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    k = count - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / count, count


def bracketed_ratios(times, probes) -> list[float]:
    """Each pass time over the mean of the host-speed probes taken just before and after it.

    ``probes`` holds one probe before every pass and one after the last, so
    it is one longer than ``times``.
    """
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} passes need {len(times) + 1} probes, got {len(probes)}")
    return [t / (0.5 * (before + after)) for t, before, after in zip(times, probes, probes[1:])]


def error_rate(failed: int, attempted: int) -> float:
    """Failed commands per attempted command."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted command")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def count_failures(exit_codes, check_failures) -> int:
    """Commands that failed: a non-zero exit or a failed output check.

    ``exit_codes`` lists one code per attempted command; ``check_failures``
    holds the indices of commands whose outputs failed a check.  A command
    that fails both ways counts once.
    """
    failed = {i for i, code in enumerate(exit_codes) if code != 0}
    failed.update(i for i in check_failures if 0 <= i < len(exit_codes))
    return len(failed)


def self_times(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children."""
    own = {sid: end - start for sid, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


@dataclass
class LayerTotal:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def layer_totals(spans, names=()) -> dict[str, LayerTotal]:
    """Calls, inclusive time and self time per span name.

    ``names`` lists layers that were traced, so that a traced layer with no
    calls still appears with zero calls.
    """
    totals = {name: LayerTotal() for name in names}
    own = self_times(spans)
    for sid, _, name, start, end in spans:
        total = totals.setdefault(name, LayerTotal())
        total.calls += 1
        total.seconds += end - start
        total.self_seconds += own[sid]
    return totals


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str


def layer_metrics(totals: dict[str, LayerTotal], counts: dict[tuple[str, str], float],
                  passes: int, commands: int) -> tuple[dict[str, Metric], dict[str, str]]:
    """Per-layer metrics from traced totals.

    ``counts`` holds tallies observed at layer boundaries, keyed by
    ``(layer, what)``: ``("bounds.min_security", "short_circuit")``,
    ``("secmap.evaluate_map", "points")`` and ``("secmap.write", "bytes")``.
    Counts and times that accumulate over a run are reported per workload
    pass.  Returns ``(metrics, absent)``; ``absent`` maps each metric that
    could not be computed to the reason.
    """
    metrics: dict[str, Metric] = {}
    absent: dict[str, str] = {}

    def calls_of(layer):
        total = totals.get(layer)
        if total is None:
            return None, f"{layer} was not found, so it was not traced"
        if total.calls == 0:
            return None, f"{layer} was not called on this workload"
        return total, None

    def put(name, layer, unit, value_of):
        total, reason = calls_of(layer)
        if reason is not None:
            absent[name] = reason
            return
        value = value_of(total)
        if value is None:
            absent[name] = f"{name} has no denominator on this workload"
        else:
            metrics[name] = Metric(value, unit)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else None

    for layer, scale, unit in (("bounds.min_security", 1e6, "us"),
                               ("bounds.min_reliability", 1e6, "us"),
                               ("linkmodel.link_budget", 1e6, "us"),
                               ("antenna.pattern_gain", 1e6, "us"),
                               ("geometry.offset_angle", 1e6, "us")):
        put(f"{layer}.{unit}_per_call", layer, unit, lambda t, s=scale: s * t.seconds / t.calls)
        put(f"{layer}.calls", layer, "count", lambda t: t.calls / passes)

    points = counts.get(("secmap.evaluate_map", "points"), 0)
    put("bounds.min_security.short_circuit_ratio", "bounds.min_security", "ratio",
        lambda t: counts.get(("bounds.min_security", "short_circuit"), 0) / t.calls)
    put("bounds.min_security.calls_per_point", "bounds.min_security", "count",
        lambda t: ratio(t.calls, points))
    put("planner.min_reliability_per_plan", "bounds.min_reliability", "count",
        lambda t: ratio(t.calls, totals["planner.plan"].calls if "planner.plan" in totals else 0))
    put("planner.plan.ms_per_call", "planner.plan", "ms", lambda t: 1e3 * t.seconds / t.calls)
    put("secmap.evaluate_map.points", "secmap.evaluate_map", "count",
        lambda t: ratio(points, passes) if points else None)
    put("secmap.evaluate_map.self_us_per_point", "secmap.evaluate_map", "us",
        lambda t: ratio(1e6 * t.self_seconds, points))
    put("secmap.threshold_radius.ms_per_call", "secmap.threshold_radius", "ms",
        lambda t: 1e3 * t.seconds / t.calls)
    put("secmap.radial_profile.ms_per_call", "secmap.radial_profile", "ms",
        lambda t: 1e3 * t.seconds / t.calls)
    put("secmap.write.ms", "secmap.write", "ms", lambda t: 1e3 * t.seconds / passes)
    put("secmap.write.bytes", "secmap.write", "bytes",
        lambda t: counts.get(("secmap.write", "bytes"), 0) / passes)
    put("cli.load_config.ms_per_call", "cli.load_config", "ms",
        lambda t: 1e3 * t.seconds / t.calls)
    put("cli.self_ms_per_cmd", "cli.run", "ms",
        lambda t: ratio(1e3 * t.self_seconds, commands))
    return metrics, absent
