"""Per-layer spans, recorded by rebinding the names the harness calls through.

Nothing under src/ changes.  ``install`` replaces module attributes, class
methods and adversary factories with wrappers that record one span per call:
its name, start, end and the span that was open when it began.  The
harness looks these names up at call time, so trials run through the
wrappers.  Spans stay in memory; ``write_spans`` saves them when the run
ends and ``layer_metrics`` reduces them to the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder plus counts read off the results of calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                counts[name] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Route every layer boundary the benchmark measures through ``tracer``.

    Only the adversaries the workloads play are wrapped; a workload that
    switches adversary must wrap its factory here too.
    """
    from smoothlab import coupling, discrepancy, domain, harness, learning

    def rebind(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    def trace_rule(owner, attr, name):
        # Adversaries keep their rule in a frozen field; wrap it on each new one.
        make = getattr(owner, attr)

        def traced_factory(*args, **kwargs):
            adv = make(*args, **kwargs)
            return dataclasses.replace(adv, rule=tracer.wrap(name, adv.rule))

        setattr(owner, attr, traced_factory)

    rebind(harness, "make_config", "harness.config")
    rebind(harness, "run_experiment", "harness.run")
    rebind(harness, "_run_single_trial", "harness.trial")
    rebind(harness, "summarize", "harness.summarize")
    rebind(domain.RngStream, "generator", "domain.stream_open")

    rebind(harness, "couple_adaptive", "coupling.trial", lambda trace: trace.T)
    rebind(coupling, "couple_single_round", "coupling.round")
    trace_rule(harness, "last_value_adversary", "coupling.adversary")
    rebind(harness, "traces_to_jsonl", "coupling.serialize")
    rebind(harness, "traces_from_jsonl", "coupling.parse")
    rebind(harness, "verify_marginals", "coupling.marginals")
    rebind(coupling, "chi_square_uniform", "stats.chi_square")
    rebind(coupling, "chi_square_table", "stats.chi_square")

    rebind(harness, "run_discrepancy", "discrepancy.trial", lambda trace: trace.t_done)
    rebind(discrepancy.VectorAdversary, "next_vector", "discrepancy.adversary")
    rebind(harness, "trace_to_csv", "discrepancy.csv")
    rebind(harness, "trace_header_json", "discrepancy.csv")

    rebind(harness, "run_learning_game", "learning.trial", lambda ledger: ledger.T)
    rebind(harness, "build_cover", "learning.cover")
    rebind(learning, "hedge_step", "learning.hedge_step")
    rebind(learning, "best_in_hindsight", "learning.bih")
    rebind(learning.SmoothLabelAdversary, "play", "learning.adversary")
    rebind(learning.RegretLedger, "to_csv", "learning.csv")
    rebind(learning.RegretLedger, "config_json", "learning.csv")

    rebind(
        harness, "generate_discontinuities", "dispersion.trial", lambda s: int(s.points.size)
    )
    trace_rule(harness, "densest_window_adversary", "dispersion.adversary")
    rebind(harness, "check_dispersed", "dispersion.sweep")
    rebind(harness, "sample_to_jsonl", "dispersion.jsonl")
    rebind(harness, "report_csv", "dispersion.jsonl")


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 when the layer never ran."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced run.

    A layer the workload never calls reads 0.  Import times, bytes and files
    written and the tracing overhead are measured outside the spans and
    added by the caller.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        durations[name].append(end - start)
        if parent >= 0:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(tracer.spans, covered):
        self_time[name] += end - start - child

    def total(name):
        return sum(durations.get(name, ()), 0.0)

    def calls(name):
        return len(durations.get(name, ()))

    def pct(name, p, scale):
        return _percentile(durations.get(name, []), p) * scale

    counts = tracer.counts
    algorithm_s = self_time["discrepancy.trial"]
    trials = calls("harness.trial")
    return {
        "domain.stream_open_us": pct("domain.stream_open", 50, 1e6),
        "coupling.trial_ms.p50": pct("coupling.trial", 50, 1e3),
        "coupling.trial_ms.p99": pct("coupling.trial", 99, 1e3),
        "coupling.adversary_s": total("coupling.adversary"),
        "coupling.round_s": total("coupling.round"),
        "coupling.serialize_s": total("coupling.serialize"),
        "coupling.parse_s": total("coupling.parse"),
        "coupling.marginals_s": total("coupling.marginals"),
        "coupling.rounds": counts["coupling.trial"],
        "coupling.adversary_calls": calls("coupling.adversary"),
        "discrepancy.trial_s.p50": pct("discrepancy.trial", 50, 1.0),
        "discrepancy.adversary_s": total("discrepancy.adversary"),
        "discrepancy.algorithm_s": algorithm_s,
        "discrepancy.round_us": (
            algorithm_s / counts["discrepancy.trial"] * 1e6 if counts["discrepancy.trial"] else 0.0
        ),
        "discrepancy.csv_s": total("discrepancy.csv"),
        "discrepancy.rounds": counts["discrepancy.trial"],
        "discrepancy.adversary_calls": calls("discrepancy.adversary"),
        "learning.trial_s.p50": pct("learning.trial", 50, 1.0),
        "learning.hedge_step_us.p50": pct("learning.hedge_step", 50, 1e6),
        "learning.hedge_step_us.p99": pct("learning.hedge_step", 99, 1e6),
        "learning.adversary_s": total("learning.adversary"),
        "learning.cover_s": total("learning.cover"),
        "learning.bih_s": total("learning.bih"),
        "learning.csv_s": total("learning.csv"),
        "learning.rounds": counts["learning.trial"],
        "learning.hedge_steps": calls("learning.hedge_step"),
        "learning.adversary_calls": calls("learning.adversary"),
        "dispersion.trial_s.p50": pct("dispersion.trial", 50, 1.0),
        "dispersion.adversary_s": total("dispersion.adversary"),
        "dispersion.sweep_s": total("dispersion.sweep"),
        "dispersion.jsonl_s": total("dispersion.jsonl"),
        "dispersion.points": counts["dispersion.trial"],
        "dispersion.adversary_calls": calls("dispersion.adversary"),
        "stats.chi_square_s": total("stats.chi_square"),
        "harness.config_s": total("harness.config"),
        "harness.trials_s": total("harness.trial"),
        "harness.self_s": self_time["harness.run"],
        "harness.summarize_s": total("harness.summarize"),
        "harness.trial_overhead_us": self_time["harness.trial"] / trials * 1e6 if trials else 0.0,
    }


def write_spans(tracer: Tracer, path) -> None:
    """One JSON object per span, in start order; times in microseconds."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as out:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            out.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "parent": parent,
                        "start_us": round((start - origin) * 1e6, 3),
                        "end_us": round((end - origin) * 1e6, 3),
                    }
                )
                + "\n"
            )
