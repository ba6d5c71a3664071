"""One workload execution in a fresh interpreter; spawned by ``run.py``.

Runs the ``janus-repro`` CLI in-process with the counting probes (or, with
``--trace 1``, every probe) installed, then writes one JSON record: the
monotonic clock at the end of setup and at the end of the work, peak RSS,
the output digest and checks, the modelled numbers, the exact work
counters and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probes import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _synthesis_counts() -> dict[str, int]:
    from repro.scenarios.cache import synthesis_cache_stats

    stats = synthesis_cache_stats()
    hits = sum(s["memory_hits"] + s["disk_hits"] for s in stats.values())
    syntheses = stats["hints"]["syntheses"] + stats["dag_hints"]["syntheses"]
    return {
        "synthesis.dp_solves": stats["dp"]["solves"],
        "synthesis.syntheses": syntheses,
        "synthesis.memo_hits": hits,
    }


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, table: dict[str, dict[str, float]],
                  counts: dict[str, int],
                  modelled: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (``tracing.overhead_s`` aside,
    which needs the untraced runs and is added by ``run.py``)."""

    def get(key: str, field: str = "busy_s") -> float:
        return table.get(key, {}).get(field, 0)

    decide = ("policies.janus_size_for_node", "policies.janus_sizes_for_node")
    decide_us = [d * 1e6 for d in tracer.durations_s(*decide)]
    cells_s = tracer.durations_s("scenarios.run_scenario")
    exec_calls = ("functions.execution_time", "functions.execution_times")
    c = tracer.counters
    lookups = (counts["synthesis.memo_hits"] + counts["synthesis.dp_solves"]
               + counts["synthesis.syntheses"])
    sim_busy = get("sim")
    return {
        "profiling.busy_s": get("profiling"),
        "synthesis.calls": get("synthesis", "calls"),
        "synthesis.busy_s": get("synthesis"),
        "synthesis.dp_solves": counts["synthesis.dp_solves"],
        "synthesis.memo_hits": counts["synthesis.memo_hits"],
        "synthesis.memo_hit_ratio": (
            counts["synthesis.memo_hits"] / lookups if lookups else 0.0
        ),
        "policies.build_calls": get("policies.build", "calls"),
        "policies.build_s": get("policies.build"),
        "policies.oracle_solves": c["policies.oracle_solves"],
        "policies.oracle_busy_s": get("policies.oracle_begin_request"),
        "policies.decide_calls": sum(get(k, "calls") for k in decide),
        "policies.decide_busy_s": sum(get(k) for k in decide),
        "policies.decide_p50_us": _quantile(decide_us, 50),
        "policies.decide_p99_us": _quantile(decide_us, 99),
        "runtime.busy_s": get("runtime"),
        "runtime.self_s": get("runtime", "self_s"),
        "traces.busy_s": get("traces"),
        "traces.requests": c["traces.requests"],
        "functions.exec_calls": sum(get(k, "calls") for k in exec_calls),
        "functions.exec_busy_s": sum(get(k) for k in exec_calls),
        "functions.sample_busy_s": get("functions.sample_dynamics"),
        "workflow.chain_calls": get("workflow.chain", "calls"),
        "workflow.chain_busy_s": get("workflow.chain"),
        "cluster.busy_s": get("cluster"),
        "cluster.throttle_polls": c["cluster.throttle_polls"],
        "cluster.polls_per_request": (
            c["cluster.throttle_polls"] / c["cluster.requests"]
            if c["cluster.requests"] else 0.0
        ),
        "cluster.preemptions": c["cluster.preemptions"],
        "cluster.retries": c["cluster.retries"],
        "cluster.cold_start_rate": (
            statistics.fmean(tracer.cold_start_rates)
            if tracer.cold_start_rates else 0.0
        ),
        "sim.events": c["sim.events"],
        "sim.busy_s": sim_busy,
        "sim.us_per_event": (
            sim_busy * 1e6 / c["sim.events"] if c["sim.events"] else 0.0
        ),
        "serving.busy_s": get("serving"),
        "serving.swaps": c["serving.swaps"],
        "serving.events_retained": c["serving.events_retained"],
        "metrics.compare_s": get("metrics"),
        "metrics.janus_norm_cpu": modelled["janus_norm_cpu"],
        "metrics.janus_slo_attainment": modelled["janus_slo_attainment"],
        "scenarios.cells": len(cells_s),
        "scenarios.cell_p50_s": _quantile(cells_s, 50),
        "scenarios.cell_max_s": max(cells_s, default=0.0),
    }


#: Counters that must repeat exactly across runs of one seed.
EXACT_COUNTERS = (
    "policies.oracle_solves",
    "synthesis.dp_solves",
    "synthesis.syntheses",
    "synthesis.memo_hits",
    "sim.events",
    "cluster.throttle_polls",
    "cluster.preemptions",
    "cluster.retries",
    "serving.swaps",
    "serving.events_retained",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True,
                        help="directory for the CLI's outputs and result.json")
    parser.add_argument("--spans-out", default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import repro.cli

    for module in workload.imports:
        importlib.import_module(module)
    tracer = Tracer(tracing=bool(args.trace))
    tracer.install()
    try:
        exit_code = repro.cli.main(workload.argv(args.seed, args.outdir))
        t_end = time.monotonic()
    finally:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = workload.read(args.outdir)
    problems = list(outputs.problems)
    if exit_code != 0:
        problems.append(f"CLI exited with {exit_code}")
    if tracer.first_dispatch is None:
        problems.append("no cell was dispatched and no arrival admitted")
    counts = _synthesis_counts()
    counters = {**{k: tracer.counters[k] for k in EXACT_COUNTERS}, **counts}
    record = {
        "t_setup": tracer.first_dispatch,
        "t_end": t_end,
        "rss_mb": rss_mb,
        "digest": outputs.digest,
        "served": outputs.served,
        "problems": problems,
        "modelled": outputs.modelled,
        "counters": counters,
    }
    if args.trace:
        table = tracer.span_table()
        record["layers"] = layer_metrics(tracer, table, counts,
                                         outputs.modelled)
        record["spans"] = {
            name: row for name, row in table.items() if "." in name
        }
        record["layer_self_s"] = {
            name: row["self_s"] for name, row in table.items()
            if "." not in name
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    with open(os.path.join(args.outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
