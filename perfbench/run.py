"""The repository benchmark: end-to-end and per-layer numbers for the
default ``janus-repro sweep``, a saturated DES-cluster sweep and the
drifting ``janus-repro serve`` loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-default [--seed N]
        [--seconds S] [--trace 0|1]

A run repeats the workload, each time in a fresh interpreter with a
scrubbed environment (so no ``$JANUS_SWEEP_CACHE`` and no warm in-process
memo), until ``--seconds`` have passed and at least three times. It checks
every output, requires outputs and work counters to repeat exactly across
the repetitions, and reports medians. ``--trace 1`` adds one traced
repetition and reports the per-layer metrics instead of the end-to-end
ones. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``; ``MAPPING.md`` says
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

#: Repetitions per run, whatever --seconds says: a median needs three.
MIN_REPEATS = 3
#: A run must end within 180 s; no repetition starts that cannot finish
#: inside this budget on the evidence of the previous ones.
BUDGET_S = 165.0
#: Runtime artefacts (outputs, spans, per-seed records) live here.
WORKDIR = ROOT / ".perfbench"


def _scrubbed_env() -> dict[str, str]:
    # Nothing from the caller's environment reaches the program: no
    # cache directory, no fabric token, one BLAS thread.
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "LC_ALL": "C.UTF-8"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload: Workload, seed: int, trace: bool, outdir: Path,
           timeout: float, spans_out: Path | None = None) -> dict | None:
    """One repetition in a fresh interpreter; ``None`` when it failed."""
    outdir.mkdir(parents=True)
    cmd = [sys.executable, "-I", str(HERE / "child.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--trace", str(int(trace)), "--outdir", str(outdir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    log = outdir / "stdout.txt"
    with open(log, "w", encoding="utf-8") as out:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_scrubbed_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"repetition killed after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            # Also on SIGTERM (see main): no repetition outlives the run.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"repetition exited with {proc.returncode}:\n{tail}",
              file=sys.stderr)
        return None
    with open(outdir / "result.json", encoding="utf-8") as fh:
        record = json.load(fh)
    record["wall_s"] = record["t_end"] - t_spawn
    if record["t_setup"] is not None:
        record["setup_s"] = record["t_setup"] - t_spawn
        record["work_s"] = record["t_end"] - record["t_setup"]
    return record


def _failed(workload: Workload, record: dict) -> int:
    """Policy-requests of one repetition that count as failed: those not
    served, or all of them when an output check failed."""
    lost = workload.attempted - record["served"]
    return lost if lost else workload.attempted * bool(record["problems"])


def _code_digest() -> str:
    """Digest of the program and benchmark sources, keying per-seed records
    so a record is only ever compared against the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _fingerprint(record: dict) -> dict:
    return {k: record[k] for k in ("digest", "counters", "modelled")}


def _check_repeats(records: list[dict], state_path: Path) -> list[str]:
    """Outputs, modelled numbers and work counters must repeat exactly:
    within this run, and against an earlier run of the same seed and code."""
    problems = []
    ref = _fingerprint(records[0])
    for i, rec in enumerate(records[1:], start=2):
        for key, value in _fingerprint(rec).items():
            if value != ref[key]:
                problems.append(f"repetition {i}: {key} differs from the "
                                f"first: {value} != {ref[key]}")
    if state_path.is_file():
        with open(state_path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        for key, value in ref.items():
            if earlier.get(key) != value:
                problems.append(f"{key} differs from an earlier run of this "
                                f"seed: {value} != {earlier.get(key)}")
    elif not problems:
        state_path.parent.mkdir(parents=True, exist_ok=True)
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
    return problems


def _end_to_end(records: list[dict]) -> dict[str, float]:
    first = records[0]["modelled"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "requests_per_s": statistics.median(
            r["served"] / r["work_s"] for r in records),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "janus_mc_per_request": first["janus_mc_per_request"],
        "janus_p99_ms": first["janus_p99_ms"],
    }


def _print_spans(record: dict) -> None:
    print("traced repetition, by self time:")
    print(f"  {'span':38s} {'calls':>9s} {'busy s':>9s} {'self s':>9s}")
    rows = sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"  {name:38s} {row['calls']:9.0f} {row['busy_s']:9.3f} "
              f"{row['self_s']:9.3f}")
    layers = sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1])
    print("  self time by layer: " + ", ".join(
        f"{name} {secs:.3f} s" for name, secs in layers))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 2025 for the sweeps, "
                             "0 for serve, as the CLI defaults)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced repetition and report the "
                             "per-layer metrics")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"no {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORKDIR))
    start = time.monotonic()
    records: list[dict] = []
    problems: list[str] = []
    failed = attempted = 0
    try:
        while len(records) < MIN_REPEATS or (
                time.monotonic() - start < args.seconds):
            elapsed = time.monotonic() - start
            longest = max((r["wall_s"] for r in records), default=0.0)
            if records and elapsed + longest > BUDGET_S:
                break
            attempted += workload.attempted
            rec = _spawn(workload, seed, False, rundir / f"r{len(records)}",
                         timeout=BUDGET_S - elapsed)
            if rec is None:
                failed += workload.attempted
                problems.append("a repetition did not finish")
                break
            problems.extend(rec["problems"])
            failed += _failed(workload, rec)
            records.append(rec)
            print(f"repetition {len(records)}: setup "
                  f"{rec.get('setup_s', float('nan')):.3f} s, work "
                  f"{rec.get('work_s', float('nan')):.3f} s, "
                  f"{rec['served']} policy-requests, "
                  f"peak RSS {rec['rss_mb']:.1f} MB", flush=True)

        traced = None
        if args.trace and records:
            elapsed = time.monotonic() - start
            spans_dir = WORKDIR / "traces"
            spans_dir.mkdir(exist_ok=True)
            attempted += workload.attempted
            traced = _spawn(
                workload, seed, True, rundir / "traced",
                timeout=BUDGET_S + 10 - elapsed,
                spans_out=spans_dir / f"{workload.name}-seed{seed}.json")
            if traced is None:
                failed += workload.attempted
                problems.append("the traced repetition did not finish")
            else:
                problems.extend(traced["problems"])
                failed += _failed(workload, traced)
                _print_spans(traced)

        checked = records + ([traced] if traced else [])
        if checked:
            repeat_problems = _check_repeats(
                checked,
                WORKDIR / "records"
                / f"{workload.name}-seed{seed}-{_code_digest()}.json")
            if repeat_problems:
                # A mismatch is a failed run, not noise: the simulator is
                # deterministic per seed.
                problems.extend(repeat_problems)
                failed = attempted
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if records:
        print("work counters: " + ", ".join(
            f"{k} {v}" for k, v in records[0]["counters"].items() if v))
    if args.trace:
        declared = spec["per_layer"]
        values = dict(traced["layers"]) if traced else {}
        if traced and records:
            values["tracing.overhead_s"] = traced["wall_s"] - statistics.median(
                r["wall_s"] for r in records)
    else:
        declared = spec["end_to_end"]
        usable = [r for r in records if "work_s" in r]
        values = _end_to_end(usable) if usable else {}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
