"""The lltpaths benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

  python3 bench/run.py --workload identity-n6 --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (bench/worker.py), so the module memo
tables start empty, as they do for a CLI user.  All load comes from one
single-threaded worker at a time: a closed loop with one client.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes over the same inputs and reports the per-layer metrics
(bench/LAYERS.md maps each one to the end-to-end metric it should move).
The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit and sample count, failed_frac, and provenance.
The exit code is 1 when any output fails its check (failed_frac > 0), when
an exact count differs between two traced passes of the same inputs, or
when a layer the table assigns to the workload records no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_trace"

WORKLOADS = ("identity-n6", "relations-n6", "recursion-n7", "cli-mix")

SETUP_PROBES = 10  # set-up-only launches per run, on top of one per pass
MIN_PASSES = 2
MIN_OPERATIONS = 100  # so that at least ten latency samples lie beyond p90
WORKER_TIMEOUT_S = 150

# End-to-end metrics: name -> unit.  The order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  The order is the order of BENCHMARK.json.
PER_LAYER = {
    "coeffring.mul.calls": "count",
    "coeffring.mul.self_s": "s",
    "coeffring.add.calls": "count",
    "coeffring.add.self_s": "s",
    "coeffring.mul.integral_frac": "ratio",
    "coeffring.shift_q.self_s": "s",
    "coeffring.exact_div.calls": "count",
    "symfunc.convert.calls": "count",
    "symfunc.convert.self_s": "s",
    "symfunc.mul.calls": "count",
    "symfunc.mul.self_s": "s",
    "partitions.kostka.calls": "count",
    "partitions.kostka.self_s": "s",
    "schroeder.parse.calls": "count",
    "schroeder.parse.self_s": "s",
    "schroeder.bounce_at.calls": "count",
    "schroeder.bounce_at.self_s": "s",
    "schroeder.enumerate_paths.self_s": "s",
    "llt.llt.calls": "count",
    "llt.llt.self_s": "s",
    "llt.llt.repeat_frac": "ratio",
    "llt.llt.colorings": "count",
    "llt.orientation_e_expansion.calls": "count",
    "llt.orientation_e_expansion.self_s": "s",
    "llt.orientation_e_expansion.masks": "count",
    "llt.chromatic.self_s": "s",
    "relations.verify.instances": "count",
    "relations.verify.self_s": "s",
    "relations.recursion_evaluate.calls": "count",
    "relations.recursion_evaluate.self_s": "s",
    "relations.recursion_evaluate.repeat_frac": "ratio",
    "schur.elw_schur.self_s": "s",
    "schur.kostka_schur.self_s": "s",
    "harmonics.nabla_e.self_s": "s",
    "harmonics.nabla_p.self_s": "s",
    "harmonics.hall_littlewood.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Layers that must record calls on a workload (the "on workload" column of LAYERS.md).
REQUIRED_LAYERS = {
    "identity-n6": ("coeffring.shift_q", "llt.llt", "llt.orientation_e_expansion"),
    "relations-n6": (
        "coeffring.mul", "coeffring.add", "symfunc.convert", "schroeder.parse",
        "schroeder.bounce_at", "schroeder.enumerate_paths", "llt.llt", "llt.chromatic",
        "relations.verify",
    ),
    "recursion-n7": (
        "coeffring.mul", "coeffring.add", "symfunc.mul", "schroeder.parse",
        "schroeder.bounce_at", "schroeder.enumerate_paths", "relations.recursion_evaluate",
    ),
    "cli-mix": (
        "coeffring.exact_div", "symfunc.convert", "partitions.kostka",
        "llt.orientation_e_expansion", "schur.elw_schur", "schur.kostka_schur",
        "harmonics.nabla_e", "harmonics.nabla_p", "harmonics.hall_littlewood", "cli.main",
    ),
}

# Per-layer statistics that are counts: they must repeat exactly for the same inputs.
EXACT_STATS = ("calls", "integral_frac", "repeat_frac", "colorings", "masks", "instances")


class WorkerError(RuntimeError):
    pass


def launch(spec: dict | None) -> tuple[float, dict | None]:
    """Start a fresh worker, time it to "ready", hand it the spec; return (setup_s, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(json.dumps(spec or {}), timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return setup_s, (json.loads(out.splitlines()[-1]) if spec else None)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, passes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "caches": "cold: fresh interpreter per pass",
        "passes": passes,
    }


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    setups = [launch(None)[0] for _ in range(SETUP_PROBES)]
    results, latencies = [], []
    last = 0.0
    while len(results) < MIN_PASSES or len(latencies) < MIN_OPERATIONS or time.perf_counter() + last < deadline:
        t = time.perf_counter()
        setup_s, res = launch({"workload": args.workload, "seed": args.seed, "pass": len(results)})
        last = time.perf_counter() - t
        setups.append(setup_s)
        results.append(res)
        latencies += res["latencies"]
    items = sum(r["items"] for r in results)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(r["work_s"] for r in results),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024 for r in results]),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = [
        f"setup_s: median of {len(setups)} launches",
        f"items_per_s: {items} items over the timed work of {len(results)} passes",
        f"latency_p50_ms, latency_p90_ms: {len(latencies)} operations",
        f"peak_rss_mb: median of {len(results)} workers",
    ]
    return metrics, results, notes


def per_layer(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    """Alternate untraced and traced passes over the pass-0 inputs: U T T, then U T while time lasts."""
    SPANS_DIR.mkdir(exist_ok=True)
    spec = {"workload": args.workload, "seed": args.seed, "pass": 0}
    untraced, traced = [], []

    def traced_pass():
        spans = None if traced else str(SPANS_DIR / f"{args.workload}.spans.tsv")
        traced.append(launch({**spec, "trace": True, "spans_path": spans})[1])

    t = time.perf_counter()
    untraced.append(launch(spec)[1])
    traced_pass()
    last = time.perf_counter() - t
    traced_pass()
    while time.perf_counter() + last < deadline:
        t = time.perf_counter()
        untraced.append(launch(spec)[1])
        traced_pass()
        last = time.perf_counter() - t

    problems = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for layer, row in first.items():
            for stat in EXACT_STATS:
                if stat in row and other["layers"][layer][stat] != row[stat]:
                    problems.append(f"{layer}.{stat} differs between traced passes: {row[stat]} vs {other['layers'][layer][stat]}")
    for layer in REQUIRED_LAYERS[args.workload]:
        if first.get(layer, {}).get("calls", 0) == 0:
            problems.append(f"{layer} recorded no calls on {args.workload}")

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(r["work_s"] for r in traced) - statistics.median(r["work_s"] for r in untraced)
        else:
            layer, stat = name.rsplit(".", 1)
            rows = [r["layers"].get(layer, {}) for r in traced]
            value = statistics.median(row.get(stat, 0) for row in rows) if unit == "s" else rows[0].get(stat, 0)
        metrics[name] = (value, unit)
    notes = [
        f"timings: median of {len(traced)} traced passes; counts checked equal across them",
        f"trace.overhead_s: median traced minus median untraced work time ({len(untraced)} untraced passes)",
        f"{traced[0]['spans']} spans of the first traced pass written to {SPANS_DIR.relative_to(ROOT)}/{args.workload}.spans.tsv",
    ]
    return metrics, untraced + traced, notes + [f"FAIL {p}" for p in problems]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lltpaths" / "__init__.py").is_file():
        print(f"error: no lltpaths sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    try:
        metrics, results, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [n for n in notes if n.startswith("FAIL ")]
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    for note in notes:
        print(f"  {note}")
    print(f"failed_frac\t{failed / attempted:.6g}\tratio\t({failed} of {attempted} checked outputs)")
    for r in results:
        for f in r["failures"]:
            print(f"  FAILED {f}")
    print("provenance " + json.dumps(provenance(args, len(results)), sort_keys=True))
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
