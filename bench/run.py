"""rkhsquad benchmark: three CLI-shaped workloads, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload mdm-decay --seed 1 --seconds 40 --trace 0

Each pass runs the workload's fixed op list once in a fresh worker process
(``bench/worker.py``), so every cache starts cold as it does for a CLI
user.  Passes run one after another until the next one would end past
``--seconds``, and never fewer than MIN_PASSES.  The last line of stdout
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes (run alternately
with untraced ones, so the tracing overhead is measured in the same run).
A summary goes to stderr, and the full record, with the environment and
any spans, to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mdm-decay", "approx-spline", "quad-gram")

MIN_PASSES = 3
WORKER_TIMEOUT_S = 120.0  # a run must end within 180 s even if a pass hangs
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile_report(samples) -> dict:
    """Median plus the highest of PERCENTILES with at least ten samples
    beyond it (nearest rank); ``tail`` is None when there are too few."""
    values = sorted(samples)
    n = len(values)
    report = {"n": n, "median": statistics.median(values) if values else None, "tail": None}
    for p in PERCENTILES:
        rank = max(1, math.ceil(n * p / 100.0 - 1e-9))  # nearest rank
        if n - rank >= 10:
            report["tail"] = {"p": p, "value": values[rank - 1], "beyond": n - rank}
    return report


def failure_counts(passes, planned_ops) -> tuple:
    """(attempted, failed) over all passes.  A pass whose worker died counts
    every planned op as attempted and failed."""
    attempted = failed = 0
    for result in passes:
        if result.get("ops") is None:
            attempted += planned_ops
            failed += planned_ops
            continue
        attempted += len(result["ops"])
        failed += sum(1 for op in result["ops"] if not op["ok"])
    return attempted, failed


def end_to_end(passes, setup_samples, big_op, attempted, failed) -> dict:
    good = [p for p in passes if p.get("ops") is not None]
    big = [op["seconds"] for p in good for op in p["ops"] if op["name"] == big_op]
    return {
        "pass_s": {"value": statistics.median(p["pass_s"] for p in good), "unit": "s"},
        "big_op_s": {"value": statistics.median(big), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in good), "unit": "MB"},
        "ok_op_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(passes, untraced, spec) -> dict:
    traced = [p for p in passes if p.get("layers") is not None]
    out = {}
    for name, unit in spec:
        if name == "trace.pass_s":
            value = statistics.median(p["pass_s"] for p in traced)
        elif name == "trace.overhead_s":
            value = statistics.median(p["pass_s"] for p in traced) - statistics.median(
                p["pass_s"] for p in untraced
            )
        else:
            value = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def launch(mode, workload, seed) -> dict:
    """Run one worker to completion and return its JSON result.  A worker
    that dies or times out yields a result without ops."""
    env = {k: v for k, v in os.environ.items() if k != "RKHS_THREADS"}
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), repr(launched)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker timed out after {WORKER_TIMEOUT_S} s"}
    wall = time.monotonic() - launched
    if proc.returncode != 0:
        return {"error": f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "rkhsquad" / "__init__.py").is_file():
        print(f"error: no rkhsquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = [(m["name"], m["unit"]) for m in config["per_layer"]]

    setup_samples = []
    begin = time.monotonic()
    passes, walls = [], []
    while len(passes) < MIN_PASSES or (
        time.monotonic() - begin + statistics.median(walls) <= args.seconds
    ):
        traced = args.trace == 1 and len(passes) % 2 == 0
        result = launch("traced" if traced else "pass", args.workload, args.seed)
        result["traced"] = traced
        passes.append(result)
        if "error" in result:
            print(f"error: {result['error']}", file=sys.stderr)
            break
        walls.append(result["wall_s"])
        setup_samples.append(result["setup_s"])

    env = next((p["env"] for p in passes if "env" in p), None)
    planned = max((len(p["ops"]) for p in passes if "ops" in p), default=0)
    attempted, failed = failure_counts(passes, planned)
    untraced = [p for p in passes if not p["traced"] and "ops" in p]
    if args.trace == 1:
        if not untraced or not any("layers" in p for p in passes):
            print("error: a traced run needs a traced and an untraced pass", file=sys.stderr)
            return 1
        metrics = per_layer(passes, untraced, metric_spec)
    else:
        if not untraced:
            print("error: no pass completed", file=sys.stderr)
            return 1
        metrics = end_to_end(untraced, setup_samples, untraced[0]["big_op"], attempted, failed)

    op_times = {}
    for p in untraced:
        for op in p["ops"]:
            op_times.setdefault(op["name"], []).append(op["seconds"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT), "env": env,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "pass_s": percentile_report([p["pass_s"] for p in untraced]),
        "setup_s": percentile_report(setup_samples),
        "op_s": {name: percentile_report(v) for name, v in op_times.items()},
        "failures": [
            {"pass": i, "op": op["name"], "reason": op["reason"]}
            for i, p in enumerate(passes) for op in p.get("ops") or () if not op["ok"]
        ] + [{"pass": i, "error": p["error"]} for i, p in enumerate(passes) if "error" in p],
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace == 1:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="ascii") as fh:
            for i, p in enumerate(passes):
                for span in p.get("spans", ()):
                    fh.write(json.dumps([i, *span]) + "\n")

    print(
        f"{args.workload} seed={args.seed} passes={len(passes)} attempted={attempted} "
        f"failed={failed} nproc={env['nproc']} blas_threads="
        f"{[b.get('threads') for b in env['blas']]} RKHS_THREADS={env['RKHS_THREADS']}",
        file=sys.stderr,
    )
    for name, rep in [("pass_s", record["pass_s"]), ("setup_s", record["setup_s"])] + sorted(
        record["op_s"].items()
    ):
        tail = rep["tail"]
        tail_text = (
            f"p{tail['p']:g}={tail['value']:.4f} ({tail['beyond']} beyond)"
            if tail else "(no percentile has ten samples beyond it)"
        )
        print(f"  {name}: median={rep['median']:.4f} n={rep['n']} {tail_text}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
