"""Re-measure the committed baseline record, ``perfbench/baseline.json``.

    python3 perfbench/record.py

Runs the benchmark command exactly as a comparison would run it, for
``run_seconds`` from ``BENCHMARK.json``: for every workload one untraced run
per seed in ``SEEDS``, then one traced run at the acceptance seed (the
per-layer table) and one untraced run at ``HELD_OUT`` (its failing verdict
items, reported as found).  Writes, per workload, the median and quartiles
over runs of each end-to-end metric and their spread (q3 - q1) / median, the
per-study figures next to the ROADMAP re-anchor numbers, the largest
space-time stack, and the machine the numbers came from.  Takes about
twenty-five minutes.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_ENV  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

SEEDS = tuple(range(1, 11))
# the held-out seed, fixed before its verdicts were seen
HELD_OUT = 11
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

# ROADMAP re-anchor figures: single runs, one fresh process per study.
ROADMAP = (
    ("converge", "verdict_s", 8.77),
    ("burgers-2d", "verdict_s", 6.60),
    ("burgers-2d", "peak_rss_mb", 1130.0),
    ("heat", "peak_rss_mb", 337.0),
)


def bench(workload, seed, seconds, trace):
    """One invocation of the benchmark command: (result, per-study figures, FAIL items)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"{result['failed']} of {result['attempted']} failed", flush=True)
    return result, detail["per_study"], detail["failing"]


def stats(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": values}


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "child_thread_env": THREAD_ENV,
        "children": "one at a time, each a fresh process",
    }


def commit() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=HERE, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"head": git("rev-parse", "HEAD"),
            "src_matches_head": git("status", "--porcelain", "--", "../src") == ""}


def main() -> int:
    record = {
        "recorded": datetime.date.today().isoformat(),
        "commit": commit(),
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{RUN_SECONDS} --trace 0|1",
        "seeds": list(SEEDS),
        "workloads": {},
    }
    per_study = {}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, RUN_SECONDS, 0) for seed in SEEDS]
        end_to_end = {
            name: dict(stats([r["metrics"][name]["value"] for r, _, _ in runs]),
                       unit=runs[0][0]["metrics"][name]["unit"])
            for name in runs[0][0]["metrics"]
        }
        for study in WORKLOADS[workload]:
            per_study[study] = {
                q: stats([s[study][q] for _, s, _ in runs])
                for q in ("verdict_s", "peak_rss_mb")
            }
        traced, _, _ = bench(workload, ACCEPTANCE_SEED, RUN_SECONDS, 1)
        held, _, failing = bench(workload, HELD_OUT, 0, 0)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = {
            "studies": list(WORKLOADS[workload]),
            "all_correct": all(r["correct"] for r, _, _ in runs) and traced["correct"],
            "operations": {
                "attempted": sum(r["attempted"] for r, _, _ in runs),
                "failed": sum(r["failed"] for r, _, _ in runs),
            },
            "end_to_end": end_to_end,
            "per_study": {study: per_study[study] for study in WORKLOADS[workload]},
            "largest_stack_mb_computed": layers.get("heat.solve_heat.max_bytes_out", 0) / 1e6,
            "per_layer_traced_seed_7": layers,
            "held_out": {"seed": HELD_OUT, "checks_failed": len(failing),
                         "failing": failing, "correct": held["correct"]},
        }
    record["roadmap_comparison"] = [
        {
            "study": study, "metric": metric, "roadmap": figure,
            "median": per_study[study][metric]["median"],
            "iqr": per_study[study][metric]["q3"] - per_study[study][metric]["q1"],
            "disagrees_beyond_spread": abs(per_study[study][metric]["median"] - figure)
            > per_study[study][metric]["q3"] - per_study[study][metric]["q1"],
        }
        for study, metric, figure in ROADMAP
    ]
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
