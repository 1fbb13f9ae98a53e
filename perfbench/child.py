"""One study run in a fresh process: the unit the benchmark times.

Reads one job from stdin, ``{"config": {...}, "seed": n, "out_dir": "...",
"trace": bool}``, and prints one JSON line:

    ready_at   time.monotonic() when the package is imported and the config
               built, i.e. just before run_study is called (the parent
               subtracts its own spawn time from it: monotonic time is
               system-wide, so the two clocks agree)
    verdict_s  wall time of run_study (validate, compute, emit)
    maxrss_mb  the process RSS high-water mark after run_study
    items      [name, passed] for every verdict item
    trace      the Tracer report when tracing, else null

A FAIL verdict is a normal outcome and exits 0; an exception exits non-zero.
"""

import json
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    from burgerslab.harness import studies
    from burgerslab.harness.config import ExperimentConfig

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config = ExperimentConfig.from_dict(dict(job["config"], seed=job["seed"]))
    ready_at = time.monotonic()
    start = time.perf_counter()
    report = studies.run_study(config, out_dir=job["out_dir"])
    verdict_s = time.perf_counter() - start
    result = {
        "ready_at": ready_at,
        "verdict_s": verdict_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": [[item["name"], bool(item["passed"])] for item in report.items],
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
