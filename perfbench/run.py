"""Time-to-verdict benchmark over the frozen acceptance configs.

    python3 perfbench/run.py --workload ladder-1d [--seed 7] [--seconds 36] [--trace 0|1]

Runs the workload's studies (see ``workloads.py``) one at a time, each in a
fresh single-threaded child process, and repeats the whole set for
``--seconds``: another repeat starts only if it is expected to end in time
(there is always at least one).  Every study runs at ``--seed``.

End-to-end metrics (``--trace 0``), each the median over repeats:
    verdict_s    wall time of run_study, summed over the workload's studies
    setup_s      spawn to ready-to-call-run_study (interpreter start, import,
                 config build), summed over the workload's studies
    peak_rss_mb  largest RSS high-water mark among the workload's children

With ``--trace 1`` every repeat runs the studies twice, untraced and traced
(see ``tracing.py``), alternating which goes first, and there are at least
two repeats.  The metrics are the per-layer records, the per-layer RSS rise,
``trace_overhead_s`` (the median over repeats of traced minus untraced
verdict_s) and ``checks_failed``.

An operation is one study run.  It fails when the child raises or exits
non-zero, when its artifact digests differ from the first untraced repeat
of the same study, or (traced) when its work counts differ from the first
traced repeat.  A FAIL verdict is not a failed operation: it is counted in
``checks_failed`` and named.  At the acceptance seed a FAIL verdict makes
the result incorrect.  The process exits 1 when the result is not correct.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is one JSON object for ``record.py``: per_study
(each study's median verdict_s and largest peak_rss_mb) and failing (every
FAIL verdict item, as study:item).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNT_QUANTITIES, LAYERS, TARGETS, derived, merge  # noqa: E402
from workloads import ACCEPTANCE_SEED, CONFIGS, WORKLOADS  # noqa: E402

# Every child is single-threaded; children run one at a time.
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
# Hard wall for one invocation; a child still running then is killed.
DEADLINE_S = 170.0

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_metrics() -> list:
    """(name, unit) of every metric a traced run reports, in report order."""
    out = [(f"{t.name}.{q}", unit) for t in TARGETS for q, unit in t.quantities()]
    out += [(f"{layer}.rss_rise_mb", "MiB") for layer in LAYERS]
    out += [("trace_overhead_s", "s"), ("checks_failed", "count")]
    return out


def _digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ, **THREAD_ENV, TMPDIR=str(work))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.errors = []  # one line per failed operation
        self.first_digests = {}
        self.first_counts = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def warm_up(self) -> None:
        """Import the package once so every timed child finds compiled bytecode."""
        subprocess.run(
            [sys.executable, "-c", "import burgerslab.harness.studies"],
            env=self.env, check=True, timeout=self.remaining(),
            stdout=subprocess.DEVNULL,
        )

    def operation(self, study: str, trace: bool):
        """One operation; returns the child's result (plus setup_s) or None if it failed."""
        self.attempted += 1
        out_dir = self.work / f"{self.attempted:04d}-{study}"
        job = {"config": CONFIGS[study], "seed": self.seed,
               "out_dir": str(out_dir), "trace": trace}
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(job), capture_output=True, text=True,
                env=self.env, timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{study}: killed at the {DEADLINE_S:.0f} s deadline")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.errors.append(f"{study}: child exited {proc.returncode}: {tail[0]}")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["setup_s"] = result["ready_at"] - spawned_at
            digests = _digests(out_dir)
        except (IndexError, KeyError, ValueError, OSError) as exc:
            self.errors.append(f"{study}: unreadable child result: {exc!r}")
            return None
        shutil.rmtree(out_dir)
        first = self.first_digests.setdefault(study, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            label = "traced" if trace else "untraced"
            self.errors.append(f"{study}: {label} artifacts differ from the first "
                               f"untraced repeat: {changed}")
            return None
        if trace:
            counts = {
                name: {q: v for q, v in rec.items() if q in COUNT_QUANTITIES}
                for name, rec in result["trace"]["records"].items()
            }
            if counts != self.first_counts.setdefault(study, counts):
                self.errors.append(f"{study}: traced work counts differ between repeats")
                return None
        return result

    def repeat(self, trace: bool):
        """Run every study of the workload once; None if any operation failed."""
        results = [self.operation(study, trace) for study in WORKLOADS[self.workload]]
        return None if None in results else results


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(name, unit, values):
    med = statistics.median(values)
    q1, q3 = _quartiles(values)
    print(f"  {name:<12} {med:12.4f} {unit:<3} median of {len(values)} repeats "
          f"(q1 {q1:.4f}, q3 {q3:.4f}; all: {', '.join(f'{v:.4f}' for v in values)})")
    return med


def _end_to_end(reps) -> dict:
    return {
        "verdict_s": [sum(r["verdict_s"] for r in rep) for rep in reps],
        "setup_s": [sum(r["setup_s"] for r in rep) for rep in reps],
        "peak_rss_mb": [max(r["maxrss_mb"] for r in rep) for rep in reps],
    }


def _layer_table(traced) -> tuple[dict, dict]:
    """Per-layer values (medians of times over traced repeats) and why any is unavailable.

    A metric of a function that exists but was never called reads 0.  A
    function that no longer exists is 'missing'; a counter that no longer
    fits the function's signature drops that function's work counts.
    """
    per_rep = []
    for rep in traced:
        summed, rss = {}, {layer: 0.0 for layer in LAYERS}
        for result in rep:
            for name, rec in result["trace"]["records"].items():
                acc = summed.setdefault(name, {})
                for q, v in rec.items():
                    if q != "counter_error":
                        acc[q] = merge(q, acc.get(q, 0), v)
            for layer, rise in result["trace"]["rss_rise_mb"].items():
                rss[layer] = max(rss[layer], rise)
        flat = {f"{name}.{q}": v for name, rec in summed.items() for q, v in rec.items()}
        flat.update(derived(summed))
        flat.update({f"{layer}.rss_rise_mb": v for layer, v in rss.items()})
        per_rep.append(flat)
    values = {
        key: statistics.median(flat[key] for flat in per_rep if key in flat)
        for key in per_rep[0]
    }
    targets = {t.name: t for t in TARGETS}
    unavailable = {}
    for rep in traced:
        for result in rep:
            for name in result["trace"]["missing"]:
                for q, _ in targets[name].quantities():
                    unavailable[f"{name}.{q}"] = "missing"
            for name, rec in result["trace"]["records"].items():
                if "counter_error" in rec:
                    for q, _ in targets[name].quantities()[3:]:
                        unavailable[f"{name}.{q}"] = f"counter failed: {rec['counter_error']}"
    return values, unavailable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "burgerslab" / "__init__.py").is_file():
        print(f"error: no burgerslab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        try:
            bench.warm_up()
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: cannot import burgerslab: {exc}", file=sys.stderr)
            return 2
        untraced, traced, durations = [], [], []
        # a traced run pairs each untraced repeat with a traced one, alternating
        # which runs first, and needs two pairs to resolve trace_overhead_s
        modes = (False, True) if args.trace else (False,)
        min_repeats = 2 if args.trace else 1
        while True:
            began = time.monotonic()
            order = modes if len(durations) % 2 == 0 else modes[::-1]
            pair = {}
            for trace in order:
                pair[trace] = bench.repeat(trace)
                if pair[trace] is None:
                    break
            if None in pair.values():
                break
            untraced.append(pair[False])
            if args.trace:
                traced.append(pair[True])
            durations.append(time.monotonic() - began)
            # start another repeat only if it is expected to end within --seconds
            # (so a run's length does not depend on the machine's speed)
            elapsed = time.monotonic() - bench.started
            step = statistics.median(durations)
            if elapsed + 1.5 * step > DEADLINE_S or (
                len(durations) >= min_repeats and elapsed + step > args.seconds
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    studies = WORKLOADS[args.workload]
    print(f"workload {args.workload} (seed {args.seed}): {', '.join(studies)}")
    failed_items = sorted({f"{r_study}:{name}"
                           for rep in untraced[:1]
                           for r_study, r in zip(studies, rep)
                           for name, passed in r["items"] if not passed})
    checks_failed = len(failed_items)
    metrics, per_study = {}, {}
    if untraced:
        e2e = _end_to_end(untraced)
        for name, unit in END_TO_END:
            metrics[name] = {"value": _summary(name, unit, e2e[name]), "unit": unit}
        for i, study in enumerate(studies):
            per_study[study] = {
                "verdict_s": statistics.median(rep[i]["verdict_s"] for rep in untraced),
                "peak_rss_mb": max(rep[i]["maxrss_mb"] for rep in untraced),
            }
            print(f"  study {study} verdict_s {per_study[study]['verdict_s']:.4f} "
                  f"peak_rss_mb {per_study[study]['peak_rss_mb']:.4f}")
        print(f"  checks_failed {checks_failed} of "
              f"{sum(len(r['items']) for r in untraced[0])} verdict items")
        for item in failed_items:
            print(f"    FAIL {item}")
    if args.trace and traced:
        values, unavailable = _layer_table(traced)
        if len(traced) >= 2:
            values["trace_overhead_s"] = statistics.median(
                sum(r["verdict_s"] for r in t) - sum(r["verdict_s"] for r in u)
                for t, u in zip(traced, untraced)
            )
        else:
            unavailable["trace_overhead_s"] = "unresolved: needs two traced repeats"
        values["checks_failed"] = checks_failed
        metrics = {}
        for name, unit in per_layer_metrics():
            if name in unavailable:
                print(f"  {name:<48} {unavailable[name]}")
                continue
            value = values.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<48} {value:16.6f} {unit}")
    for line in bench.errors:
        print(f"  FAILED {line}")
    failed = len(bench.errors)
    print(f"  operations: {failed} failed of {bench.attempted} attempted")
    correct = failed == 0 and not (args.seed == ACCEPTANCE_SEED and checks_failed)
    print(json.dumps({"per_study": per_study, "failing": failed_items}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
