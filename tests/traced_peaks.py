"""Print ``seed config peak_MiB`` for every acceptance config: its traced numpy peak.

Usage::

    python tests/traced_peaks.py SEED [SEED ...]

Runs each of the eight configs of ``test_acceptance.CONFIGS`` at each seed,
with the ``src`` of the checkout that holds this file first on
``sys.path``, and prints the tracemalloc peak of its ``run_study`` in MiB.
Every module a study imports is loaded and the config is validated once
before tracing starts, so the peak is the run's own and not the imports'.
Tracing slows a run several times over, so this is a pass of its own,
never a timed one.  Diffing the output of two checkouts shows which
study's peak a change moved::

    diff <(python A/tests/traced_peaks.py 7) <(python B/tests/traced_peaks.py 7)

pytest does not collect this file: its name does not start with ``test_``.
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy.fft  # noqa: F401  (loaded lazily by numpy; imported before tracing starts)
import numpy.random  # noqa: F401

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from burgerslab.harness.studies import run_study  # noqa: E402
from test_acceptance import CONFIGS  # noqa: E402


def main(argv) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print("usage: python tests/traced_peaks.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for name, cfg in CONFIGS.items():
            cfg = cfg.replace(seed=seed)
            cfg.validate()
            with tempfile.TemporaryDirectory() as out:
                tracemalloc.start()
                try:
                    run_study(cfg, out_dir=out)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            print(seed, name, f"{peak / 2**20:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
