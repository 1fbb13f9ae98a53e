"""Print ``seed config artifact sha256`` for every artifact of the acceptance configs.

Usage::

    python tests/acceptance_hashes.py SEED [SEED ...]

Runs each of the eight configs of ``test_acceptance.CONFIGS`` at each seed,
with the ``src`` of the checkout that holds this file first on
``sys.path``, and prints one line per artifact written.  Diffing the output
of two checkouts shows whether a change moved any artifact byte::

    diff <(python A/tests/acceptance_hashes.py 7 11) \\
         <(python B/tests/acceptance_hashes.py 7 11)

pytest does not collect this file: its name does not start with ``test_``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from burgerslab.harness.studies import run_study  # noqa: E402
from test_acceptance import CONFIGS  # noqa: E402


def main(argv) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print("usage: python tests/acceptance_hashes.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for name, cfg in CONFIGS.items():
            with tempfile.TemporaryDirectory() as out:
                run_study(cfg.replace(seed=seed), out_dir=out)
                for path in sorted(Path(out).iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(seed, name, path.name, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
