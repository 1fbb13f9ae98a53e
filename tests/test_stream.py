"""The streaming burgers pass: the stored path's reports, without its stacks."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

import burgerslab
from burgerslab.bank import build_bank
from burgerslab.colehopf import weak_residual_batch
from burgerslab.harness.config import ExperimentConfig
from burgerslab.harness.studies import _burgers_reports
from burgerslab.heat import make_initial, solve_heat
from burgerslab.noise import coarse_grain, make_mollifier, mollify, sample_noise

_FLOATS = ("lhs", "rhs", "gap", "limit_pairing", "scale")


def _config(d, levels, lam, seed):
    # N = 32 and M = 256 keep every level of a three-level ladder stable, and
    # n = 2 resolves on its coarsest grid (N = 8)
    return ExperimentConfig(
        study="burgers",
        d=d,
        N=32,
        M=256,
        T=0.1 if d == 1 else 0.05,
        n=(2,),
        lam=lam,
        seed=seed,
        refine_levels=levels,
        initial_params={"a": 0.5, "w": 0.12, "center": [0.37, 0.61][:d]},
    )


def _stored_reports(cfg, fac):
    """weak_residual_batch over solve_heat of one coarse-grained, mollified level."""
    base = coarse_grain(sample_noise(cfg.grid(), cfg.seed, cfg.lam), fac)
    g = base.grid
    sol = solve_heat(
        g,
        mollify(base, make_mollifier(g, cfg.n[0])),
        make_initial(g, cfg.initial_kind, dict(cfg.initial_params)),
    )
    return g, weak_residual_batch(sol, build_bank(g, cfg.bank))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2]),
    levels=st.sampled_from([1, 2, 3]),
    lam=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 6),
)
def test_streamed_reports_equal_the_stored_path_bit_for_bit(d, levels, lam, seed, runs):
    cfg = _config(d, levels, lam, seed)
    cfg.validate()
    # chunks of a few coarsest steps: seams cut through every φ's window on
    # every level, and M is no multiple of the chunk for runs = 3, 5 or 6
    with mock.patch("burgerslab.colehopf._CHUNK", runs * 4 ** (levels - 1)):
        streamed = _burgers_reports(cfg)
    assert len(streamed) == levels
    for i, (g, reports) in enumerate(streamed):
        g_ref, expected = _stored_reports(cfg, 2 ** (levels - 1 - i))
        assert g == g_ref
        assert [r.phi_id for r in reports] == [r.phi_id for r in expected]
        for r, e in zip(reports, expected):
            assert [getattr(r, k).hex() for k in _FLOATS] == [
                getattr(e, k).hex() for k in _FLOATS
            ], r.phi_id
            assert r == e


_CHILD = """
import resource, sys
from burgerslab.harness.config import ExperimentConfig
from burgerslab.harness.studies import run_study
cfg = ExperimentConfig.from_dict({
    "study": "burgers", "d": 2, "N": %(N)d, "M": %(M)d,
    "initial": {"kind": "gaussian-bump", "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61]}},
})
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_study(cfg, out_dir=sys.argv[1])
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_burgers_holds_no_space_time_stack(tmp_path):
    # a fresh process: its high-water mark after the imports is the yardstick,
    # and the run may add less than half of one (M+1)·N^d stack on top of it
    N, M = 32, 16384
    src_dir = str(Path(burgerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD % {"N": N, "M": M}, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = (1024 * int(v) for v in proc.stdout.split())  # ru_maxrss is in KiB
    stack = (M + 1) * N**2 * 8
    assert after - before < stack / 2, (after - before, stack)
