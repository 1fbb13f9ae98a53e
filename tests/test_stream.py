"""The streaming passes: the stored path's reports, without a space-time stack."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import burgerslab
from burgerslab.bank import TestFunction, build_bank
from burgerslab.colehopf import (
    WeakPairings,
    checked_log,
    kpz_pass,
    kpz_residual,
    weak_residual_batch,
)
from burgerslab.harness.config import ExperimentConfig
from burgerslab.harness.studies import _burgers_reports, run_study
from burgerslab.heat import compensator, make_initial, solve_heat, stream
from burgerslab.noise import (
    MollifiedNoise,
    coarse_grain,
    coarse_grid,
    lattice_delta,
    make_mollifier,
    mollify,
    sample_noise,
)

_FLOATS = ("lhs", "rhs", "gap", "limit_pairing", "pairing", "scale")


def _config(d, levels, lam, seed):
    # N = 32 and M = 256 keep every level of a three-level ladder stable, and
    # n = 2 resolves on its coarsest grid (N = 8); in 3-D, one level on N = 8
    return ExperimentConfig(
        study="burgers",
        d=d,
        N=8 if d == 3 else 32,
        M=256,
        T=0.1 if d == 1 else 0.05,
        n=(2,),
        lam=lam,
        seed=seed,
        refine_levels=1 if d == 3 else levels,
        initial_params={"a": 0.5, "w": 0.12, "center": [0.37, 0.61, 0.5][:d]},
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
    d=st.sampled_from([1, 2, 3]),
    levels=st.sampled_from([1, 2, 3]),
    lam=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 6),
)
def test_streamed_reports_equal_the_stored_path_bit_for_bit(d, levels, lam, seed, runs):
    cfg = _config(d, levels, lam, seed)
    levels = cfg.refine_levels
    plan = cfg.validate()
    # chunks of a few coarsest steps: seams cut through every φ's window on
    # every level, and M is no multiple of the chunk for runs = 3, 5 or 6
    with mock.patch("burgerslab.lattice._CHUNK", runs * 4 ** (levels - 1)):
        streamed = _burgers_reports(cfg, *plan)
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


def _hexes(reports):
    return [(r.phi_id, r.n) + tuple(getattr(r, k).hex() for k in _FLOATS) for r in reports]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    levels=st.sampled_from([1, 2]),
    lam=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 6),
)
def test_the_driver_equals_per_member_solve_heat_bit_for_bit(d, levels, lam, seed, runs):
    # each level marches a batch of two scales and the lattice delta (in 3-D,
    # one level of n = 2 and the delta: n = 4 does not resolve on N = 8);
    # every member's weak reports and its KPZ residual taken per chunk equal
    # weak_residual_batch and kpz_residual over its own stored solve_heat
    cfg = _config(d, 2, lam, seed)
    levels = min(levels, cfg.refine_levels)
    fine = cfg.grid()
    ladder = []
    for fac in (2, 1)[2 - levels:]:
        g = coarse_grid(fine, fac)
        scales = (2,) if d == 3 else (2, 4)
        members = [make_mollifier(g, n) for n in scales] + [lattice_delta(g)]
        f = make_initial(g, cfg.initial_kind, dict(cfg.initial_params))
        ladder.append((fac, g, members, f, build_bank(g, cfg.bank)))
    pairings = [[WeakPairings(g, bank) for _ in ms] for _, g, ms, _, bank in ladder]
    residuals = [np.full((len(ms), g.M), np.nan) for _, g, ms, _, _ in ladder]
    with mock.patch("burgerslab.lattice._CHUNK", runs * 4 ** (levels - 1)):
        chunks = stream([(fac, g, ms) for fac, g, ms, _, _ in ladder], seed, lam,
                        [np.exp(f.values) for _, _, _, f, _ in ladder])
        for i, a, b, Z, dwns, dw in chunks:
            _, g, ms, _, _ = ladder[i]
            for s, m in enumerate(ms):
                pairings[i][s].add_base(a, b, dw)
                H = pairings[i][s].add(a, b, Z[s], dwns[s])
                residuals[i][s, a:b] = kpz_pass(g, compensator(lam, m, g.dt))(H, dwns[s])

    base = sample_noise(fine, seed, lam)
    for (fac, g, ms, f, bank), level_pairings, level_residuals in zip(
            ladder, pairings, residuals):
        coarse = coarse_grain(base, fac)
        for m, p, residual in zip(ms, level_pairings, level_residuals):
            # the delta's noise is written out as the raw increments, so the
            # check does not lean on mollify's rule for it
            mn = (MollifiedNoise(base=coarse, mollifier=m, increments=coarse.increments)
                  if m.scale_n == g.N else mollify(coarse, m))
            sol = solve_heat(g, mn, f)
            assert _hexes(p.reports(m.scale_n, seed, lam)) == _hexes(
                weak_residual_batch(sol, bank)), (fac, m.scale_n)
            assert residual.tobytes() == kpz_residual(sol).tobytes(), (fac, m.scale_n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_batched_weak_pass_equals_one_pass_per_member_bit_for_bit(d):
    # three members paired in turn through one WeakPairings, the base ΔW
    # once, report what a WeakPairings per member with its own base pairing
    # reports; a φ across the seam has 2 box pieces in 1-D, 4 in 2-D and 8
    # in 3-D, and chunks of 24 steps (the last of 16) cut through every
    # window.  The 3-D grid (N = 8) resolves only n = 2: there the n = 2
    # kernel shifted by a node stands in for n = 4, a member with noise of
    # its own
    cfg = _config(d, 1, 1.0, 5)
    g = cfg.grid()
    seam = TestFunction("seam", 0.5 * g.T, 0.3 * g.T, (0.97, 0.02, 0.96)[:d], 0.2,
                        (0.8, -0.7, 0.5)[:d])
    assert len(seam.support(g)[1]) == 2**d
    bank = build_bank(g)[:2] + [seam]
    m2 = make_mollifier(g, 2)
    m4 = replace(m2, kernel=np.roll(m2.kernel, 1, axis=0)) if d == 3 else make_mollifier(g, 4)
    members = [m2, m4, lattice_delta(g)]
    z0 = np.exp(make_initial(g, cfg.initial_kind, dict(cfg.initial_params)).values)
    batch = WeakPairings(g, bank, len(members))
    single = [WeakPairings(g, bank) for _ in members]
    with mock.patch("burgerslab.lattice._CHUNK", 24):
        for _, a, b, Z, dwns, dw in stream([(1, g, members)], cfg.seed, cfg.lam, [z0]):
            batch.add_base(a, b, dw)
            for s, p in enumerate(single):
                batch.add(a, b, Z[s], dwns[s], s)
                p.add_base(a, b, dw)
                p.add(a, b, Z[s], dwns[s])
    assert batch.Rb.shape == (len(bank), g.M)  # one base pairing for the batch
    for s, (m, p) in enumerate(zip(members, single)):
        expected = p.reports(m.scale_n, cfg.seed, cfg.lam)
        assert _hexes(batch.reports(m.scale_n, cfg.seed, cfg.lam, s)) == _hexes(expected)


@pytest.mark.parametrize("d", [1, 2])
def test_add_pairs_the_checked_log_of_its_z_chunk_and_names_a_bad_value(d):
    # add logs the chunk it is handed, step hi included, and returns that H:
    # checked_log's bits, whether or not a φ's window meets the chunk.  A 0
    # or a NaN at row k, node i is named as step lo + k at node i
    g = _config(d, 1, 1.0, 5).grid()
    pairings = WeakPairings(g, build_bank(g))
    rng = np.random.default_rng(d)
    for lo, hi in ((0, pairings.first), (pairings.first, pairings.first + 24)):
        Z = np.exp(0.1 * rng.standard_normal((hi - lo + 1,) + g.shape))
        dwn = rng.standard_normal((hi - lo,) + g.shape)
        assert pairings.add(lo, hi, Z, dwn).tobytes() == checked_log(Z, lo).tobytes()
        node = (3, 1)[:d]
        for bad in (0.0, np.nan):
            Z[(5,) + node] = bad
            with pytest.raises(ValueError, match=re.escape(f"step {lo + 5}, node {node} is {bad!r}")):
                pairings.add(lo, hi, Z, dwn)


def test_each_level_yields_its_chunks_in_one_set_of_buffers():
    # a yielded Z, ΔWⁿ and ΔW are valid only until the next item: every
    # chunk of a level, the short last one included, refills the same memory
    cfg = _config(2, 2, 1.0, 11)
    fine = cfg.grid()
    ladder = []
    for fac in (2, 1):
        g = coarse_grid(fine, fac)
        ladder.append((fac, g, [make_mollifier(g, 2), lattice_delta(g)]))
    seen = {}
    with mock.patch("burgerslab.lattice._CHUNK", 24):  # 10 chunks of M = 256, the last of 16
        for i, a, b, Z, dwns, dw in stream(ladder, 11, 1.0, [1.0, 1.0]):
            pointers = tuple(x.ctypes.data for x in (Z, *dwns, dw))
            seen.setdefault(i, set()).add(pointers)
            assert dwns[1] is dw  # the lattice delta's noise is the raw increments
    assert sorted(seen) == [0, 1]
    assert all(len(pointers) == 1 for pointers in seen.values()), seen


def test_converge_holds_no_batch_sized_stack(tmp_path):
    # perfbench's shrunk converge: a (M+1)·N stack is 4.2 MB.  Streaming the
    # scales keeps the grid-scale reference and the weak-pass sums, and the
    # base is drawn again only once the sums are freed: a traced peak of 3.2
    # stacks.  Copying the base out of the stream beside the sums peaked at
    # 4.2; the stored batch (three scales and the reference, their mollified
    # noise and the base) at 8.9
    cfg = ExperimentConfig.from_dict({"study": "converge", "N": 64, "M": 8192, "n": [2, 4, 8]})
    cfg.validate()  # the plan's kernels and bank are not the run's peak
    tracemalloc.start()
    try:
        run_study(cfg, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = (cfg.M + 1) * cfg.N * 8
    assert peak < 3.5 * stack, (peak, stack)


_CHILD = """
import json, sys
from burgerslab.harness.config import ExperimentConfig
from burgerslab.harness.studies import run_study

def peak():
    # this process's own high-water mark: ru_maxrss also carries the spawning
    # process's peak over exec, so under a grown test runner it reads the
    # runner's memory and hides the study's rise
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[2]))
before = peak()
run_study(cfg, out_dir=sys.argv[1])
print(before, peak())
"""


def _child(tmp_path, script: str, config: dict) -> list:
    """The integers a fresh single-threaded process running ``script`` on ``config`` prints."""
    src_dir = str(Path(burgerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [int(v) for v in proc.stdout.split()]


def _rss_rise(tmp_path, config: dict) -> int:
    """Bytes the study adds to a fresh process's high-water mark after the imports."""
    before, after = (1024 * v for v in _child(tmp_path, _CHILD, config))  # VmHWM is in KiB
    return after - before


def test_burgers_holds_no_space_time_stack(tmp_path):
    # a fresh process: its high-water mark after the imports is the yardstick,
    # and the run may add less than half of one (M+1)·N^d stack on top of it
    N, M = 32, 16384
    rise = _rss_rise(tmp_path, {
        "study": "burgers", "d": 2, "N": N, "M": M,
        "initial": {"kind": "gaussian-bump", "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61]}},
    })
    stack = (M + 1) * N**2 * 8
    assert rise < stack / 2, (rise, stack)


def test_2d_converge_holds_no_space_time_stack(tmp_path):
    # one stream marches the KPZ ladder and the scales, and d = 2 has no
    # grid-scale reference, so nothing the size of the fine (M+1)·N² stack
    # exists: a traced peak of 0.13 stacks.  Block-summing a stored base for
    # the KPZ ladder peaked at 1.30
    cfg = ExperimentConfig.from_dict({
        "study": "converge", "d": 2, "N": 64, "M": 3328, "T": 0.05, "n": [2, 4, 8],
        "initial": {"kind": "gaussian-bump", "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61]}},
    })
    cfg.validate()  # the plan's kernels and bank are not the run's peak
    tracemalloc.start()
    try:
        run_study(cfg, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = (cfg.M + 1) * cfg.N**2 * 8
    assert peak < stack / 4, (peak, stack)


def test_heat_holds_no_space_time_stack(tmp_path):
    # the default heat config (N = 128, M = 32768) marches its finest level
    # chunk by chunk: less than half of one (M+1)·N stack, 16 MiB
    cfg = ExperimentConfig(study="heat")
    rise = _rss_rise(tmp_path, {"study": "heat"})
    stack = (cfg.M + 1) * cfg.N * 8
    assert rise < stack / 2, (rise, stack)


_FAULTS = """
import json, resource, sys
from burgerslab.harness.config import ExperimentConfig
from burgerslab.harness.studies import run_study

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_study(cfg, out_dir=sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_the_2d_weak_study_takes_no_page_faults_per_chunk(tmp_path):
    # the chunk loop allocates nothing chunk-sized after its first chunk, so
    # doubling M adds only the faults of the per-step sums, not of freshly
    # zeroed pages for every chunk's temporaries (a heap trimmed after each
    # chunk and faulted back in added about 48,000 here)
    config = {
        "study": "burgers", "d": 2, "N": 32,
        "initial": {"kind": "gaussian-bump", "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61]}},
    }
    (short,), (long,) = (_child(tmp_path / str(M), _FAULTS, dict(config, M=M)) for M in (8192, 16384))
    assert long - short < 2000, (short, long)
