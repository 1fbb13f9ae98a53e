"""The seven verification studies behind the CLI.

Each study is a ``Study`` row of ``STUDIES``: a plan, a run, and the config
keys they read.  The plan ``_plan_<kind>(cfg, grid, errors)`` builds the
grids, mollifiers, bank and initial data the study runs on (nothing larger
than one N^d slice) and records a named error for each check it fails;
``ExperimentConfig.validate()`` raises them, with any key outside the row
set away from its default, as one ConfigError, or returns the plan.  The run
``_study_<kind>(cfg, report, *plan)`` fills a StudyReport with named
pass/fail verdicts against the config's tolerance table, and ``run_study``
emits its artifacts (study.json, CSV tables, SVG charts).  Every planned
scale must be resolved (1/n ≥ 4·dx, 2/n ≤ L) on each grid it is built on;
burgers, fk-check and section read one scale, and refuse a second.

Study kinds
-----------
noise-check
    Mollifier kernel laws (mass, covariance at zero, symmetry, support),
    the discrete integration-by-parts identity, and the Gaussian laws of
    the sampled increments: pairing variance over many seeds and the lag
    covariance of mollified increments against dt·h_n(lag).  The two
    statistical blocks run on small fixed 1-D lattices regardless of the
    config dimension — they are per-node scalar laws, and the reduced size
    buys seed count.
qv
    Quadratic variation of a single mollified path at one node against
    λ²·c_n_discrete; it does not read d or M (its path grid has M = 10⁴).
    Plus the second-order convergence c_n_discrete → ‖ρ‖²·n^d under
    dx → dx/2 on a dedicated 1-D ladder from 4n nodes (at least 64).
heat
    Deterministic single-mode oracle (λ = 0, 1-D): the solver and the
    log-gradient transform against the analytic solution on three coupled
    refinement levels (dt ∝ dx²), with max errors bounded by
    heat_C·(dt + dx²) and measured spatial order 2.  Each level streams
    Z₀ = 1 + a·cos(2πkx/L) at λ = 0 (`heat.stream`) and takes the maxima
    from each checked chunk, so no trajectory is held; it draws nothing,
    so ``seed`` is accepted and changes nothing.  The default gaussian bump
    runs the cosine oracle at a = 0.2, k = 1, while study.json echoes the
    bump; any other non-cosine profile is refused, naming ``initial``.
burgers
    The weak-form identity at the config resolution: per-test-function
    relative gap |lhs − rhs| / |rhs|, and — when refine_levels ≥ 3 — a
    coupled refinement ladder driven by one master realization, measuring
    the decay order of the bank's total gap.  When the rhs vanishes exactly
    (λ = 0) the gap is normalized by the triangle-inequality mass of the
    lhs instead, and a gap of exactly zero (flat data) passes outright.
    The study is one `heat.stream` pass: each time chunk of the master
    realization is coarse-grained, mollified, marched, logged and paired on
    every level before the next chunk is drawn, so no space-time stack is
    held.
fk-check
    Random-walk estimates of Z at five probe points against the solver
    (calibrated mode, |z| ≤ fk_sigma), the Monte-Carlo error exponent
    stderr ∝ paths^(−1/2), and the λ = 0 block where both correction modes
    must agree bitwise.
converge
    The mollification ladder over the config's scales (a single n runs
    4, 8, 16, 32) on one fixed grid and one fixed realization: per test
    function, |rhs(n) − limit_pairing| must converge monotonically in the
    mollification defect ‖ρ_n∗∇·φ − ∇·φ‖ (`noise.mollification_defect`) —
    the defect ladder decreases (deterministic) and the deviation stays
    within limit_ratio_factor·λ·defect at every n (the deviation *is* the
    pairing of the noise with the defect field, so the factor is a
    sigma-level bound on a standard Gaussian); the distributional pairings
    ⟨U_n, φ⟩ form a Cauchy column in every d (cauchy.csv), and in d = 1,
    where it ends at a grid-scale reference (the same scheme driven by the
    raw increments through a delta kernel), it must be monotone for the
    designated first test function, and its terminal value must sit within
    limit_terminal_factor·(dx² + dt)·scale of the reference for every test
    function; and the KPZ residual sum must decay with order
    ≥ kpz_order_min under coupled refinement, vanishing exactly for flat
    λ = 0 data.  It needs at least 3 strictly increasing scales below N (in
    d = 1 the reference's): the Cauchy monotone gate reads two ladder gaps.
    The scales and the reference march as one `heat.stream` batch; only
    the reference's Z is kept whole, and the base noise is drawn again
    once the batch's weak-pass sums are freed.
section
    Time sections of the gradient field by averaging against a shrinking
    one-sided bump: in the λ = 0 branch |s(eps) − ⟨∇f, φ_x⟩| must decay
    with measured order ≥ section_order_min over eps ∈ {T/8, T/16, T/32}
    and the two evaluation routes (via H, via U) must agree to
    duality_tol; the λ > 0 branch is reported without a tolerance —
    fluctuations of time sections at t → 0 are unbounded in distribution.

All numerics reduce through plain elementwise kernels and np.sum/np.mean
(no BLAS reductions), so reports are byte-identical across thread counts;
``tests/test_lattice.py::test_core_reduces_without_blas`` holds the package
to that.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

import numpy as np

from burgerslab.bank import build_bank
from burgerslab.lattice import (
    ScalarField,
    TorusGrid,
    VectorField,
    block_steps,
    chunk_steps,
    divergence,
    gradient,
    gradient_norm_sq,
    gradient_values,
    inner_space,
)
from burgerslab.noise import (
    coarse_grain,
    coarse_grid,
    draw_chunks,
    draw_seeds,
    h_eval,
    is_seed,
    lattice_delta,
    make_mollifier,
    mollification_defect,
    mollify,
    mollifying,
    pair,
    quadratic_variation,
    sample_noise,
    wiener_path,
)
from burgerslab.heat import HeatSolution, compensator, initial_zero, make_initial, solve_heat
from burgerslab.heat import stream
from burgerslab.colehopf import (
    WeakPairings,
    checked_log,
    cole_hopf,
    distributional_limit_1d,
    kpz_pass,
    kpz_residual,
    lojasiewicz_section,
    weak_residual_batch,
)
from burgerslab.fk import fk_estimate, z_score
from burgerslab.harness.reports import StudyReport, emit_reports, resolve_out_dir

__all__ = ["STUDIES", "measure_order", "run_study"]


def measure_order(gaps, hs) -> float:
    """Least-squares slope of log(gap) against log(h).

    The convergence-order estimate behind every refinement ladder; written
    as an explicit sum (not a linear-algebra call) so results cannot depend
    on BLAS threading.
    """
    gaps = [float(g) for g in gaps]
    hs = [float(h) for h in hs]
    if len(gaps) != len(hs):
        raise ValueError(
            f"need one gap per resolution, got {len(gaps)} gaps and {len(hs)} resolutions"
        )
    if len(gaps) < 3:
        raise ValueError("order measurement needs at least 3 resolutions")
    if any(g <= 0 for g in gaps):
        raise ValueError(f"gaps must be positive, got {gaps}")
    if any(h <= 0 for h in hs):
        raise ValueError(f"resolutions must be positive, got {hs}")
    lx = [math.log(h) for h in hs]
    ly = [math.log(g) for g in gaps]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0.0:
        raise ValueError("resolutions must vary to measure an order")
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx


# ---------------------------------------------------------------------------
# shared pieces


def _planned(errors: list, name: str, what: str, build, *args):
    """``build(*args)``, or None with the failure recorded under ``name``."""
    try:
        return build(*args)
    except (ValueError, TypeError, KeyError) as exc:
        errors.append((name, f"{what}: {exc}" if what else str(exc)))


def _initial_on(cfg, grid: TorusGrid):
    return make_initial(grid, cfg.initial_kind, dict(cfg.initial_params))


def _one_scale(errors: list, cfg) -> int:
    """The scale of a study that reads one, n[0]; a second scale is named under n."""
    if len(cfg.n) > 1:
        errors.append(("n", f"the {cfg.study} study reads one scale, got {cfg.n}"))
    return cfg.n[0]


# Derived seeds, read by each plan's `_seeds_fit` and by its study.  noise-check
# draws _PAIR_SEEDS seeds from seed, then _LAG_SEEDS from seed + _LAG_SEEDS_FROM;
# fk-check walks from seed + _FK_PROBE_SEEDS + probe, seed + _FK_EXPONENT_SEEDS +
# path-count index, and seed + _FK_MODES_SEED, its largest.
_PAIR_SEEDS, _LAG_SEEDS_FROM, _LAG_SEEDS = 10_000, 50_000, 2_500
_FK_PROBE_SEEDS, _FK_EXPONENT_SEEDS, _FK_MODES_SEED = 1_000, 2_000, 3_000


def _seeds_fit(errors: list, cfg, last: int) -> None:
    """Record a seed error if the study's largest derived seed, seed + last, reaches 2⁶⁴."""
    if is_seed(cfg.seed) and not is_seed(int(cfg.seed) + last):
        errors.append(("seed", f"the {cfg.study} study draws seeds up to seed + {last}, "
                               f"which must stay below 2**64; got {cfg.seed}"))


def _quarter_ladder_fits(errors: list, cfg, what: str) -> bool:
    """Record the N, M errors of a ladder coarser by 4 and 2 (dt ∝ dx²); True if none."""
    if cfg.N % 4:
        errors.append(("N", f"the {what} needs N divisible by 4, got {cfg.N}"))
    if cfg.M % 16:
        errors.append(("M", f"the {what} needs M divisible by 16, got {cfg.M}"))
    return not (cfg.N % 4 or cfg.M % 16)


def _ladder(errors: list, name: str, fine: TorusGrid, factors, n=None, cfg=None) -> list:
    """(fac, grid, mollifier at n, cfg's f) per level whose grid builds, coarser by fac, fac²."""
    levels = []
    for fac in factors:
        at = f"the {'coarsest ' if fac == factors[0] else ''}ladder grid (N/{fac}, M/{fac**2})"
        g = _planned(errors, name, at, coarse_grid, fine, fac)
        if g is not None:
            where = f"scale {n} on {at}" if fac > 1 else f"scale {n}"
            m = None if n is None else _planned(errors, "n", where, make_mollifier, g, n)
            f = cfg and _planned(errors, "initial", repr(cfg.initial_kind), _initial_on, cfg, g)
            levels.append((fac, g, m, f))
    return levels


def _add_weak_table(report, reports) -> None:
    """weak_residuals.csv: one row per weak-form report."""
    report.add_table("weak_residuals.csv",
                     ("d", "N", "M", "n", "seed", "lambda", "phi_id", "lhs", "rhs", "gap",
                      "limit_pairing"),
                     [(r.d, r.N, r.M, r.n, r.seed, r.lam, r.phi_id, r.lhs, r.rhs, r.gap,
                       r.limit_pairing) for r in reports])


def _order(report, item: str, order: str, gaps, hs, target: float, tol=None) -> dict:
    """Fit the order of gaps in hs and record it: within tol of target, or at least target."""
    value = measure_order(gaps, hs)
    report.add_order(order, value)
    if tol is None:
        return report.add(item, value, value >= target, target=target)
    return report.check(item, value, target=target, tol=tol)


def _relative(report, name: str, error: float, scale: float, tol: float) -> dict:
    """Record error/scale within tol; a zero scale leaves an exact-zero check of the error."""
    if scale == 0.0:
        return report.check(name, error)
    return report.check(name, error / scale, tol=tol)


def _ratio(num: float, den: float) -> float:
    """num/den of two values ≥ 0, where 0/0 is 0.0 and a positive num over 0 is inf."""
    if den == 0.0:
        return math.inf if num else 0.0
    return num / den


def _non_increasing(report, name: str, values, slack: float) -> dict:
    """Record the worst ratio of a value to the one before it, which must be ≤ 1 + slack.

    A step from 0 has no ratio: an all-zero ladder records an exact-zero
    check, and a step up from 0 records the value it rose to, which fails it.
    """
    steps = list(zip(values, values[1:]))
    rise = max((b for a, b in steps if a == 0.0), default=0.0)
    if rise > 0.0 or not any(values):
        return report.check(name, rise)
    worst = max(b / a if a else 1.0 for a, b in steps)
    return report.add(name, worst, worst <= 1.0 + slack, target=1.0)


def _u_l2_sq(sol) -> float:
    """Space-time L² norm squared of the gradient field.

    Summed per 1024-step chunk, the one chunk `lattice.chunk_steps` does not
    size: it fixes how the float sums of the Cauchy terminal budget group.
    """
    grid = sol.grid
    total = 0.0
    for _, _, H in cole_hopf(sol, 1024):
        total += float(np.sum(gradient_norm_sq(H[:-1], grid.dx, grid.d)))
    return grid.dt * grid.cell_volume * total


# ---------------------------------------------------------------------------
# noise-check


def _seed_blocks(grid: TorusGrid, first: int, count: int):
    """The seeds first .. first + count − 1 in blocks of `lattice.block_steps` realizations."""
    step = block_steps(grid, grid.M)
    return (range(first + lo, first + min(lo + step, count)) for lo in range(0, count, step))


def _lag_sums(m, first: int, count: int, lam: float, lags) -> tuple:
    """Σ and Σ² over the seeds' mollified increments of ΔWⁿ(i0)·ΔWⁿ(i0 + lag), per lag.

    Each seed's sums over its steps are added in seed order, as one
    realization at a time would add them.  One `mollifying` serves every
    block of seeds, so its output and FFT buffers are built once; a drawn
    batch goes straight into it, so at λ > 0 no batch outlives its block.
    """
    g = m.grid
    i0 = 11
    sums = np.zeros(len(lags))
    sumsq = np.zeros(len(lags))
    mollify_run = mollifying([m], lam, block_steps(g, g.M) * g.M)
    for block in _seed_blocks(g, first, count):
        mn = mollify_run(draw_seeds(g, block, lam).increments.reshape((-1,) + g.shape))[0]
        mn = mn.reshape((len(block), g.M) + g.shape)
        prods = [mn[:, :, i0] * mn[:, :, (i0 + lag) % g.N] for lag in lags]
        row_sums = np.stack([np.sum(prod, axis=1) for prod in prods], axis=1)
        row_sumsq = np.stack([np.sum(prod * prod, axis=1) for prod in prods], axis=1)
        for row, row_sq in zip(row_sums, row_sumsq):
            sums += row
            sumsq += row_sq
    return sums, sumsq


def _plan_noise_check(cfg, grid: TorusGrid, errors: list) -> tuple:
    mollifiers = [_planned(errors, "n", f"scale {n}", make_mollifier, grid, n) for n in cfg.n]
    lag_grid = TorusGrid(d=1, N=128, M=8, L=cfg.L, T=cfg.T)
    lag_m = _planned(errors, "n", f"scale {cfg.n[0]} on the 128-node lag grid",
                     make_mollifier, lag_grid, cfg.n[0])
    _seeds_fit(errors, cfg, _LAG_SEEDS_FROM + _LAG_SEEDS - 1)  # the last lag-covariance seed
    return grid, mollifiers, TorusGrid(d=1, N=32, M=8, L=cfg.L, T=cfg.T), lag_m


def _study_noise_check(cfg, report, grid, mollifiers, rg, m2) -> None:
    tol = cfg.tolerances

    # kernel laws on the config grid, one block per mollifier scale
    for n, m in zip(cfg.n, mollifiers):
        mass = grid.cell_volume * float(np.sum(m.kernel))
        report.check(f"kernel_mass_n{n}", abs(mass - 1.0), tol=tol["kernel_mass"])
        h0 = h_eval(m, np.zeros(grid.d))
        rel = abs(h0 - m.c_n_continuum) / m.c_n_continuum
        report.check(f"h_zero_rel_n{n}", rel, tol=tol["h_zero_rel"])
        mirrored = m.kernel
        for axis in range(grid.d):
            mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
        sym = float(np.max(np.abs(m.kernel - mirrored)))
        report.check(f"kernel_symmetry_n{n}", sym)
        outside = np.zeros(grid.d)
        outside[0] = 2.05 / n
        h_out = h_eval(m, outside)
        report.check(f"h_support_n{n}", h_out)

    # summation-by-parts residual on a handful of seeded smooth-ish fields
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(5):
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        v = VectorField(grid, rng.standard_normal((grid.d,) + grid.shape))
        a = inner_space(gradient(u), v)
        b = inner_space(u, divergence(v))
        worst = max(worst, abs(a + b) / (abs(a) + abs(b) + 1e-300))
    report.check("duality_residual", worst, tol=tol["duality_tol"])

    # pairing-variance law: Var ⟨ξ, ΔW⟩ = λ²·dt·dx^d·Σξ² over 10⁴ seeds,
    # drawn and paired a block of seeds at a time
    xi = np.sin(0.37 * np.arange(rg.M * rg.N, dtype=np.float64)).reshape(rg.M, rg.N) + 0.5
    pairings = np.concatenate([pair(draw_seeds(rg, block, cfg.lam), xi)
                               for block in _seed_blocks(rg, cfg.seed, _PAIR_SEEDS)])
    var = float(np.var(pairings))
    target = cfg.lam**2 * rg.dt * rg.cell_volume * float(np.sum(xi * xi))
    _relative(report, "pair_variance_rel", abs(var - target), target, tol["pair_var_rel"])

    # lag covariance of mollified increments vs dt·(h_n(lag) + h_n(L − lag)): on the
    # torus the image at L − lag adds to it, and no other, as every lag is below L/2
    rg2 = m2.grid
    lags = (0, 4, 8, 16, 40)
    sums, sumsq = _lag_sums(m2, cfg.seed + _LAG_SEEDS_FROM, _LAG_SEEDS, cfg.lam, lags)
    count = _LAG_SEEDS * rg2.M
    rows = []
    for j, lag in enumerate(lags):
        mean = sums[j] / count
        z = lag * rg2.dx
        target = cfg.lam**2 * rg2.dt * (h_eval(m2, [z]) + h_eval(m2, [rg2.L - z]))
        variance = max(sumsq[j] / count - mean * mean, 0.0)
        se = math.sqrt(variance / count)
        sigma = _ratio(abs(mean - target), se)
        report.check(f"cov_lag_{lag}", sigma, tol=tol["cov_sigma"])
        rows.append((lag, lag * rg2.dx, mean, target, se, sigma))
    report.add_table("noise_covariance.csv",
                     ("lag_nodes", "lag", "empirical", "target", "stderr", "sigma_deviation"), rows)


# ---------------------------------------------------------------------------
# qv


def _plan_qv(cfg, grid: TorusGrid, errors: list) -> tuple:
    path_grid = TorusGrid(d=1, N=cfg.N, M=10_000, L=cfg.L, T=cfg.T)
    # each n resolved on the path grid also bounds the size of its ladder
    path = [_planned(errors, "n", f"scale {n}", make_mollifier, path_grid, n) for n in cfg.n]
    ladders = []
    for n in (n for n, m in zip(cfg.n, path) if m is not None):
        base_n = 64
        while base_n < 4 * n:
            base_n *= 2
        ladders.append([_planned(errors, "n", f"scale {n} on its dx-ladder grid N = {num}",
                                 make_mollifier, TorusGrid(d=1, N=num, M=8, L=cfg.L, T=cfg.T), n)
                        for num in (base_n, 2 * base_n, 4 * base_n)])
    return path[0], ladders


def _study_qv(cfg, report, path_m, ladders) -> None:
    tol = cfg.tolerances

    # single-path quadratic variation at one node, M = 10⁴ steps
    # the node's column is taken per chunk, so no (M, N) stack is held
    qv_grid = path_m.grid
    column = np.empty(qv_grid.M)
    chunk = chunk_steps(qv_grid)
    mollify_run = mollifying([path_m], cfg.lam, chunk)
    for lo, hi, dw in draw_chunks(qv_grid, cfg.seed, cfg.lam, chunk):
        column[lo:hi] = mollify_run(dw)[0][:, qv_grid.N // 2]
    del mollify_run, dw  # the chunk buffers, which nothing below reads
    qv_rate = quadratic_variation(wiener_path(column)) / qv_grid.T
    target = cfg.lam**2 * path_m.c_n_discrete
    _relative(report, "qv_rel_err", abs(qv_rate - target), target, tol["qv_rel"])

    # c_n_discrete → c_n_continuum at order 2 on a dedicated 1-D dx-ladder
    rows = []
    curves = {}
    for n, ladder in zip(cfg.n, ladders):
        gaps, dxs = [], []
        for m in ladder:
            g = m.grid
            gap = abs(m.c_n_discrete - m.c_n_continuum)
            gaps.append(gap)
            dxs.append(g.dx)
            rows.append((n, g.N, g.dx, m.c_n_discrete, m.c_n_continuum, gap))
        _order(report, f"cn_order_n{n}", f"cn_n{n}", gaps, dxs, 2.0, tol["cn_order"])
        curves[f"n={n}"] = list(zip(dxs, gaps))
    report.add_table("qv.csv", ("n", "N", "dx", "c_n_discrete", "c_n_continuum", "gap"), rows)
    report.add_curves("cn_convergence", curves, xlabel="dx", ylabel="|c_n_discrete - c_n|")


# ---------------------------------------------------------------------------
# heat


def _plan_heat(cfg, grid: TorusGrid, errors: list) -> tuple:
    fits = _quarter_ladder_fits(errors, cfg, "three-level heat ladder")
    line = TorusGrid(d=1, N=cfg.N, M=cfg.M, L=cfg.L, T=cfg.T)
    levels = _ladder(errors, "grid", line, (4, 2, 1)) if fits else []
    a, k = 0.2, 1
    # checked by make_initial, as for every other study
    f = _planned(errors, "initial", repr(cfg.initial_kind), _initial_on, cfg, line)
    if cfg.initial_kind == "cosine":
        a = None if f is None else float(cfg.initial_params["a"])
        k = None if f is None else int(cfg.initial_params.get("k", 1))
    elif f is not None and not np.array_equal(
            f.values, _initial_on(type(cfg)(study=cfg.study), line).values):
        # only the default bump, which the acceptance heat config carries, falls
        # back to the cosine oracle
        errors.append(("initial", f"the heat oracle runs a cosine profile (the default bump "
                                  f"falls back to a = 0.2); got {cfg.initial_kind!r} with "
                                  f"{cfg.initial_params!r}"))
    # Z₀ = 1 + a·cos must stay positive, and a = 0 or k = 0 leaves no error
    # to measure an order from
    if a is not None and not 0.0 < abs(a) < 1.0:
        errors.append(("initial", f"the heat oracle's single-mode amplitude must "
                                  f"satisfy 0 < |a| < 1, got {a}"))
    if k == 0:
        errors.append(("initial", "the heat oracle's mode k must be nonzero, got 0"))
    return a, k, [g for _, g, _, _ in levels]


def _study_heat(cfg, report, amp, k, grids) -> None:
    tol = cfg.tolerances

    rows = []
    for g in grids:
        x = g.axis_coords()
        wavenum = 2.0 * math.pi * k / g.L
        mode, sine = np.cos(wavenum * x), np.sin(wavenum * x)
        times = g.times()
        # λ = 0: nothing is drawn and every noise factor is 1; the errors are
        # maxima, so taking them per checked chunk is exact.  Each chunk's
        # arrays go into the heads of buffers allocated at the first chunk.
        err_z = err_u = 0.0
        buffers = None
        for _, a, b, Z, _, _ in stream([(1, g, [lattice_delta(g)])], cfg.seed, 0.0,
                                       [1.0 + amp * mode]):
            if buffers is None:
                buffers = np.empty((5,) + Z[0].shape)
            H, z_exact, u_exact, diff, grad = buffers[:, : b - a + 1]
            checked_log(Z[0], a, H)
            decay = np.exp(-(wavenum**2) * times[a : b + 1])
            np.multiply((amp * decay)[:, None], mode[None, :], z_exact)
            np.add(1.0, z_exact, z_exact)
            err_z = max(err_z, float(np.max(np.abs(np.subtract(Z[0], z_exact, diff), diff))))
            u_num = gradient_values(H, g.dx, 1, grad[None])[0]
            np.multiply((-amp * wavenum * decay)[:, None], sine[None, :], u_exact)
            np.divide(u_exact, z_exact, u_exact)
            err_u = max(err_u, float(np.max(np.abs(np.subtract(u_num, u_exact, diff), diff))))
        budget = tol["heat_C"] * (g.dt + g.dx**2)
        report.check(f"err_z_N{g.N}", err_z, tol=budget)
        report.check(f"err_u_N{g.N}", err_u, tol=budget)
        rows.append((g.N, g.M, g.dx, g.dt, err_z, err_u))

    _, _, dxs, _, errs_z, errs_u = zip(*rows)
    _order(report, "order_z", "heat_z", errs_z, dxs, 2.0, tol["heat_order"])
    _order(report, "order_u", "heat_u", errs_u, dxs, 2.0, tol["heat_order"])
    report.add_table("heat.csv", ("N", "M", "dx", "dt", "err_z", "err_u"), rows)
    report.add_curves(
        "heat_convergence",
        {"err_z": list(zip(dxs, errs_z)), "err_u": list(zip(dxs, errs_u))},
        xlabel="dx", ylabel="max error",
    )


# ---------------------------------------------------------------------------
# burgers


def _plan_burgers(cfg, grid: TorusGrid, errors: list) -> tuple:
    """Each level (fac, grid, mollifier, f), coarsest first (fac 1 if not divisible), and the bank.

    One bank serves every level: it reads only d, L and T, which the levels share.
    """
    factors = [2 ** (cfg.refine_levels - 1 - i) for i in range(cfg.refine_levels)]
    c = factors[0]
    if cfg.N % c or cfg.M % c**2:
        errors.append(("refine_levels", f"a {cfg.refine_levels}-level coupled ladder needs N "
                                        f"divisible by {c} and M by {c**2}; "
                                        f"got N={cfg.N}, M={cfg.M}"))
        factors = factors[-1:]
    levels = _ladder(errors, "refine_levels", grid, factors, _one_scale(errors, cfg), cfg)
    return levels, _planned(errors, "bank", "", build_bank, grid, cfg.bank)


def _burgers_reports(cfg, levels: list, bank: list) -> list:
    """(grid, weak-form reports) of every ladder level, coarsest first, in one pass.

    Each level is a one-member batch of `heat.stream`, whose checked chunks
    of Z the level's `WeakPairings` logs and pairs, so no level
    holds more than a chunk of noise, Z or H.  The reports equal those of
    `weak_residual_batch` over `solve_heat` of each coarse-grained,
    mollified realization; ``levels`` and ``bank`` are the study's plan.
    """
    pairings = [WeakPairings(g, bank) for _, g, _, _ in levels]
    chunks = stream([(fac, g, [m]) for fac, g, m, _ in levels], cfg.seed, cfg.lam,
                    [np.exp(f.values) for _, _, _, f in levels])
    for i, a, b, Z, (dwn,), dw in chunks:
        pairings[i].add_base(a, b, dw)
        pairings[i].add(a, b, Z[0], dwn)
    del Z, dwn, dw  # the last chunk's buffers, which the reports do not read
    return [(g, p.reports(m.scale_n, cfg.seed, cfg.lam))
            for (_, g, m, _), p in zip(levels, pairings)]


def _study_burgers(cfg, report, ladder, bank) -> None:
    tol = cfg.tolerances

    totals, dxs = [], []
    per_phi_points = {}
    levels = _burgers_reports(cfg, ladder, bank)
    for g, reports in levels:
        totals.append(sum(r.gap for r in reports))
        dxs.append(g.dx)
        for r in reports:
            per_phi_points.setdefault(r.phi_id, []).append((g.dx, r.gap))
    _, finest_reports = levels[-1]

    for r in finest_reports:
        _relative(report, f"rel_gap_{r.phi_id}", r.gap, abs(r.rhs) or r.scale, tol["weak_rel_gap"])

    if len(totals) >= 3:
        if all(t > 0.0 for t in totals):
            _order(report, "gap_order", "weak_gap", totals, dxs, tol["weak_order_min"])
        else:
            # degenerate exact-zero ladder (λ=0 with flat data): nothing to fit
            report.check("gap_exact_zero", max(totals))
    if len(totals) >= 2:
        report.add_curves("weak_convergence", per_phi_points,
                          xlabel="dx", ylabel="|lhs - rhs|")
    _add_weak_table(report, [r for _, reports in levels for r in reports])


# ---------------------------------------------------------------------------
# fk-check


def _plan_fk_check(cfg, grid: TorusGrid, errors: list) -> tuple:
    m = _planned(errors, "n", f"scale {cfg.n[0]}", make_mollifier, grid, _one_scale(errors, cfg))
    f = _planned(errors, "initial", repr(cfg.initial_kind), _initial_on, cfg, grid)
    _seeds_fit(errors, cfg, _FK_MODES_SEED)  # the λ = 0 block's walks
    return grid, m, f


def _probe_point(grid, m_step: int, node_j: int) -> tuple:
    """(t, x) of step m_step at node node_j of the first axis, the other coordinates 0."""
    return m_step * grid.dt, (node_j * grid.dx,) + (0.0,) * (grid.d - 1)


def _study_fk_check(cfg, report, grid, m, f) -> None:
    tol = cfg.tolerances
    sol = solve_heat(grid, mollify(sample_noise(grid, cfg.seed, cfg.lam), m), f)
    mn = sol.noise

    M, N = grid.M, grid.N
    probes = [
        (M // 4, N // 2),
        (M // 2, N // 4),
        (3 * M // 4, (3 * N) // 4),
        (M, N // 8),
        (M, 0),
    ]
    rows = []
    for idx, (m_step, node_j) in enumerate(probes):
        t, x = _probe_point(grid, m_step, node_j)
        node = (node_j,) + (0,) * (grid.d - 1)
        est = fk_estimate(
            mn, f, t, x,
            num_paths=cfg.num_paths,
            mode="ito-compensated",
            brownian_seed=cfg.seed + _FK_PROBE_SEEDS + idx,
        )
        solver_value = float(sol.values[m_step][node])
        z = z_score(est, solver_value)
        report.check(f"fk_z_probe{idx}", abs(z), tol=tol["fk_sigma"])
        rows.append((est.t, *est.x, est.num_paths, est.correction_mode, est.mean, est.stderr,
                     solver_value, z))
    report.add_table("fk.csv", ("t", *(f"x{a}" for a in range(grid.d)), "num_paths", "mode",
                                "mean", "stderr", "solver_value", "z_score"), rows)

    # Monte-Carlo error exponent at the first probe
    t0, x0 = _probe_point(grid, *probes[0])
    path_counts = (100, 1_000, 10_000)
    stderrs = []
    for j, p in enumerate(path_counts):
        est = fk_estimate(mn, f, t0, x0, num_paths=p, mode="ito-compensated",
                          brownian_seed=cfg.seed + _FK_EXPONENT_SEEDS + j)
        stderrs.append(est.stderr)
    if any(s == 0.0 for s in stderrs):
        # flat data and λ=0: the estimator is exact at any path count
        report.add("fk_stderr_exponent", 0.0, max(stderrs) == 0.0, target=-0.5)
    else:
        _order(report, "fk_stderr_exponent", "fk_stderr", stderrs, path_counts, -0.5,
               tol["fk_exponent_tol"])
        report.add_curves(
            "fk_stderr",
            {"stderr": list(zip((float(p) for p in path_counts), stderrs))},
            xlabel="paths", ylabel="stderr",
        )

    # λ = 0: the compensator vanishes, so both modes must agree bitwise
    mn0 = mollify(sample_noise(grid, cfg.seed, 0.0), m)
    p0 = max(100, min(cfg.num_paths, 1_000))
    t_mid, x_mid = _probe_point(grid, M // 2, N // 2)
    est_a = fk_estimate(mn0, f, t_mid, x_mid, num_paths=p0,
                        mode="ito-compensated", brownian_seed=cfg.seed + _FK_MODES_SEED)
    est_b = fk_estimate(mn0, f, t_mid, x_mid, num_paths=p0,
                        mode="uncompensated", brownian_seed=cfg.seed + _FK_MODES_SEED)
    report.check("fk_modes_lambda0", abs(est_a.mean - est_b.mean))


# ---------------------------------------------------------------------------
# converge


def _plan_converge(cfg, grid: TorusGrid, errors: list) -> tuple:
    """One n runs (4, 8, 16, 32); the KPZ ladder is (fac, grid, mollifier, f) at N/4, N/2."""
    scales = (4, 8, 16, 32) if len(cfg.n) < 2 else cfg.n
    fits = _quarter_ladder_fits(errors, cfg, "KPZ ladder")
    runs = f" (converge runs {scales} for one n)"
    mollifiers = [_planned(errors, "n", f"scale {n}{'' if n in cfg.n else runs}",
                           make_mollifier, grid, n) for n in scales]
    kpz = _ladder(errors, "grid", grid, (4, 2), scales[1], cfg) if fits else []
    ordered = all(a < b for a, b in zip(scales, scales[1:]))
    resolved = "n" not in dict(errors)  # the Cauchy column reads every scale's trajectory
    if resolved and not (len(scales) >= 3 and ordered and scales[-1] < grid.N):
        errors.append(("n", f"the Cauchy column needs at least 3 strictly increasing "
                            f"scales below N = {grid.N}, got {scales}"))
    f = _planned(errors, "initial", repr(cfg.initial_kind), _initial_on, cfg, grid)
    bank = _planned(errors, "bank", "", build_bank, grid, cfg.bank)
    reference = lattice_delta(grid) if grid.d == 1 else None
    return grid, scales, mollifiers, reference, f, bank, kpz


def _stream_scales(cfg, grid, mollifiers, reference, f, bank) -> tuple:
    """Weak reports per scale, the KPZ residual sum at the second, the base and the reference.

    The scales and, in d = 1, the grid-scale reference march as one
    `heat.stream` batch; each scale's chunk is logged once, by its weak
    pass, which hands that H to the KPZ residual.  Only the reference's Z
    (a stored `HeatSolution` for the Cauchy column) is kept.  The base (for
    the reference's noise and the KPZ ladder) is drawn again with
    `sample_noise` once the stream has ended and the scales' weak-pass sums
    are freed, so it never sits beside them or the chunk buffers.  Philox is
    counter-based and `draw_chunks` reads one stream in order, so the whole
    draw equals the streamed chunks bit for bit.
    """
    members = mollifiers + ([] if reference is None else [reference])
    pairings = WeakPairings(grid, bank, len(mollifiers))
    ref_values = None if reference is None else np.empty((grid.M + 1,) + grid.shape)
    residual = np.empty(grid.M)
    kpz = kpz_pass(grid, compensator(cfg.lam, mollifiers[1], grid.dt))
    for _, a, b, Z, dwns, dw in stream([(1, grid, members)], cfg.seed, cfg.lam,
                                       [np.exp(f.values)]):
        pairings.add_base(a, b, dw)
        for s in range(len(mollifiers)):
            H = pairings.add(a, b, Z[s], dwns[s], s)
            if s == 1:
                residual[a:b] = kpz(H, dwns[s])
        if reference is not None:
            ref_values[a : b + 1] = Z[-1]
    del H, Z, dwns, dw  # the last chunk's buffers, which the reports do not read
    weak_by_scale = [pairings.reports(m.scale_n, cfg.seed, cfg.lam, s)
                     for s, m in enumerate(mollifiers)]
    del pairings
    base = sample_noise(grid, cfg.seed, cfg.lam)
    ref_sol = (None if reference is None
               else HeatSolution(grid, mollify(base, reference), ref_values))
    return weak_by_scale, float(np.sum(residual)), base, ref_sol


def _study_converge(cfg, report, grid, scales, mollifiers, reference, f, bank, kpz) -> None:
    """The limit ladder, the Cauchy column and the KPZ ladder of one realization.

    The scales stream first (`_stream_scales`).  The base ΔW that the
    reference's noise and the KPZ ladder read is the same realization drawn
    a second time, after the stream, rather than copied out of it chunk by
    chunk: the counter-based stream gives the same bits either way, and the
    whole base then never coexists with the four scales' weak-pass sums.
    """
    tol = cfg.tolerances
    weak_by_scale, kpz_fine_value, base, ref_sol = _stream_scales(
        cfg, grid, mollifiers, reference, f, bank)

    dev_curves = {}
    rows = []
    for phi, reports in zip(bank, zip(*weak_by_scale)):
        # the limit pairing reads only the shared base noise: every scale
        # reports the same value, so the first one is kept
        limit = reports[0].limit_pairing
        devs = [abs(r.rhs - limit) for r in reports]
        defects = [mollification_defect(m, phi) for m in mollifiers]
        for n, r, dev, defect in zip(scales, reports, devs, defects):
            rows.append((phi.id, n, r.rhs, limit, dev, defect, _ratio(dev, defect)))
        dev_curves[phi.id] = list(zip((float(n) for n in scales), devs))
        # The convergence envelope: the deviation equals the pairing of the
        # noise with the mollification defect of ∇·φ, so its size is governed
        # by the defect norm.  Two checks capture "converges monotonically in
        # the approximation error": (a) the defect ladder itself decreases
        # (a deterministic property of the kernel family on this φ), and
        # (b) the deviation stays within `limit_ratio_factor` standard
        # deviations of zero — for each n, dev/(λ·defect) is a standard
        # Gaussian draw, so the factor is a sigma-level bound.  A raw
        # monotonicity demand on the deviation itself would reject perfectly
        # healthy realizations: whenever one Gaussian draw lands near zero
        # (unusually *good* agreement at that scale), the next scale's typical
        # draw registers as an "increase".
        _non_increasing(report, f"limit_defect_monotone_{phi.id}", defects, 1e-12)
        if cfg.lam == 0.0:
            # zero noise: rhs and limit are both exactly zero at every n
            report.check(f"limit_ratio_{phi.id}", max(devs))
            continue
        sigma = max(_ratio(dev, cfg.lam * defect) for dev, defect in zip(devs, defects))
        report.check(f"limit_ratio_{phi.id}", sigma, tol=tol["limit_ratio_factor"])
    report.add_table("limit.csv",
                     ("phi_id", "n", "rhs", "limit_pairing", "deviation", "defect", "ratio"), rows)
    report.add_curves("limit_deviation", dev_curves,
                      xlabel="n", ylabel="|rhs(n) - limit|")

    # The distributional Cauchy column of every φ, in every d.  Where the plan
    # builds the grid-scale reference (d = 1), the column ends at it, and two
    # gates read it.  The monotone-gap gate reads one designated test function
    # (the first in the bank); every φ is held to the terminal budget.  Gap
    # sequences of the remaining φ are generically decreasing too, but a
    # near-zero dip at one scale (unusually good agreement) would register as
    # an "increase" at the next, so a bank-wide hard gate would reject healthy
    # realizations.
    entries = list(weak_by_scale)
    if reference is not None:
        u_ref_norm = math.sqrt(_u_l2_sq(ref_sol))
        # the reference's weak reports feed only the Cauchy column
        entries.append(weak_residual_batch(ref_sol, bank))
        del ref_sol  # nothing below reads the reference
    cauchy_rows = []
    cauchy_curves = {}
    for phi, seq in zip(bank, distributional_limit_1d(entries)):
        if reference is not None:
            *ladder_gaps, terminal = seq.cauchy_gaps
            if phi.id == bank[0].id:
                _non_increasing(report, f"cauchy_monotone_{phi.id}", ladder_gaps, 1e-9)
            _, _, Q = phi.spatial_tensors(grid)
            amp_sq = sum(a * a for a in phi.amplitudes)
            lap_norm = math.sqrt(
                amp_sq * phi.time_l2_sq(grid)
                * grid.cell_volume * float(np.sum(Q * Q))
            )
            scale = u_ref_norm * lap_norm
            budget = tol["limit_terminal_factor"] * (grid.dx**2 + grid.dt) * scale
            report.check(f"cauchy_terminal_{phi.id}", terminal, tol=budget)
        # the first scale has no previous one to take a gap from
        cauchy_rows.extend((phi.id, n_val, p_val, gap) for n_val, p_val, gap
                           in zip(seq.scales, seq.pairings, ("", *seq.cauchy_gaps)))
        cauchy_curves[phi.id] = [(float(n), g) for n, g in zip(seq.scales[1:], seq.cauchy_gaps)]
    report.add_table("cauchy.csv", ("phi_id", "n", "pairing", "cauchy_gap"), cauchy_rows)
    report.add_curves("cauchy_gaps", cauchy_curves,
                      xlabel="n", ylabel="|v(n_hi) - v(n_lo)|")

    # KPZ residual decay under coupled refinement of one realization
    kpz_rows = []
    for fac, g, m, f_l in kpz:
        mn_l = mollify(coarse_grain(base, fac), m)
        val = float(np.sum(kpz_residual(solve_heat(g, mn_l, f_l))))
        kpz_rows.append((g.N, g.M, g.dx, g.dt, val))
    kpz_rows.append((grid.N, grid.M, grid.dx, grid.dt, kpz_fine_value))
    report.add_table("kpz.csv", ("N", "M", "dx", "dt", "residual_sum"), kpz_rows)
    _, _, kpz_dxs, _, kpz_values = zip(*kpz_rows)
    if all(v > 0.0 for v in kpz_values):
        _order(report, "kpz_order", "kpz", kpz_values, kpz_dxs, tol["kpz_order_min"])
        report.add_curves(
            "kpz_convergence",
            {"residual_sum": list(zip(kpz_dxs, kpz_values))},
            xlabel="dx", ylabel="sum_k max|r_k|",
        )
    else:
        report.check("kpz_exact_zero", max(kpz_values))

    # flat λ=0 data on the coarsest KPZ grid: the residual must vanish identically
    _, g0, m0, _ = kpz[0]
    sol0 = solve_heat(g0, mollify(sample_noise(g0, cfg.seed, 0.0), m0), initial_zero(g0))
    report.check("kpz_flat_zero", float(np.max(kpz_residual(sol0))))
    _add_weak_table(report, sum(weak_by_scale, []))


# ---------------------------------------------------------------------------
# section


def _plan_section(cfg, grid: TorusGrid, errors: list) -> tuple:
    if cfg.M < 64:
        errors.append(("M", f"the section window eps = T/32 must cover two time steps; "
                            f"need M ≥ 64, got {cfg.M}"))
    m = _planned(errors, "n", f"scale {cfg.n[0]}", make_mollifier, grid, _one_scale(errors, cfg))
    f = _planned(errors, "initial", repr(cfg.initial_kind), _initial_on, cfg, grid)
    bank = _planned(errors, "bank", "", build_bank, grid, cfg.bank)
    return grid, m, f, bank


def _study_section(cfg, report, grid, m, f, bank) -> None:
    tol = cfg.tolerances
    # the second bank entry is off-center: a symmetric initial profile then
    # still produces a nonzero reference pairing
    phi = bank[1] if len(bank) > 1 else bank[0]
    eps_list = [grid.T / 8.0, grid.T / 16.0, grid.T / 32.0]

    # reference: the t→0 section is the initial-slice pairing ⟨∇f, φ_x⟩
    grad_f = gradient_values(f.values, grid.dx)
    P, _, _ = phi.spatial_tensors(grid)
    combined = np.zeros(grid.shape)
    for a in range(grid.d):
        combined += phi.amplitudes[a] * grad_f[a]
    p0 = grid.cell_volume * float(np.sum(combined * P))

    # λ=0 branch: deterministic decay toward the initial pairing
    sol0 = solve_heat(grid, mollify(sample_noise(grid, cfg.seed, 0.0), m), f)
    rows = []
    gaps = []
    for eps in eps_list:
        s = lojasiewicz_section(sol0, phi, eps, via="h")
        gap = abs(s - p0)
        gaps.append(gap)
        rows.append((0.0, eps, s, p0, gap))
    if p0 == 0.0 and all(g == 0.0 for g in gaps):
        report.check("section_order", 0.0)
    else:
        _order(report, "section_order", "section", gaps, eps_list, tol["section_order_min"])
        report.add_curves(
            "section_convergence",
            {"lambda=0": list(zip(eps_list, gaps))},
            xlabel="eps", ylabel="|s(eps) - initial pairing|",
        )
    s_h = lojasiewicz_section(sol0, phi, eps_list[0], via="h")
    s_u = lojasiewicz_section(sol0, phi, eps_list[0], via="u")
    dual = abs(s_h - s_u) / (1.0 + abs(s_h))
    report.check("section_duality", dual, tol=tol["duality_tol"])

    # λ>0 branch: reported, not asserted — section fluctuations at t→0 are
    # unbounded in distribution, so no tolerance applies
    if cfg.lam > 0.0:
        sol1 = solve_heat(grid, mollify(sample_noise(grid, cfg.seed, cfg.lam), m), f)
        for i, eps in enumerate(eps_list):
            s = lojasiewicz_section(sol1, phi, eps, via="h")
            report.add(f"section_lambda_eps{i}", s, True)
            rows.append((cfg.lam, eps, s, p0, abs(s - p0)))
    report.add_table("section.csv", ("lambda", "eps", "section", "reference", "gap"), rows)


# ---------------------------------------------------------------------------
# registry and entry point

# A study's row: validate() calls the plan, run_study the run, and the two read
# only these JSON keys besides those every study accepts (config._EVERY_STUDY)
Study = namedtuple("Study", "plan run reads")
_MARCHED = ("d", "N", "M", "L", "T", "n", "lambda", "initial")  # the config grid, marched from f
STUDIES = {
    "noise-check": Study(_plan_noise_check, _study_noise_check, ("d", "N", "L", "T", "n", "lambda")),
    "qv": Study(_plan_qv, _study_qv, ("N", "L", "T", "n", "lambda")),
    "heat": Study(_plan_heat, _study_heat, ("N", "M", "L", "T", "initial")),
    "burgers": Study(_plan_burgers, _study_burgers, _MARCHED + ("bank", "refine_levels")),
    "fk-check": Study(_plan_fk_check, _study_fk_check, _MARCHED + ("num_paths",)),
    "converge": Study(_plan_converge, _study_converge, _MARCHED + ("bank",)),
    "section": Study(_plan_section, _study_section, _MARCHED + ("bank",)),
}


def run_study(config: ExperimentConfig, out_dir=None) -> StudyReport:
    """Validate (which plans), run from the plan, time, and emit one study; returns its report.

    Artifacts land in `out_dir` if given, else the config's output
    directory, else $BURGERSLAB_OUT, else ./burgerslab-out.  Identical
    configs produce byte-identical artifacts (the wall clock lives only on
    the returned object).
    """
    plan = config.validate()
    start = time.perf_counter()
    report = StudyReport(study=config.study, config=config.to_dict())
    STUDIES[config.study].run(config, report, *plan)
    report.wallclock_s = time.perf_counter() - start
    emit_reports(report, resolve_out_dir(out_dir if out_dir else config.out_dir))
    return report
