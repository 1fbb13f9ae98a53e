"""The seven verification studies behind the CLI.

Each study takes a validated ExperimentConfig, runs one block of numerical
checks, and returns a StudyReport whose items carry named pass/fail
verdicts against the config's tolerance table.  ``run_study`` dispatches by
study kind and emits the report's artifacts (study.json, CSV tables, SVG
charts) into the resolved output directory.

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
    λ²·c_n_discrete (M = 10⁴ forced, the criterion's sample size), plus the
    second-order convergence c_n_discrete → ‖ρ‖²·n^d under dx → dx/2 on a
    dedicated 1-D ladder.
heat
    Deterministic single-mode oracle (λ = 0, 1-D): the solver and the
    log-gradient transform against the analytic solution on three coupled
    refinement levels (dt ∝ dx²), with max errors bounded by
    heat_C·(dt + dx²) and measured spatial order 2.
burgers
    The weak-form identity at the config resolution: per-test-function
    relative gap |lhs − rhs| / |rhs|, and — when refine_levels ≥ 3 — a
    coupled refinement ladder driven by one master realization, measuring
    the decay order of the bank's total gap.  When the rhs vanishes exactly
    (λ = 0) the gap is normalized by the triangle-inequality mass of the
    lhs instead, and a gap of exactly zero (flat data) passes outright.
    The study is one streaming pass: each time chunk of the master
    realization is coarse-grained, mollified, marched, logged and paired on
    every level before the next chunk is drawn, so no space-time stack is
    held.
fk-check
    Random-walk estimates of Z at five probe points against the solver
    (calibrated mode, |z| ≤ fk_sigma), the Monte-Carlo error exponent
    stderr ∝ paths^(−1/2), and the λ = 0 block where both correction modes
    must agree bitwise.
converge
    The mollification ladder n ∈ {4, 8, 16, 32} on one fixed grid and one
    fixed realization: per test function, |rhs(n) − limit_pairing| must
    converge monotonically in the mollification defect ‖ρ_n∗∇·φ − ∇·φ‖ —
    the defect ladder decreases (deterministic) and the deviation stays
    within limit_ratio_factor·λ·defect at every n (the deviation *is* the
    pairing of the noise with the defect field, so the factor is a
    sigma-level bound on a standard Gaussian); in d = 1 the distributional
    pairings ⟨U_n, φ⟩ must form a Cauchy column, monotone for the
    designated first test function, whose terminal value sits within
    limit_terminal_factor·(dx² + dt)·scale of a grid-scale reference (the
    same scheme driven by the raw increments through a delta kernel) for
    every test function; and the KPZ residual sum must decay with order
    ≥ kpz_order_min under coupled refinement, vanishing exactly for flat
    λ = 0 data.
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

import numpy as np

from burgerslab.bank import build_bank
from burgerslab.lattice import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence,
    gradient,
    gradient_values,
    inner_space,
)
from burgerslab.noise import (
    Mollifier,
    MollifiedNoise,
    block_sum,
    coarse_grain,
    coarse_grid,
    convolve_kernel,
    draw_chunks,
    h_eval,
    make_mollifier,
    mollify,
    mollify_increments,
    pair,
    quadratic_variation,
    sample_noise,
    wiener_path,
)
from burgerslab.heat import compensator, initial_zero, make_initial, march, solve_heat
from burgerslab.colehopf import (
    WeakPairings,
    checked_log,
    chunk_steps,
    cole_hopf,
    distributional_limit_1d,
    kpz_residual,
    lojasiewicz_section,
    weak_residual_batch,
    weak_residual_csv_lines,
)
from burgerslab.fk import fk_csv_lines, fk_estimate, z_score
from burgerslab.harness.config import ExperimentConfig
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


def _pipeline(grid, seed, lam, n, f, z0_override=None):
    """Sample → mollify → solve; the standard run."""
    mn = mollify(sample_noise(grid, seed, lam), make_mollifier(grid, n))
    return solve_heat(grid, mn, f, z0_override=z0_override)


def _initial_on(cfg: ExperimentConfig, grid: TorusGrid):
    return make_initial(grid, cfg.initial_kind, dict(cfg.initial_params))


def _grid_scale_noise(base):
    """Mollified view whose kernel is the lattice delta: increments == base.

    The sharpest mollifier the lattice can express — ρ_n at concentration
    scale n = N, where one cell carries all the mass.  Convolution with it
    reproduces the raw increments (up to FFT roundoff), and its variance
    constant is dx^d·(1/dx^d)² = 1/cell_volume.  Used as the grid-scale
    reference trajectory for the distributional-limit check.
    """
    g = base.grid
    kernel = np.zeros(g.shape)
    kernel[(0,) * g.d] = 1.0 / g.cell_volume
    delta = Mollifier(
        grid=g,
        scale_n=g.N,
        c_n_continuum=1.0 / g.cell_volume,
        c_n_discrete=1.0 / g.cell_volume,
        kernel=kernel,
    )
    # Convolution with the lattice delta is the identity, so skip the FFT
    # round trip and its roundoff (make_mollifier would reject this kernel
    # as under-resolved: the delta is exactly the sub-grid-scale limit that
    # guard is for).
    return MollifiedNoise(base=base, mollifier=delta, increments=base.increments)


def _mollification_defect(m, phi, grid) -> float:
    """‖ρ_n ∗ ∇·φ − ∇·φ‖ in the discrete space-time L² norm.

    ∇·φ(t, x) = ψ(t)·D(x) is separable, so the norm splits into the time
    factor sqrt(dt·Σ_k ψ(t_k)²) over the same left-endpoint sum the weak
    rhs uses, and the spatial factor sqrt(dx^d·Σ (ρ_n∗D − D)²).
    """
    _, D, _ = phi.spatial_tensors(grid)
    diff = convolve_kernel(m, D) - D
    x_norm = math.sqrt(grid.cell_volume * float(np.sum(diff * diff)))
    return math.sqrt(_psi_l2_sq(phi, grid)) * x_norm


def _psi_l2_sq(phi, grid) -> float:
    psi, _ = phi.time_profile(grid)
    return grid.dt * float(np.sum(psi * psi))


def _u_l2_sq(sol) -> float:
    """Space-time L² norm squared of the gradient field.

    Summed per 1024-step chunk; the chunk fixes how the float sums group.
    """
    grid = sol.grid
    total = 0.0
    for _, _, H in cole_hopf(sol, 1024):
        for g in gradient_values(H[:-1], grid.dx, grid.d):
            total += float(np.sum(g * g))
    return grid.dt * grid.cell_volume * total


# ---------------------------------------------------------------------------
# noise-check


def _study_noise_check(cfg: ExperimentConfig) -> StudyReport:
    grid = cfg.grid()
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())

    # kernel laws on the config grid, one block per mollifier scale
    for n in cfg.n:
        m = make_mollifier(grid, n)
        mass = grid.cell_volume * float(np.sum(m.kernel))
        report.add(f"kernel_mass_n{n}", abs(mass - 1.0), abs(mass - 1.0) <= tol["kernel_mass"],
                   target=0.0, tol=tol["kernel_mass"])
        h0 = h_eval(m, np.zeros(grid.d))
        rel = abs(h0 - m.c_n_continuum) / m.c_n_continuum
        report.add(f"h_zero_rel_n{n}", rel, rel <= tol["h_zero_rel"],
                   target=0.0, tol=tol["h_zero_rel"])
        mirrored = m.kernel
        for axis in range(grid.d):
            mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
        sym = float(np.max(np.abs(m.kernel - mirrored)))
        report.add(f"kernel_symmetry_n{n}", sym, sym == 0.0, target=0.0)
        outside = np.zeros(grid.d)
        outside[0] = 2.05 / n
        h_out = h_eval(m, outside)
        report.add(f"h_support_n{n}", h_out, h_out == 0.0, target=0.0)

    # summation-by-parts residual on a handful of seeded smooth-ish fields
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(5):
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        v = VectorField(grid, rng.standard_normal((grid.d,) + grid.shape))
        a = inner_space(gradient(u), v)
        b = inner_space(u, divergence(v))
        worst = max(worst, abs(a + b) / (abs(a) + abs(b) + 1e-300))
    report.add("duality_residual", worst, worst <= tol["duality_tol"],
               target=0.0, tol=tol["duality_tol"])

    # pairing-variance law: Var ⟨ξ, ΔW⟩ = λ²·dt·dx^d·Σξ² over 10⁴ seeds
    rg = TorusGrid(d=1, N=32, M=8, L=cfg.L, T=cfg.T)
    xi = np.sin(0.37 * np.arange(rg.M * rg.N, dtype=np.float64)).reshape(rg.M, rg.N) + 0.5
    num_seeds = 10_000
    pairings = np.empty(num_seeds)
    for i in range(num_seeds):
        pairings[i] = pair(sample_noise(rg, cfg.seed + i, cfg.lam), xi)
    var = float(np.var(pairings))
    target = cfg.lam**2 * rg.dt * rg.cell_volume * float(np.sum(xi * xi))
    if target == 0.0:
        report.add("pair_variance_rel", var, var == 0.0, target=0.0)
    else:
        rel = abs(var - target) / target
        report.add("pair_variance_rel", rel, rel <= tol["pair_var_rel"],
                   target=0.0, tol=tol["pair_var_rel"])

    # lag covariance of mollified increments vs dt·h_n(lag)
    rg2 = TorusGrid(d=1, N=128, M=8, L=cfg.L, T=cfg.T)
    n0 = cfg.n[0]
    m2 = make_mollifier(rg2, n0)
    lags = (0, 4, 8, 16, 40)
    i0 = 11
    num_cov_seeds = 2_500
    sums = np.zeros(len(lags))
    sumsq = np.zeros(len(lags))
    for i in range(num_cov_seeds):
        mn = mollify(sample_noise(rg2, cfg.seed + 50_000 + i, cfg.lam), m2)
        col0 = mn.increments[:, i0]
        for j, lag in enumerate(lags):
            prod = col0 * mn.increments[:, (i0 + lag) % rg2.N]
            sums[j] += float(np.sum(prod))
            sumsq[j] += float(np.sum(prod * prod))
    count = num_cov_seeds * rg2.M
    cov_lines = ["lag_nodes,lag,empirical,target,stderr,sigma_deviation"]
    for j, lag in enumerate(lags):
        mean = sums[j] / count
        target = cfg.lam**2 * rg2.dt * h_eval(m2, np.array([lag * rg2.dx]))
        variance = max(sumsq[j] / count - mean * mean, 0.0)
        se = math.sqrt(variance / count)
        if se == 0.0:
            sigma = 0.0 if mean == target else math.inf
        else:
            sigma = abs(mean - target) / se
        report.add(f"cov_lag_{lag}", sigma, sigma <= tol["cov_sigma"],
                   target=0.0, tol=tol["cov_sigma"])
        cov_lines.append(
            f"{lag},{lag * rg2.dx!r},{mean!r},{target!r},{se!r},{sigma!r}"
        )
    report.tables["noise_covariance.csv"] = cov_lines
    return report


# ---------------------------------------------------------------------------
# qv


def _study_qv(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())
    n0 = cfg.n[0]

    # single-path quadratic variation at one node, M = 10⁴ steps
    qv_grid = TorusGrid(d=1, N=cfg.N, M=10_000, L=cfg.L, T=cfg.T)
    mn = mollify(sample_noise(qv_grid, cfg.seed, cfg.lam), make_mollifier(qv_grid, n0))
    path = wiener_path(mn, (qv_grid.N // 2,))
    qv_rate = quadratic_variation(path) / qv_grid.T
    target = cfg.lam**2 * mn.mollifier.c_n_discrete
    if target == 0.0:
        report.add("qv_rel_err", qv_rate, qv_rate == 0.0, target=0.0)
    else:
        rel = abs(qv_rate - target) / target
        report.add("qv_rel_err", rel, rel <= tol["qv_rel"], target=0.0, tol=tol["qv_rel"])

    # c_n_discrete → c_n_continuum at order 2 on a dedicated 1-D dx-ladder
    table = ["n,N,dx,c_n_discrete,c_n_continuum,gap"]
    curves = {}
    for n in cfg.n:
        base_n = 64
        while base_n < 4 * n:
            base_n *= 2
        ladder = (base_n, 2 * base_n, 4 * base_n)
        gaps, dxs, pts = [], [], []
        for num in ladder:
            g = TorusGrid(d=1, N=num, M=8, L=cfg.L, T=cfg.T)
            m = make_mollifier(g, n)
            gap = abs(m.c_n_discrete - m.c_n_continuum)
            gaps.append(gap)
            dxs.append(g.dx)
            pts.append((g.dx, gap))
            table.append(
                f"{n},{num},{g.dx!r},{m.c_n_discrete!r},{m.c_n_continuum!r},{gap!r}"
            )
        order = measure_order(gaps, dxs)
        report.add(f"cn_order_n{n}", order, abs(order - 2.0) <= tol["cn_order"],
                   target=2.0, tol=tol["cn_order"])
        report.add_order(f"cn_n{n}", order)
        curves[f"n={n}"] = pts
    report.tables["qv.csv"] = table
    report.add_curves("cn_convergence", curves, xlabel="dx", ylabel="|c_n_discrete - c_n|")
    return report


# ---------------------------------------------------------------------------
# heat


def _study_heat(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())
    amp = 0.2
    if cfg.initial_kind == "cosine":
        amp = float(cfg.initial_params.get("a", 0.2))

    errs_z, errs_u, dxs = [], [], []
    table = ["N,M,dx,dt,err_z,err_u"]
    n0 = cfg.n[0]
    for fac in (4, 2, 1):
        g = TorusGrid(d=1, N=cfg.N // fac, M=cfg.M // fac**2, L=cfg.L, T=cfg.T)
        x = g.axis_coords()
        wavenum = 2.0 * math.pi / g.L
        z0 = 1.0 + amp * np.cos(wavenum * x)
        sol = _pipeline(g, cfg.seed, 0.0, n0, initial_zero(g), z0_override=z0)
        times = g.times()
        # the errors are maxima, so taking them per chunk of H is exact
        err_z = err_u = 0.0
        for lo, hi, H in cole_hopf(sol):
            decay = np.exp(-(wavenum**2) * times[lo : hi + 1])
            z_exact = 1.0 + amp * decay[:, None] * np.cos(wavenum * x)[None, :]
            err_z = max(err_z, float(np.max(np.abs(sol.values[lo : hi + 1] - z_exact))))
            u_num = gradient_values(H, g.dx, 1)[0]
            u_exact = (-amp * wavenum * decay[:, None] * np.sin(wavenum * x)[None, :]
                       / z_exact)
            err_u = max(err_u, float(np.max(np.abs(u_num - u_exact))))
        budget = tol["heat_C"] * (g.dt + g.dx**2)
        report.add(f"err_z_N{g.N}", err_z, err_z <= budget, target=0.0, tol=budget)
        report.add(f"err_u_N{g.N}", err_u, err_u <= budget, target=0.0, tol=budget)
        errs_z.append(err_z)
        errs_u.append(err_u)
        dxs.append(g.dx)
        table.append(f"{g.N},{g.M},{g.dx!r},{g.dt!r},{err_z!r},{err_u!r}")

    order_z = measure_order(errs_z, dxs)
    order_u = measure_order(errs_u, dxs)
    report.add("order_z", order_z, abs(order_z - 2.0) <= tol["heat_order"],
               target=2.0, tol=tol["heat_order"])
    report.add("order_u", order_u, abs(order_u - 2.0) <= tol["heat_order"],
               target=2.0, tol=tol["heat_order"])
    report.add_order("heat_z", order_z)
    report.add_order("heat_u", order_u)
    report.tables["heat.csv"] = table
    report.add_curves(
        "heat_convergence",
        {"err_z": list(zip(dxs, errs_z)), "err_u": list(zip(dxs, errs_u))},
        xlabel="dx", ylabel="max error",
    )
    return report


# ---------------------------------------------------------------------------
# burgers


def _burgers_level(chunks, grid, fac, m, f, lam, pairings):
    """Pair one ladder level over chunks of the master realization.

    Each chunk of fine increments from ``chunks`` is coarse-grained by
    ``fac``, mollified, marched from the previous chunk's last slice, taken
    through the checked log and paired into ``pairings``; then the fine
    chunk is passed on, so levels chained one after another advance in
    lockstep.
    """
    tf = fac * fac

    def noise():
        for fine in chunks:
            lo, hi, dw = fine
            dw = block_sum(dw, fac)
            yield lo // tf, hi // tf, [mollify_increments(m, dw, lam)], dw, fine

    z0 = np.exp(f.values)
    for (lo, hi, (dwn,), dw, fine), Z in march(grid, z0, [compensator(lam, m, grid.dt)], noise()):
        pairings.add(lo, hi, checked_log(Z[0], lo), dwn, dw)
        yield fine


def _burgers_reports(cfg: ExperimentConfig) -> list:
    """(grid, weak-form reports) of every ladder level, coarsest first, in one pass.

    The master realization is drawn a chunk of fine steps at a time (the
    largest multiple of the coarsest level's fac² steps within
    `chunk_steps`, and at least one), and each chunk goes through every
    level before the next is drawn, so no level holds more than a chunk of
    noise, Z or H.  The reports equal those of `weak_residual_batch` over
    `solve_heat` of each coarse-grained, mollified realization.
    """
    grid = cfg.grid()
    factors = [2 ** (cfg.refine_levels - 1 - i) for i in range(cfg.refine_levels)]
    tf = factors[0] ** 2
    chunk = max(tf, chunk_steps(grid) // tf * tf)
    stream = draw_chunks(grid, cfg.seed, cfg.lam, chunk)
    levels = []
    for fac in factors:
        g = coarse_grid(grid, fac)
        m = make_mollifier(g, cfg.n[0])
        pairings = WeakPairings(g, build_bank(g, cfg.bank))
        levels.append((g, m, pairings))
        stream = _burgers_level(stream, g, fac, m, _initial_on(cfg, g), cfg.lam, pairings)
    for _ in stream:
        pass
    return [(g, pairings.reports(m.scale_n, cfg.seed, cfg.lam)) for g, m, pairings in levels]


def _study_burgers(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())

    all_reports = []
    totals, dxs = [], []
    per_phi_points = {}
    levels = _burgers_reports(cfg)
    for g, reports in levels:
        all_reports.extend(reports)
        totals.append(sum(r.gap for r in reports))
        dxs.append(g.dx)
        for r in reports:
            per_phi_points.setdefault(r.phi_id, []).append((g.dx, r.gap))
    _, finest_reports = levels[-1]

    for r in finest_reports:
        denom = abs(r.rhs) if r.rhs != 0.0 else r.scale
        if denom == 0.0:
            report.add(f"rel_gap_{r.phi_id}", r.gap, r.gap == 0.0, target=0.0)
        else:
            rel = r.gap / denom
            report.add(f"rel_gap_{r.phi_id}", rel, rel <= tol["weak_rel_gap"],
                       target=0.0, tol=tol["weak_rel_gap"])

    if len(totals) >= 3:
        if all(t > 0.0 for t in totals):
            order = measure_order(totals, dxs)
            report.add("gap_order", order, order >= tol["weak_order_min"],
                       target=tol["weak_order_min"])
            report.add_order("weak_gap", order)
        else:
            # degenerate exact-zero ladder (λ=0 with flat data): nothing to fit
            worst = max(totals)
            report.add("gap_exact_zero", worst, worst == 0.0, target=0.0)
    if len(totals) >= 2:
        report.add_curves("weak_convergence", per_phi_points,
                          xlabel="dx", ylabel="|lhs - rhs|")
    report.tables["weak_residuals.csv"] = weak_residual_csv_lines(all_reports)
    return report


# ---------------------------------------------------------------------------
# fk-check


def _study_fk_check(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())
    grid = cfg.grid()
    n0 = cfg.n[0]
    f = _initial_on(cfg, grid)
    sol = _pipeline(grid, cfg.seed, cfg.lam, n0, f)
    mn = sol.noise

    M, N = grid.M, grid.N
    probes = [
        (M // 4, N // 2),
        (M // 2, N // 4),
        (3 * M // 4, (3 * N) // 4),
        (M, N // 8),
        (M, 0),
    ]
    pairs = []
    for idx, (m_step, node_j) in enumerate(probes):
        t = m_step * grid.dt
        x = (node_j * grid.dx,) + (0.0,) * (grid.d - 1)
        node = (node_j,) + (0,) * (grid.d - 1)
        est = fk_estimate(
            mn, f, t, x,
            num_paths=cfg.num_paths,
            mode="ito-compensated",
            brownian_seed=cfg.seed + 1_000 + idx,
        )
        solver_value = float(sol.values[m_step][node])
        z = abs(z_score(est, solver_value))
        report.add(f"fk_z_probe{idx}", z, z <= tol["fk_sigma"],
                   target=0.0, tol=tol["fk_sigma"])
        pairs.append((est, solver_value))
    report.tables["fk.csv"] = fk_csv_lines(pairs)

    # Monte-Carlo error exponent at the first probe
    t0 = probes[0][0] * grid.dt
    x0 = (probes[0][1] * grid.dx,) + (0.0,) * (grid.d - 1)
    path_counts = (100, 1_000, 10_000)
    stderrs = []
    for j, p in enumerate(path_counts):
        est = fk_estimate(mn, f, t0, x0, num_paths=p, mode="ito-compensated",
                          brownian_seed=cfg.seed + 2_000 + j)
        stderrs.append(est.stderr)
    if any(s == 0.0 for s in stderrs):
        # flat data and λ=0: the estimator is exact at any path count
        report.add("fk_stderr_exponent", 0.0, max(stderrs) == 0.0, target=-0.5)
    else:
        slope = measure_order(stderrs, path_counts)
        report.add("fk_stderr_exponent", slope,
                   abs(slope + 0.5) <= tol["fk_exponent_tol"],
                   target=-0.5, tol=tol["fk_exponent_tol"])
        report.add_order("fk_stderr", slope)
        report.add_curves(
            "fk_stderr",
            {"stderr": list(zip((float(p) for p in path_counts), stderrs))},
            xlabel="paths", ylabel="stderr",
        )

    # λ = 0: the compensator vanishes, so both modes must agree bitwise
    mn0 = mollify(sample_noise(grid, cfg.seed, 0.0), mn.mollifier)
    p0 = max(100, min(cfg.num_paths, 1_000))
    t_mid = (M // 2) * grid.dt
    x_mid = ((N // 2) * grid.dx,) + (0.0,) * (grid.d - 1)
    est_a = fk_estimate(mn0, f, t_mid, x_mid, num_paths=p0,
                        mode="ito-compensated", brownian_seed=cfg.seed + 3_000)
    est_b = fk_estimate(mn0, f, t_mid, x_mid, num_paths=p0,
                        mode="uncompensated", brownian_seed=cfg.seed + 3_000)
    diff = abs(est_a.mean - est_b.mean)
    report.add("fk_modes_lambda0", diff, diff == 0.0, target=0.0)
    return report


# ---------------------------------------------------------------------------
# converge


def _study_converge(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())
    grid = cfg.grid()
    scales = cfg.mollifier_scales()
    f = _initial_on(cfg, grid)
    base = sample_noise(grid, cfg.seed, cfg.lam)
    bank = build_bank(grid, cfg.bank)

    rhs_by_phi = {phi.id: [] for phi in bank}
    defect_by_phi = {phi.id: [] for phi in bank}
    limit_by_phi = {}
    kpz_fine_value = None
    n_kpz = scales[1]
    table = ["phi_id,n,rhs,limit_pairing,deviation,defect,ratio"]
    all_weak = []
    mollifiers = [make_mollifier(grid, n) for n in scales]
    if grid.d == 1:
        # every trajectory is kept for the Cauchy column, and the scales and
        # the grid-scale reference share the base noise, the grid and f: they
        # march as one batch
        mns = [mollify(base, m) for m in mollifiers]
        *sols, ref_sol = solve_heat(grid, mns + [_grid_scale_noise(base)], f)
    else:
        # nothing outlives its scale, so one scale at a time holds one stack
        sols = (solve_heat(grid, mollify(base, m), f) for m in mollifiers)
    for n, m, sol in zip(scales, mollifiers, sols):
        reports = weak_residual_batch(sol, bank)
        all_weak.extend(reports)
        for phi, r in zip(bank, reports):
            rhs_by_phi[phi.id].append(r.rhs)
            defect_by_phi[phi.id].append(_mollification_defect(m, phi, grid))
            # the limit pairing reads only the shared base noise: every scale
            # reports the same value, so the first one is kept
            limit_by_phi.setdefault(phi.id, r.limit_pairing)
        if n == n_kpz:
            kpz_fine_value = float(np.sum(kpz_residual(sol)))

    dev_curves = {}
    for phi in bank:
        devs = [abs(r - limit_by_phi[phi.id]) for r in rhs_by_phi[phi.id]]
        defects = defect_by_phi[phi.id]
        for n, r, dev, defect in zip(scales, rhs_by_phi[phi.id], devs, defects):
            ratio = dev / defect if defect > 0 else math.inf
            table.append(
                f"{phi.id},{n},{r!r},{limit_by_phi[phi.id]!r},{dev!r},"
                f"{defect!r},{ratio!r}"
            )
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
        defect_increase = max(
            defects[k + 1] / defects[k] if defects[k] > 0 else math.inf
            for k in range(len(defects) - 1)
        )
        report.add(f"limit_defect_monotone_{phi.id}", defect_increase,
                   defect_increase <= 1.0 + 1e-12, target=1.0)
        if cfg.lam == 0.0:
            # zero noise: rhs and limit are both exactly zero at every n
            worst = max(devs)
            report.add(f"limit_ratio_{phi.id}", worst, worst == 0.0, target=0.0)
            continue
        sigma = max(
            dev / (cfg.lam * defect) if defect > 0 else (0.0 if dev == 0.0 else math.inf)
            for dev, defect in zip(devs, defects)
        )
        report.add(f"limit_ratio_{phi.id}", sigma,
                   sigma <= tol["limit_ratio_factor"],
                   target=0.0, tol=tol["limit_ratio_factor"])
    report.tables["limit.csv"] = table
    report.add_curves("limit_deviation", dev_curves,
                      xlabel="n", ylabel="|rhs(n) - limit|")

    # 1-D distributional Cauchy column with the grid-scale terminal reference
    if grid.d == 1:
        u_ref_norm = math.sqrt(_u_l2_sq(ref_sol))
        cauchy_lines = ["phi_id,n,pairing,cauchy_gap"]
        cauchy_curves = {}
        # The monotone-gap gate reads one designated test function (the first
        # in the bank); every φ still gets its full gap column in the CSV and
        # curves, and every φ is held to the terminal budget below.  Gap
        # sequences of the remaining φ are generically decreasing too, but a
        # near-zero dip at one scale (unusually good agreement) would register
        # as an "increase" at the next, so a bank-wide hard gate would reject
        # healthy realizations.
        designated = bank[0].id
        seqs = distributional_limit_1d(sols + [ref_sol], bank)
        for phi, seq in zip(bank, seqs):
            ladder_gaps = seq.cauchy_gaps[:-1]
            terminal = seq.cauchy_gaps[-1]
            if phi.id == designated:
                if cfg.lam == 0.0 and all(g == 0.0 for g in seq.cauchy_gaps):
                    report.add(f"cauchy_monotone_{phi.id}", 0.0, True, target=0.0)
                else:
                    increase = max(
                        ladder_gaps[k + 1] / ladder_gaps[k]
                        if ladder_gaps[k] > 0 else math.inf
                        for k in range(len(ladder_gaps) - 1)
                    )
                    report.add(f"cauchy_monotone_{phi.id}", increase,
                               increase <= 1.0 + 1e-9, target=1.0)
            _, _, Q = phi.spatial_tensors(grid)
            amp_sq = sum(a * a for a in phi.amplitudes)
            lap_norm = math.sqrt(
                amp_sq * _psi_l2_sq(phi, grid)
                * grid.cell_volume * float(np.sum(Q * Q))
            )
            scale = u_ref_norm * lap_norm
            budget = tol["limit_terminal_factor"] * (grid.dx**2 + grid.dt) * scale
            report.add(f"cauchy_terminal_{phi.id}", terminal,
                       terminal <= budget, target=0.0, tol=budget)
            gaps_from_prev = ("",) + tuple(repr(g) for g in seq.cauchy_gaps)
            for n_val, p_val, gap_txt in zip(seq.scales, seq.pairings, gaps_from_prev):
                cauchy_lines.append(f"{phi.id},{n_val},{p_val!r},{gap_txt}")
            cauchy_curves[phi.id] = [
                (float(n_hi), g)
                for n_hi, g in zip(seq.scales[1:], seq.cauchy_gaps)
            ]
        report.tables["cauchy.csv"] = cauchy_lines
        report.add_curves("cauchy_gaps", cauchy_curves,
                          xlabel="n", ylabel="|v(n_hi) - v(n_lo)|")

    # KPZ residual decay under coupled refinement of one realization
    kpz_values, kpz_dxs = [], []
    kpz_lines = ["N,M,dx,dt,residual_sum"]
    for fac in (4, 2):
        base_l = coarse_grain(base, fac)
        g = base_l.grid
        mn_l = mollify(base_l, make_mollifier(g, n_kpz))
        val = float(np.sum(kpz_residual(solve_heat(g, mn_l, _initial_on(cfg, g)))))
        kpz_values.append(val)
        kpz_dxs.append(g.dx)
        kpz_lines.append(f"{g.N},{g.M},{g.dx!r},{g.dt!r},{val!r}")
    kpz_values.append(kpz_fine_value)
    kpz_dxs.append(grid.dx)
    kpz_lines.append(f"{grid.N},{grid.M},{grid.dx!r},{grid.dt!r},{kpz_fine_value!r}")
    report.tables["kpz.csv"] = kpz_lines
    if all(v > 0.0 for v in kpz_values):
        kpz_order = measure_order(kpz_values, kpz_dxs)
        report.add("kpz_order", kpz_order, kpz_order >= tol["kpz_order_min"],
                   target=tol["kpz_order_min"])
        report.add_order("kpz", kpz_order)
        report.add_curves(
            "kpz_convergence",
            {"residual_sum": list(zip(kpz_dxs, kpz_values))},
            xlabel="dx", ylabel="sum_k max|r_k|",
        )
    else:
        worst = max(kpz_values)
        report.add("kpz_exact_zero", worst, worst == 0.0, target=0.0)

    # flat λ=0 data: the KPZ residual must vanish identically
    g0 = TorusGrid(d=grid.d, N=cfg.N // 4, M=cfg.M // 16, L=cfg.L, T=cfg.T)
    sol0 = _pipeline(g0, cfg.seed, 0.0, n_kpz, initial_zero(g0))
    flat = float(np.max(kpz_residual(sol0)))
    report.add("kpz_flat_zero", flat, flat == 0.0, target=0.0)
    report.tables["weak_residuals.csv"] = weak_residual_csv_lines(all_weak)
    return report


# ---------------------------------------------------------------------------
# section


def _study_section(cfg: ExperimentConfig) -> StudyReport:
    tol = cfg.tolerances
    report = StudyReport(study=cfg.study, config=cfg.to_dict())
    grid = cfg.grid()
    n0 = cfg.n[0]
    f = _initial_on(cfg, grid)
    bank = build_bank(grid, cfg.bank)
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
    sol0 = _pipeline(grid, cfg.seed, 0.0, n0, f)
    table = ["lambda,eps,section,reference,gap"]
    gaps = []
    for eps in eps_list:
        s = lojasiewicz_section(sol0, phi, eps, via="h")
        gap = abs(s - p0)
        gaps.append(gap)
        table.append(f"{0.0!r},{eps!r},{s!r},{p0!r},{gap!r}")
    if p0 == 0.0 and all(g == 0.0 for g in gaps):
        report.add("section_order", 0.0, True, target=0.0)
    else:
        order = measure_order(gaps, eps_list)
        report.add("section_order", order, order >= tol["section_order_min"],
                   target=tol["section_order_min"])
        report.add_order("section", order)
        report.add_curves(
            "section_convergence",
            {"lambda=0": list(zip(eps_list, gaps))},
            xlabel="eps", ylabel="|s(eps) - initial pairing|",
        )
    s_h = lojasiewicz_section(sol0, phi, eps_list[0], via="h")
    s_u = lojasiewicz_section(sol0, phi, eps_list[0], via="u")
    dual = abs(s_h - s_u) / (1.0 + abs(s_h))
    report.add("section_duality", dual, dual <= tol["duality_tol"],
               target=0.0, tol=tol["duality_tol"])

    # λ>0 branch: reported, not asserted — section fluctuations at t→0 are
    # unbounded in distribution, so no tolerance applies
    if cfg.lam > 0.0:
        sol1 = _pipeline(grid, cfg.seed, cfg.lam, n0, f)
        for i, eps in enumerate(eps_list):
            s = lojasiewicz_section(sol1, phi, eps, via="h")
            report.add(f"section_lambda_eps{i}", s, True)
            table.append(f"{cfg.lam!r},{eps!r},{s!r},{p0!r},{abs(s - p0)!r}")
    report.tables["section.csv"] = table
    return report


# ---------------------------------------------------------------------------
# registry and entry point

STUDIES = {
    "noise-check": _study_noise_check,
    "qv": _study_qv,
    "heat": _study_heat,
    "burgers": _study_burgers,
    "fk-check": _study_fk_check,
    "converge": _study_converge,
    "section": _study_section,
}


def run_study(config: ExperimentConfig, out_dir=None) -> StudyReport:
    """Validate, dispatch, time, and emit one study; returns its report.

    Artifacts land in `out_dir` if given, else the config's output
    directory, else $BURGERSLAB_OUT, else ./burgerslab-out.  Identical
    configs produce byte-identical artifacts (the wall clock lives only on
    the returned object).
    """
    config.validate()
    start = time.perf_counter()
    report = STUDIES[config.study](config)
    report.wallclock_s = time.perf_counter() - start
    emit_reports(report, resolve_out_dir(out_dir if out_dir else config.out_dir))
    return report
