"""Log-transform layer: chain-rule gaps, growth residual, weak-form pairings."""

import numpy as np
import pytest

from burgerslab.bank import build_bank
from burgerslab.colehopf import (
    cole_hopf,
    distributional_limit_1d,
    kpz_residual,
    laplacian_ratio_gap,
    lojasiewicz_section,
    weak_residual_batch,
    weak_residual_csv_lines,
)
from burgerslab.heat import HeatSolution, initial_gaussian_bump, initial_zero, solve_heat
from burgerslab.lattice import ScalarField, TorusGrid, gradient_values
from burgerslab.noise import coarse_grain, make_mollifier, mollify, sample_noise

T = 0.1


def _grid(N, d=1):
    # dt = dx²/4 (d=1) keeps the scheme stable and couples the refinement
    return TorusGrid(d=d, N=N, M=int(4 * T * N * N), T=T)


def _solve(grid, base, n=4, amp=0.5, center=0.37):
    mol = mollify(base, make_mollifier(grid, n))
    f = initial_gaussian_bump(grid, a=amp, w=0.12 * grid.L, center=[center * grid.L] * grid.d)
    traj = cole_hopf(solve_heat(grid, mol, f))
    return mol, traj


@pytest.fixture(scope="module")
def ladder():
    """One fine realization coarse-grained twice, solved at each level."""
    fine = _grid(160)
    base_f = sample_noise(fine, seed=3, lam=1.0)
    levels = {}
    for tag, base in (
        ("fine", base_f),
        ("mid", coarse_grain(base_f, 2, 4)),
        ("coarse", coarse_grain(base_f, 4, 16)),
    ):
        mol, traj = _solve(base.grid, base)
        levels[tag] = (base, mol, traj)
    return levels


def test_log_transform_is_definitional():
    g = _grid(32)
    base = sample_noise(g, seed=11, lam=1.0)
    mol, traj = _solve(g, base)
    sol = traj.source
    assert np.array_equal(traj.log_values, np.log(sol.values))
    # U = ∇_h H: the stacked stencil the chunk passes use equals the
    # per-slice gradient at every step
    stacked = gradient_values(traj.log_values, g.dx, g.d)
    assert stacked.shape == (g.d, g.M + 1) + g.shape
    for k in (0, g.M // 2, g.M):
        assert np.array_equal(stacked[:, k], gradient_values(traj.log_values[k], g.dx))


def test_flat_trajectory_is_exactly_stationary():
    g = _grid(24)
    base = sample_noise(g, seed=0, lam=0.0)
    mol = mollify(base, make_mollifier(g, 4))
    traj = cole_hopf(solve_heat(g, mol, initial_zero(g)))
    assert np.all(traj.log_values == 0.0)
    assert np.all(gradient_values(traj.log_values[3], g.dx) == 0.0)
    assert np.all(kpz_residual(traj, mol) == 0.0)


def test_cole_hopf_rejects_nonpositive_values():
    g = TorusGrid(d=1, N=8, M=4, T=T)
    mol = mollify(sample_noise(g, seed=0, lam=0.0), make_mollifier(g, 2))
    values = np.ones((5, 8))
    values[3, 2] = 0.0
    sol = HeatSolution(grid=g, noise=mol, values=values)
    with pytest.raises(ValueError, match=r"step 3.*\(2,\)"):
        cole_hopf(sol)
    values[3, 2] = np.nan
    with pytest.raises(ValueError, match="step 3"):
        cole_hopf(HeatSolution(grid=g, noise=mol, values=values))
    values[3, 2] = 1.0
    values[4, 5] = np.inf
    with pytest.raises(ValueError, match=r"step 4.*\(5,\) is inf"):
        cole_hopf(HeatSolution(grid=g, noise=mol, values=values))


def test_laplacian_ratio_gap_shrinks_at_second_order():
    gaps = {}
    for N in (32, 64):
        g = TorusGrid(d=1, N=N, M=4, T=T)
        x = g.axis_coords()
        h = 0.5 * np.cos(2 * np.pi * x)
        gaps[N] = laplacian_ratio_gap(
            ScalarField(g, np.exp(h)), ScalarField(g, h)
        )
    assert 3.2 < gaps[32] / gaps[64] < 4.8


def test_laplacian_ratio_gap_validation():
    g = TorusGrid(d=1, N=16, M=4, T=T)
    z = ScalarField(g, np.full(g.shape, 2.0))
    h_wrong = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="logarithm"):
        laplacian_ratio_gap(z, h_wrong)
    z_bad = ScalarField(g, np.linspace(-1, 1, 16))
    with pytest.raises(ValueError, match="positive"):
        laplacian_ratio_gap(z_bad, h_wrong)
    g2 = TorusGrid(d=1, N=16, M=8, T=T)
    with pytest.raises(ValueError, match="grids"):
        laplacian_ratio_gap(z, ScalarField(g2, np.log(np.full(g2.shape, 2.0))))


def test_growth_residual_refines_at_second_order(ladder):
    sums = {}
    for tag, (base, mol, traj) in ladder.items():
        r = kpz_residual(traj, mol)
        assert r.shape == (traj.grid.M,)
        sums[tag] = float(r.sum())
    assert 2.8 < sums["coarse"] / sums["mid"] < 5.2
    assert 2.8 < sums["mid"] / sums["fine"] < 5.2


def test_growth_residual_validation(ladder):
    base, mol, traj = ladder["coarse"]
    other = mollify(
        sample_noise(traj.grid, seed=99, lam=1.0), make_mollifier(traj.grid, 4)
    )
    with pytest.raises(ValueError, match="realization"):
        kpz_residual(traj, other)
    with pytest.raises(ValueError, match="mollified"):
        kpz_residual(traj, base)


def test_weak_residual_without_noise_reduces_to_classical():
    g = _grid(160)
    base = sample_noise(g, seed=3, lam=0.0)
    mol, traj = _solve(g, base)
    reports = weak_residual_batch(traj, build_bank(g)[:3], mol, base)
    for r in reports:
        # increments vanish identically, so both stochastic pairings do too
        assert r.rhs == 0.0
        assert r.limit_pairing == 0.0
        assert r.gap == abs(r.lhs - r.rhs)
        assert r.gap < 5e-4


def test_weak_residual_gap_shrinks_under_coupled_refinement(ladder):
    totals = {}
    per_phi = {}
    for tag, (base, mol, traj) in ladder.items():
        bank = build_bank(traj.grid)[:3]
        reports = weak_residual_batch(traj, bank, mol, base)
        per_phi[tag] = {r.phi_id: r.gap for r in reports}
        totals[tag] = sum(r.gap for r in reports)
    # per-function gaps carry realization-dependent constants, so adjacent
    # levels can fluke; the widely separated pair and the bank totals are
    # the stable statistics
    for phi_id in per_phi["fine"]:
        assert per_phi["fine"][phi_id] < per_phi["coarse"][phi_id]
    assert totals["mid"] / totals["fine"] > 2.5
    assert totals["coarse"] / totals["mid"] > 2.5
    assert totals["coarse"] / totals["fine"] > 10.0


def test_weak_residual_reports_metadata(ladder):
    base, mol, traj = ladder["coarse"]
    phi = build_bank(traj.grid)[0]
    [r] = weak_residual_batch(traj, [phi], mol, base)
    g = traj.grid
    assert (r.d, r.N, r.M) == (g.d, g.N, g.M)
    assert r.n == 4 and r.seed == 3 and r.lam == 1.0
    assert r.phi_id == "phi1"
    assert np.isfinite([r.lhs, r.rhs, r.gap, r.limit_pairing]).all()


def test_weak_residual_batch_matches_single_calls(ladder):
    base, mol, traj = ladder["coarse"]
    bank = build_bank(traj.grid)[:2]
    batch = weak_residual_batch(traj, bank, mol, base)
    singles = [weak_residual_batch(traj, [phi], mol, base)[0] for phi in bank]
    assert batch == singles


def test_weak_residual_validation(ladder):
    base, mol, traj = ladder["coarse"]
    g = traj.grid
    phi = build_bank(g)[0]
    wrong_base = sample_noise(g, seed=8, lam=1.0)
    with pytest.raises(ValueError, match="base"):
        weak_residual_batch(traj, [phi], mol, wrong_base)
    wrong_mol = mollify(wrong_base, make_mollifier(g, 4))
    with pytest.raises(ValueError, match="realization"):
        weak_residual_batch(traj, [phi], wrong_mol, wrong_base)
    with pytest.raises(ValueError, match="at least one"):
        weak_residual_batch(traj, [], mol, base)
    with pytest.raises(ValueError, match="mollified"):
        weak_residual_batch(traj, [phi], base, base)


def test_gauge_shift_leaves_velocity_unchanged():
    g = _grid(64)
    base = sample_noise(g, seed=5, lam=1.0)
    mol = mollify(base, make_mollifier(g, 4))
    f = initial_gaussian_bump(g, a=0.5, w=0.12, center=[0.37])
    shifted = np.exp(f.values + 0.7)
    t1 = cole_hopf(solve_heat(g, mol, f))
    t2 = cole_hopf(solve_heat(g, mol, f, z0_override=shifted))
    diff = t2.log_values - t1.log_values
    assert np.max(np.abs(diff - 0.7)) < 1e-11
    k = g.M
    u1 = gradient_values(t1.log_values[k], g.dx)
    u2 = gradient_values(t2.log_values[k], g.dx)
    assert np.max(np.abs(u2 - u1)) < 1e-11


@pytest.fixture(scope="module")
def scale_family():
    g = _grid(64)
    base = sample_noise(g, seed=3, lam=1.0)
    entries = []
    for n in (4, 8, 16):
        _, traj = _solve(g, base, n=n)
        entries.append((n, traj))
    return g, base, entries


def test_distributional_limit_sequence(scale_family):
    g, base, entries = scale_family
    phi = build_bank(g)[1]
    ls = distributional_limit_1d(entries, phi)
    assert ls.scales == (4, 8, 16)
    assert len(ls.pairings) == 3 and len(ls.cauchy_gaps) == 2
    assert all(np.isfinite(ls.pairings))
    # consecutive pairings tighten as the mollification sharpens
    assert ls.cauchy_gaps[1] < ls.cauchy_gaps[0]


def test_distributional_limit_validation(scale_family):
    g, base, entries = scale_family
    phi = build_bank(g)[1]
    with pytest.raises(ValueError, match="at least two"):
        distributional_limit_1d(entries[:1], phi)
    with pytest.raises(ValueError, match="strictly increasing"):
        distributional_limit_1d([entries[1], entries[0]], phi)
    with pytest.raises(ValueError, match="labeled"):
        distributional_limit_1d([(4, entries[0][1]), (8, entries[0][1])], phi)
    other = sample_noise(g, seed=77, lam=1.0)
    _, foreign = _solve(g, other, n=8)
    with pytest.raises(ValueError, match="base realization"):
        distributional_limit_1d([entries[0], (8, foreign)], phi)


def test_distributional_limit_needs_one_dimension():
    g = TorusGrid(d=2, N=16, M=208, T=T)
    base = sample_noise(g, seed=1, lam=1.0)
    phi = build_bank(g)[0]
    entries = []
    for n in (2, 4):
        mol = mollify(base, make_mollifier(g, n))
        entries.append((n, cole_hopf(solve_heat(g, mol, initial_zero(g)))))
    with pytest.raises(ValueError, match="one-dimensional"):
        distributional_limit_1d(entries, phi)


def test_section_summation_by_parts_is_exact(scale_family):
    g, base, entries = scale_family
    traj = entries[1][1]
    phi = build_bank(g)[1]
    for eps in (0.02, 0.005):
        sh = lojasiewicz_section(traj, phi, eps, via="h")
        su = lojasiewicz_section(traj, phi, eps, via="u")
        assert abs(sh - su) <= 1e-12 * (1.0 + abs(sh))


def test_section_validation(scale_family):
    g, base, entries = scale_family
    traj = entries[0][1]
    phi = build_bank(g)[1]
    with pytest.raises(ValueError, match="inside"):
        lojasiewicz_section(traj, phi, 0.06)
    with pytest.raises(ValueError, match="time steps"):
        lojasiewicz_section(traj, phi, 1.5 * g.dt)
    with pytest.raises(ValueError, match="via"):
        lojasiewicz_section(traj, phi, 0.01, via="z")
    with pytest.raises(ValueError, match="positive"):
        lojasiewicz_section(traj, phi, -0.01)


def test_section_approaches_initial_slice_without_noise():
    g = _grid(64)
    base = sample_noise(g, seed=3, lam=0.0)
    mol, traj = _solve(g, base)
    phi = build_bank(g)[1]
    P, _, _ = phi.spatial_tensors(g)
    u0 = gradient_values(traj.log_values[0], g.dx)
    p0 = g.cell_volume * float(np.sum(phi.amplitudes[0] * u0[0] * P))
    errs = [
        abs(lojasiewicz_section(traj, phi, eps) - p0)
        for eps in (0.04, 0.02, 0.01, 0.005)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert np.sign(lojasiewicz_section(traj, phi, 0.005)) == np.sign(p0)


def test_weak_machinery_in_two_dimensions():
    g = TorusGrid(d=2, N=16, M=208, T=T)
    base = sample_noise(g, seed=2, lam=1.0)
    mol, traj = _solve(g, base, n=4, amp=0.3)
    bank = build_bank(g)[:2]
    reports = weak_residual_batch(traj, bank, mol, base)
    for r in reports:
        assert r.d == 2 and np.isfinite([r.lhs, r.rhs, r.gap]).all()
    r = kpz_residual(traj, mol)
    assert r.shape == (g.M,) and np.all(np.isfinite(r))
    phi = bank[0]
    sh = lojasiewicz_section(traj, phi, 0.01, via="h")
    su = lojasiewicz_section(traj, phi, 0.01, via="u")
    assert abs(sh - su) <= 1e-12 * (1.0 + abs(sh))


def test_report_persistence(ladder):
    base, mol, traj = ladder["coarse"]
    bank = build_bank(traj.grid)[:2]
    reports = weak_residual_batch(traj, bank, mol, base)

    lines = weak_residual_csv_lines(reports)
    assert lines[0] == "d,N,M,n,seed,lambda,phi_id,lhs,rhs,gap,limit_pairing"
    assert len(lines) == 1 + len(reports)
    row = lines[1].split(",")
    assert row[6] == "phi1"
    assert float(row[9]) == reports[0].gap
    assert weak_residual_csv_lines(reports) == lines
