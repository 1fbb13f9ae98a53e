"""Log-transform layer: growth residual, weak-form pairings, sections."""

import tracemalloc

import numpy as np
import pytest

from burgerslab.bank import TestFunction, build_bank
from burgerslab.colehopf import (
    LimitSequence,
    cole_hopf,
    distributional_limit_1d,
    kpz_residual,
    lojasiewicz_section,
    weak_residual_batch,
)
from burgerslab.heat import (
    HeatSolution,
    initial_cosine,
    initial_gaussian_bump,
    initial_zero,
    solve_heat,
)
from burgerslab.lattice import _CHUNK, ScalarField, TorusGrid, gradient_values, laplacian_values
from burgerslab.noise import coarse_grain, make_mollifier, mollify, sample_noise

T = 0.1


def _grid(N, d=1):
    # dt = dx²/4 (d=1) keeps the scheme stable and couples the refinement
    return TorusGrid(d=d, N=N, M=int(4 * T * N * N), T=T)


def _solve(grid, base, n=4, amp=0.5, center=0.37):
    mol = mollify(base, make_mollifier(grid, n))
    f = initial_gaussian_bump(grid, a=amp, w=0.12 * grid.L, center=[center * grid.L] * grid.d)
    return mol, solve_heat(grid, mol, f)


@pytest.fixture(scope="module")
def ladder():
    """One fine realization coarse-grained twice, solved at each level."""
    fine = _grid(160)
    base_f = sample_noise(fine, seed=3, lam=1.0)
    levels = {}
    for tag, base in (
        ("fine", base_f),
        ("mid", coarse_grain(base_f, 2)),
        ("coarse", coarse_grain(base_f, 4)),
    ):
        mol, traj = _solve(base.grid, base)
        levels[tag] = (base, mol, traj)
    return levels


def test_log_transform_is_definitional():
    g = _grid(32)
    base = sample_noise(g, seed=11, lam=1.0)
    _, sol = _solve(g, base)
    H = np.log(sol.values)
    # H is taken per chunk, each chunk one slice past its last step
    chunks = list(cole_hopf(sol, 100))
    assert [(lo, hi) for lo, hi, _ in chunks][-1] == (g.M - g.M % 100, g.M)
    for lo, hi, h in chunks:
        assert np.array_equal(h, H[lo : hi + 1])
    # U = ∇_h H: the stacked stencil the chunk passes use equals the
    # per-slice gradient at every step
    stacked = gradient_values(H, g.dx, g.d)
    assert stacked.shape == (g.d, g.M + 1) + g.shape
    for k in (0, g.M // 2, g.M):
        assert np.array_equal(stacked[:, k], gradient_values(H[k], g.dx))


def test_cole_hopf_rejects_nonpositive_values():
    g = TorusGrid(d=1, N=8, M=4, T=T)
    mol = mollify(sample_noise(g, seed=0, lam=0.0), make_mollifier(g, 2))
    values = np.ones((5, 8))
    values[3, 2] = 0.0
    sol = HeatSolution(grid=g, noise=mol, values=values)
    with pytest.raises(ValueError, match=r"step 3.*\(2,\)"):
        list(cole_hopf(sol))
    # the step is counted from 0, not from the start of its chunk
    with pytest.raises(ValueError, match=r"step 3.*\(2,\) is 0\.0"):
        list(cole_hopf(sol, 2))
    values[3, 2] = np.nan
    with pytest.raises(ValueError, match="step 3"):
        list(cole_hopf(HeatSolution(grid=g, noise=mol, values=values)))
    values[3, 2] = 1.0
    values[4, 5] = np.inf
    with pytest.raises(ValueError, match=r"step 4.*\(5,\) is inf"):
        list(cole_hopf(HeatSolution(grid=g, noise=mol, values=values)))


def test_flat_trajectory_is_exactly_stationary():
    g = _grid(24)
    base = sample_noise(g, seed=0, lam=0.0)
    mol = mollify(base, make_mollifier(g, 4))
    sol = solve_heat(g, mol, initial_zero(g))
    assert np.all(np.log(sol.values) == 0.0)
    assert np.all(gradient_values(np.log(sol.values[3]), g.dx) == 0.0)
    assert np.all(kpz_residual(sol) == 0.0)


def test_growth_residual_refines_at_second_order(ladder):
    sums = {}
    for tag, (base, mol, traj) in ladder.items():
        r = kpz_residual(traj)
        assert r.shape == (traj.grid.M,)
        sums[tag] = float(r.sum())
    assert 2.8 < sums["coarse"] / sums["mid"] < 5.2
    assert 2.8 < sums["mid"] / sums["fine"] < 5.2


def test_growth_residual_equals_full_stack_reference_bit_for_bit():
    # M = 600 is no multiple of the chunk, so the last chunk is short
    g = TorusGrid(d=1, N=32, M=600, T=T)
    assert g.M % _CHUNK
    mol, sol = _solve(g, sample_noise(g, seed=4, lam=1.0))
    H = np.log(sol.values)
    h = H[:-1]
    grads = gradient_values(h, g.dx, 1)
    normsq = np.zeros_like(h)
    for grad in grads:
        normsq += grad * grad
    r = H[1:] - h
    r -= g.dt * (laplacian_values(h, g.dx, 1) + normsq)
    r -= mol.increments
    r += 0.5 * mol.lam**2 * mol.mollifier.c_n_discrete * g.dt
    assert np.array_equal(kpz_residual(sol), np.max(np.abs(r), axis=1))


def test_passes_hold_no_log_stack():
    # H = log Z is taken per time chunk: the weak pass and the KPZ residual
    # together allocate far less than one (M+1)·N^d stack
    g = TorusGrid(d=1, N=256, M=64 * _CHUNK, T=T)
    _, sol = _solve(g, sample_noise(g, seed=6, lam=1.0))
    bank = build_bank(g)[:2]
    for phi in bank:
        phi.spatial_tensors(g)  # cached before the measurement
    tracemalloc.start()
    try:
        weak_residual_batch(sol, bank)
        kpz_residual(sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sol.values.nbytes / 4


def test_weak_residual_without_noise_reduces_to_classical():
    g = _grid(160)
    base = sample_noise(g, seed=3, lam=0.0)
    mol, traj = _solve(g, base)
    reports = weak_residual_batch(traj, build_bank(g)[:3])
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
        reports = weak_residual_batch(traj, bank)
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
    [r] = weak_residual_batch(traj, [phi])
    g = traj.grid
    assert (r.d, r.N, r.M) == (g.d, g.N, g.M)
    assert r.n == 4 and r.seed == 3 and r.lam == 1.0
    assert r.phi_id == "phi1"
    assert np.isfinite([r.lhs, r.rhs, r.gap, r.limit_pairing]).all()


def test_weak_residual_batch_matches_single_calls(ladder):
    base, mol, traj = ladder["coarse"]
    bank = build_bank(traj.grid)[:2]
    batch = weak_residual_batch(traj, bank)
    singles = [weak_residual_batch(traj, [phi])[0] for phi in bank]
    assert batch == singles


def _full_grid_reference(traj, phis):
    """The whole-grid contraction: U = ∇_h H against P, Q, D on all M·N^d nodes.

    Returns (lhs, rhs, limit_pairing, scale) per φ and the Cauchy column's
    pairing ⟨U, φ⟩ per φ, each computed as the weak pass did before it
    moved to each φ's support.
    """
    g = traj.grid
    d, dt, vol = g.d, g.dt, g.cell_volume
    sp = tuple(range(1, d + 1))
    H = np.log(traj.values)[:-1]
    grads = gradient_values(H, g.dx, d)
    normsq = np.zeros_like(H)
    for grad in grads:
        normsq += grad * grad
    out = []
    for phi in phis:
        P, D, Q = phi.spatial_tensors(g)
        psi, dpsi = phi.time_profile(g)
        au = np.zeros_like(H)
        for a in range(d):
            au += phi.amplitudes[a] * grads[a]
        A = np.sum(au * P, axis=sp)
        B = np.sum(au * Q, axis=sp)
        C = np.sum(normsq * D, axis=sp)
        R = np.sum(traj.noise.increments * D, axis=sp)
        Rb = np.sum(traj.noise.base.increments * D, axis=sp)
        out.append({
            "lhs": vol * dt * float(np.sum(-dpsi * A - psi * B + psi * C)),
            "rhs": -vol * float(np.sum(psi * R)),
            "limit_pairing": -vol * float(np.sum(psi * Rb)),
            "scale": vol * dt * float(
                np.sum(np.abs(dpsi * A) + np.abs(psi * B) + np.abs(psi * C))
            ),
            "pairing": vol * dt * float(np.sum(psi * A)),
        })
    return out


def test_weak_pass_on_the_support_equals_full_grid_reference():
    g1 = TorusGrid(d=1, N=32, M=600, T=T)
    assert g1.M % _CHUNK  # windows cross chunk bounds, the last chunk is short
    base1 = sample_noise(g1, seed=8, lam=1.0)
    # the default bank: phi1's D = a·ψ' vanishes at its centre node
    default = build_bank(g1)
    x1 = g1.axis_coords()
    assert default[0].spatial_tensors(g1)[1][np.argmin(abs(x1 - default[0].x_center[0]))] == 0.0
    seam = TestFunction("seam", 0.05, 0.03, (0.97,), 0.12, (0.8,))
    wide = TestFunction("wide", 0.06, 0.035, (0.4,), 0.49, (-1.1,))
    window, box = seam.support(g1)
    assert len(box) == 2 and box[0][0].stop == g1.N and box[1][0].start == 0
    assert wide.support(g1)[1] == ((slice(0, g1.N),),)
    phis1 = default + [seam, wide]
    entries = [_solve(g1, base1, n=n)[1] for n in (4, 8)]

    g2 = TorusGrid(d=2, N=16, M=208, T=T)
    _, traj2 = _solve(g2, sample_noise(g2, seed=9, lam=1.0), n=4, amp=0.3)
    corner = TestFunction("corner", 0.05, 0.04, (0.0, 0.0), 0.2, (1.0, -0.7))
    assert len(corner.support(g2)[1]) == 4
    phis2 = build_bank(g2)[:2] + [corner]

    for traj, phis in ((entries[0], phis1), (traj2, phis2)):
        reference = _full_grid_reference(traj, phis)
        for r, ref in zip(weak_residual_batch(traj, phis), reference):
            for key in ("lhs", "rhs", "limit_pairing", "scale", "pairing"):
                assert getattr(r, key) == pytest.approx(ref[key], rel=1e-12, abs=0.0), (
                    r.phi_id, key)
    seqs = distributional_limit_1d(_reports(entries, phis1))
    for k, traj in enumerate(entries):
        for seq, ref in zip(seqs, _full_grid_reference(traj, phis1)):
            assert seq.pairings[k] == pytest.approx(ref["pairing"], rel=1e-12, abs=0.0)


def test_weak_residual_validation(ladder):
    base, mol, traj = ladder["coarse"]
    with pytest.raises(ValueError, match="at least one"):
        weak_residual_batch(traj, [])
    planar = TestFunction("planar", 0.05, 0.02, (0.5, 0.5), 0.2, (1.0, -1.0))
    with pytest.raises(ValueError, match="spatial components"):
        weak_residual_batch(traj, [planar])


def test_gauge_shift_leaves_velocity_unchanged():
    g = _grid(64)
    base = sample_noise(g, seed=5, lam=1.0)
    mol = mollify(base, make_mollifier(g, 4))
    f = initial_gaussian_bump(g, a=0.5, w=0.12, center=[0.37])
    shifted = ScalarField(g, f.values + 0.7)
    h1 = np.log(solve_heat(g, mol, f).values)
    h2 = np.log(solve_heat(g, mol, shifted).values)
    assert np.max(np.abs(h2 - h1 - 0.7)) < 1e-11
    k = g.M
    u1 = gradient_values(h1[k], g.dx)
    u2 = gradient_values(h2[k], g.dx)
    assert np.max(np.abs(u2 - u1)) < 1e-11


def _reports(entries, phis):
    """The weak reports of each trajectory: the Cauchy column's input."""
    return [weak_residual_batch(traj, phis) for traj in entries]


@pytest.fixture(scope="module")
def scale_family():
    g = _grid(64)
    base = sample_noise(g, seed=3, lam=1.0)
    entries = [_solve(g, base, n=n)[1] for n in (4, 8, 16)]
    return g, base, entries


def test_distributional_limit_sequence(scale_family):
    g, base, entries = scale_family
    bank = build_bank(g)
    seqs = distributional_limit_1d(_reports(entries, bank))
    assert len(seqs) == len(bank)
    ls = seqs[1]
    assert ls.scales == (4, 8, 16)
    assert len(ls.pairings) == 3 and len(ls.cauchy_gaps) == 2
    assert all(np.isfinite(ls.pairings))
    # consecutive pairings tighten as the mollification sharpens
    assert ls.cauchy_gaps[1] < ls.cauchy_gaps[0]


def test_distributional_limit_bank_equals_single_phi_calls(scale_family):
    g, base, entries = scale_family
    bank = build_bank(g)
    together = distributional_limit_1d(_reports(entries, bank))
    for phi, seq in zip(bank, together):
        assert distributional_limit_1d(_reports(entries, [phi])) == [seq]
    # each pairing is the space-time sum of the slice pairings ⟨U_k, φ⟩
    phi = bank[2]
    P, _, _ = phi.spatial_tensors(g)
    psi, _ = phi.time_profile(g)
    H = np.log(entries[0].values)
    series = [
        np.sum(phi.amplitudes[0] * gradient_values(H[k], g.dx)[0] * P)
        for k in range(g.M)
    ]
    direct = g.cell_volume * g.dt * float(np.sum(psi * np.array(series)))
    assert together[2].pairings[0] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_distributional_limit_validation(scale_family):
    g, base, entries = scale_family
    bank = build_bank(g)
    reports = _reports(entries, bank[1:2])
    with pytest.raises(ValueError, match="at least two"):
        distributional_limit_1d(reports[:1])
    with pytest.raises(ValueError, match="at least one test function"):
        distributional_limit_1d([[], []])
    with pytest.raises(ValueError, match="strictly increasing"):
        distributional_limit_1d([reports[1], reports[0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        distributional_limit_1d([reports[0], reports[0]])
    other = sample_noise(g, seed=77, lam=1.0)
    _, foreign = _solve(g, other, n=8)
    with pytest.raises(ValueError, match="base realization"):
        distributional_limit_1d([reports[0], weak_residual_batch(foreign, bank[1:2])])
    with pytest.raises(ValueError, match="one bank"):
        distributional_limit_1d([reports[0], weak_residual_batch(entries[1], bank[2:3])])
    g32 = _grid(32)
    _, coarser = _solve(g32, sample_noise(g32, seed=3, lam=1.0), n=8)
    with pytest.raises(ValueError, match="one grid"):
        distributional_limit_1d([reports[0], weak_residual_batch(coarser, bank[1:2])])


def test_distributional_limit_in_two_dimensions():
    g = TorusGrid(d=2, N=16, M=208, T=T)
    base = sample_noise(g, seed=1, lam=1.0)
    phis = build_bank(g)[:2]
    entries = [
        solve_heat(g, mollify(base, make_mollifier(g, n)), initial_zero(g)) for n in (2, 4)
    ]
    reports = _reports(entries, phis)
    seqs = distributional_limit_1d(reports)
    assert len(seqs) == len(phis)
    for k, seq in enumerate(seqs):
        pairings = tuple(column[k].pairing for column in reports)
        assert seq == LimitSequence((2, 4), pairings, (abs(pairings[1] - pairings[0]),))
        assert all(np.isfinite(pairings)) and pairings[0] != pairings[1]


def test_section_summation_by_parts_is_exact(scale_family):
    g, base, entries = scale_family
    traj = entries[1]
    phi = build_bank(g)[1]
    for eps in (0.02, 0.005):
        sh = lojasiewicz_section(traj, phi, eps, via="h")
        su = lojasiewicz_section(traj, phi, eps, via="u")
        assert abs(sh - su) <= 1e-12 * (1.0 + abs(sh))


def test_section_reads_only_its_window_through_the_checked_log():
    # the section acceptance grid: eps = T/8 covers k_hi = 103 of M = 410 steps
    g = TorusGrid(d=1, N=64, M=410, T=0.025)
    eps = g.T / 8
    k_hi = 103
    assert k_hi == int(np.ceil(2.0 * eps / g.dt))
    mol = mollify(sample_noise(g, seed=5, lam=1.0), make_mollifier(g, 4))
    healthy = solve_heat(g, mol, initial_cosine(g, a=0.2))
    phi = build_bank(g)[1]

    def with_zero_at(step):
        values = healthy.values.copy()
        values[step, 5] = 0.0
        return HeatSolution(grid=g, noise=mol, values=values)

    # a breakdown past the window is never read
    outside = with_zero_at(k_hi + 1)
    for via in ("h", "u"):
        expected = lojasiewicz_section(healthy, phi, eps, via=via)
        assert lojasiewicz_section(outside, phi, eps, via=via) == expected
    # one inside it is reported by the log transform, on both routes
    inside = with_zero_at(k_hi - 1)
    for via in ("h", "u"):
        with pytest.raises(ValueError, match=rf"Z at step {k_hi - 1}, node \(5,\)"):
            lojasiewicz_section(inside, phi, eps, via=via)


def test_section_validation(scale_family):
    g, base, entries = scale_family
    traj = entries[0]
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
    u0 = gradient_values(np.log(traj.values[0]), g.dx)
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
    reports = weak_residual_batch(traj, bank)
    for r in reports:
        assert r.d == 2 and np.isfinite([r.lhs, r.rhs, r.gap]).all()
    r = kpz_residual(traj)
    assert r.shape == (g.M,) and np.all(np.isfinite(r))
    phi = bank[0]
    sh = lojasiewicz_section(traj, phi, 0.01, via="h")
    su = lojasiewicz_section(traj, phi, 0.01, via="u")
    assert abs(sh - su) <= 1e-12 * (1.0 + abs(sh))
