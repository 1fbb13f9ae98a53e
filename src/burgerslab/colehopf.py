"""The Cole–Hopf transform of the heat trajectory and its verification layers.

Given a strictly positive heat trajectory Z driven by mollified noise, the
passes of this module take H = log Z and U = ∇_h H and check, realization by
realization, that U behaves like a weak solution of the conservative
Burgers dynamics

    ∂_t U = Δ_x U + ∇_x ‖U‖² + ∇_x Ẇⁿ.

Only Z exists whole.  ``cole_hopf`` is the one place log Z is taken: it
yields H from the ``HeatSolution`` one time chunk at a time and checks
that every Z it reads is finite and strictly positive.  Every reader of H
(the passes below, the sections, the harness's heat oracle) goes through
it, and a section reads only the steps its window covers.  A solution
carries the noise that drove it, and the noise its base realization, so a
pass needs nothing else.

Two layers of checks, in increasing depth:

* growth-equation residual — ``kpz_residual`` re-assembles the update of
  H step by step and reports per-step max norms of

      H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt ,

  which also carries the lattice defect of the chain rule
  Δe^H/e^H = ΔH + ‖∇H‖² (zero in the continuum, O(dx²) for smooth H);

* weak-form identity — ``weak_residual_batch`` pairs U against smooth
  compactly supported space-time test functions and compares

      −⟨U, ∂_t φ⟩ − ⟨U, Δφ⟩ + ⟨‖U‖², ∇·φ⟩   (left-endpoint time sums)

  with the Itô pairing −Σ_k (∇·φ)(t_k)·ΔWⁿ_k dx^d, reporting the gap and,
  alongside, the same pairing against the raw (unmollified) increments —
  the candidate limit as the mollification scale grows.

``distributional_limit_1d`` tracks ⟨U_n, φ⟩ for each φ of a bank across a
family of trajectories driven by one shared base realization at increasing
mollification scales, forming each trajectory's gradient once, and reports
the Cauchy differences of each sequence.
``lojasiewicz_section`` evaluates short-time sections ∫ ρ_ε(t) ⟨U_t, φ_x⟩ dt
through either side of the summation-by-parts identity
⟨∇_h H, φ⟩ = −⟨H, ∇_h·φ⟩, which holds exactly on the lattice.

All time integrals use left endpoints (the Itô convention), so stochastic
pairings and Lebesgue pairings discretize consistently; all spatial
pairings carry the cell volume dx^d.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from burgerslab.bank import TestFunction, bump
from burgerslab.heat import HeatSolution
from burgerslab.lattice import divergence_values, gradient_values, laplacian_values
from burgerslab.noise import _bump_constants

__all__ = [
    "WeakResidualReport",
    "LimitSequence",
    "cole_hopf",
    "kpz_residual",
    "weak_residual_batch",
    "distributional_limit_1d",
    "lojasiewicz_section",
    "weak_residual_csv_lines",
]

# Time chunk for streaming passes over a trajectory; sized so a chunk of
# N^d slices plus its stencil temporaries stays well under 100 MB even in
# three dimensions.
_CHUNK = 256


def cole_hopf(sol: HeatSolution, chunk: int = _CHUNK):
    """Yield (lo, hi, H) per time chunk, H = log Z at steps lo .. hi inclusive.

    H holds one slice past the chunk, for the update H_{k+1} − H_k; no
    stack of H outlives its chunk.  Raises if a value of Z in the chunk
    fails to be finite and strictly positive (NaNs included), naming the
    first offending step and node.
    """
    M = sol.grid.M
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        values = sol.values[lo : hi + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            H = np.log(values)
        # H is finite exactly where Z is finite and positive.  Every finite H
        # has |H| < 750, so their sum cannot overflow: one sum tells whether
        # any H is not finite, without a mask the size of the chunk.
        if not np.isfinite(np.sum(H)):
            bad = np.argwhere(~np.isfinite(H))[0]
            k, node = int(bad[0]), tuple(int(i) for i in bad[1:])
            raise ValueError(
                f"logarithmic transform needs finite Z > 0 everywhere; "
                f"Z at step {lo + k}, node {node} is {float(values[tuple(bad)])!r}"
            )
        yield lo, hi, H


def kpz_residual(traj: HeatSolution) -> np.ndarray:
    """Per-step max-norm defect of the discrete growth equation.

    Returns an array of length M whose k-th entry is

        max_x |H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt| ,

    with ΔWⁿ the realization that drove the trajectory.
    """
    noise = traj.noise
    grid = traj.grid
    d, dt, dx, M = grid.d, grid.dt, grid.dx, grid.M
    comp = 0.5 * noise.lam**2 * noise.mollifier.c_n_discrete * dt
    sp_axes = tuple(range(1, d + 1))
    out = np.empty(M)
    for lo, hi, H in cole_hopf(traj):
        h = H[:-1]
        grads = gradient_values(h, dx, d)
        normsq = np.zeros_like(h)
        for g in grads:
            normsq += g * g
        r = H[1:] - h
        r -= dt * (laplacian_values(h, dx, d) + normsq)
        r -= noise.increments[lo:hi]
        r += comp
        out[lo:hi] = np.max(np.abs(r), axis=sp_axes)
    return out


# ---------------------------------------------------------------------------
# weak-form pairings


@dataclass(frozen=True)
class WeakResidualReport:
    """One weak-form comparison for a single test function.

    ``lhs`` collects the deterministic pairings of U, ``rhs`` the Itô
    pairing against the mollified increments, ``gap`` their absolute
    difference, and ``limit_pairing`` the same Itô pairing against the raw
    base increments (the mollification-free limit candidate).  ``scale`` is
    the triangle-inequality mass of the lhs terms before cancellation — the
    natural yardstick for the gap when the rhs is exactly zero (λ = 0).
    The remaining fields echo the configuration for reporting.
    """

    phi_id: str
    lhs: float
    rhs: float
    gap: float
    limit_pairing: float
    d: int
    N: int
    M: int
    n: int
    seed: int
    lam: float
    scale: float = 0.0


def weak_residual_batch(traj: HeatSolution, phis: Sequence[TestFunction]) -> list:
    """Weak-form reports for several test functions in one trajectory pass.

    The rhs pairs against the mollified increments that drove ``traj``, the
    limit pairing against their base realization.  The expensive part —
    forming U_k and its pairings — is shared across the bank, so verifying
    six test functions costs barely more than one.
    """
    if not phis:
        raise ValueError("need at least one test function")
    noise = traj.noise
    base = noise.base
    grid = traj.grid
    d, dt, dx, M = grid.d, grid.dt, grid.dx, grid.M
    vol = grid.cell_volume
    sp_axes = tuple(range(1, d + 1))
    tensors = []
    for phi in phis:
        phi.validate_on(grid)
        tensors.append(phi.spatial_tensors(grid))

    n_phi = len(phis)
    A = np.zeros((n_phi, M))  # Σ_i (a·U)_i P_i
    B = np.zeros((n_phi, M))  # Σ_i (a·U)_i Q_i
    C = np.zeros((n_phi, M))  # Σ_i ‖U‖²_i D_i
    R = np.zeros((n_phi, M))  # Σ_i ΔWⁿ_i D_i
    Rb = np.zeros((n_phi, M))  # Σ_i ΔW_i D_i

    for lo, hi, H in cole_hopf(traj):
        h = H[:-1]
        grads = gradient_values(h, dx, d)
        normsq = np.zeros_like(h)
        for g in grads:
            normsq += g * g
        inc = noise.increments[lo:hi]
        inc_base = base.increments[lo:hi]
        for j, (phi, (P, D, Q)) in enumerate(zip(phis, tensors)):
            au = np.zeros_like(h)
            for a in range(d):
                au += phi.amplitudes[a] * grads[a]
            A[j, lo:hi] = np.sum(au * P, axis=sp_axes)
            B[j, lo:hi] = np.sum(au * Q, axis=sp_axes)
            C[j, lo:hi] = np.sum(normsq * D, axis=sp_axes)
            R[j, lo:hi] = np.sum(inc * D, axis=sp_axes)
            Rb[j, lo:hi] = np.sum(inc_base * D, axis=sp_axes)

    reports = []
    for j, phi in enumerate(phis):
        psi, dpsi = phi.time_profile(grid)
        lhs = vol * dt * float(np.sum(-dpsi * A[j] - psi * B[j] + psi * C[j]))
        rhs = -vol * float(np.sum(psi * R[j]))
        limit = -vol * float(np.sum(psi * Rb[j]))
        scale = vol * dt * float(
            np.sum(np.abs(dpsi * A[j]) + np.abs(psi * B[j]) + np.abs(psi * C[j]))
        )
        reports.append(
            WeakResidualReport(
                phi_id=phi.id,
                lhs=lhs,
                rhs=rhs,
                gap=abs(lhs - rhs),
                limit_pairing=limit,
                d=d,
                N=grid.N,
                M=M,
                n=noise.mollifier.scale_n,
                seed=base.seed,
                lam=noise.lam,
                scale=scale,
            )
        )
    return reports


def _u_pairings(h: np.ndarray, grid, phis: Sequence[TestFunction]) -> np.ndarray:
    """Σ_i (a·U_k)_i P_i for each φ and each slice k of ``h``, no dx^d factor.

    One gradient of the slices serves every φ.
    """
    d = grid.d
    sp_axes = tuple(range(1, d + 1))
    grads = gradient_values(h, grid.dx, d)
    out = np.empty((len(phis), h.shape[0]))
    for j, phi in enumerate(phis):
        au = np.zeros_like(h)
        for a in range(d):
            au += phi.amplitudes[a] * grads[a]
        out[j] = np.sum(au * phi.spatial_tensors(grid)[0], axis=sp_axes)
    return out


@dataclass(frozen=True)
class LimitSequence:
    """Pairings ⟨U_n, φ⟩ across mollification scales plus Cauchy gaps."""

    scales: tuple
    pairings: tuple
    cauchy_gaps: tuple


def distributional_limit_1d(entries, phis: Sequence[TestFunction]) -> list:
    """Track ⟨U_n, φ⟩_{space-time} across mollification scales in d = 1.

    ``entries`` is a sequence of heat solutions whose mollification scales
    ``noise.mollifier.scale_n`` strictly increase; all must live on one grid
    and be driven by the same base realization (the scales are coupled).
    Returns one LimitSequence per test function in ``phis``: the pairing
    sequence and the absolute differences of consecutive terms.  Each
    trajectory's gradient is formed once for the whole bank.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise ValueError("need at least two scales to form Cauchy differences")
    if not phis:
        raise ValueError("need at least one test function")
    scales = [traj.noise.mollifier.scale_n for traj in entries]
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be strictly increasing, got {scales}")

    grid = entries[0].grid
    if grid.d != 1:
        raise ValueError(f"this diagnostic is one-dimensional, got d={grid.d}")
    base = entries[0].noise.base
    for traj in entries:
        if traj.grid != grid:
            raise ValueError("all trajectories must share one grid")
        b = traj.noise.base
        if b is not base and not np.array_equal(b.increments, base.increments):
            raise ValueError("all trajectories must share one base realization")

    psis = [phi.time_profile(grid)[0] for phi in phis]
    pairings = [[] for _ in phis]
    for traj in entries:
        series = np.empty((len(phis), grid.M))
        for lo, hi, H in cole_hopf(traj):
            series[:, lo:hi] = _u_pairings(H[:-1], grid, phis)
        for j, psi in enumerate(psis):
            pairings[j].append(grid.cell_volume * grid.dt * float(np.sum(psi * series[j])))
    return [
        LimitSequence(
            scales=tuple(scales),
            pairings=tuple(p),
            cauchy_gaps=tuple(abs(b - a) for a, b in zip(p, p[1:])),
        )
        for p in pairings
    ]


def lojasiewicz_section(
    traj: HeatSolution, phi: TestFunction, eps: float, via: str = "h"
) -> float:
    """Short-time section s(ε) = Σ_k dt ρ_ε(t_k) ⟨U_k, φ_x⟩.

    ρ_ε(t) = ε⁻¹ η(t/ε − 1), with η = c₁·bump the unit-mass 1-D bump, is
    a delta net supported on (0, 2ε); only the spatial part φ_x = a ψ(x)
    of the test function is used (its time factor plays no role here).  ``via="h"`` evaluates the
    pairing as −⟨H_k, ∇_h·φ_x⟩ through summation by parts — exact on the
    lattice — while ``via="u"`` pairs ∇_h H_k with φ_x directly; the two
    agree to rounding, which is itself worth asserting.
    """
    grid = traj.grid
    phi.validate_on(grid)
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps}")
    if not (2.0 * eps < grid.T):
        raise ValueError(f"section window (0, {2 * eps:g}) must sit inside (0, {grid.T:g})")
    if eps < 2.0 * grid.dt:
        raise ValueError(
            f"eps={eps:g} is narrower than two time steps (dt={grid.dt:g}); "
            f"the section quadrature would see no interior nodes"
        )
    if via not in ("h", "u"):
        raise ValueError(f"via must be 'h' or 'u', got {via!r}")

    d = grid.d
    P, _, _ = phi.spatial_tensors(grid)
    k_hi = min(grid.M, int(np.ceil(2.0 * eps / grid.dt)))
    tk = grid.dt * np.arange(k_hi)
    weights = _bump_constants(1)[0] * bump(tk / eps - 1.0) / eps

    # one chunk of k_hi steps covers the window; asking the generator for
    # the next chunk would take and check the log of steps the section
    # never reads
    _, _, H = next(cole_hopf(traj, k_hi))
    h = H[:k_hi]
    if via == "h":
        comps = np.asarray(phi.amplitudes).reshape((d,) + (1,) * d) * P
        div = divergence_values(comps, grid.dx)
        series = np.array([-np.sum(h[k] * div) for k in range(k_hi)])
    else:
        series = _u_pairings(h, grid, [phi])[0]
    return grid.cell_volume * grid.dt * float(np.sum(weights * series))


# ---------------------------------------------------------------------------
# persistence

_CSV_HEADER = "d,N,M,n,seed,lambda,phi_id,lhs,rhs,gap,limit_pairing"


def weak_residual_csv_lines(reports) -> list:
    """Weak-form reports as CSV lines (header first), without writing."""
    lines = [_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.d},{r.N},{r.M},{r.n},{r.seed},{r.lam!r},{r.phi_id},"
            f"{r.lhs!r},{r.rhs!r},{r.gap!r},{r.limit_pairing!r}"
        )
    return lines
