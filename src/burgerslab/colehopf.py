"""Logarithmic transform of the heat trajectory and its verification layers.

Given a strictly positive heat trajectory Z driven by mollified noise, this
module forms H = log Z and U = ∇_h H and checks, realization by
realization, that U behaves like a weak solution of the conservative
Burgers dynamics

    ∂_t U = Δ_x U + ∇_x ‖U‖² + ∇_x Ẇⁿ.

Three layers of checks, in increasing depth:

* pointwise chain-rule consistency — ``laplacian_ratio_gap`` measures
  max |Δ_h Z / Z − (Δ_h H + ‖∇_h H‖²)| on a single slice, the discrete
  defect of the identity Δe^H/e^H = ΔH + ‖∇H‖² (zero in the continuum,
  O(dx²) on the lattice for smooth H);

* growth-equation residual — ``kpz_residual`` re-assembles the update of
  H step by step and reports per-step max norms of

      H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt ;

* weak-form identity — ``weak_residual_batch`` pairs U against smooth
  compactly supported space-time test functions and compares

      −⟨U, ∂_t φ⟩ − ⟨U, Δφ⟩ + ⟨‖U‖², ∇·φ⟩   (left-endpoint time sums)

  with the Itô pairing −Σ_k (∇·φ)(t_k)·ΔWⁿ_k dx^d, reporting the gap and,
  alongside, the same pairing against the raw (unmollified) increments —
  the candidate limit as the mollification scale grows.

``distributional_limit_1d`` tracks ⟨U_n, φ⟩ across a family of
trajectories driven by one shared base realization at increasing
mollification scales and reports the Cauchy differences of the sequence.
``lojasiewicz_section`` evaluates short-time sections ∫ ρ_ε(t) ⟨U_t, φ_x⟩ dt
through either side of the summation-by-parts identity
⟨∇_h H, φ⟩ = −⟨H, ∇_h·φ⟩, which holds exactly on the lattice.

All time integrals use left endpoints (the Itô convention), so stochastic
pairings and Lebesgue pairings discretize consistently; all spatial
pairings carry the cell volume dx^d.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from burgerslab.bank import TestFunction, bump, bump_d1
from burgerslab.heat import HeatSolution
from burgerslab.lattice import (
    ScalarField,
    TorusGrid,
    divergence_values,
    gradient_values,
    laplacian_values,
)
from burgerslab.noise import MollifiedNoise, _bump_constants

__all__ = [
    "ColeHopfTrajectory",
    "WeakResidualReport",
    "LimitSequence",
    "cole_hopf",
    "laplacian_ratio_gap",
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


@dataclass(frozen=True)
class ColeHopfTrajectory:
    """H = log Z for a positive heat trajectory; the passes below form U = ∇_h H."""

    source: HeatSolution
    log_values: np.ndarray = field(repr=False)

    @property
    def grid(self) -> TorusGrid:
        return self.source.grid

    @property
    def noise(self) -> MollifiedNoise:
        return self.source.noise


def cole_hopf(sol: HeatSolution) -> ColeHopfTrajectory:
    """Take H = log Z along the whole trajectory.

    Raises if any value fails to be finite and strictly positive (NaNs
    included), naming the first offending step and node.
    """
    values = sol.values
    with np.errstate(divide="ignore", invalid="ignore"):
        log_values = np.log(values)
    # H is finite exactly where Z is finite and positive.  Every finite H has
    # |H| < 750, so their sum cannot overflow: one sum tells whether any H is
    # not finite, without a mask the size of the stack.
    if not np.isfinite(np.sum(log_values)):
        bad = np.argwhere(~np.isfinite(log_values))[0]
        k, node = int(bad[0]), tuple(int(i) for i in bad[1:])
        raise ValueError(
            f"logarithmic transform needs finite Z > 0 everywhere; "
            f"Z at step {k}, node {node} is {float(values[tuple(bad)])!r}"
        )
    return ColeHopfTrajectory(source=sol, log_values=log_values)


def laplacian_ratio_gap(z_k: ScalarField, h_k: ScalarField) -> float:
    """max |Δ_h Z / Z − (Δ_h H + ‖∇_h H‖²)| for one slice with H = log Z."""
    if z_k.grid != h_k.grid:
        raise ValueError("slices live on different grids")
    if not np.all(z_k.values > 0.0):
        raise ValueError("Z slice must be strictly positive")
    scale = 1.0 + np.max(np.abs(h_k.values))
    if np.max(np.abs(h_k.values - np.log(z_k.values))) > 1e-10 * scale:
        raise ValueError("H slice is not the logarithm of the Z slice")
    dx = z_k.grid.dx
    ratio = laplacian_values(z_k.values, dx) / z_k.values
    grad = gradient_values(h_k.values, dx)
    chain = laplacian_values(h_k.values, dx) + np.sum(grad * grad, axis=0)
    return float(np.max(np.abs(ratio - chain)))


def _require_same_realization(traj: ColeHopfTrajectory, noise: MollifiedNoise) -> None:
    src = traj.noise
    if src is noise or src.increments is noise.increments:
        return
    if src.grid == noise.grid and np.array_equal(src.increments, noise.increments):
        return
    raise ValueError("the supplied noise is not the realization that drove this trajectory")


def kpz_residual(traj: ColeHopfTrajectory, noise: MollifiedNoise) -> np.ndarray:
    """Per-step max-norm defect of the discrete growth equation.

    Returns an array of length M whose k-th entry is

        max_x |H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt| .

    The trajectory and the noise must be the same realization.
    """
    if not isinstance(noise, MollifiedNoise):
        raise ValueError("kpz_residual compares against mollified increments")
    _require_same_realization(traj, noise)
    grid = traj.grid
    d, dt, dx, M = grid.d, grid.dt, grid.dx, grid.M
    comp = 0.5 * noise.lam**2 * noise.mollifier.c_n_discrete * dt
    sp_axes = tuple(range(1, d + 1))
    out = np.empty(M)
    H = traj.log_values
    for lo in range(0, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        h = H[lo:hi]
        grads = gradient_values(h, dx, d)
        normsq = np.zeros_like(h)
        for g in grads:
            normsq += g * g
        r = H[lo + 1 : hi + 1] - h
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


def weak_residual_batch(
    traj: ColeHopfTrajectory,
    phis: Sequence[TestFunction],
    noise: MollifiedNoise,
    base,
) -> list:
    """Weak-form reports for several test functions in one trajectory pass.

    The expensive part — forming U_k and its pairings — is shared across
    the bank, so verifying six test functions costs barely more than one.
    """
    if not isinstance(noise, MollifiedNoise):
        raise ValueError("weak_residual pairs against mollified increments")
    _require_same_realization(traj, noise)
    if base is not noise.base and not (
        base.grid == noise.base.grid and np.array_equal(base.increments, noise.base.increments)
    ):
        raise ValueError("base is not the realization underlying the mollified noise")
    if not phis:
        raise ValueError("need at least one test function")

    grid = traj.grid
    d, dt, dx, M = grid.d, grid.dt, grid.dx, grid.M
    vol = grid.cell_volume
    sp_axes = tuple(range(1, d + 1))
    amps = []
    tensors = []
    for phi in phis:
        phi.validate_on(grid)
        tensors.append(phi.spatial_tensors(grid))
        amps.append(np.asarray(phi.amplitudes).reshape((d,) + (1,) * d))

    n_phi = len(phis)
    A = np.zeros((n_phi, M))  # Σ_i (a·U)_i P_i
    B = np.zeros((n_phi, M))  # Σ_i (a·U)_i Q_i
    C = np.zeros((n_phi, M))  # Σ_i ‖U‖²_i D_i
    R = np.zeros((n_phi, M))  # Σ_i ΔWⁿ_i D_i
    Rb = np.zeros((n_phi, M))  # Σ_i ΔW_i D_i

    H = traj.log_values
    for lo in range(0, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        h = H[lo:hi]
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

    tk = dt * np.arange(M)
    reports = []
    for j, phi in enumerate(phis):
        u = (tk - phi.t_center) / phi.t_radius
        psi = bump(u)
        dpsi = bump_d1(u) / phi.t_radius
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


def _u_pairing_series(traj: ColeHopfTrajectory, phi: TestFunction) -> np.ndarray:
    """Σ_i (a·U_k)_i P_i for k = 0..M−1 (no dx^d factor)."""
    grid = traj.grid
    d, dx, M = grid.d, grid.dx, grid.M
    sp_axes = tuple(range(1, d + 1))
    P, _, _ = phi.spatial_tensors(grid)
    out = np.empty(M)
    H = traj.log_values
    for lo in range(0, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        grads = gradient_values(H[lo:hi], dx, d)
        au = np.zeros_like(H[lo:hi])
        for a in range(d):
            au += phi.amplitudes[a] * grads[a]
        out[lo:hi] = np.sum(au * P, axis=sp_axes)
    return out


@dataclass(frozen=True)
class LimitSequence:
    """Pairings ⟨U_n, φ⟩ across mollification scales plus Cauchy gaps."""

    scales: tuple
    pairings: tuple
    cauchy_gaps: tuple


def distributional_limit_1d(entries, phi: TestFunction) -> LimitSequence:
    """Track ⟨U_n, φ⟩_{space-time} across mollification scales in d = 1.

    ``entries`` is a sequence of (n, trajectory) pairs with strictly
    increasing scales; all trajectories must live on one grid and be
    driven by the same base realization (the scales are coupled).  Returns
    the pairing sequence and the absolute differences of consecutive
    terms.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise ValueError("need at least two scales to form Cauchy differences")
    scales = [int(n) for n, _ in entries]
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be strictly increasing, got {scales}")

    first = entries[0][1]
    if first.grid.d != 1:
        raise ValueError(f"this diagnostic is one-dimensional, got d={first.grid.d}")
    base = first.noise.base
    for n, traj in entries:
        if traj.grid != first.grid:
            raise ValueError("all trajectories must share one grid")
        if traj.noise.mollifier.scale_n != n:
            raise ValueError(
                f"entry labeled n={n} was mollified at "
                f"n={traj.noise.mollifier.scale_n}"
            )
        b = traj.noise.base
        if b is not base and not np.array_equal(b.increments, base.increments):
            raise ValueError("all trajectories must share one base realization")

    grid = first.grid
    tk = grid.dt * np.arange(grid.M)
    psi = bump((tk - phi.t_center) / phi.t_radius)
    pairings = []
    for _, traj in entries:
        series = _u_pairing_series(traj, phi)
        pairings.append(grid.cell_volume * grid.dt * float(np.sum(psi * series)))
    gaps = [abs(b - a) for a, b in zip(pairings, pairings[1:])]
    return LimitSequence(
        scales=tuple(scales), pairings=tuple(pairings), cauchy_gaps=tuple(gaps)
    )


def lojasiewicz_section(
    traj: ColeHopfTrajectory, phi: TestFunction, eps: float, via: str = "h"
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

    if via == "h":
        comps = np.asarray(phi.amplitudes).reshape((d,) + (1,) * d) * P
        div = divergence_values(comps, grid.dx)
        series = np.array(
            [-np.sum(traj.log_values[k] * div) for k in range(k_hi)]
        )
    else:
        series = _u_pairing_series(traj, phi)[:k_hi]
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
