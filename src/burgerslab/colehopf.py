"""The Cole–Hopf transform of the heat trajectory and its verification layers.

Given a strictly positive heat trajectory Z driven by mollified noise, the
passes of this module take H = log Z and U = ∇_h H and check, realization by
realization, that U behaves like a weak solution of the conservative
Burgers dynamics

    ∂_t U = Δ_x U + ∇_x ‖U‖² + ∇_x Ẇⁿ.

No stack of H is ever formed.  ``checked_log`` is the one place log Z is
taken: it maps a run of slices of Z to H and checks that every Z it reads
is finite and strictly positive.  ``cole_hopf`` feeds it a stored
``HeatSolution`` one time chunk at a time, for the passes below, the
sections (which read only the steps their window covers) and the harness's
heat oracle; the burgers study's stream feeds it each chunk straight from
the heat march, and no Z outlives its chunk there.  ``WeakPairings``
accumulates the weak-form pairings chunk by chunk from either source.  A
solution carries the noise that drove it, and the noise its base
realization, so a pass needs nothing else.

Two layers of checks, in increasing depth:

* growth-equation residual — ``kpz_residual`` re-assembles the update of
  H step by step and reports per-step max norms of

      H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt ,

  which also carries the lattice defect of the chain rule
  Δe^H/e^H = ΔH + ‖∇H‖² (zero in the continuum, O(dx²) for smooth H);

* weak-form identity — ``WeakPairings`` pairs U against smooth
  compactly supported space-time test functions and compares

      −⟨U, ∂_t φ⟩ − ⟨U, Δφ⟩ + ⟨‖U‖², ∇·φ⟩   (left-endpoint time sums)

  with the Itô pairing −Σ_k (∇·φ)(t_k)·ΔWⁿ_k dx^d, reporting the gap and,
  alongside, the same pairing against the raw (unmollified) increments —
  the candidate limit as the mollification scale grows.

``distributional_limit_1d`` tracks ⟨U_n, φ⟩ for each φ of a bank across a
family of trajectories driven by one shared base realization at increasing
mollification scales, and reports the Cauchy differences of each sequence.

Both contract each φ only over its support (``TestFunction.support``): the
window of steps where its time factor lives and the spatial box around its
centre, split at the periodic seam into basic slices.  The terms linear in
U are paired with H itself, through the summation-by-parts identity
⟨a·∇_h H, P⟩ = ⟨H, −∇_h·(aP)⟩ and likewise for Q, which holds exactly on
the lattice; the duals −∇_h·(aP) and −∇_h·(aQ) are cached with the bank.
So the Cauchy column takes no gradient at all, and the weak pass forms only
‖∇_h H‖², once per chunk for the whole bank.
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
from burgerslab.lattice import gradient_norm_sq, gradient_values, laplacian_values
from burgerslab.noise import _bump_constants

__all__ = [
    "WeakResidualReport",
    "WeakPairings",
    "LimitSequence",
    "chunk_steps",
    "checked_log",
    "cole_hopf",
    "kpz_residual",
    "weak_residual_batch",
    "distributional_limit_1d",
    "lojasiewicz_section",
    "weak_residual_csv_lines",
]

# Time chunks of the passes over a trajectory: a chunk of N^d slices holds
# at most _CHUNK_BYTES (8 MiB, 256 steps of a 2-D N=64 grid) and at most
# _CHUNK steps, so its stencil temporaries stay a few chunk-sized arrays in
# any dimension.
_CHUNK = 256
_CHUNK_BYTES = 1 << 23


def chunk_steps(grid) -> int:
    """Steps per time chunk on ``grid``: the byte budget, capped at _CHUNK."""
    return max(1, min(_CHUNK, _CHUNK_BYTES // (grid.num_nodes * 8)))


def checked_log(values: np.ndarray, first_step: int) -> np.ndarray:
    """H = log Z of consecutive slices of Z, the first at step ``first_step``.

    The one place log Z is taken.  Raises if a value of Z fails to be
    finite and strictly positive (NaNs included), naming the first
    offending step, counted from 0, and node.
    """
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
            f"Z at step {first_step + k}, node {node} is {float(values[tuple(bad)])!r}"
        )
    return H


def cole_hopf(sol: HeatSolution, chunk: int | None = None):
    """Yield (lo, hi, H) per time chunk, H = log Z at steps lo .. hi inclusive.

    H holds one slice past the chunk, for the update H_{k+1} − H_k; no
    stack of H outlives its chunk.  ``chunk`` defaults to `chunk_steps`.
    Every slice goes through `checked_log`.
    """
    M = sol.grid.M
    chunk = chunk or chunk_steps(sol.grid)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        yield lo, hi, checked_log(sol.values[lo : hi + 1], lo)


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
        r = H[1:] - h
        r -= dt * (laplacian_values(h, dx, d) + gradient_norm_sq(h, dx, d))
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


def _box_sum(stack: np.ndarray, tensor: np.ndarray, box) -> np.ndarray:
    """Σ over the box of stack·tensor, one value per leading index of ``stack``.

    ``box`` is a φ's tuple of pieces (``TestFunction.support``); each piece
    is a tuple of basic slices, so no piece copies more than its product.
    """
    sp_axes = tuple(range(1, tensor.ndim + 1))
    out = np.zeros(stack.shape[0])
    for piece in box:
        out += np.sum(stack[(slice(None),) + piece] * tensor[piece], axis=sp_axes)
    return out


class WeakPairings:
    """The weak-form pairings of a bank, accumulated one time chunk at a time.

    ``add`` takes a chunk of H with the mollified and base increments that
    drove it and contracts each φ only over its window and box; the
    pairings linear in U are taken as ⟨H, −∇_h·(aP)⟩ and ⟨H, −∇_h·(aQ)⟩, so
    only ‖∇_h H‖² needs a gradient, formed once per chunk for the whole
    bank.  Each step's sums are kept, and ``reports`` weights them with the
    time profiles, so the reports do not depend on how the steps were
    chunked.
    """

    def __init__(self, grid, phis: Sequence[TestFunction]):
        if not phis:
            raise ValueError("need at least one test function")
        for phi in phis:
            phi.validate_on(grid)
        self.grid = grid
        self.phis = list(phis)
        self.supports = [phi.support(grid) for phi in phis]
        self.tensors = [(*phi.duals(grid), phi.spatial_tensors(grid)[1]) for phi in phis]
        self.first = min(window.start for window, _ in self.supports)
        self.last = max(window.stop for window, _ in self.supports)
        shape = (len(phis), grid.M)
        self.A = np.zeros(shape)  # Σ_i H_i (−∇_h·(aP))_i = Σ_i (a·U)_i P_i
        self.B = np.zeros(shape)  # Σ_i H_i (−∇_h·(aQ))_i = Σ_i (a·U)_i Q_i
        self.C = np.zeros(shape)  # Σ_i ‖U‖²_i D_i
        self.R = np.zeros(shape)  # Σ_i ΔWⁿ_i D_i
        self.Rb = np.zeros(shape)  # Σ_i ΔW_i D_i

    def add(self, lo: int, hi: int, H: np.ndarray, dwn: np.ndarray, dw: np.ndarray) -> None:
        """Pair steps lo .. hi − 1: H, ΔWⁿ and ΔW hold those steps from row 0."""
        grid = self.grid
        s0, s1 = max(lo, self.first), min(hi, self.last)
        if s0 >= s1:
            return
        normsq = gradient_norm_sq(H[s0 - lo : s1 - lo], grid.dx, grid.d)
        for j, ((window, box), (dual_p, dual_q, D)) in enumerate(zip(self.supports, self.tensors)):
            a, b = max(s0, window.start), min(s1, window.stop)
            if a >= b:
                continue
            h = H[a - lo : b - lo]
            self.A[j, a:b] = _box_sum(h, dual_p, box)
            self.B[j, a:b] = _box_sum(h, dual_q, box)
            self.C[j, a:b] = _box_sum(normsq[a - s0 : b - s0], D, box)
            self.R[j, a:b] = _box_sum(dwn[a - lo : b - lo], D, box)
            self.Rb[j, a:b] = _box_sum(dw[a - lo : b - lo], D, box)

    def reports(self, n: int, seed: int, lam: float) -> list:
        """One WeakResidualReport per φ, for mollifier scale n, seed and λ."""
        grid = self.grid
        vol, dt = grid.cell_volume, grid.dt
        reports = []
        for j, (phi, (w, _)) in enumerate(zip(self.phis, self.supports)):
            psi, dpsi = (f[w] for f in phi.time_profile(grid))
            a_, b_, c_ = self.A[j, w], self.B[j, w], self.C[j, w]
            lhs = vol * dt * float(np.sum(-dpsi * a_ - psi * b_ + psi * c_))
            rhs = -vol * float(np.sum(psi * self.R[j, w]))
            limit = -vol * float(np.sum(psi * self.Rb[j, w]))
            scale = vol * dt * float(
                np.sum(np.abs(dpsi * a_) + np.abs(psi * b_) + np.abs(psi * c_))
            )
            reports.append(
                WeakResidualReport(
                    phi_id=phi.id,
                    lhs=lhs,
                    rhs=rhs,
                    gap=abs(lhs - rhs),
                    limit_pairing=limit,
                    d=grid.d,
                    N=grid.N,
                    M=grid.M,
                    n=n,
                    seed=seed,
                    lam=lam,
                    scale=scale,
                )
            )
        return reports


def weak_residual_batch(traj: HeatSolution, phis: Sequence[TestFunction]) -> list:
    """Weak-form reports for several test functions in one trajectory pass.

    `WeakPairings` fed from `cole_hopf`: the rhs pairs against the mollified
    increments that drove ``traj``, the limit pairing against their base
    realization.
    """
    noise = traj.noise
    base = noise.base
    pairings = WeakPairings(traj.grid, phis)
    for lo, hi, H in cole_hopf(traj):
        pairings.add(lo, hi, H, noise.increments[lo:hi], base.increments[lo:hi])
    return pairings.reports(noise.mollifier.scale_n, base.seed, noise.lam)


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
    pairing is ⟨H, −∇_h·(aP)⟩ on φ's window and box, so no gradient is
    formed.
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

    supports = [phi.support(grid) for phi in phis]
    duals = [phi.duals(grid)[0] for phi in phis]
    psis = [phi.time_profile(grid)[0][window] for phi, (window, _) in zip(phis, supports)]
    pairings = [[] for _ in phis]
    for traj in entries:
        series = np.zeros((len(phis), grid.M))
        for lo, hi, H in cole_hopf(traj):
            for j, ((window, box), dual) in enumerate(zip(supports, duals)):
                a, b = max(lo, window.start), min(hi, window.stop)
                if a < b:
                    series[j, a:b] = _box_sum(H[a - lo : b - lo], dual, box)
        for j, (psi, (window, _)) in enumerate(zip(psis, supports)):
            pairings[j].append(
                grid.cell_volume * grid.dt * float(np.sum(psi * series[j, window]))
            )
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
    k_hi = min(grid.M, int(np.ceil(2.0 * eps / grid.dt)))
    tk = grid.dt * np.arange(k_hi)
    weights = _bump_constants(1)[0] * bump(tk / eps - 1.0) / eps

    # one chunk of k_hi steps covers the window; asking the generator for
    # the next chunk would take and check the log of steps the section
    # never reads
    _, _, H = next(cole_hopf(traj, k_hi))
    h = H[:k_hi]
    if via == "h":
        dual = phi.duals(grid)[0]
        series = np.array([np.sum(h[k] * dual) for k in range(k_hi)])
    else:
        grads = gradient_values(h, grid.dx, d)
        au = np.zeros_like(h)
        for a in range(d):
            au += phi.amplitudes[a] * grads[a]
        series = np.sum(au * phi.spatial_tensors(grid)[0], axis=tuple(range(1, d + 1)))
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
