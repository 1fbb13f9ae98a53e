"""The Cole–Hopf transform of the heat trajectory and its verification layers.

Given a strictly positive heat trajectory Z driven by mollified noise, the
passes of this module take H = log Z and U = ∇_h H and check, realization by
realization, that U behaves like a weak solution of the conservative
Burgers dynamics

    ∂_t U = Δ_x U + ∇_x ‖U‖² + ∇_x Ẇⁿ.

No stack of H is ever formed.  ``checked_log`` is the one place log Z is
taken: it maps a run of slices of Z to H and checks that every Z it reads
is finite and strictly positive.  The weak pass (``WeakPairings``) takes
chunks of Z, logs each into one buffer of its own and hands back the H it
paired; ``cole_hopf`` logs a stored ``HeatSolution`` one time chunk at a
time for the other passes over a whole trajectory; a section logs only the
steps its window covers, in one `checked_log`.  The studies that stream
(`heat.stream`) feed the weak pass each chunk straight from the march, and
no Z outlives its chunk there; ``kpz_pass`` takes its H from either
source.  A solution carries the noise that drove it, and the noise its
base realization, so a pass needs nothing else.

Two layers of checks, in increasing depth:

* growth-equation residual — ``kpz_pass`` re-assembles the update of H
  step by step over one chunk after another through one stencil and one set
  of buffers, and ``kpz_residual`` over a stored trajectory, reporting
  per-step max norms of

      H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt ,

  which also carries the lattice defect of the chain rule
  Δe^H/e^H = ΔH + ‖∇H‖² (zero in the continuum, O(dx²) for smooth H);

* weak-form identity — ``WeakPairings`` pairs U against smooth
  compactly supported space-time test functions and compares

      −⟨U, ∂_t φ⟩ − ⟨U, Δφ⟩ + ⟨‖U‖², ∇·φ⟩   (left-endpoint time sums)

  with the Itô pairing −Σ_k (∇·φ)(t_k)·ΔWⁿ_k dx^d, reporting the gap and,
  alongside, the same pairing against the raw (unmollified) increments —
  the candidate limit as the mollification scale grows.

The weak pass (``WeakPairings``) is the one place a space-time φ meets a
trajectory, and only over its support (``TestFunction.support``): the
window of steps where its time factor lives and the spatial box around its
centre, split at the periodic seam into basic slices.  The terms linear in
U are paired with H itself, through the summation-by-parts identity
⟨a·∇_h H, P⟩ = ⟨H, −∇_h·(aP)⟩ and likewise for Q, which holds exactly on
the lattice; the duals −∇_h·(aP) and −∇_h·(aQ) are cached with the bank.
So the pass forms only ‖∇_h H‖², once per chunk for the whole bank, and
its reports carry the space-time pairing ⟨U, φ⟩ = ⟨a·U, P⟩ that
``distributional_limit_1d`` reads across trajectories driven by one shared
base realization at increasing mollification scales, in any d, to report
the Cauchy differences of each φ's sequence without a log or a contraction
of its own.
``lojasiewicz_section`` evaluates short-time sections ∫ ρ_ε(t) ⟨U_t, φ_x⟩ dt
through either side of the summation-by-parts identity
⟨∇_h H, φ⟩ = −⟨H, ∇_h·φ⟩, which holds exactly on the lattice.

All time integrals use left endpoints (the Itô convention), so stochastic
pairings and Lebesgue pairings discretize consistently; all spatial
pairings carry the cell volume dx^d.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from burgerslab.bank import BUMP_CONSTANTS, TestFunction, bump
from burgerslab.heat import HeatSolution, compensator
from burgerslab.lattice import block_steps, chunk_steps, gradient_norm_sq, gradient_values
from burgerslab.lattice import padded_laplacian

__all__ = [
    "WeakResidualReport",
    "WeakPairings",
    "LimitSequence",
    "checked_log",
    "cole_hopf",
    "kpz_pass",
    "kpz_residual",
    "weak_residual_batch",
    "distributional_limit_1d",
    "lojasiewicz_section",
]

def checked_log(values: np.ndarray, first_step: int, out: np.ndarray | None = None) -> np.ndarray:
    """H = log Z of consecutive slices of Z, the first at step ``first_step``.

    The one place log Z is taken, into ``out`` (``values``' shape) when it
    is given.  Raises if a value of Z fails to be finite and strictly
    positive (NaNs included), naming the first offending step, counted
    from 0, and node.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        H = np.log(values, out=out)
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
    stack of H outlives its chunk.  ``chunk`` defaults to `lattice.chunk_steps`.
    Every slice goes through `checked_log`.
    """
    M = sol.grid.M
    chunk = chunk or chunk_steps(sol.grid)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        yield lo, hi, checked_log(sol.values[lo : hi + 1], lo)


def kpz_pass(grid, compensated: float):
    """``residuals(H, increments)``: the growth equation's defect, one chunk after another.

    ``H`` holds log Z at steps lo .. hi, one slice past the chunk, and
    ``increments`` the ΔWⁿ of steps lo .. hi − 1 with ``compensated`` their
    ½λ²c_n dt; entry k of the result is

        max_x |H_{k+1} − H_k − dt (Δ_h H_k + ‖∇_h H_k‖²) − ΔWⁿ_k + ½λ²c_n dt| ,

    formed in that order.  The stencil and the buffers are built for the
    first chunk's shape and serve every later chunk of that shape; a chunk
    of another shape, such as a short last one, replaces them, so each
    chunk's residuals keep their bits.
    """
    d, dx = grid.d, grid.dx
    built = None

    def residuals(H: np.ndarray, increments: np.ndarray) -> np.ndarray:
        nonlocal built
        h = H[:-1]
        if built is None or built[0].shape != h.shape:
            core, _, _, laplacian = padded_laplacian(h.shape, dx, d)
            comp = np.empty((min(len(h), block_steps(grid)),) + grid.shape) if d > 1 else None
            built = core, laplacian, np.empty(h.shape), np.empty(h.shape), comp
        core, laplacian, r, total, comp = built
        core[...] = h
        np.add(laplacian(), gradient_norm_sq(h, dx, d, total, comp), total)
        np.multiply(grid.dt, total, total)
        np.subtract(H[1:], h, r)
        r -= total
        r -= increments
        r += compensated
        return np.max(np.abs(r, r), axis=tuple(range(1, d + 1)))

    return residuals


def kpz_residual(traj: HeatSolution) -> np.ndarray:
    """`kpz_pass` over all M steps of a stored trajectory and the noise that drove it."""
    noise = traj.noise
    grid = traj.grid
    residuals = kpz_pass(grid, compensator(noise.lam, noise.mollifier, grid.dt))
    out = np.empty(grid.M)
    for lo, hi, H in cole_hopf(traj):
        out[lo:hi] = residuals(H, noise.increments[lo:hi])
    return out


# ---------------------------------------------------------------------------
# weak-form pairings


@dataclass(frozen=True)
class WeakResidualReport:
    """One weak-form comparison for a single test function.

    ``lhs`` collects the deterministic pairings of U, ``rhs`` the Itô
    pairing against the mollified increments, ``gap`` their absolute
    difference, and ``limit_pairing`` the same Itô pairing against the raw
    base increments (the mollification-free limit candidate).  ``pairing``
    is the space-time pairing ⟨U, φ⟩ = ⟨a·U, P⟩ that the Cauchy column of
    `distributional_limit_1d` tracks across scales.  ``scale`` is
    the triangle-inequality mass of the lhs terms before cancellation — the
    natural yardstick for the gap when the rhs is exactly zero (λ = 0).
    The remaining fields echo the configuration for reporting.
    """

    phi_id: str
    lhs: float
    rhs: float
    gap: float
    limit_pairing: float
    pairing: float
    d: int
    N: int
    M: int
    n: int
    seed: int
    lam: float
    scale: float = 0.0


def _box_sum(stack: np.ndarray, tensor: np.ndarray, box, spare: np.ndarray) -> np.ndarray:
    """Σ over the box of stack·tensor, one value per leading index of ``stack``.

    ``box`` is a φ's tuple of pieces (``TestFunction.support``); each piece
    is a tuple of basic slices, so no piece copies more than its product,
    which is formed in the head of the flat buffer ``spare``.  The sums are
    ``np.add.reduce``, the bits of ``np.sum`` without its Python wrapper.
    """
    sp_axes = tuple(range(1, tensor.ndim + 1))
    out = np.zeros(stack.shape[0])
    for piece in box:
        part = stack[(slice(None),) + piece]
        product = spare[: part.size].reshape(part.shape)
        np.multiply(part, tensor[piece], out=product)
        out += np.add.reduce(product, axis=sp_axes)
    return out


class WeakPairings:
    """The weak-form pairings of a bank for a batch of members, one time chunk at a time.

    The members are trajectories on one grid driven by one base
    realization, say its mollification scales.  ``add_base`` pairs a chunk
    of the base increments, once for the whole batch, so every member
    reports the same limit pairing.  ``add`` takes a chunk of one member's
    Z with the mollified increments that drove it, logs it through
    `checked_log` and contracts each φ only over its window and box; the
    pairings linear in U are taken as ⟨H, −∇_h·(aP)⟩ and ⟨H, −∇_h·(aQ)⟩, so
    only ‖∇_h H‖² needs a gradient, formed once per chunk and member for the
    whole bank.  It returns that H, valid until the next call, for a caller
    that reads H too, such as a growth residual.  The members are
    paired in turn through one set of buffers, allocated at the first
    chunk, reused by every later one of at most that many steps, and freed
    by ``reports``: one member's H and ‖∇_h H‖² exist at a time, where
    contracting every member in each box sum would save calls but hold S
    of each.  Each step's sums are kept, and ``reports`` weights
    them with the time profiles, so the reports do not depend on how the
    steps were chunked.
    """

    def __init__(self, grid, phis: Sequence[TestFunction], members: int = 1):
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
        # one array of each sum per member: numpy backs an array of 4 MiB or
        # more with huge pages, so one array for the batch would be made
        # resident whole by its first write, not only on each φ's window.
        # Per member (A, B, C, R): Σ_i H_i (−∇_h·(aP))_i, Σ_i H_i (−∇_h·(aQ))_i,
        # Σ_i ‖U‖²_i D_i and Σ_i ΔWⁿ_i D_i
        shape = (len(phis), grid.M)
        self.sums = [tuple(np.zeros(shape) for _ in range(4)) for _ in range(members)]
        self.Rb = np.zeros(shape)  # Σ_i ΔW_i D_i, shared by the members
        self._buffers = {}
        self._box = max(math.prod(len(range(grid.N)[part]) for part in piece)
                        for _, pieces in self.supports for piece in pieces)

    def _buffer(self, name: str, size: int) -> np.ndarray:
        """The flat buffer ``name`` of at least ``size`` values."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer

    def _windows(self, lo: int, hi: int):
        """(j, a, b, box, tensors) of each φ whose window meets steps lo .. hi − 1."""
        for j, ((window, box), tensors) in enumerate(zip(self.supports, self.tensors)):
            a, b = max(lo, window.start), min(hi, window.stop)
            if a < b:
                yield j, a, b, box, tensors

    def _spare(self, steps: int) -> np.ndarray:
        """The scratch of the box products and of ‖∇_h H‖²'s further components."""
        grid = self.grid
        rows = min(steps, block_steps(grid))
        return self._buffer("scratch", max(steps * self._box, rows * grid.num_nodes * (grid.d > 1)))

    def add_base(self, lo: int, hi: int, dw: np.ndarray) -> None:
        """Pair the base ΔW of steps lo .. hi − 1, held from row 0, once for every member."""
        spare = self._spare(hi - lo)
        for j, a, b, box, (_, _, D) in self._windows(lo, hi):
            self.Rb[j, a:b] = _box_sum(dw[a - lo : b - lo], D, box, spare)

    def add(self, lo: int, hi: int, Z: np.ndarray, dwn: np.ndarray, member: int = 0) -> np.ndarray:
        """Pair steps lo .. hi − 1 of ``member``, held from row 0 of Z and ΔWⁿ; return H = log Z."""
        grid = self.grid
        H = checked_log(Z, lo, self._buffer("log", Z.size)[: Z.size].reshape(Z.shape))
        s0, s1 = max(lo, self.first), min(hi, self.last)
        if s0 >= s1:
            return H
        # ‖∇_h H‖², its further components a block of rows at a time, then
        # each box product in one scratch
        steps, nodes = hi - lo, grid.num_nodes
        spare = self._spare(steps)
        rows = min(steps, block_steps(grid))
        comp = spare[: rows * nodes].reshape((rows,) + grid.shape) if grid.d > 1 else None
        normsq = self._buffer("normsq", steps * nodes)[: (s1 - s0) * nodes]
        normsq = gradient_norm_sq(H[s0 - lo : s1 - lo], grid.dx, grid.d,
                                  normsq.reshape((s1 - s0,) + grid.shape), comp)
        A, B, C, R = self.sums[member]
        for j, a, b, box, (dual_p, dual_q, D) in self._windows(s0, s1):
            h = H[a - lo : b - lo]
            A[j, a:b] = _box_sum(h, dual_p, box, spare)
            B[j, a:b] = _box_sum(h, dual_q, box, spare)
            C[j, a:b] = _box_sum(normsq[a - s0 : b - s0], D, box, spare)
            R[j, a:b] = _box_sum(dwn[a - lo : b - lo], D, box, spare)
        return H

    def reports(self, n: int, seed: int, lam: float, member: int = 0) -> list:
        """One WeakResidualReport per φ of ``member``, at scale n; frees the chunk buffers."""
        self._buffers.clear()
        grid = self.grid
        vol, dt = grid.cell_volume, grid.dt
        A, B, C, R = self.sums[member]
        reports = []
        for j, (phi, (w, _)) in enumerate(zip(self.phis, self.supports)):
            psi, dpsi = (f[w] for f in phi.time_profile(grid))
            a_, b_, c_ = A[j, w], B[j, w], C[j, w]
            lhs = vol * dt * float(np.sum(-dpsi * a_ - psi * b_ + psi * c_))
            rhs = -vol * float(np.sum(psi * R[j, w]))
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
                    pairing=vol * dt * float(np.sum(psi * a_)),
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

    `WeakPairings` fed ``traj``'s Z one `lattice.chunk_steps` chunk at a
    time: the rhs pairs against the mollified increments that drove
    ``traj``, the limit pairing against their base realization.
    """
    noise = traj.noise
    base = noise.base
    M, chunk = traj.grid.M, chunk_steps(traj.grid)
    pairings = WeakPairings(traj.grid, phis)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        pairings.add_base(lo, hi, base.increments[lo:hi])
        pairings.add(lo, hi, traj.values[lo : hi + 1], noise.increments[lo:hi])
    return pairings.reports(noise.mollifier.scale_n, base.seed, noise.lam)


@dataclass(frozen=True)
class LimitSequence:
    """Pairings ⟨U_n, φ⟩ across mollification scales plus Cauchy gaps."""

    scales: tuple
    pairings: tuple
    cauchy_gaps: tuple


def distributional_limit_1d(entries) -> list:
    """Track ⟨U_n, φ⟩_{space-time} across mollification scales in any d.

    ``entries`` holds one list of weak reports per trajectory
    (`weak_residual_batch`, `WeakPairings.reports`), each for one bank in
    one order, with mollification scales ``n`` strictly increasing; all
    must come from one grid and one base realization (the scales are
    coupled).  Returns one LimitSequence per test function: the sequence
    of each report's ``pairing`` and the absolute differences of
    consecutive terms.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise ValueError("need at least two scales to form Cauchy differences")
    if not entries[0]:
        raise ValueError("need at least one test function")
    r0 = entries[0][0]
    ids = [r.phi_id for r in entries[0]]
    for reports in entries:
        if [r.phi_id for r in reports] != ids:
            raise ValueError(f"all entries must report one bank, {ids} in this order")
        for r in reports:
            if (r.d, r.N, r.M) != (r0.d, r0.N, r0.M):
                raise ValueError("all trajectories must share one grid")
            if (r.seed, r.lam) != (r0.seed, r0.lam):
                raise ValueError("all trajectories must share one base realization")
    scales = [reports[0].n for reports in entries]
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be strictly increasing, got {scales}")
    pairings = [tuple(r.pairing for r in column) for column in zip(*entries)]
    return [
        LimitSequence(
            scales=tuple(scales),
            pairings=p,
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
    weights = BUMP_CONSTANTS[1][0] * bump(tk / eps - 1.0) / eps

    h = checked_log(traj.values[: k_hi + 1], 0)[:k_hi]
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
