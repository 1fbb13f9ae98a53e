"""Positivity-preserving Itô scheme for the regularized stochastic heat equation.

The trajectory Z solves, on the periodic lattice,

    dZ = Δ_x Z dt + Z dW^n   (Itô),      Z(0, ·) = exp(f),

with W^n the mollified noise of the `noise` module.  One step of the scheme
is an explicit heat update followed by a geometric noise factor:

    Z_{k+1} = (Z_k + dt · Δ_h Z_k) · exp(ΔW^n_k − ½ λ² c_n dt).

Under the parabolic constraint dt ≤ dx²/(2d) the bracket is a convex
combination of strictly positive values and the exponential factor is
strictly positive, so positivity — which the Cole-Hopf transform log Z
needs unconditionally — is guaranteed step by step.

The compensator uses c_n = c_n_discrete, the variance constant the sampled
noise actually has, so the exponential factor has mean exactly one:

    E[exp(ΔW^n − ½ λ² c_n dt)] = 1    since  Var(ΔW^n) = λ² c_n dt.

That choice removes any dx-dependent drift bias from the weak dynamics and
is precisely what makes the discrete KPZ-form identity of the `colehopf`
module hold without a spurious constant.

The scheme is linear in Z (the noise factor is a state-independent
multiplier), explicit in time, and deterministic given the realization.

`marcher` builds the one time march.  It advances a batch in place through
one chunk of steps: realizations that share the grid and the start Z₀ (say
the mollification scales of one base noise) step together as one (S,) +
grid stack.  The march is bound by numpy's cost per call, not by data (a
1-D batch is at most a few hundred doubles), so a step is as few calls as
the bits allow: the march's block is padded and time-major, (K+1, S) +
(N+2)^d, and step k fills row k's one-node halo with the periodic
neighbours, takes the whole batch's Laplacian from flat views of that row
(`lattice.laplacian_calls`, the stencil `laplacian_values` also runs), then
·dt and +Z on the same flat run, and writes its product with the noise
factor straight into row k + 1.  Every view, the stencil's runs and the
noise-factor run are built once, when the march is built, and serve every
chunk.  It forms the noise factors of a short run of steps at a time and
checks the finished chunk for finite, strictly positive Z (with two
reductions, no mask), so a numerical breakdown is reported at its step and
node, and stops the chunk loop, instead of after all M steps.

`stream` is the one chunk loop of the studies that keep no trajectory: it
draws, block-sums, mollifies and marches a coupled ladder of batches one
chunk at a time and yields each checked chunk.  `solve_heat` marches a
whole stored (M+1)-slice stack for the readers of a whole trajectory.
Every operation of the per-step update is elementwise and kept in the
order written above, so a batched, chunked or streamed trajectory equals
the single march bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from burgerslab.lattice import ScalarField, TorusGrid, along, block_steps, chunk_steps
from burgerslab.lattice import interior_run, laplacian_calls
from burgerslab.lattice import is_integer, real
# Unused here.  perfbench/tracing.py resolves its lattice.laplacian_values
# target through this module, and perfbench/test_perfbench.py expects no
# target but its own renamed one to be missing; the binding goes when that
# target does.
from burgerslab.lattice import laplacian_values  # noqa: F401
from burgerslab.noise import Mollifier, MollifiedNoise, block_sum, draw_chunks
from burgerslab.noise import mollifying

__all__ = [
    "HeatSolution",
    "initial_zero",
    "initial_cosine",
    "initial_gaussian_bump",
    "make_initial",
    "compensator",
    "marcher",
    "stream",
    "solve_heat",
    "stability_check",
]


def initial_zero(grid: TorusGrid) -> ScalarField:
    """f ≡ 0, i.e. Z(0, ·) ≡ 1."""
    return ScalarField(grid, np.zeros(grid.shape))


def initial_cosine(grid: TorusGrid, a: float, k: int = 1) -> ScalarField:
    """f(x) = a · cos(2π k x₁ / L): a single Fourier mode along the first axis."""
    x = grid.axis_coords()
    profile = a * np.cos(2.0 * np.pi * k * x / grid.L)
    values = np.broadcast_to(along(profile, 0, grid.d), grid.shape).copy()
    return ScalarField(grid, values)


def initial_gaussian_bump(
    grid: TorusGrid, a: float, w: float, center: Sequence[float] | float
) -> ScalarField:
    """f(x) = a · Π_axis S_w(x_axis − c_axis): a periodized Gaussian bump.

    Each factor sums the five nearest periodic images, so the preset is
    smooth on the torus (no cut-locus kink) to machine precision for any
    width w ≤ L/4.
    """
    if not (0 < w <= grid.L / 4):
        raise ValueError(f"bump width must lie in (0, L/4], got {w}")
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.shape != (grid.d,):
        raise ValueError(f"center must have {grid.d} components, got {c.shape}")
    x = grid.axis_coords()
    values = np.full(grid.shape, a)
    for axis in range(grid.d):
        u = x - c[axis]
        factor = np.zeros(grid.N)
        for image in (-2, -1, 0, 1, 2):
            shifted = u + image * grid.L
            factor += np.exp(-(shifted * shifted) / (2.0 * w * w))
        values = values * along(factor, axis, grid.d)
    return ScalarField(grid, values)


_PARAMS_READ = {"zero": (), "cosine": ("a", "k"), "gaussian-bump": ("a", "w", "center")}
_PARAMS_NEEDED = {"zero": (), "cosine": ("a",), "gaussian-bump": ("a", "w")}


def make_initial(grid: TorusGrid, kind: str, params: dict) -> ScalarField:
    """Build a preset by name — the config-file entry point; no param is converted or ignored.

    Every preset is a smooth, bounded ScalarField f, so the start exp(f) is > 0.
    """
    reads = _PARAMS_READ.get(kind) if isinstance(kind, str) else None
    if reads is None:
        raise ValueError(f"unknown initial-data preset {kind!r}")
    unknown = set(params) - set(reads)
    if unknown:
        raise ValueError(f"unknown params {sorted(unknown)}; the {kind} preset reads {list(reads)}")
    for name in _PARAMS_NEEDED[kind]:
        if name not in params:
            raise ValueError(f"the {kind} preset needs param {name!r}")
    if kind == "zero":
        return initial_zero(grid)
    if kind == "cosine":
        k = params.get("k", 1)
        if not is_integer(k):
            raise ValueError(f"k must be an integer, got {k!r}")
        return initial_cosine(grid, a=real("a", params["a"]), k=int(k))
    center = params.get("center", [grid.L / 2] * grid.d)
    return initial_gaussian_bump(
        grid,
        a=real("a", params["a"]),
        w=real("w", params["w"]),
        center=[real("center", c) for c in
                (center if isinstance(center, (list, tuple)) else [center])],
    )


def stability_check(grid: TorusGrid) -> float:
    """Stability margin 1 − 2d·dt/dx² of the explicit heat step.

    Nonnegative means the update bracket is a convex combination (the scheme
    preserves positivity); negative means the configuration is rejected.
    """
    return 1.0 - 2.0 * grid.d * grid.dt / (grid.dx * grid.dx)


@dataclass(frozen=True)
class HeatSolution:
    """Full trajectory of the heat scheme with the noise that drove it.

    `values` stacks the M+1 time slices, shape (M+1,) + grid.shape, each
    checked by the march to be finite and strictly positive, and
    `noise.base` is the realization underneath.  Only the readers of a
    whole trajectory build one: section, fk-check, converge's flat run and
    grid-scale reference; the other studies `stream`.
    """

    grid: TorusGrid
    noise: MollifiedNoise
    values: np.ndarray = field(repr=False)


def compensator(lam: float, m: Mollifier, dt: float) -> float:
    """The Itô compensator ½λ²c_n dt of one step, with c_n = c_n_discrete."""
    return 0.5 * lam * lam * m.c_n_discrete * dt


def _check_chunk(
    block: np.ndarray,
    first_step: int,
    increments: Sequence,
    compensated: Sequence,
    grid: TorusGrid,
) -> None:
    """Raise at the first step and node where a chunk of Z is not finite and > 0.

    ``block`` has shape (K, S) + grid and holds steps first_step ..
    first_step + K − 1, and ``increments[s]`` holds member s's ΔWⁿ from
    first_step on; the first chunk includes the start Z₀ = exp(f), which
    overflows for a large enough f.  The test is two reductions (a NaN
    makes the minimum NaN), so a healthy chunk allocates no mask.  Only a
    failing chunk forms the message's extra numbers: the noise factor
    exp(ΔWⁿ − ½λ²c_n dt) that carried Z into that step at that node, and the
    stability margin of the grid.
    """
    if block.min() > 0.0 and block.max() < np.inf:
        return
    bad = np.argwhere(~((block > 0.0) & (block < np.inf)))[0]
    k, s, node = int(bad[0]), int(bad[1]), tuple(int(i) for i in bad[2:])
    step = first_step + k
    member = f" of batch member {s}" if block.shape[1] > 1 else ""
    if step == 0:
        factor = "none (the start exp(f))"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            factor = repr(float(np.exp(increments[s][(k - 1,) + node] - compensated[s])))
    raise ValueError(
        f"heat march needs finite Z > 0 everywhere (noise factor into that "
        f"step and node exp(ΔWⁿ − ½λ²c_n dt) = {factor}, stability margin "
        f"1 − 2d·dt/dx² = {stability_check(grid)!r}); Z{member} at "
        f"step {step}, node {node} is {float(block[(k, s) + node])!r}"
    )


def marcher(grid: TorusGrid, members: int, steps: int):
    """The time march of a batch of ``members`` on ``grid``, chunks of at most ``steps`` steps.

    Returns ``(Z, march)``.  ``Z`` is the (S, steps + 1) + grid interior
    of the march's block, member first.  ``march(K, increments,
    compensated, first_step)`` advances the batch through one chunk of
    K ≤ ``steps`` steps in place: ``Z[:, 0]`` holds Z at step
    ``first_step``, and the march writes steps first_step + 1 ..
    first_step + K into ``Z[:, 1 : K + 1]``.  ``increments[s]`` is member
    s's ΔWⁿ at steps first_step .. first_step + K − 1 and
    ``compensated[s]`` its ½λ²c_n dt.  The whole chunk, start included, is
    checked for finite Z > 0 before ``march`` returns, so a breakdown stops
    the caller's chunk loop in the chunk where it happens.

    The block is padded and time-major, (steps + 1, S) + (N+2)^d, and each
    row's `lattice.interior_run` holds the batch's Z at one step.  Step k
    runs `lattice.laplacian_calls` on row k, then ·dt, +Z and ·factor,
    whose product goes straight into row k + 1's run: eight numpy calls in
    1-D, with no copy and no call of a Python function of ours.  Those
    calls and the views they take, of every row and of the noise-factor
    run (padded as the rows are), are built here, once.  The Laplacian is
    not added to zero as `lattice.laplacian_values` adds it: a −0.0 sum
    only meets ·dt and then +Z, and Z + (±0.0) = Z for every Z ≥ +0, so
    each Z keeps its bits.
    """
    margin = stability_check(grid)
    if margin < 0.0:
        raise ValueError(
            f"stability violation: margin {margin!r} < 0 (dt too large for dx)"
        )
    d = grid.d
    shape = (members,) + (grid.N + 2,) * d
    block = np.empty((steps + 1,) + shape)
    # the noise factors of at most this many steps exist at once, padded as
    # the rows are; their halo holds NaN, which exp keeps quiet, and its
    # products land in ghost cells that the next step's halo fill overwrites
    run = min(steps, block_steps(grid, members))
    factors = np.full((run,) + shape, np.nan)
    z = [interior_run(row, d) for row in block]
    factor = [interior_run(row, d) for row in factors]
    step = np.empty_like(z[0])
    twice, spare = np.empty_like(step), np.empty_like(step) if d > 1 else None
    dt = np.array(grid.dt)  # a 0-d array: numpy converts a Python float on every call
    rows = [
        laplacian_calls(block[k], d, grid.dx, step, twice, spare)
        + [(np.multiply, (step, dt, step)), (np.add, (step, z[k], step)),
           (np.multiply, (step, factor[k % run], z[k + 1]))]
        for k in range(steps)
    ]
    inner = (slice(None), slice(None)) + (slice(1, -1),) * d
    core, factor_core = block[inner], factors[inner]

    def march(K, increments, compensated, first_step) -> None:
        for a in range(0, K, run):
            b = min(a + run, K)
            for s, inc in enumerate(increments):
                np.subtract(inc[a:b], compensated[s], factor_core[: b - a, s])
            np.exp(factors[: b - a], factors[: b - a])
            for calls in rows[a:b]:
                for f, args in calls:
                    f(*args)
        _check_chunk(core[: K + 1], first_step, increments, compensated, grid)

    return core.swapaxes(0, 1), march


def stream(levels: Sequence, seed: int, lam: float, z0s: Sequence):
    """March one realization through a ladder of batches, a chunk at a time.

    Each level is (fac, grid, members): ``members`` are the mollifiers of
    the batch marched on ``grid``, the fine grid coarser by fac in space and
    fac² in time; the fine grid itself, fac 1, comes last.  ``z0s[i]`` is
    level i's start Z₀.  The realization `draw_chunks` gives for (seed, λ)
    on the fine grid is drawn in chunks of the largest multiple of the
    coarsest fac² within `chunk_steps` of the fine grid and the largest
    batch, and each chunk goes through every level in turn.  Yields
    (i, a, b, Z, dwns, dw) per level i and checked chunk: Z holds the
    batch's steps a .. b, ``dwns[s]`` member s's ΔWⁿ of steps a .. b − 1
    and ``dw`` the raw ΔW on the level.  Each level keeps one buffer for
    each of these, one for `noise.block_sum`'s partial sums and its
    march's buffers, allocated before the first chunk and refilled by
    every later one, so a yielded array is valid only until the next item
    is requested: a consumer that needs one longer copies it.
    """
    if levels[-1][0] != 1 or not all(ms and all(m.grid == g for m in ms) for _, g, ms in levels):
        raise ValueError("each level needs a batch of mollifiers on its own grid, fac 1 last")
    tf = max(fac for fac, _, _ in levels) ** 2
    fine = levels[-1][1]
    chunk = chunk_steps(fine, max(len(ms) for _, _, ms in levels), tf)
    runs = []
    for (fac, g, members), z0 in zip(levels, z0s, strict=True):
        steps = min(chunk, fine.M) // fac**2
        Z, march = marcher(g, len(members), steps)
        Z[:, 0] = z0
        # block_sum's coarse increments and its partial sums over the last axis
        coarse, partial = ((np.empty((steps,) + g.shape),
                            np.empty((steps * fac**2,) + fine.shape[:-1] + (g.N,)))
                           if fac > 1 else (None, None))
        runs.append((fac, Z, coarse, partial, mollifying(members, lam, steps), march,
                     [compensator(lam, m, g.dt) for m in members]))
    for lo, hi, fine_dw in draw_chunks(fine, seed, lam, chunk):
        for i, (fac, Z, coarse, partial, mollify_run, march, compensated) in enumerate(runs):
            a, b = lo // fac**2, hi // fac**2
            dw = fine_dw if fac == 1 else block_sum(fine_dw, fac, coarse[: b - a],
                                                    partial[: hi - lo])
            dwns = mollify_run(dw)
            march(b - a, dwns, compensated, a)
            yield i, a, b, Z[:, : b - a + 1], dwns, dw
            Z[:, 0] = Z[:, b - a]


def solve_heat(grid: TorusGrid, noise: MollifiedNoise, f: ScalarField) -> HeatSolution:
    """March the scheme from exp(f) through all M steps of a stored realization.

    ``grid`` must be the grid the noise was sampled on, and ``f`` the
    initial profile on it.  The returned trajectory's values[0] is exp(f)
    exactly, and every slice is strictly positive: each chunk is marched
    and checked in the `marcher` block, then copied into the stack.

    Raises
    ------
    ValueError
        On a grid mismatch, a stability violation, or as soon as a finished
        time chunk holds a Z that is not finite and strictly positive,
        naming its step and node.
    """
    if noise.grid != grid:
        raise ValueError("noise realization lives on a different grid")
    if f.grid != grid:
        raise ValueError("initial data lives on a different grid")
    values = np.empty((grid.M + 1,) + grid.shape)
    values[0] = np.exp(f.values)
    compensated = [compensator(noise.lam, noise.mollifier, grid.dt)]
    chunk = chunk_steps(grid)  # checked chunks of the one chunk rule
    Z, march = marcher(grid, 1, min(chunk, grid.M))
    Z[0, 0] = values[0]
    for lo in range(0, grid.M, chunk):
        hi = min(lo + chunk, grid.M)
        march(hi - lo, [noise.increments[lo:hi]], compensated, lo)
        values[lo + 1 : hi + 1] = Z[0, 1 : hi - lo + 1]
        Z[:, 0] = Z[:, hi - lo]
    return HeatSolution(grid=grid, noise=noise, values=values)
