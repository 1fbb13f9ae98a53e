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

`march` is the one time march.  It steps a batch: realizations that share
the grid and the start Z₀ (say the mollification scales of one base noise)
step together as one (S,) + grid stack, one Laplacian call per time step
for the whole batch.  It is a generator over chunks of noise: it forms the
noise factors of a short run of steps at a time, checks each finished chunk
for finite, strictly positive Z (with two reductions, no mask) and yields
it, so a numerical breakdown is reported at its step and node, and stops
whatever feeds the march, instead of after all M steps.  `solve_heat`
collects the chunks into the whole (M+1)-slice stack; the burgers study
takes each chunk as it comes and keeps none.  Every operation of the
per-step update is elementwise and kept in the order written above, so a
batched or chunked trajectory equals the single march bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from burgerslab.lattice import TorusGrid, laplacian_values
from burgerslab.noise import Mollifier, MollifiedNoise

__all__ = [
    "InitialData",
    "HeatSolution",
    "initial_zero",
    "initial_cosine",
    "initial_gaussian_bump",
    "make_initial",
    "compensator",
    "march",
    "solve_heat",
    "stability_check",
]


@dataclass(frozen=True)
class InitialData:
    """Smooth initial profile f on the torus; the solver starts from exp(f).

    `values` holds f at the grid nodes.  The config echoes the preset that
    produced them.  All presets are smooth and bounded, hence exp(f) > 0
    everywhere.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"initial data must have shape {self.grid.shape}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("initial data contains non-finite values")
        object.__setattr__(self, "values", arr)


def initial_zero(grid: TorusGrid) -> InitialData:
    """f ≡ 0, i.e. Z(0, ·) ≡ 1."""
    return InitialData(grid, np.zeros(grid.shape))


def initial_cosine(grid: TorusGrid, a: float, k: int = 1) -> InitialData:
    """f(x) = a · cos(2π k x₁ / L): a single Fourier mode along the first axis."""
    x = grid.axis_coords()
    profile = a * np.cos(2.0 * np.pi * k * x / grid.L)
    shape = (grid.N,) + (1,) * (grid.d - 1)
    values = np.broadcast_to(profile.reshape(shape), grid.shape).copy()
    return InitialData(grid, values)


def initial_gaussian_bump(
    grid: TorusGrid, a: float, w: float, center: Sequence[float] | float
) -> InitialData:
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
        shape = [1] * grid.d
        shape[axis] = grid.N
        values = values * factor.reshape(shape)
    return InitialData(grid, values)


def make_initial(grid: TorusGrid, kind: str, params: dict) -> InitialData:
    """Build a preset by name — the config-file entry point."""
    if kind == "zero":
        return initial_zero(grid)
    if kind == "cosine":
        return initial_cosine(grid, a=float(params["a"]), k=int(params.get("k", 1)))
    if kind == "gaussian-bump":
        return initial_gaussian_bump(
            grid,
            a=float(params["a"]),
            w=float(params["w"]),
            center=params.get("center", [grid.L / 2] * grid.d),
        )
    raise ValueError(f"unknown initial-data preset {kind!r}")


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
    `noise.base` is the realization underneath.  The studies that keep a
    trajectory (heat, converge, section, fk-check) read H = log Z from it one
    time chunk at a time through `colehopf.cole_hopf`; the burgers study
    streams `march`'s chunks and builds no stack.
    """

    grid: TorusGrid
    noise: MollifiedNoise
    values: np.ndarray = field(repr=False)


# Time steps whose noise factors the march forms at once: the factor run of
# a batch holds about this many bytes (32 steps of a 2-D N=64 slice).
_CHUNK_BYTES = 1 << 20


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

    ``block`` has shape (S, K) + grid and holds steps first_step ..
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
    bad = np.argwhere(~((block > 0.0) & (block < np.inf)).swapaxes(0, 1))[0]
    k, s, node = int(bad[0]), int(bad[1]), tuple(int(i) for i in bad[2:])
    step = first_step + k
    member = f" of batch member {s}" if len(block) > 1 else ""
    if step == 0:
        factor = "none (the start exp(f))"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            factor = repr(float(np.exp(increments[s][(k - 1,) + node] - compensated[s])))
    raise ValueError(
        f"heat march needs finite Z > 0 everywhere (noise factor into that "
        f"step and node exp(ΔWⁿ − ½λ²c_n dt) = {factor}, stability margin "
        f"1 − 2d·dt/dx² = {stability_check(grid)!r}); Z{member} at "
        f"step {step}, node {node} is {float(block[(s, k) + node])!r}"
    )


def march(
    grid: TorusGrid,
    z0: np.ndarray,
    compensated: Sequence[float],
    chunks: Iterable,
    out: np.ndarray | None = None,
):
    """Step a batch of S members from z0 through chunks of noise, one chunk at a time.

    ``chunks`` yields items (lo, hi, increments, ...): ``increments[s]`` is
    member s's ΔWⁿ at steps lo .. hi − 1, and ``compensated[s]`` its
    ½λ²c_n dt.  For each item the march yields (item, Z), Z of shape
    (S, hi − lo + 1) + grid holding steps lo .. hi, so a consumer sees the
    noise that drove the chunk next to its result.  Z is a view into
    ``out`` (the whole (S, M+1) + grid stack) when given; otherwise it is a
    chunk buffer that the next chunk overwrites.  Each chunk is checked for
    finite Z > 0 before it is yielded, so a breakdown stops the march, and
    whatever feeds it, in the chunk where it happens.
    """
    margin = stability_check(grid)
    if margin < 0.0:
        raise ValueError(
            f"stability violation: margin {margin!r} < 0 (dt too large for dx)"
        )
    d, dx, dt = grid.d, grid.dx, grid.dt
    S = len(compensated)
    # step buffers: the current slices and their update, contiguous over the batch
    z = np.empty((S,) + grid.shape)
    z[...] = z0
    step = np.empty_like(z)
    # the noise factors of at most this many steps exist at once
    run = max(1, _CHUNK_BYTES // (S * grid.num_nodes * 8))
    factors = np.empty((run, S) + grid.shape)
    buffer = None
    for item in chunks:
        lo, hi, increments = item[:3]
        if out is not None:
            block = out[:, lo : hi + 1]
        else:
            if buffer is None or buffer.shape[1] < hi - lo + 1:
                buffer = np.empty((S, hi - lo + 1) + grid.shape)
            block = buffer[:, : hi - lo + 1]
        block[:, 0] = z
        for a in range(0, hi - lo, run):
            b = min(a + run, hi - lo)
            fac = factors[: b - a]
            for s, inc in enumerate(increments):
                np.subtract(inc[a:b], compensated[s], out=fac[:, s])
            np.exp(fac, out=fac)
            for k in range(a, b):
                laplacian_values(z, dx, d, out=step)
                step *= dt
                step += z
                np.multiply(step, fac[k - a], out=z)
                block[:, k + 1] = z
        _check_chunk(block, lo, increments, compensated, grid)
        yield item, block


def solve_heat(
    grid: TorusGrid,
    noise: MollifiedNoise | Sequence[MollifiedNoise],
    f: InitialData,
    z0_override: np.ndarray | None = None,
) -> HeatSolution | list[HeatSolution]:
    """March the scheme from exp(f) through all M steps of the realization.

    Parameters
    ----------
    grid : TorusGrid
        Must match the grid the noise was sampled on.
    noise : MollifiedNoise or sequence of MollifiedNoise
        The frozen realization driving the run.  A sequence of realizations
        on one grid marches as one (S,) + grid stack from the same start.
    f : InitialData
        Initial profile; the trajectory starts at exp(f) exactly.
    z0_override : ndarray, optional
        Test hook: start from these strictly positive values instead of
        exp(f).  Used by linear-solution oracles that need initial data
        which is not the exponential of a preset.

    Returns
    -------
    HeatSolution, or a list of them (one per noise, in order) for a sequence
        values[0] is exp(f) (or the override) exactly; every slice is
        strictly positive.  The stack is `march`'s chunks, collected.

    Raises
    ------
    ValueError
        On a grid mismatch, a stability violation, a bad override, or as
        soon as a finished time chunk holds a Z that is not finite and
        strictly positive, naming its step and node.
    """
    batched = not isinstance(noise, MollifiedNoise)
    noises = list(noise) if batched else [noise]
    if not noises:
        raise ValueError("need at least one noise realization")
    if any(mn.grid != grid for mn in noises):
        raise ValueError("noise realization lives on a different grid")
    if f.grid != grid:
        raise ValueError("initial data lives on a different grid")
    if z0_override is not None:
        z0 = np.asarray(z0_override, dtype=np.float64)
        if z0.shape != grid.shape:
            raise ValueError(f"z0 override must have shape {grid.shape}")
        if not np.all(z0 > 0.0):
            raise ValueError("z0 override must be strictly positive")
    else:
        z0 = np.exp(f.values)

    M, S = grid.M, len(noises)
    compensated = [compensator(mn.lam, mn.mollifier, grid.dt) for mn in noises]
    values = np.empty((S, M + 1) + grid.shape)
    # checked chunks as long as the march's factor runs
    chunk = max(1, min(M, _CHUNK_BYTES // (S * grid.num_nodes * 8)))
    chunks = (
        (lo, min(lo + chunk, M), [mn.increments[lo : lo + chunk] for mn in noises])
        for lo in range(0, M, chunk)
    )
    for _ in march(grid, z0, compensated, chunks, out=values):
        pass
    sols = [
        HeatSolution(grid=grid, noise=mn, values=values[s]) for s, mn in enumerate(noises)
    ]
    return sols if batched else sols[0]
