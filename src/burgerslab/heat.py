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

`solve_heat` marches a batch: realizations that share the grid and the
start Z₀ (say the mollification scales of one base noise) step together as
one (S,) + grid stack, one Laplacian call per time step for the whole
batch.  The noise factors are formed for a time chunk at a time, and each
finished chunk is checked for finite, strictly positive Z (with two
reductions, no mask), so a numerical breakdown is reported at its step and
node instead of after all M steps.  Every operation of the per-step update
is elementwise and kept in the order written above, so a batched trajectory
equals the single march bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from burgerslab.lattice import TorusGrid, laplacian_values
from burgerslab.noise import MollifiedNoise

__all__ = [
    "InitialData",
    "HeatSolution",
    "initial_zero",
    "initial_cosine",
    "initial_gaussian_bump",
    "make_initial",
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
    checked by the march to be finite and strictly positive.  This is the
    one trajectory stack: every reader of H = log Z takes it one time chunk
    at a time through `colehopf.cole_hopf`, and `noise.base` is the
    realization underneath.
    """

    grid: TorusGrid
    noise: MollifiedNoise
    values: np.ndarray = field(repr=False)


# Time steps whose noise factors are formed at once: the factor chunk of a
# batch holds about this many bytes (32 steps of a 2-D N=64 slice).
_CHUNK_BYTES = 1 << 20


def _check_chunk(
    block: np.ndarray, first_step: int, noises: list, compensated: list, batched: bool
) -> None:
    """Raise at the first step and node where a chunk of Z is not finite and > 0.

    ``block`` has shape (S, K) + grid and holds steps first_step ..
    first_step + K − 1; the first chunk includes the start Z₀ = exp(f),
    which overflows for a large enough f.  The test is two reductions (a
    NaN makes the minimum NaN), so a healthy chunk allocates no mask.  Only
    a failing chunk forms the message's extra numbers: the noise factor
    exp(ΔWⁿ − ½λ²c_n dt) that carried Z into that step at that node, and the
    stability margin of the grid.
    """
    if block.min() > 0.0 and block.max() < np.inf:
        return
    bad = np.argwhere(~((block > 0.0) & (block < np.inf)).swapaxes(0, 1))[0]
    k, s, node = int(bad[0]), int(bad[1]), tuple(int(i) for i in bad[2:])
    step = first_step + k
    member = f" of batch member {s}" if batched else ""
    mn = noises[s]
    if step == 0:
        factor = "none (the start exp(f))"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            factor = repr(float(np.exp(mn.increments[(step - 1,) + node] - compensated[s])))
    raise ValueError(
        f"heat march needs finite Z > 0 everywhere (noise factor into that "
        f"step and node exp(ΔWⁿ − ½λ²c_n dt) = {factor}, stability margin "
        f"1 − 2d·dt/dx² = {stability_check(mn.grid)!r}); Z{member} at "
        f"step {step}, node {node} is {float(block[(s, k) + node])!r}"
    )


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
        strictly positive.

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
    margin = stability_check(grid)
    if margin < 0.0:
        raise ValueError(
            f"stability violation: margin {margin!r} < 0 (dt too large for dx)"
        )
    if z0_override is not None:
        z0 = np.asarray(z0_override, dtype=np.float64)
        if z0.shape != grid.shape:
            raise ValueError(f"z0 override must have shape {grid.shape}")
        if not np.all(z0 > 0.0):
            raise ValueError("z0 override must be strictly positive")
    else:
        z0 = np.exp(f.values)

    d, dx, dt, M = grid.d, grid.dx, grid.dt, grid.M
    S = len(noises)
    compensated = [
        0.5 * mn.lam * mn.lam * mn.mollifier.c_n_discrete * dt for mn in noises
    ]
    values = np.empty((S, M + 1) + grid.shape)
    values[:, 0] = z0
    # step buffers: the current slices and their update, contiguous over the batch
    z = np.empty((S,) + grid.shape)
    z[...] = z0
    step = np.empty_like(z)
    chunk = max(1, min(M, _CHUNK_BYTES // (S * grid.num_nodes * 8)))
    factors = np.empty((chunk, S) + grid.shape)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        fac = factors[: hi - lo]
        for s, mn in enumerate(noises):
            np.subtract(mn.increments[lo:hi], compensated[s], out=fac[:, s])
        np.exp(fac, out=fac)
        for k in range(lo, hi):
            laplacian_values(z, dx, d, out=step)
            step *= dt
            step += z
            np.multiply(step, fac[k - lo], out=z)
            values[:, k + 1] = z
        _check_chunk(values[:, lo : hi + 1], lo, noises, compensated, batched)

    sols = [
        HeatSolution(grid=grid, noise=mn, values=values[s]) for s, mn in enumerate(noises)
    ]
    return sols if batched else sols[0]
