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

    `kind` and `params` echo the preset that produced the samples so reports
    can reproduce the configuration; `values` holds f at the grid nodes.
    All presets are smooth and bounded, hence exp(f) > 0 everywhere.
    """

    grid: TorusGrid
    kind: str
    params: dict
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
    return InitialData(grid, "zero", {}, np.zeros(grid.shape))


def initial_cosine(grid: TorusGrid, a: float, k: int = 1) -> InitialData:
    """f(x) = a · cos(2π k x₁ / L): a single Fourier mode along the first axis."""
    x = grid.axis_coords()
    profile = a * np.cos(2.0 * np.pi * k * x / grid.L)
    shape = (grid.N,) + (1,) * (grid.d - 1)
    values = np.broadcast_to(profile.reshape(shape), grid.shape).copy()
    return InitialData(grid, "cosine", {"a": a, "k": k}, values)


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
    return InitialData(
        grid, "gaussian-bump", {"a": a, "w": w, "center": list(map(float, c))}, values
    )


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
    """Full trajectory of the heat scheme with its generating noise.

    `values` stacks the M+1 time slices, shape (M+1,) + grid.shape.
    """

    grid: TorusGrid
    noise: MollifiedNoise
    values: np.ndarray = field(repr=False)
    scheme_meta: dict = field(default_factory=dict)


def solve_heat(
    grid: TorusGrid,
    noise: MollifiedNoise,
    f: InitialData,
    z0_override: np.ndarray | None = None,
) -> HeatSolution:
    """March the scheme from exp(f) through all M steps of the realization.

    Parameters
    ----------
    grid : TorusGrid
        Must match the grid the noise was sampled on.
    noise : MollifiedNoise
        The frozen realization driving the run.
    f : InitialData
        Initial profile; the trajectory starts at exp(f) exactly.
    z0_override : ndarray, optional
        Test hook: start from these strictly positive values instead of
        exp(f).  Used by linear-solution oracles that need initial data
        which is not the exponential of a preset.

    Returns
    -------
    HeatSolution
        values[0] is exp(f) (or the override) exactly; every slice is
        strictly positive.
    """
    if noise.grid != grid:
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

    lam = noise.lam
    c_n = noise.mollifier.c_n_discrete
    compensated = 0.5 * lam * lam * c_n * grid.dt

    dx, dt = grid.dx, grid.dt
    values = np.empty((grid.M + 1,) + grid.shape)
    values[0] = z0
    for k in range(grid.M):
        z = values[k]
        values[k + 1] = (z + dt * laplacian_values(z, dx)) * np.exp(
            noise.increments[k] - compensated
        )
    return HeatSolution(
        grid=grid,
        noise=noise,
        values=values,
        scheme_meta={
            "stability_margin": margin,
            "lam": lam,
            "c_n_discrete": c_n,
            "initial_kind": f.kind if z0_override is None else "override",
        },
    )
