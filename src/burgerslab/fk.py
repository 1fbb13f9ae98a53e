"""Monte Carlo oracle for the stochastic heat trajectory.

Conditional on a frozen noise realization, the heat value Z(t, x) admits a
random-walk representation: average, over Brownian paths B started at x
and independent of the driving noise,

    exp( f(x + B_t) + Σ_{k<m} ΔWⁿ(m−1−k, x + B_{s_k}) [ − ½λ²c_n t ] ),

where t = m·dt, the path position at time s_k = k·dt is read off at its
nearest grid node, and the increment index runs backwards (the pairing s
against t − s: early path positions see the latest increments).  The
bracketed compensator distinguishes the two correction modes:

* ``ito-compensated`` subtracts ½λ²c_n·t, matching the mean-one
  exponential martingale the explicit Itô scheme multiplies by — this is
  the mode the finite-difference solver reproduces;
* ``uncompensated`` keeps the bare exponent.

Both are implemented; reports record which mode was used, and the solver
cross-check selects the calibrated one empirically rather than by fiat.
With λ = 0 the two modes coincide exactly.

The Brownian generator matches the Laplacian Δ (per-axis increment
variance 2·dt, not dt), because the semigroup being represented is e^{tΔ}.
Paths use a counter-based stream keyed separately from the noise, so the
same experiment seed never correlates the walk with the realization it is
probing.

Estimates are plain Monte Carlo: mean, and standard error of the mean
with the usual 1/√num_paths decay.  No variance reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from burgerslab.heat import InitialData
from burgerslab.noise import MollifiedNoise

__all__ = [
    "FkEstimate",
    "fk_estimate",
    "fk_csv_lines",
    "z_score",
]

# Stream tag for the Brownian key: distinct from the noise tag, so walks
# and realizations drawn from one experiment seed are independent.
_BROWNIAN_STREAM_TAG = np.uint64(0x42524F574E)

_MODES = ("ito-compensated", "uncompensated")


def _coord_node(grid, x_arr: np.ndarray) -> tuple:
    """Map node coordinates to index tuple, rejecting off-node points."""
    if x_arr.shape != (grid.d,):
        raise ValueError(f"x must have {grid.d} coordinates, got {x_arr!r}")
    out = []
    for c in x_arr:
        j = int(round(c / grid.dx))
        if abs(c - j * grid.dx) > 1e-9 * grid.dx or not (0 <= j < grid.N):
            raise ValueError(
                f"x={tuple(x_arr)!r} is not a grid node (dx={grid.dx!r})"
            )
        out.append(j)
    return tuple(out)


def _brownian_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"brownian seed must be nonnegative, got {seed}")
    key = np.array([np.uint64(seed), _BROWNIAN_STREAM_TAG], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class FkEstimate:
    """Monte Carlo estimate of Z(t, x) under a frozen realization."""

    t: float
    x: tuple
    num_paths: int
    mean: float
    stderr: float
    correction_mode: str


def fk_estimate(
    noise: MollifiedNoise,
    f: InitialData,
    t: float,
    x,
    num_paths: int,
    mode: str,
    brownian_seed: int = 0,
) -> FkEstimate:
    """Estimate Z(t, x) by averaging over ``num_paths`` Brownian walks.

    ``t`` must be a grid time node and ``x`` a grid node (coordinates, not
    indices); the noise realization must be the one the solver under test
    consumed.  The walk stream is keyed by ``brownian_seed`` only, so
    re-running with another seed probes the same quantity with fresh
    Monte Carlo noise.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if num_paths < 100:
        raise ValueError(f"need at least 100 paths for a usable error bar, got {num_paths}")
    grid = noise.grid
    if f.grid != grid:
        raise ValueError("initial data and noise live on different grids")

    steps_float = t / grid.dt
    m = int(round(steps_float))
    if not (0 <= m <= grid.M) or abs(steps_float - m) > 1e-9 * max(1, m):
        raise ValueError(f"t={t!r} is not a grid time node (dt={grid.dt!r})")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _coord_node(grid, x_arr)  # raises if off-grid

    rng = _brownian_rng(brownian_seed)
    scale = math.sqrt(2.0 * grid.dt)
    inv_dx = 1.0 / grid.dx
    N = grid.N
    d = grid.d

    pos = np.tile(x_arr, (num_paths, 1))
    expo = np.zeros(num_paths)
    inc = noise.increments
    for k in range(m):
        slice_k = inc[m - 1 - k]
        nodes = tuple(
            (np.rint(pos[:, a] * inv_dx).astype(np.int64) % N) for a in range(d)
        )
        expo += slice_k[nodes]
        pos += rng.normal(0.0, scale, size=(num_paths, d))
        pos %= grid.L

    if mode == "ito-compensated":
        expo -= 0.5 * noise.lam**2 * noise.mollifier.c_n_discrete * (m * grid.dt)

    nodes = tuple(
        (np.rint(pos[:, a] * inv_dx).astype(np.int64) % N) for a in range(d)
    )
    values = np.exp(f.values[nodes] + expo)
    mean = float(np.mean(values))
    if num_paths > 1:
        stderr = float(np.std(values, ddof=1) / math.sqrt(num_paths))
    else:
        stderr = 0.0
    return FkEstimate(
        t=m * grid.dt,
        x=tuple(float(c) for c in x_arr),
        num_paths=num_paths,
        mean=mean,
        stderr=stderr,
        correction_mode=mode,
    )


def z_score(est: FkEstimate, solver_value: float) -> float:
    """Standardized discrepancy (mean − solver) / stderr; 0 when exact."""
    gap = est.mean - solver_value
    if est.stderr == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / est.stderr


def fk_csv_lines(pairs) -> list:
    """(estimate, solver_value) pairs as CSV lines (header first).

    Columns: t, x0..x{d−1}, num_paths, mode, mean, stderr, solver_value,
    z_score.  Deterministic bytes for identical inputs.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("nothing to write")
    d = len(pairs[0][0].x)
    header = "t," + ",".join(f"x{a}" for a in range(d)) + \
        ",num_paths,mode,mean,stderr,solver_value,z_score"
    lines = [header]
    for est, solver_value in pairs:
        if len(est.x) != d:
            raise ValueError("mixed dimensions in one report")
        coords = ",".join(repr(c) for c in est.x)
        lines.append(
            f"{est.t!r},{coords},{est.num_paths},{est.correction_mode},"
            f"{est.mean!r},{est.stderr!r},{solver_value!r},"
            f"{z_score(est, solver_value)!r}"
        )
    return lines
