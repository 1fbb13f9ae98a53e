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

The periodic wrap of the walk is exact without a float remainder: a
wrapped position plus one step lies in [−L, 2L) unless the step is
comparable with L, and there one subtraction or addition of L gives the
float ``np.remainder`` would.  A step whose positions leave [−L, 2L) (only
when √(2dt) is comparable with L) takes ``np.remainder`` instead.  Wrapped
positions lie in [0, L], so their nearest nodes run over 0 .. N; each
increment slice is read through a buffer one node wider per axis, whose
index N repeats node 0, in place of an integer modulo per axis and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from burgerslab.heat import compensator
from burgerslab.lattice import ScalarField
from burgerslab.noise import MollifiedNoise, seeded_stream

__all__ = [
    "FkEstimate",
    "fk_estimate",
    "z_score",
]

_BROWNIAN_STREAM_TAG = np.uint64(0x42524F574E)

_MODES = ("ito-compensated", "uncompensated")


def _check_node(grid, x_arr: np.ndarray) -> None:
    """Raise unless x_arr holds the d coordinates of a grid node."""
    if x_arr.shape != (grid.d,):
        raise ValueError(f"x must have {grid.d} coordinates, got {x_arr!r}")
    for c in x_arr:
        j = int(round(c / grid.dx))
        if abs(c - j * grid.dx) > 1e-9 * grid.dx or not (0 <= j < grid.N):
            raise ValueError(
                f"x={tuple(x_arr)!r} is not a grid node (dx={grid.dx!r})"
            )


def _wrap(pos: np.ndarray, L: float) -> None:
    """pos mod L in place, equal to ``np.remainder(pos, L)`` bit for bit.

    For pos in [−L, 2L) one subtraction or addition of L gives the same
    float as the remainder: pos − L is exact for pos in [L, 2L) (Sterbenz),
    and pos + L for pos in [−L, 0) is the addition the remainder rounds
    with.  Only an array that leaves [−L, 2L), a step comparable with L,
    takes the remainder itself.
    """
    if pos.min() < -L or pos.max() >= 2.0 * L:
        np.remainder(pos, L, out=pos)
        return
    np.subtract(pos, L, out=pos, where=pos >= L)
    np.add(pos, L, out=pos, where=pos < 0.0)


def _fill_wrapped(wrapped: np.ndarray, values: np.ndarray) -> None:
    """Copy an N^d slice into the (N+1)^d buffer, index N on each axis reading node 0."""
    n = values.shape[0]
    wrapped[(slice(n),) * values.ndim] = values
    for a in range(values.ndim):
        wrapped[(slice(None),) * a + (n,)] = wrapped[(slice(None),) * a + (0,)]


def _locate(pos: np.ndarray, inv_dx: float, nodes: tuple) -> tuple:
    """Each path's nearest node on every axis, written into ``nodes``.

    Wrapped positions lie in [0, L], so the indices run over 0 .. N, and
    index N is node 0 in the buffer `_fill_wrapped` writes.
    """
    for a, out in enumerate(nodes):
        out[...] = np.rint(pos[:, a] * inv_dx)
    return nodes


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
    f: ScalarField,
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
    _check_node(grid, x_arr)

    rng = seeded_stream(brownian_seed, _BROWNIAN_STREAM_TAG)
    scale = math.sqrt(2.0 * grid.dt)
    inv_dx = 1.0 / grid.dx
    d = grid.d

    pos = np.tile(x_arr, (num_paths, 1))
    expo = np.zeros(num_paths)
    inc = noise.increments
    wrapped = np.empty((grid.N + 1,) * d)
    nodes = tuple(np.empty(num_paths, dtype=np.int64) for _ in range(d))
    for k in range(m):
        _fill_wrapped(wrapped, inc[m - 1 - k])
        expo += wrapped[_locate(pos, inv_dx, nodes)]
        pos += rng.normal(0.0, scale, size=(num_paths, d))
        _wrap(pos, grid.L)

    if mode == "ito-compensated":
        expo -= compensator(noise.lam, noise.mollifier, m * grid.dt)

    _fill_wrapped(wrapped, f.values)
    values = np.exp(wrapped[_locate(pos, inv_dx, nodes)] + expo)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(num_paths))  # num_paths ≥ 100
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

