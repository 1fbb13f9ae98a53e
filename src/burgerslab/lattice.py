"""Periodic space-time lattice and discrete calculus.

Everything downstream — noise sampling, the heat scheme, the Cole-Hopf
residuals — lives on a flat torus [0, L)^d discretized by N nodes per axis
(spacing dx = L/N) and a uniform time grid of M steps on [0, T] (step
dt = T/M).  The discrete operators are the classical centered stencils with
periodic wrap:

    (∇_h u)_a = (u(x + dx e_a) − u(x − dx e_a)) / (2 dx)
    (Δ_h u)   = Σ_a (u(x + dx e_a) − 2 u(x) + u(x − dx e_a)) / dx²

Two structural facts carry the whole verification strategy and are enforced
by tests at the 1e-12 level:

* centered differences are exactly skew-adjoint under the periodic inner
  product, so ⟨∇_h u, v⟩ = −⟨u, ∇_h·v⟩ holds as an identity of finite sums
  (summation by parts with no boundary terms), and
* the compact Laplacian is exactly self-adjoint.

Because the weak-form Burgers identity is *derived* by integration by parts,
using operators whose duality is exact (not merely O(dx²)) means the weak
residual isolates the stochastic bookkeeping instead of stencil artifacts.

The inner product is the plain quadrature pairing

    inner_space(u, v)  = dx^d  Σ_i u_i · v_i

which on a periodic grid integrates trigonometric polynomials below the
Nyquist band exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "is_integer",
    "ScalarField",
    "VectorField",
    "laplacian",
    "gradient",
    "divergence",
    "inner_space",
    "laplacian_values",
    "gradient_values",
    "gradient_norm_sq",
    "divergence_values",
]


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic lattice on [0, L)^d × [0, T].

    Parameters
    ----------
    d : int
        Spatial dimension, 1, 2 or 3.  ``d``, ``N`` and ``M`` must be
        integers; a float is rejected by name, not rounded.
    N : int
        Nodes per axis (N ≥ 8).  Spatial indexing is modulo N on every axis.
    M : int
        Number of time steps (M ≥ 2); the trajectory has M + 1 time nodes.
    L : float
        Side length of the torus (default 1).
    T : float
        Time horizon.

    Notes
    -----
    dx = L/N and dt = T/M exactly (plain float division, no rounding games).
    The parabolic stability requirement dt ≤ dx²/(2d) of the explicit heat
    step is *not* enforced here — grids are also used for pure noise
    statistics where it is irrelevant — but `heat.stability_check` must be
    consulted before any solver use.
    """

    d: int
    N: int
    M: int
    L: float = 1.0
    T: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d", "N", "M"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.d}")
        if self.N < 8:
            raise ValueError(f"need N >= 8 nodes per axis, got {self.N}")
        if self.M < 2:
            raise ValueError(f"need M >= 2 time steps, got {self.M}")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"side length must be positive and finite, got {self.L}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"time horizon must be positive and finite, got {self.T}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def shape(self) -> tuple[int, ...]:
        """Spatial array shape, (N,) * d."""
        return (self.N,) * self.d

    @property
    def num_nodes(self) -> int:
        return self.N**self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis: 0, dx, 2dx, …, L − dx."""
        return np.arange(self.N) * self.dx

    def times(self) -> np.ndarray:
        """Time nodes t_k = k · dt for k = 0 … M."""
        return np.arange(self.M + 1) * self.dt

    def wrapped_offsets(self) -> np.ndarray:
        """Signed periodic offsets of each node from the origin, in (−L/2, L/2].

        Used to center kernels and compactly supported profiles at node 0.
        """
        x = self.axis_coords()
        return (x + self.L / 2.0) % self.L - self.L / 2.0


def _check_values(grid: TorusGrid, values: np.ndarray, expected_shape: tuple[int, ...], kind: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != expected_shape:
        raise ValueError(f"{kind} values must have shape {expected_shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ScalarField:
    """A real scalar sampled at every spatial node of a grid."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _check_values(self.grid, self.values, self.grid.shape, "ScalarField")
        )


@dataclass(frozen=True)
class VectorField:
    """A d-vector sampled at every spatial node; component axis first."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = (self.grid.d,) + self.grid.shape
        object.__setattr__(
            self, "values", _check_values(self.grid, self.values, shape, "VectorField")
        )


# ---------------------------------------------------------------------------
# array-level stencils
#
# The field wrappers below delegate here; the solvers import these directly
# to avoid wrapping every intermediate time slice in a dataclass.  The
# stencils act on the last `d` axes (default: all of them), so a stack of
# time slices of shape (K,) + spatial goes through in one call.
# ---------------------------------------------------------------------------


@functools.cache
def _roll_pairs(axis: int, shift: int) -> tuple:
    """(dst, src) index pairs with ``np.roll(a, shift, axis)[dst] == a[src]``, shift = ±1.

    A periodic unit shift is two slice copies: the body moves by one node
    and the node that wraps around fills the vacated end.
    """
    lead = (slice(None),) * axis
    return (
        (lead + (slice(shift, None),), lead + (slice(None, -shift),)),
        (lead + (slice(None, shift),), lead + (slice(-shift, None),)),
    )


def laplacian_values(
    a: np.ndarray, dx: float, d: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Compact second-difference Laplacian over the last `d` axes of a periodic array.

    Evaluated as ``(0 + Σ_axis ((a₊ − 2a) + a₋)) / dx²`` with the shifts
    taken by slices; ``out``, if given (and not overlapping ``a``), receives
    the result.
    """
    d = a.ndim if d is None else d
    if out is None:
        out = np.empty_like(a)
    twice = 2.0 * a
    spare = np.empty_like(a) if d > 1 else None
    for axis in range(a.ndim - d, a.ndim):
        term = out if axis == a.ndim - d else spare
        for dst, src in _roll_pairs(axis, -1):
            np.subtract(a[src], twice[dst], out=term[dst])
        for dst, src in _roll_pairs(axis, 1):
            np.add(term[dst], a[src], out=term[dst])
        if term is out:
            np.add(0.0, out, out=out)  # the sum starts from zero
        else:
            out += term
    out /= dx * dx
    return out


def _centered_difference(a: np.ndarray, axis: int, dx: float, out: np.ndarray) -> np.ndarray:
    """(a₊ − a₋) / (2dx) along one axis of a periodic array, written into ``out``."""
    for dst, src in _roll_pairs(axis, -1):
        out[dst] = a[src]
    for dst, src in _roll_pairs(axis, 1):
        np.subtract(out[dst], a[src], out=out[dst])
    out /= 2.0 * dx
    return out


def gradient_values(a: np.ndarray, dx: float, d: int | None = None) -> np.ndarray:
    """Centered gradient over the last `d` axes; returns shape (d,) + a.shape."""
    d = a.ndim if d is None else d
    out = np.empty((d,) + a.shape, dtype=np.float64)
    for i, axis in enumerate(range(a.ndim - d, a.ndim)):
        _centered_difference(a, axis, dx, out[i])
    return out


def gradient_norm_sq(a: np.ndarray, dx: float, d: int | None = None) -> np.ndarray:
    """‖∇_h a‖² over the last `d` axes, summed from zero one component at a time.

    Equals Σ_axis gradient_values(a)[axis]² bit for bit while holding one
    component, not all d of them.
    """
    d = a.ndim if d is None else d
    out = np.zeros_like(a, dtype=np.float64)
    comp = np.empty_like(out)
    for axis in range(a.ndim - d, a.ndim):
        _centered_difference(a, axis, dx, comp)
        np.square(comp, out=comp)
        out += comp
    return out


def divergence_values(v: np.ndarray, dx: float) -> np.ndarray:
    """Centered divergence; `v` has shape (d,) + spatial, returns spatial."""
    d = v.shape[0]
    out = np.zeros(v.shape[1:], dtype=np.float64)
    term = np.empty_like(out)
    for axis in range(d):
        for dst, src in _roll_pairs(axis, -1):
            term[dst] = v[axis][src]
        for dst, src in _roll_pairs(axis, 1):
            np.subtract(term[dst], v[axis][src], out=term[dst])
        out += term
    out /= 2.0 * dx
    return out


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------


def laplacian(u: ScalarField) -> ScalarField:
    """Discrete Laplacian Δ_h u with the compact (2d+1)-point stencil.

    Second-order accurate on smooth periodic data; annihilates constants
    exactly.  This is the stencil the heat scheme uses — deliberately *not*
    divergence(gradient(u)), whose wide stencil has a worse stability
    constant (the two differ by O(dx²), quantified in tests).
    """
    return ScalarField(u.grid, laplacian_values(u.values, u.grid.dx))


def gradient(u: ScalarField) -> VectorField:
    """Centered-difference gradient ∇_h u."""
    return VectorField(u.grid, gradient_values(u.values, u.grid.dx))


def divergence(v: VectorField) -> ScalarField:
    """Centered-difference divergence ∇_h · v (each component along its axis)."""
    return ScalarField(v.grid, divergence_values(v.values, v.grid.dx))


def inner_space(u: ScalarField | VectorField, v: ScalarField | VectorField) -> float:
    """Spatial L² pairing: dx^d-weighted sum of pointwise (dot) products.

    Parameters
    ----------
    u, v : ScalarField or VectorField
        Must live on the same grid and be of the same kind; vector fields
        are paired with the Euclidean dot product at each node.

    Raises
    ------
    ValueError
        If the grids differ or the value shapes do not match.
    """
    if u.grid != v.grid:
        raise ValueError("inner_space requires fields on the same grid")
    if u.values.shape != v.values.shape:
        raise ValueError(
            f"inner_space shape mismatch: {u.values.shape} vs {v.values.shape}"
        )
    return float(np.sum(u.values * v.values)) * u.grid.cell_volume
