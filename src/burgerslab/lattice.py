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

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "is_integer",
    "is_real",
    "real",
    "wrap",
    "along",
    "chunk_steps",
    "block_steps",
    "ScalarField",
    "VectorField",
    "laplacian",
    "gradient",
    "divergence",
    "inner_space",
    "interior_run",
    "laplacian_calls",
    "padded_laplacian",
    "laplacian_values",
    "gradient_values",
    "gradient_norm_sq",
    "divergence_values",
]


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for real numbers; False for bools (True would pass as 1), strings and the rest."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real(name: str, value) -> float:
    """``float(value)`` for a real number; anything else is named, not parsed."""
    if not is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def wrap(delta, period):
    """Minimum-image displacement in [−period/2, period/2)."""
    return (delta + 0.5 * period) % period - 0.5 * period


def along(values: np.ndarray, axis: int, d: int) -> np.ndarray:
    """A 1-D profile laid along one axis of a d-dimensional array: a view that broadcasts."""
    return values.reshape([len(values) if a == axis else 1 for a in range(d)])


# The one chunk rule of every time loop: at most _CHUNK steps whose slices,
# times the batch, hold at most _CHUNK_BYTES (32 steps of a 2-D N=64 slice),
# so a loop's temporaries stay small and its peak does not hang on heap layout.
_CHUNK = 256
_CHUNK_BYTES = 1 << 20


def chunk_steps(grid, members: int = 1, multiple: int = 1) -> int:
    """Steps per time chunk of a batch of ``members`` N^d slices on ``grid``.

    A ladder whose coarsest level sums ``multiple`` fine steps into one
    takes the largest multiple of it within the chunk, and at least one.
    """
    steps = max(1, min(_CHUNK, _CHUNK_BYTES // (members * grid.num_nodes * 8)))
    return max(multiple, steps // multiple * multiple)


def block_steps(grid, members: int = 1) -> int:
    """Slices per block of a loop's scratch: a quarter of a chunk's steps.

    The march's noise factors, the FFT's complex slices and the weak pass's
    gradient components go a block at a time, so the scratch beside a
    stream's chunk buffers stays a fraction of one chunk.  A batch of
    small realizations is drawn in blocks of ``block_steps(grid, grid.M)``
    seeds for the same reason: the block's mollified copy and its pairing
    product are as large as the block itself, so all three fit in a chunk.
    """
    return max(1, chunk_steps(grid, members) // 4)


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
        """Signed periodic offsets of each node from the origin, in [−L/2, L/2).

        Used to center kernels and compactly supported profiles at node 0.
        """
        return wrap(self.axis_coords(), self.L)


def _check_values(values: np.ndarray, expected_shape: tuple[int, ...], kind: str) -> np.ndarray:
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
            self, "values", _check_values(self.values, self.grid.shape, "ScalarField")
        )


@dataclass(frozen=True)
class VectorField:
    """A d-vector sampled at every spatial node; component axis first."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = (self.grid.d,) + self.grid.shape
        object.__setattr__(
            self, "values", _check_values(self.values, shape, "VectorField")
        )


# ---------------------------------------------------------------------------
# array-level stencils
#
# The field wrappers below delegate here; the solvers import these directly
# to avoid wrapping every intermediate time slice in a dataclass.  The
# stencils act on the last `d` axes (default: all of them), so a stack of
# time slices of shape (K,) + spatial goes through in one call.
# ---------------------------------------------------------------------------


def interior_run(padded: np.ndarray, d: int) -> np.ndarray:
    """The flat contiguous run of a C-ordered buffer with a one-node halo on its last `d` axes.

    The run goes from the buffer's first interior node to its last, so it
    crosses the ghost cells between them.
    """
    first = sum(_offsets(padded, d))
    return padded.reshape(-1)[first : padded.size - first]


def _offsets(padded: np.ndarray, d: int) -> list:
    """Flat distances between neighbours along each of the last `d` axes of a C-ordered buffer."""
    return [padded.strides[axis] // padded.itemsize for axis in range(padded.ndim - d, padded.ndim)]


def laplacian_calls(padded: np.ndarray, d: int, dx: float, step: np.ndarray, twice: np.ndarray,
                    spare: np.ndarray | None = None) -> list:
    """The calls that write the Laplacian of a buffer with a one-node halo on its last `d` axes.

    Running ``f(*args)`` for each ``(f, args)`` of the returned list in
    order fills the halo with the periodic neighbours of the interior (one
    strided ``ghost[...] = node`` per axis over the whole buffer, so
    corners hold periodic values too) and writes
    ``Σ_axis ((z₊ − 2·z) + z₋) / dx²`` into ``step``, from views of z, the
    buffer's `interior_run`, shifted by ±(N+2)^j nodes.  ``step``,
    ``twice`` and, for d > 1, ``spare`` are runs as long as z, the last two
    scratch.  The run crosses ghost cells, which read only periodic copies
    of the interior, so their results are finite; they are discarded.

    This is the one place the Laplacian's operation order is written: the
    heat march runs these calls on each row of its block, and
    `padded_laplacian` on its one buffer.  They are built for a loop bound
    by numpy's cost per call: the views exist once, the constants 2 and dx²
    are 0-d arrays (numpy converts a Python float on every call), and the
    halo copy is a plain setitem (np.copyto adds a Python-level dispatch).
    """
    lead = padded.ndim - d
    offsets = _offsets(padded, d)
    first = sum(offsets)  # the first interior node; the last is as far from the end
    stop = padded.size - first
    flat = padded.reshape(-1)
    calls = []
    for axis in range(lead, padded.ndim):
        n, before = padded.shape[axis] - 2, (slice(None),) * axis
        ghosts = padded[before + (slice(None, None, n + 1),)]  # ghosts 0 and N+1
        nodes = padded[before + (slice(n, 0, -(n - 1)),)]  # nodes N and 1
        calls.append((operator.setitem, (ghosts, ..., nodes)))
    (plus, minus), *rest = [(flat[first + o : stop + o], flat[first - o : stop - o])
                            for o in offsets]
    two, dx2 = np.array(2.0), np.array(dx * dx)
    calls += [(np.multiply, (two, flat[first:stop], twice)), (np.subtract, (plus, twice, step)),
              (np.add, (step, minus, step))]
    for up, down in rest:
        calls += [(np.subtract, (up, twice, spare)), (np.add, (spare, down, spare)),
                  (np.add, (step, spare, step))]
    calls.append((np.divide, (step, dx2, step)))
    return calls


def padded_laplacian(shape: tuple, dx: float, d: int) -> tuple:
    """A buffer with a one-node halo on the last `d` axes of ``shape``, and its Laplacian.

    Returns ``(core, z, step, laplacian)``.  ``core`` is the buffer's
    writable interior (shape ``shape``); ``z`` and ``step`` are the
    `interior_run` of the buffer and of a result buffer of the same layout.
    ``laplacian()`` runs `laplacian_calls` on the buffer, adds the result
    to zero, so a −0.0 sum reads +0.0 as a sum started from zero does, and
    returns ``step``'s interior nodes: the Laplacian of ``core``, which the
    caller may refill between calls.
    """
    lead = len(shape) - d
    padded = np.empty(shape[:lead] + tuple(n + 2 for n in shape[lead:]))
    result = np.empty_like(padded)
    inner = (slice(None),) * lead + (slice(1, -1),) * d
    step = interior_run(result, d)
    calls = laplacian_calls(padded, d, dx, step, np.empty_like(step),
                            np.empty_like(step) if d > 1 else None)
    out = result[inner]

    def laplacian() -> np.ndarray:
        for f, args in calls:
            f(*args)
        np.add(0.0, step, step)
        return out

    return padded[inner], interior_run(padded, d), step, laplacian


def laplacian_values(a: np.ndarray, dx: float, d: int | None = None) -> np.ndarray:
    """Compact second-difference Laplacian over the last `d` axes of a periodic array.

    Pads a copy of ``a`` and applies `padded_laplacian`'s stencil.
    """
    d = a.ndim if d is None else d
    core, _, _, laplacian = padded_laplacian(a.shape, dx, d)
    core[...] = a
    return laplacian()


# (out, a₊, a₋) of each run of a periodic difference: the interior, then the
# two end nodes, whose neighbours wrap around
_RUNS = ((slice(1, -1), slice(2, None), slice(None, -2)),
         (slice(None, 1), slice(1, 2), slice(-1, None)),
         (slice(-1, None), slice(None, 1), slice(-2, -1)))


def _difference(a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """a₊ − a₋ along one axis of a periodic array, one subtraction per run into ``out``."""
    lead = (slice(None),) * axis
    for dst, plus, minus in _RUNS:
        np.subtract(a[lead + (plus,)], a[lead + (minus,)], out=out[lead + (dst,)])
    return out


def _centered_difference(a: np.ndarray, axis: int, dx: float, out: np.ndarray) -> np.ndarray:
    """(a₊ − a₋) / (2dx) along one axis of a periodic array, written into ``out``."""
    return np.divide(_difference(a, axis, out), 2.0 * dx, out=out)


def gradient_values(
    a: np.ndarray, dx: float, d: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Centered gradient over the last `d` axes, shape (d,) + a.shape, into ``out`` if given."""
    d = a.ndim if d is None else d
    out = np.empty((d,) + a.shape) if out is None else out
    for i, axis in enumerate(range(a.ndim - d, a.ndim)):
        _centered_difference(a, axis, dx, out[i])
    return out


def gradient_norm_sq(
    a: np.ndarray, dx: float, d: int | None = None, out: np.ndarray | None = None,
    comp: np.ndarray | None = None,
) -> np.ndarray:
    """‖∇_h a‖² over the last `d` axes, summed from zero one component at a time.

    Equals Σ_axis gradient_values(a)[axis]² bit for bit while holding one
    component, not all d of them: the first square goes straight into
    ``out`` (0 + x² is x² for every x² ≥ 0), each further one through
    ``comp``, a leading block of rows at a time when ``a`` has a leading
    axis and ``comp`` fewer rows.  Pass both to allocate nothing.
    """
    d = a.ndim if d is None else d
    axes = range(a.ndim - d, a.ndim)
    out = _centered_difference(a, axes[0], dx, np.empty(a.shape) if out is None else out)
    np.square(out, out=out)
    if d == 1:
        return out
    comp = np.empty(a.shape) if comp is None or a.ndim == d else comp
    rows = len(comp)
    for lo in range(0, len(a), rows):
        part, total = a[lo : lo + rows], out[lo : lo + rows]
        for axis in axes[1:]:
            square = _centered_difference(part, axis, dx, comp[: len(part)])
            np.square(square, out=square)
            total += square
    return out


def divergence_values(v: np.ndarray, dx: float) -> np.ndarray:
    """Centered divergence; `v` has shape (d,) + spatial, returns spatial."""
    out = np.zeros(v.shape[1:], dtype=np.float64)
    term = np.empty_like(out)
    for axis, component in enumerate(v):
        out += _difference(component, axis, term)
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
