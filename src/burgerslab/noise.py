"""Discrete space-time white noise and its mollified regularizations.

White noise on the lattice
--------------------------
On a grid with spacing dx and step dt, space-time white noise Ẇ is realized
by independent Gaussian increments, one per space-time cell:

    ΔW_{k,i} ~ N(0, dt / dx^d),   independent over steps k and nodes i.

This is exactly the coefficient array of the L² expansion of Ẇ in normalized
cell indicator functions, so the fundamental pairing law

    Σ_{k,i} ξ_{k,i} ΔW_{k,i} dx^d  ~  N(0, dt dx^d Σ ξ²)

holds with the discrete L² norm on the right — the lattice form of "pairings
against L² functions are Gaussian with variance ‖ξ‖²".

Mollification
-------------
The regularized noise is the periodic spatial convolution of the increments
with the scaled standard bump

    ρ(x)   = c_d exp(−1/(1 − |x|²))   for |x| < 1,  0 otherwise,
    ρ_n(x) = n^d ρ(n x),

whose normalization c_d and squared L² norm ‖ρ‖² have no closed form and are
computed once per dimension by high-resolution radial Simpson quadrature.

On the grid, ρ_n enters through its *cell averages*

    K_j = dx^{-d} ∫_{cell j} ρ_n(y) dy        (Gauss–Legendre per cell),

not through point samples.  The distinction matters for the discrete
variance constant

    c_n_discrete = dx^d Σ_j K_j²,

which must converge to the continuum constant c_n_continuum = ‖ρ‖² n^d at
the second order the rest of the laboratory is calibrated against.  Cell
averaging gives exactly that:

    c_n_discrete − c_n_continuum = −(dx²/12) ‖∇ρ_n‖² + O(dx⁴),

whereas point sampling would make the difference decay *faster than any
power of dx* (the trapezoid rule superconverges on smooth periodic data),
leaving no second-order regime to measure.  Cell averaging also makes the
discrete kernel mass dx^d Σ K_j equal to ∫ρ_n = 1 up to the per-cell
quadrature error (~1e-8), and keeps the per-node variance identity

    Var(ΔW^n_{k,i}) = λ² dt c_n_discrete

exact rather than approximate.

The covariance structure of the mollified increments is white in time and
colored in space with spatial kernel

    h_n(z) = ∫ ρ_n(u) ρ_n(u + z) du,     h_n(0) = c_n_continuum,

and the per-node path W^n_t(x) = Σ_{k<t/dt} ΔW^n_{k,x} is a discrete
Brownian motion whose quadratic variation per unit time is c_n_discrete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from burgerslab.bank import bump
from burgerslab.lattice import TorusGrid

__all__ = [
    "Mollifier",
    "WhiteNoiseRealization",
    "MollifiedNoise",
    "make_mollifier",
    "draw_chunks",
    "sample_noise",
    "pair",
    "mollify_increments",
    "mollify",
    "convolve_kernel",
    "h_eval",
    "wiener_path",
    "quadratic_variation",
    "block_sum",
    "coarse_grain",
    "coarse_grid",
]

# Distinct Philox key tags keep the white-noise stream and the Feynman-Kac
# Brownian stream independent even when built from the same user seed.
_NOISE_STREAM_TAG = np.uint64(0x57484E5345)

# Surface area of the unit sphere S^{d-1} bounding the unit ball in R^d.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with an even number of panels."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / panels / 3.0 * np.sum(w * f(x)))


@lru_cache(maxsize=None)
def _bump_constants(d: int) -> tuple[float, float]:
    """(c_d, ‖ρ‖²) for the standard bump in dimension d.

    Both integrals reduce to 1-D radial integrals against the surface-area
    factor of S^{d-1}; 2·10⁵ Simpson panels put the quadrature error many
    orders below every tolerance used downstream.
    """
    area = _SPHERE_AREA[d]
    panels = 200_000
    mass = area * _simpson(lambda r: r ** (d - 1) * bump(r), 0.0, 1.0, panels)
    c_d = 1.0 / mass
    l2 = c_d * c_d * area * _simpson(
        lambda r: r ** (d - 1) * bump(r) ** 2, 0.0, 1.0, panels
    )
    return c_d, l2


@dataclass(frozen=True)
class Mollifier:
    """The scaled bump ρ_n(x) = n^d ρ(nx) with its grid discretization.

    `kernel` holds the cell averages K_j of ρ_n on the working grid (see the
    module docstring for why cell averages rather than node samples), laid
    out over the full spatial array with the bump centered at node 0.

    Attributes
    ----------
    grid : TorusGrid
        The working grid the kernel and c_n_discrete refer to.
    scale_n : int
        Concentration scale; ρ_n is supported in the ball of radius 1/n.
    c_n_continuum : float
        ‖ρ‖² · n^d — the quadratic-variation constant of the limit law.
    c_n_discrete : float
        dx^d Σ_j K_j² — the variance constant the simulated noise actually
        has; converges to c_n_continuum at second order in dx.
    kernel : ndarray
        Cell-averaged kernel values, shape grid.shape.
    """

    grid: TorusGrid
    scale_n: int
    c_n_continuum: float
    c_n_discrete: float
    kernel: np.ndarray = field(repr=False)


def _cell_averaged_kernel(grid: TorusGrid, n: int, c_d: float) -> np.ndarray:
    """Cell averages of ρ_n over every grid cell (8-point Gauss–Legendre per axis).

    Only the cells whose closure meets the support ball |x| < 1/n are
    evaluated; everything else is exactly zero.  The reduction uses plain
    numpy sums so the kernel bytes are independent of BLAS threading.
    """
    z = grid.wrapped_offsets()
    half = grid.dx / 2.0
    box = np.flatnonzero(np.abs(z) <= 1.0 / n + half + 1e-15)
    # per-axis Gauss points for each candidate cell: shape (len(box), g)
    pts = z[box][:, None] + half * _GL_NODES[None, :]

    d = grid.d
    b, g = pts.shape
    # accumulate |y|² over axes by broadcasting (b, g) blocks into a
    # (b, g, b, g, ...) tensor without materializing a meshgrid
    sq = pts * pts
    r2 = np.zeros((b, g) * d)
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[2 * axis] = b
        shape[2 * axis + 1] = g
        r2 = r2 + sq.reshape(shape)
    vals = c_d * float(n) ** d * bump(float(n) * np.sqrt(r2))
    # contract the Gauss weights on each g-axis; cell average = (1/2^d) Σ w·f
    w = _GL_WEIGHTS / 2.0
    for axis in range(d):
        vals = np.sum(vals * w.reshape((1,) * (axis + 1) + (g,) + (1,) * (2 * d - 2 * axis - 2)), axis=axis + 1)
    kernel = np.zeros(grid.shape)
    kernel[np.ix_(*([box] * d))] = vals
    return kernel


def make_mollifier(grid: TorusGrid, n: int) -> Mollifier:
    """Build the mollifier at scale n on a working grid.

    Raises
    ------
    ValueError
        If the support is not grid-resolved (1/n < 4·dx) or does not fit in
        half a period (the covariance kernel h_n needs |z| < 2/n ≤ L).
    """
    if n < 1:
        raise ValueError(f"mollifier scale must be a positive integer, got {n}")
    if 1.0 / n < 4.0 * grid.dx:
        raise ValueError(
            f"under-resolved mollifier: support 1/{n} < 4·dx = {4.0 * grid.dx!r}"
        )
    if 2.0 / n > grid.L:
        raise ValueError(
            f"mollifier too wide for the torus: 2/{n} exceeds the period {grid.L!r}"
        )
    c_d, l2 = _bump_constants(grid.d)
    kernel = _cell_averaged_kernel(grid, n, c_d)
    c_disc = grid.cell_volume * float(np.sum(kernel * kernel))
    return Mollifier(
        grid=grid,
        scale_n=n,
        c_n_continuum=l2 * float(n) ** grid.d,
        c_n_discrete=c_disc,
        kernel=kernel,
    )


@dataclass(frozen=True)
class WhiteNoiseRealization:
    """A seeded grid of white-noise increments ΔW_{k,i}.

    The array has shape (M,) + grid.shape and, at amplitude λ, entries that
    are independent N(0, λ²·dt/dx^d).  λ multiplies the increments at
    sampling time, so at λ = 0 they are exact zeros, which `sample_noise`
    writes without drawing and `mollify` passes on without convolving; the
    amplitude is kept as metadata because the Itô compensator of the heat
    scheme scales with λ².
    """

    grid: TorusGrid
    seed: int
    lam: float
    increments: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        expected = (self.grid.M,) + self.grid.shape
        if self.increments.shape != expected:
            raise ValueError(
                f"increments must have shape {expected}, got {self.increments.shape}"
            )


@dataclass(frozen=True)
class MollifiedNoise:
    """ΔW^n: the base increments convolved with the mollifier kernel.

    increments[k] = dx^d · (K ⊛ ΔW_k)  (periodic convolution per time slice),
    so each node carries variance λ²·dt·c_n_discrete, white in time and
    colored in space with covariance ≈ λ²·dt·h_n(lag).
    """

    base: WhiteNoiseRealization
    mollifier: Mollifier
    increments: np.ndarray = field(repr=False)

    @property
    def grid(self) -> TorusGrid:
        return self.base.grid

    @property
    def lam(self) -> float:
        return self.base.lam


def draw_chunks(grid: TorusGrid, seed: int, lam: float, chunk: int):
    """Yield (lo, hi, ΔW at steps lo .. hi − 1) from a counter-based stream.

    Parameters
    ----------
    grid : TorusGrid
    seed : int
        Nonnegative 64-bit seed.  The Philox key combines the seed with a
        fixed stream tag, so other consumers of the same seed (e.g. the
        Feynman-Kac Brownian paths) draw from independent streams.
    lam : float
        Noise amplitude λ; increments are λ·N(0, dt/dx^d).
    chunk : int
        Steps per yielded block; the last block may be shorter.

    The draws of one stream follow each other, so the blocks concatenate to
    the same bits whatever the chunk.  At lam = 0 each block is zeros and
    nothing is drawn.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = np.array([np.uint64(seed), _NOISE_STREAM_TAG], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    scale = lam * math.sqrt(grid.dt / grid.cell_volume)
    for lo in range(0, grid.M, chunk):
        hi = min(lo + chunk, grid.M)
        shape = (hi - lo,) + grid.shape
        if lam == 0.0:
            yield lo, hi, np.zeros(shape)
            continue
        increments = rng.standard_normal(size=shape)
        increments *= scale
        yield lo, hi, increments


def sample_noise(grid: TorusGrid, seed: int, lam: float = 1.0) -> WhiteNoiseRealization:
    """Draw a whole white-noise realization: `draw_chunks` in one block.

    Bit-identical on every call with the same (grid, seed, lam).  At lam = 0
    the increments are zeros and nothing is drawn.
    """
    (_, _, increments), = draw_chunks(grid, seed, lam, grid.M)
    return WhiteNoiseRealization(grid=grid, seed=seed, lam=lam, increments=increments)


def pair(noise: WhiteNoiseRealization | MollifiedNoise, xi: np.ndarray) -> float:
    """Pair a space-time sample array against the noise: Σ ξ·ΔW·dx^d.

    For white noise with λ = 1 the result is Gaussian with mean 0 and
    variance dt·dx^d·Σξ² — the discrete pairing law.  ξ must be sampled on
    the same space-time lattice as the increments.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != noise.increments.shape:
        raise ValueError(
            f"pairing shape mismatch: xi {xi.shape} vs increments {noise.increments.shape}"
        )
    return float(np.sum(noise.increments * xi)) * noise.grid.cell_volume


def _convolve_slices(increments: np.ndarray, kernel: np.ndarray, cell_volume: float) -> np.ndarray:
    """dx^d · (K ⊛ ΔW_k) for every slice k, chunked circular FFT convolution."""
    d = kernel.ndim
    spatial_axes = tuple(range(1, d + 1))
    kernel_hat = np.fft.rfftn(kernel)
    out = np.empty_like(increments)
    chunk = max(1, 2**22 // max(1, kernel.size))  # ~32 MB of float64 per chunk
    for start in range(0, increments.shape[0], chunk):
        stop = min(start + chunk, increments.shape[0])
        block_hat = np.fft.rfftn(increments[start:stop], axes=spatial_axes)
        block_hat *= kernel_hat[None, ...]
        block = out[start:stop]
        np.fft.irfftn(block_hat, s=kernel.shape, axes=spatial_axes, out=block)
        block *= cell_volume
    return out


def convolve_kernel(m: Mollifier, values: np.ndarray) -> np.ndarray:
    """Mollify one spatial field: (ρ_n ∗ g)(x_j) via the cell-averaged kernel.

    Same periodic convolution the increments get, exposed for measuring
    mollification defects ‖ρ_n∗g − g‖ of deterministic fields.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != m.grid.shape:
        raise ValueError(
            f"field shape {vals.shape} does not match grid shape {m.grid.shape}"
        )
    return _convolve_slices(vals[None], m.kernel, m.grid.cell_volume)[0]


def mollify_increments(m: Mollifier, increments: np.ndarray, lam: float) -> np.ndarray:
    """ΔWⁿ_k = dx^d · (K ⊛ ΔW_k) for a run of time slices of amplitude λ.

    Each slice is convolved on its own, so a chunk of steps mollifies to
    the same bits as the whole realization.  At λ = 0 the increments are
    zeros, whose convolution is zero: they are returned as they are.
    """
    if lam == 0.0:
        return increments
    return _convolve_slices(increments, m.kernel, m.grid.cell_volume)


def mollify(noise: WhiteNoiseRealization, m: Mollifier) -> MollifiedNoise:
    """Convolve each time slice of the noise with the mollifier kernel.

    The convolution theorem on the discrete torus gives the exact circular
    sum dx^d Σ_j K_{i−j} ΔW_{k,j}; since K is even, the operation is
    self-adjoint with respect to `pair` to machine precision (the adjoint
    identity every limit study leans on).  `make_mollifier` has already
    checked that the kernel resolves on the grid.
    """
    if m.grid != noise.grid:
        raise ValueError("mollifier was built for a different grid")
    mollified = mollify_increments(m, noise.increments, noise.lam)
    return MollifiedNoise(base=noise, mollifier=m, increments=mollified)


def h_eval(m: Mollifier, z) -> float:
    """Spatial covariance kernel h_n(z) = ∫ ρ_n(u) ρ_n(u+z) du.

    Evaluated by tensor-product Simpson quadrature of the unscaled profile
    (h_n(z) = n^d · h_ρ(n|z|) after rescaling), independent of the radial
    quadrature behind the cached constants — so h_n(0) vs c_n_continuum is a
    genuine two-route cross-check.  Exactly zero for |z| ≥ 2/n, and even.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if z_arr.shape != (m.grid.d,):
        raise ValueError(f"lag must be a point in R^{m.grid.d}, got shape {z_arr.shape}")
    n = float(m.scale_n)
    d = m.grid.d
    s = n * float(np.sqrt(np.sum(z_arr * z_arr)))
    if s >= 2.0:
        return 0.0
    c_d, _ = _bump_constants(d)
    panels = {1: 4000, 2: 600, 3: 160}[d]
    axis = np.linspace(-1.0, 1.0, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    step_factor = (2.0 / panels / 3.0) ** d
    # |v|² and |v + s e₁|² via broadcast sums of per-axis squares
    sq = axis * axis
    shifted_sq = (axis + s) ** 2
    r2 = np.zeros((panels + 1,) * d)
    r2_shift = np.zeros((panels + 1,) * d)
    for a in range(d):
        shape = [1] * d
        shape[a] = panels + 1
        r2 = r2 + sq.reshape(shape)
        r2_shift = r2_shift + (shifted_sq if a == 0 else sq).reshape(shape)
    integrand = bump(np.sqrt(r2)) * bump(np.sqrt(r2_shift))
    for a in range(d):
        shape = [1] * (d - a)
        shape[0] = panels + 1
        integrand = np.sum(integrand * w.reshape(shape), axis=0)
    h_unscaled = c_d * c_d * step_factor * float(integrand)
    return n**d * h_unscaled


def _node_index(grid: TorusGrid, x) -> tuple[int, ...]:
    idx = (x,) if np.isscalar(x) else tuple(x)
    if len(idx) != grid.d:
        raise ValueError(f"node index must have {grid.d} components, got {idx!r}")
    out = []
    for component in idx:
        i = int(component)
        if i != component or not (0 <= i < grid.N):
            raise ValueError(f"node index {idx!r} is off the grid (N = {grid.N})")
        out.append(i)
    return tuple(out)


def wiener_path(mn: MollifiedNoise, x) -> np.ndarray:
    """Cumulative mollified noise at one node: the path W^n_t(x), starting at 0.

    Returns the M+1 values at t = 0, dt, …, T; consecutive differences are
    exactly the stored increments at that node.
    """
    idx = _node_index(mn.grid, x)
    node_increments = mn.increments[(slice(None),) + idx]
    path = np.empty(mn.grid.M + 1)
    path[0] = 0.0
    np.cumsum(node_increments, out=path[1:])
    return path


def quadratic_variation(path: np.ndarray) -> float:
    """Sum of squared increments of a sampled path."""
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 1 or path.size < 2:
        raise ValueError("quadratic variation needs a 1-D path with at least 2 points")
    steps = np.diff(path)
    return float(np.sum(steps * steps))


def block_sum(increments: np.ndarray, factor: int) -> np.ndarray:
    """Coarse increments of a run of fine steps: block sums rescaled by factor^{−d}.

    ``increments`` has shape (K,) + (N,)*d with K a multiple of factor²
    and N of factor.  Each coarse step sums factor² consecutive fine steps,
    each coarse node a block of factor^d fine nodes, so a run of whole
    coarse steps sums to the same bits wherever the run starts.  Factor 1
    returns the increments as they are.
    """
    if factor == 1:
        return increments
    d = increments.ndim - 1
    tf = factor * factor
    shape = [increments.shape[0] // tf, tf]
    for n in increments.shape[1:]:
        shape.extend([n // factor, factor])
    summed = increments.reshape(shape).sum(axis=tuple(range(1, 2 * d + 2, 2)))
    return summed / float(factor) ** d


def coarse_grain(noise: WhiteNoiseRealization, factor: int) -> WhiteNoiseRealization:
    """Block-sum a fine realization onto the lattice coarser by `factor`.

    Spatial blocks of factor^d cells and runs of factor² steps are summed
    and rescaled by factor^{−d} (`block_sum` over the whole range), which is
    exactly the scaling that gives the coarse increments variance
    dt'/dx'^d.  The time factor factor² keeps dt ∝ dx², the refinement rule
    of the convergence ladders, so one master realization drives every
    level.

    The defining consistency identity is exact, not approximate: pairing a
    block-constant ξ against the coarse realization telescopes to the fine
    pairing bit for bit in exact arithmetic.
    """
    if factor < 1:
        raise ValueError(f"coarse-graining factor must be a positive integer, got {factor}")
    g = noise.grid
    if g.N % factor or g.M % (factor * factor):
        raise ValueError(
            f"factor {factor} must divide N = {g.N} and its square M = {g.M}"
        )
    if factor == 1:
        return noise
    return WhiteNoiseRealization(
        grid=coarse_grid(g, factor),
        seed=noise.seed,
        lam=noise.lam,
        increments=block_sum(noise.increments, factor),
    )


def coarse_grid(grid: TorusGrid, factor: int) -> TorusGrid:
    """The lattice coarser by `factor` in space and factor² in time."""
    return TorusGrid(d=grid.d, N=grid.N // factor, M=grid.M // factor**2, L=grid.L, T=grid.T)
