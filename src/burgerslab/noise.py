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
tabulated per dimension from radial Simpson quadrature in `bank.BUMP_CONSTANTS`.

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

Seeds and streams
-----------------
A seed becomes the Philox key (seed, tag), where the tag names the consumer
(white noise here, the Brownian walk in `fk`), so the streams of one seed
are independent.  `draw_chunks` reads one seed's stream in time chunks.
`draw_seeds` draws a batch of seeds, one row each, from a single Philox that
it re-keys before each row to a fresh stream's state (counter 0, empty
buffer), so every row equals that seed's own stream bit for bit.  A study
that needs thousands of small realizations draws them in blocks of
`lattice.block_steps(grid, grid.M)` seeds, a quarter of a chunk: the
block's mollified copy and its `pair` product are each as large as the
block, so the block and its temporaries together stay within one chunk.
No generator is built at import.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from burgerslab.bank import BUMP_CONSTANTS, TestFunction, bump
from burgerslab.lattice import TorusGrid, along, block_steps, chunk_steps, is_integer

__all__ = [
    "Mollifier",
    "WhiteNoiseRealization",
    "MollifiedNoise",
    "make_mollifier",
    "lattice_delta",
    "is_seed",
    "seeded_stream",
    "draw_chunks",
    "draw_seeds",
    "sample_noise",
    "pair",
    "mollifying",
    "mollify",
    "mollification_defect",
    "h_eval",
    "wiener_path",
    "quadratic_variation",
    "block_sum",
    "coarse_grain",
    "coarse_grid",
]

# Each consumer of a seed keys its stream with its own tag (fk has the
# Brownian one), so the streams of one seed are independent.
_NOISE_STREAM_TAG = np.uint64(0x57484E5345)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _simpson_weights(panels: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, 4, …, 2, 4, 1 over an even number of panels."""
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


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


def _sum_of_squares(parts) -> np.ndarray:
    """|y|² from per-axis squares: Σ_a parts[a], each on its own block of axes, from zero in order."""
    k, total = parts[0].ndim, np.zeros(sum((part.shape for part in parts), ()))
    for a, part in enumerate(parts):
        total = total + part.reshape((1,) * (k * a) + part.shape + (1,) * (total.ndim - k * a - k))
    return total


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
    sq = pts * pts
    w = _GL_WEIGHTS / 2.0
    kernel = np.zeros(grid.shape)
    # |y|² of a (step, g, b, g, ...) slab, summed over the axes in order; for
    # d ≥ 2 a slab is one candidate cell of the first axis, so no (b, g)^d tensor
    step = b if d == 1 else 1
    for lo in range(0, b, step):
        first = slice(lo, lo + step)
        r2 = _sum_of_squares([sq[first]] + [sq] * (d - 1))
        vals = c_d * float(n) ** d * bump(float(n) * np.sqrt(r2))
        # contract the Gauss weights on each g-axis; cell average = (1/2^d) Σ w·f
        for axis in range(d):
            vals = np.sum(vals * along(w, axis + 1, vals.ndim), axis=axis + 1)
        kernel[np.ix_(box[first], *([box] * (d - 1)))] = vals
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
    c_d, l2 = BUMP_CONSTANTS[grid.d]
    kernel = _cell_averaged_kernel(grid, n, c_d)
    c_disc = grid.cell_volume * float(np.sum(kernel * kernel))
    return Mollifier(
        grid=grid,
        scale_n=n,
        c_n_continuum=l2 * float(n) ** grid.d,
        c_n_discrete=c_disc,
        kernel=kernel,
    )


def lattice_delta(grid: TorusGrid) -> Mollifier:
    """The lattice delta dx⁻ᵈ·δ₀ (ρ_n at n = N), whose convolution is the identity.

    It is the one single-node kernel: make_mollifier's bumps span at least
    8 cells per axis.  Its c_n_discrete is dx⁻ᵈ.
    """
    c = 1.0 / grid.cell_volume
    kernel = np.zeros(grid.shape)
    kernel[(0,) * grid.d] = c
    return Mollifier(grid=grid, scale_n=grid.N, c_n_continuum=c, c_n_discrete=c, kernel=kernel)


@dataclass(frozen=True)
class WhiteNoiseRealization:
    """A seeded grid of white-noise increments ΔW_{k,i}, or a batch of them.

    The array has shape (M,) + grid.shape and, at amplitude λ, entries that
    are independent N(0, λ²·dt/dx^d).  λ multiplies the increments at
    sampling time, so at λ = 0 they are exact zeros, which `sample_noise`
    writes without drawing and `mollify` passes on without convolving; the
    amplitude is kept as metadata because the Itô compensator of the heat
    scheme scales with λ².  A batch (`draw_seeds`) has a tuple of seeds and
    one leading row per seed.
    """

    grid: TorusGrid
    seed: int | tuple
    lam: float
    increments: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rows = (len(self.seed),) if isinstance(self.seed, tuple) else ()
        expected = rows + (self.grid.M,) + self.grid.shape
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


_SEED_MAX = int(np.iinfo(np.uint64).max)  # a Python int: compared without a numpy call


def is_seed(value) -> bool:
    """True for an integer in [0, 2⁶⁴): one word of a Philox key."""
    return is_integer(value) and 0 <= value <= _SEED_MAX


def _stream_key(seed: int, tag: np.uint64) -> np.ndarray:
    """The Philox key (seed, tag), the one place a seed becomes a key."""
    if not is_seed(seed):
        raise ValueError(f"seed must be a nonnegative integer below 2**64, got {seed!r}")
    return np.array((seed, tag), dtype=np.uint64)


def seeded_stream(seed: int, tag: np.uint64) -> np.random.Generator:
    """The Philox stream keyed by (seed, tag)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, tag)))


def _scale(grid: TorusGrid, lam: float) -> float:
    """λ·sqrt(dt/dx^d), the standard deviation of one increment."""
    return lam * math.sqrt(grid.dt / grid.cell_volume)


def draw_chunks(grid: TorusGrid, seed: int, lam: float, chunk: int):
    """Yield (lo, hi, ΔW at steps lo .. hi − 1) from a counter-based stream.

    Parameters
    ----------
    grid : TorusGrid
    seed : int
        Keyed with the white-noise tag by `seeded_stream`.
    lam : float
        Noise amplitude λ; increments are λ·N(0, dt/dx^d).
    chunk : int
        Steps per yielded block; the last block may be shorter.

    The draws of one stream follow each other, so the blocks concatenate to
    the same bits whatever the chunk.  Every block is drawn into one buffer
    of ``chunk`` steps (a short last block into its head), so a yielded
    block is valid only until the next one is requested; a single block of
    all M steps is that buffer itself.  At lam = 0 each block is zeros and
    nothing is drawn, so no stream is built (the seed is still checked).
    """
    _stream_key(seed, _NOISE_STREAM_TAG)
    rng = None if lam == 0.0 else seeded_stream(seed, _NOISE_STREAM_TAG)
    scale = _scale(grid, lam)
    buffer = (np.zeros if lam == 0.0 else np.empty)((min(chunk, grid.M),) + grid.shape)
    for lo in range(0, grid.M, chunk):
        hi = min(lo + chunk, grid.M)
        increments = buffer if hi - lo == len(buffer) else buffer[: hi - lo]
        if lam != 0.0:
            rng.standard_normal(out=increments)
            increments *= scale
        yield lo, hi, increments


def sample_noise(grid: TorusGrid, seed: int, lam: float = 1.0) -> WhiteNoiseRealization:
    """Draw a whole white-noise realization: `draw_chunks` in one block.

    Bit-identical on every call with the same (grid, seed, lam).  At lam = 0
    the increments are zeros and nothing is drawn.
    """
    (_, _, increments), = draw_chunks(grid, seed, lam, grid.M)
    return WhiteNoiseRealization(grid=grid, seed=seed, lam=lam, increments=increments)


def draw_seeds(grid: TorusGrid, seeds, lam: float) -> WhiteNoiseRealization:
    """The realizations of a run of seeds as one batch, drawn from one Philox.

    Row i equals ``sample_noise(grid, seeds[i], lam).increments`` bit for
    bit: before each row the one generator is re-keyed to (seeds[i], the
    white-noise tag) with the counter at 0 and an empty buffer, the state of
    a fresh stream, so a batch builds one Philox instead of one per seed.
    At lam = 0 the rows are zeros and nothing is drawn or built.
    """
    seeds = tuple(seeds)
    keys = [_stream_key(seed, _NOISE_STREAM_TAG) for seed in seeds]
    increments = np.zeros((len(keys), grid.M) + grid.shape)
    if lam != 0.0 and keys:
        bits = np.random.Philox(key=keys[0])
        rng = np.random.Generator(bits)
        fresh = bits.state
        for key, row in zip(keys, increments):
            fresh["state"]["key"] = key
            bits.state = fresh
            rng.standard_normal(out=row)
        increments *= _scale(grid, lam)
    return WhiteNoiseRealization(grid=grid, seed=seeds, lam=lam, increments=increments)


def pair(noise: WhiteNoiseRealization | MollifiedNoise, xi: np.ndarray):
    """Pair a space-time sample array against the noise: Σ ξ·ΔW·dx^d.

    For white noise with λ = 1 the result is Gaussian with mean 0 and
    variance dt·dx^d·Σξ² — the discrete pairing law.  ξ must be sampled on
    the same space-time lattice as the increments.  A batch pairs each row
    and returns one value per realization; a realization returns a float.
    """
    xi = np.asarray(xi, dtype=np.float64)
    increments = noise.increments
    rows = increments.shape[: increments.ndim - xi.ndim]
    if len(rows) > 1 or rows + xi.shape != increments.shape:
        raise ValueError(
            f"pairing shape mismatch: xi {xi.shape} vs increments {increments.shape}"
        )
    values = np.sum((increments * xi).reshape(rows + (-1,)), axis=-1) * noise.grid.cell_volume
    return values if rows else float(values)


def _convolution(members: Sequence[Mollifier], steps: int):
    """convolve(increments) -> [dx^d · (K ⊛ ΔW_k) for each member's K], k over ≤ ``steps`` slices.

    The circular FFT convolution of every slice, in blocks of slices: the
    rfft along the last axis goes into one complex buffer, the fft along
    each other axis runs in place in it (the axis order of `np.fft.rfftn`),
    and every member multiplies that one forward transform by its kernel's
    transform, takes the inverse ffts in place (the axis order of
    `np.fft.irfftn`) and the irfft into its output, so each member's slices
    equal ``irfftn(rfftn(ΔW_k) · rfftn(K))·dx^d`` bit for bit.  The
    members' outputs and the complex buffers are allocated here, once, and
    a returned list is valid until the next call.
    """
    grid = members[0].grid
    axes = tuple(range(1, grid.d + 1))
    hats = [np.fft.rfftn(m.kernel) for m in members]
    block = min(steps, block_steps(grid, len(members)))
    spectrum = np.empty((block,) + grid.shape[:-1] + (grid.N // 2 + 1,), dtype=complex)
    product = np.empty_like(spectrum) if len(members) > 1 else spectrum
    outs = [np.empty((steps,) + grid.shape) for _ in members]

    def convolve(increments: np.ndarray) -> list:
        K = len(increments)
        for lo in range(0, K, block):
            hi = min(lo + block, K)
            forward, inverse = spectrum[: hi - lo], product[: hi - lo]
            np.fft.rfft(increments[lo:hi], axis=-1, out=forward)
            for axis in reversed(axes[:-1]):
                np.fft.fft(forward, axis=axis, out=forward)
            for hat, out in zip(hats, outs):
                np.multiply(forward, hat, out=inverse)
                for axis in axes[:-1]:
                    np.fft.ifft(inverse, axis=axis, out=inverse)
                part = out[lo:hi]
                np.fft.irfft(inverse, n=grid.N, axis=-1, out=part)
                part *= grid.cell_volume
        return [out if K == steps else out[:K] for out in outs]

    return convolve


def mollifying(members: Sequence[Mollifier], lam: float, steps: int):
    """mollify(increments) -> each member's ΔWⁿ of a run of ≤ ``steps`` slices of amplitude λ.

    ΔWⁿ_k = dx^d · (K ⊛ ΔW_k), each slice convolved on its own, so a chunk
    of steps mollifies to the same bits as the whole realization.  A member
    gets the increments as they are where the convolution is exact without
    it: at λ = 0 (they are zeros) and for the single-node `lattice_delta`
    (the identity).  The others share one `_convolution`, whose buffers
    the returned arrays are: each is valid until the next call.
    """
    identity = [lam == 0.0 or np.count_nonzero(m.kernel) == 1 for m in members]
    convolved = [m for m, same in zip(members, identity) if not same]
    convolve = _convolution(convolved, steps) if convolved else None

    def mollify(increments: np.ndarray) -> list:
        outs = iter(convolve(increments) if convolve else ())
        return [increments if same else next(outs) for same in identity]

    return mollify


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
    mollified = mollifying([m], noise.lam, len(noise.increments))(noise.increments)[0]
    return MollifiedNoise(base=noise, mollifier=m, increments=mollified)


def mollification_defect(m: Mollifier, phi: TestFunction) -> float:
    """‖ρ_n ∗ ∇·φ − ∇·φ‖ of a bank test function in the discrete space-time L² norm.

    ∇·φ(t, x) = ψ(t)·D(x) is separable, so the norm is the time factor
    sqrt(`phi.time_l2_sq`) times the spatial factor sqrt(dx^d·Σ (ρ_n∗D − D)²),
    with ρ_n∗D the convolution the increments get.  λ times it is the
    standard deviation of rhs(n) − limit, the pairing of the noise with the
    defect field.
    """
    grid = m.grid
    _, D, _ = phi.spatial_tensors(grid)
    (mollified,) = _convolution([m], 1)(D[None])
    diff = mollified[0] - D
    x_norm = math.sqrt(grid.cell_volume * float(np.sum(diff * diff)))
    return math.sqrt(phi.time_l2_sq(grid)) * x_norm


def h_eval(m: Mollifier, z) -> float:
    """Spatial covariance kernel h_n(z) = ∫ ρ_n(u) ρ_n(u+z) du.

    Evaluated by tensor-product Simpson quadrature of the unscaled profile
    (h_n(z) = n^d · h_ρ(n|z|) after rescaling), independent of the radial
    quadrature behind the tabulated constants — so h_n(0) vs c_n_continuum is a
    genuine two-route cross-check.  Exactly zero for |z| ≥ 2/n, and even.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if z_arr.shape != (m.grid.d,):
        raise ValueError(f"lag must be a point in R^{m.grid.d}, got shape {z_arr.shape}")
    n = float(m.scale_n)
    d = m.grid.d
    s = n * float(np.sqrt(np.sum(z_arr * z_arr)))
    c_d, _ = BUMP_CONSTANTS[d]
    panels = {1: 4000, 2: 600, 3: 160}[d]
    axis = np.linspace(-1.0, 1.0, panels + 1)
    w = _simpson_weights(panels)
    step_factor = (2.0 / panels / 3.0) ** d
    # |v|² and |v + s e₁|² via broadcast sums of per-axis squares; for d ≥ 2 one
    # Simpson point of the first axis at a time, added in np.sum's order (1-D
    # stays whole, for numpy's pairwise sum over the whole vector)
    sq = axis * axis
    shifted_sq = (axis + s) ** 2
    step = panels + 1 if d == 1 else 1
    integrand = 0.0
    for lo in range(0, panels + 1, step):
        first, rest = slice(lo, lo + step), [sq] * (d - 1)
        r2 = _sum_of_squares([sq[first]] + rest)
        r2_shift = _sum_of_squares([shifted_sq[first]] + rest)
        slab = bump(np.sqrt(r2)) * bump(np.sqrt(r2_shift))
        integrand = integrand + np.sum(slab * along(w[first], 0, d), axis=0)
    for a in range(1, d):
        integrand = np.sum(integrand * along(w, 0, d - a), axis=0)
    h_unscaled = c_d * c_d * step_factor * float(integrand)
    return n**d * h_unscaled


def wiener_path(node_increments: np.ndarray) -> np.ndarray:
    """Cumulative mollified noise at one node: the path W^n_t(x), starting at 0.

    ``node_increments`` are the node's M mollified increments; returns the
    M+1 values at t = 0, dt, …, T, their running sums from 0.
    """
    path = np.empty(len(node_increments) + 1)
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


def block_sum(increments: np.ndarray, factor: int, out: np.ndarray,
              partial: np.ndarray) -> np.ndarray:
    """Coarse increments of a run of fine steps into ``out``: block sums rescaled by factor^{−d}.

    ``increments`` has shape (K,) + (N,)*d with K a multiple of factor²
    and N of factor ≥ 2.  Each coarse step sums factor² consecutive fine
    steps, each coarse node a block of factor^d fine nodes, so a run of
    whole coarse steps sums to the same bits wherever the run starts.
    ``out`` has the coarse shape, and ``partial``, the increments' shape
    with the last axis divided by factor, takes the sums over that axis.

    The sums follow the order of numpy's reshape-sum over all the block
    axes, and equal it bit for bit on coarse grids of two or more nodes per
    axis, in two passes: whole-array adds of the factor offsets along the
    last axis (numpy's own sum over that axis from 8 offsets on, where it
    sums pairwise), then numpy's sum over the fine steps and the other
    offsets.  The reshape-sum itself reduces each factor-long run of the
    last axis by one inner-loop call, several times slower.
    """
    d = increments.ndim - 1
    tf = factor * factor
    shape = [increments.shape[0] // tf, tf]
    for n in increments.shape[1:]:
        shape.extend([n // factor, factor])
    blocks = increments.reshape(shape)
    partial = partial.reshape(shape[:-1])
    if factor < 8:  # numpy's pairwise sum adds fewer than 8 terms one by one
        np.add(blocks[..., 0], blocks[..., 1], out=partial)
        for offset in range(2, factor):
            partial += blocks[..., offset]
    else:
        np.sum(blocks, axis=-1, out=partial)
    np.sum(partial, axis=tuple(range(1, 2 * d, 2)), out=out)
    out /= float(factor) ** d
    return out


def coarse_grain(noise: WhiteNoiseRealization, factor: int) -> WhiteNoiseRealization:
    """Block-sum a fine realization onto the lattice coarser by `factor`.

    Spatial blocks of factor^d cells and runs of factor² steps are summed
    and rescaled by factor^{−d}, which is exactly the scaling that gives
    the coarse increments variance dt'/dx'^d.  The time factor factor²
    keeps dt ∝ dx², the refinement rule of the convergence ladders, so one
    master realization drives every level.  `block_sum` runs over one
    `lattice.chunk_steps` chunk of whole coarse steps at a time, so its
    partial sums take a chunk's scratch, not a fraction of the whole
    realization, and the sums have the bits of one pass over all M steps.

    The defining consistency identity is exact, not approximate: pairing a
    block-constant ξ against the coarse realization telescopes to the fine
    pairing bit for bit in exact arithmetic.
    """
    fine, grid = noise.grid, coarse_grid(noise.grid, factor)
    if factor == 1:
        return noise
    tf = factor * factor
    chunk = chunk_steps(fine, multiple=tf)
    increments = np.empty((grid.M,) + grid.shape)
    partial = np.empty((min(chunk, fine.M),) + fine.shape[:-1] + (grid.N,))
    for lo in range(0, fine.M, chunk):
        hi = min(lo + chunk, fine.M)
        block_sum(noise.increments[lo:hi], factor, increments[lo // tf : hi // tf],
                  partial[: hi - lo])
    return WhiteNoiseRealization(grid=grid, seed=noise.seed, lam=noise.lam, increments=increments)


def coarse_grid(grid: TorusGrid, factor: int) -> TorusGrid:
    """The lattice coarser by `factor` in space and factor² in time, which must divide N and M."""
    if factor < 1:
        raise ValueError(f"coarse-graining factor must be a positive integer, got {factor}")
    if grid.N % factor or grid.M % (factor * factor):
        raise ValueError(f"factor {factor} must divide N = {grid.N} and its square M = {grid.M}")
    return TorusGrid(d=grid.d, N=grid.N // factor, M=grid.M // factor**2, L=grid.L, T=grid.T)
