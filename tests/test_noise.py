"""Noise laws: sampling, pairing, mollification, quadratic variation, coarse graining."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgerslab import lattice
from burgerslab.bank import BUMP_CONSTANTS, TestFunction, build_bank, bump
from burgerslab.lattice import TorusGrid
from burgerslab.noise import (
    _GL_NODES,
    _GL_WEIGHTS,
    WhiteNoiseRealization,
    _cell_averaged_kernel,
    _simpson_weights,
    block_sum,
    coarse_grain,
    coarse_grid,
    draw_chunks,
    draw_seeds,
    h_eval,
    lattice_delta,
    make_mollifier,
    mollification_defect,
    mollify,
    mollifying,
    pair,
    quadratic_variation,
    sample_noise,
    wiener_path,
)


def _grid(d=1, N=32, M=64, T=0.1):
    return TorusGrid(d=d, N=N, M=M, T=T)


def _rho(m, r):
    """Pointwise profile ρ_n of the mollifier as a function of the radius |x|."""
    n = m.scale_n
    return BUMP_CONSTANTS[m.grid.d][0] * n**m.grid.d * bump(n * r)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    g = _grid()
    a = sample_noise(g, seed=123)
    b = sample_noise(g, seed=123)
    assert np.array_equal(a.increments, b.increments)
    c = sample_noise(g, seed=124)
    assert not np.array_equal(a.increments, c.increments)


def test_the_quadrature_nodes_are_leggauss_8_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_importing_the_studies_loads_no_numpy_polynomial(tmp_path):
    # a fresh interpreter: numpy.polynomial costs every run about 1 MiB of RSS
    src_dir = str(Path(lattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys\nimport burgerslab.harness.studies\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_zero_amplitude_gives_exact_zeros():
    g = _grid()
    off = sample_noise(g, seed=5, lam=0.0)
    assert np.all(off.increments == 0.0)
    assert off.lam == 0.0


def test_a_whole_realization_owns_its_increments():
    # sample_noise reads its draw_chunks stream as one chunk of all M
    # steps: the stream's one buffer itself, not a view of it
    for d, lam in ((1, 1.0), (2, 1.0), (1, 0.0)):
        increments = sample_noise(_grid(d=d, N=16), 3, lam).increments
        assert increments.flags.owndata and increments.base is None


@pytest.mark.parametrize("sets", [1, 2, 3])
def test_chunks_drawn_into_sets_of_buffers_concatenate_to_the_whole_draw(sets):
    # block j goes into buffer j mod sets: each block keeps its bits until
    # `sets` more are drawn, and the blocks are the whole draw's bits
    g = _grid(d=2, N=8, M=11)
    blocks = list(draw_chunks(g, 5, 0.7, 3, sets))
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 3), (3, 6), (6, 9), (9, 11)]
    held = [block for _, _, block in blocks[-sets:]]
    whole = sample_noise(g, 5, 0.7).increments
    assert np.array_equal(np.concatenate(held), whole[len(blocks[:-sets]) * 3:])
    pointers = [block.ctypes.data for _, _, block in blocks]
    assert pointers == [pointers[j % sets] for j in range(len(blocks))]
    assert len(set(pointers)) == sets


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        sample_noise(_grid(), seed=-1)


def test_increment_moments_match_white_noise_law():
    g = _grid(d=1, N=32, M=512, T=0.1)
    noise = sample_noise(g, seed=7)
    samples = noise.increments.ravel()
    target_var = g.dt / g.cell_volume
    rel_err = abs(samples.var() / target_var - 1.0)
    assert rel_err <= 0.05  # chi-square concentration, ~16k samples
    se_mean = math.sqrt(target_var / samples.size)
    assert abs(samples.mean()) <= 4 * se_mean


def _counting_philox(monkeypatch) -> list:
    """Count every Philox built from here on; the list holds one entry per build."""
    built = []
    original = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs.get("key"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return built


@pytest.mark.parametrize("d,N,M", [(1, 32, 8), (2, 16, 6)])
def test_seed_batch_rows_equal_each_seeds_own_draw(d, N, M, monkeypatch):
    # one re-keyed Philox per batch: every row is the seed's fresh stream,
    # the largest seed included, and no state leaks into the next call
    g = _grid(d=d, N=N, M=M)
    seeds = (0, 1, 2**64 - 1, 12_345, 3)
    built = _counting_philox(monkeypatch)
    batch = draw_seeds(g, seeds, 0.7)
    assert len(built) == 1
    assert batch.increments.shape == (len(seeds), M) + g.shape
    assert batch.seed == seeds and batch.lam == 0.7
    for seed, row in zip(seeds, batch.increments):
        assert np.array_equal(row, sample_noise(g, seed, 0.7).increments)
    assert np.array_equal(draw_seeds(g, seeds, 0.7).increments, batch.increments)
    # a range of seeds reads the same rows as the seeds one at a time
    assert np.array_equal(draw_seeds(g, range(2, 5), 0.7).increments,
                          np.stack([draw_seeds(g, [s], 0.7).increments[0] for s in (2, 3, 4)]))


def test_seed_batch_at_zero_amplitude_draws_nothing(monkeypatch):
    g = _grid(d=1, N=32, M=8)
    built = _counting_philox(monkeypatch)
    zero = draw_seeds(g, range(300), 0.0)
    # the streamed draw builds no Philox at λ = 0 either: the heat oracle
    # never loads numpy.random
    blocks = [block.copy() for _, _, block in draw_chunks(g, 5, 0.0, 3)]
    assert built == []
    assert [len(block) for block in blocks] == [3, 3, 2]
    assert not np.any(np.concatenate(blocks))
    assert zero.increments.shape == (300, g.M) + g.shape
    assert not np.any(zero.increments)
    assert draw_seeds(g, (), 1.0).increments.shape == (0, g.M) + g.shape


def test_seed_batch_names_a_seed_outside_64_bits():
    g = _grid(d=1, N=32, M=8)
    for seeds in ((0, 2**64), (-1,), (1, 2.0)):
        with pytest.raises(ValueError, match=r"nonnegative integer below 2\*\*64"):
            draw_seeds(g, seeds, 1.0)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N,M", [(1, 32, 8), (2, 16, 6)])
def test_batched_pair_equals_the_scalar_pair_per_row(d, N, M):
    g = _grid(d=d, N=N, M=M)
    xi = np.random.default_rng(4).standard_normal((M,) + g.shape)
    batch = draw_seeds(g, range(40, 340), 1.3)
    values = pair(batch, xi)
    assert values.shape == (300,)
    for seed, value in zip(batch.seed, values):
        scalar = pair(sample_noise(g, seed, 1.3), xi)
        assert type(scalar) is float and value == scalar
    with pytest.raises(ValueError, match="shape mismatch"):
        pair(batch, xi[:-1])


def test_pair_of_zero_test_function_is_zero():
    g = _grid()
    noise = sample_noise(g, seed=1)
    assert pair(noise, np.zeros((g.M,) + g.shape)) == 0.0


def test_pair_shape_mismatch_raises():
    g = _grid()
    noise = sample_noise(g, seed=1)
    with pytest.raises(ValueError):
        pair(noise, np.zeros((g.M, g.N + 1)))


def test_pairing_variance_law():
    g = _grid(d=1, N=16, M=16, T=0.1)
    x = g.axis_coords()
    t = np.arange(g.M) * g.dt
    xi = np.sin(2 * np.pi * x)[None, :] * np.cos(2 * np.pi * t / g.T)[:, None]
    target = g.dt * g.cell_volume * float(np.sum(xi * xi))
    vals = np.array([pair(sample_noise(g, seed=s), xi) for s in range(3000)])
    assert abs(vals.mean()) <= 4 * math.sqrt(target / vals.size)
    assert abs(vals.var() / target - 1.0) <= 0.05


def test_disjoint_supports_are_uncorrelated():
    g = _grid(d=1, N=16, M=16, T=0.1)
    xi_a = np.zeros((g.M,) + g.shape)
    xi_b = np.zeros((g.M,) + g.shape)
    xi_a[:, :8] = 1.0
    xi_b[:, 8:] = 1.0
    m = 2000
    vals = np.array(
        [(pair(n, xi_a), pair(n, xi_b)) for n in (sample_noise(g, seed=s) for s in range(m))]
    )
    corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
    assert abs(corr) <= 4 / math.sqrt(m)


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------


def test_mollifier_resolution_preconditions():
    with pytest.raises(ValueError):
        make_mollifier(_grid(d=1, N=16), 8)  # support 1/8 < 4/16
    with pytest.raises(ValueError):
        make_mollifier(_grid(d=1, N=64), 1)  # kernel wider than half the torus
    with pytest.raises(ValueError):
        make_mollifier(_grid(d=1, N=64), 0)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
def test_kernel_mass_and_symmetry(d, N):
    g = _grid(d=d, N=N, M=8)
    m = make_mollifier(g, 4)
    mass = g.cell_volume * float(np.sum(m.kernel))
    assert abs(mass - 1.0) <= 2 * g.dx**2
    assert abs(mass - 1.0) <= 1e-6  # cell averaging reproduces ∫ρ_n up to GL error
    flipped = m.kernel
    for axis in range(d):
        # evenness on the periodic grid: K[j] = K[(N−j) mod N]
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    # mirrored cells sum the same Gauss points in a different order: ulp-level only
    assert np.allclose(m.kernel, flipped, rtol=1e-12, atol=0)
    # the pointwise profile itself is exactly even (a function of |x|)
    r = np.linspace(0, 0.3, 7)
    assert np.array_equal(_rho(m, r), _rho(m, -r))
    # support: zero beyond 1/n + half a cell
    offsets = g.wrapped_offsets()
    far = np.abs(offsets) > 1 / m.scale_n + g.dx / 2 + 1e-12
    if d == 1:
        assert np.all(m.kernel[far] == 0.0)


def test_pointwise_profile_mass_by_grid_quadrature():
    g = _grid(d=1, N=128, M=8)
    m = make_mollifier(g, 4)
    mass = g.dx * float(np.sum(_rho(m, np.abs(g.wrapped_offsets()))))
    assert abs(mass - 1.0) <= 2 * g.dx**2


def test_profile_mass_by_high_resolution_quadrature():
    g = _grid(d=1, N=64, M=8)
    m = make_mollifier(g, 4)
    # independent fine trapezoid over the support
    r = np.linspace(-1.0 / 4, 1.0 / 4, 200_001)
    mass = np.trapezoid(_rho(m, np.abs(r)), r)
    assert abs(mass - 1.0) <= 1e-8


def test_discrete_constant_tracks_continuum_constant():
    g = _grid(d=1, N=128, M=8)
    m = make_mollifier(g, 4)
    assert abs(m.c_n_discrete / m.c_n_continuum - 1.0) <= 0.01


def test_discrete_constant_second_order_error():
    # error ≈ −(dx²/12)‖∇ρ_n‖², so consecutive dx-halvings divide it by ~4
    errs = []
    for N in (32, 64, 128):
        m = make_mollifier(_grid(d=1, N=N, M=8), 4)
        errs.append(m.c_n_discrete - m.c_n_continuum)
    assert all(e < 0 for e in errs)
    assert abs(errs[0] / errs[1] - 4.0) <= 0.6
    assert abs(errs[1] / errs[2] - 4.0) <= 0.6


# Surface area of the unit sphere S^{d-1} bounding the unit ball in R^d.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with an even number of panels."""
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    x = np.linspace(a, b, panels + 1)
    return float((b - a) / panels / 3.0 * np.sum(w * f(x)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_constants_equal_the_radial_quadrature(d):
    # the table is the 2·10⁵-panel radial Simpson quadrature of the bump; an
    # ulp of slack, because np.exp's SIMD path may round differently per CPU
    area, panels = _SPHERE_AREA[d], 200_000
    c_d = 1.0 / (area * _simpson(lambda r: r ** (d - 1) * bump(r), 0.0, 1.0, panels))
    l2 = c_d * c_d * area * _simpson(lambda r: r ** (d - 1) * bump(r) ** 2, 0.0, 1.0, panels)
    for table, quadrature in zip(BUMP_CONSTANTS[d], (c_d, l2)):
        assert abs(table / quadrature - 1.0) <= 1e-15, (d, table, quadrature)


@pytest.mark.parametrize("d", [1, 2])
def test_h_kernel_at_zero_matches_continuum_constant(d):
    g = _grid(d=d, N=64 if d == 1 else 32, M=8)
    m = make_mollifier(g, 4)
    origin = np.zeros(d)
    assert abs(h_eval(m, origin) / m.c_n_continuum - 1.0) <= 1e-6


def test_h_kernel_symmetry_and_support():
    g = _grid(d=1, N=64, M=8)
    m = make_mollifier(g, 4)
    z = 0.31 / 4
    assert h_eval(m, [z]) == pytest.approx(h_eval(m, [-z]), rel=1e-12)
    assert h_eval(m, [2.0 / 4]) == 0.0
    assert h_eval(m, [0.7]) == 0.0
    assert h_eval(m, [0.2 / 4]) > 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_h_kernel_vanishes_by_quadrature_where_the_supports_part(d):
    # noise-check's h_support item reads the quadrature at n|z| ≥ 2, where the
    # two bumps' supports are disjoint and every summand is exactly 0
    m = make_mollifier(_grid(d=d, N=16 if d == 3 else 32, M=8), 2)
    for s, inside in ((1.95, True), (2.0, False), (2.05, False), (3.0, False)):
        z = np.zeros(d)
        z[0] = s / m.scale_n
        value = h_eval(m, z)
        assert value > 0.0 if inside else value == 0.0, (s, value)


def _whole_cell_averaged_kernel(grid, n, c_d):
    """The kernel build over the whole (b, g)^d tensor of candidate Gauss points."""
    z = grid.wrapped_offsets()
    half = grid.dx / 2.0
    box = np.flatnonzero(np.abs(z) <= 1.0 / n + half + 1e-15)
    pts = z[box][:, None] + half * _GL_NODES[None, :]
    d = grid.d
    b, g = pts.shape
    sq = pts * pts
    r2 = np.zeros((b, g) * d)
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[2 * axis] = b
        shape[2 * axis + 1] = g
        r2 = r2 + sq.reshape(shape)
    vals = c_d * float(n) ** d * bump(float(n) * np.sqrt(r2))
    w = _GL_WEIGHTS / 2.0
    for axis in range(d):
        vals = np.sum(vals * w.reshape((1,) * (axis + 1) + (g,) + (1,) * (2 * d - 2 * axis - 2)),
                      axis=axis + 1)
    kernel = np.zeros(grid.shape)
    kernel[np.ix_(*([box] * d))] = vals
    return kernel


def _whole_h_eval(m, z):
    """h_eval over the whole (panels + 1)^d Simpson tensor."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    n = float(m.scale_n)
    d = m.grid.d
    s = n * float(np.sqrt(np.sum(z_arr * z_arr)))
    if s >= 2.0:
        return 0.0
    c_d, _ = BUMP_CONSTANTS[d]
    panels = {1: 4000, 2: 600, 3: 160}[d]
    axis = np.linspace(-1.0, 1.0, panels + 1)
    w = _simpson_weights(panels)
    step_factor = (2.0 / panels / 3.0) ** d
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
    return n**d * (c_d * c_d * step_factor * float(integrand))


@pytest.mark.parametrize("d,N,n", [(1, 64, 4), (1, 128, 8), (2, 32, 4), (2, 64, 8),
                                   (3, 16, 2), (3, 32, 8)])
def test_slab_quadratures_equal_the_whole_tensor_bit_for_bit(d, N, n):
    # for d ≥ 2 the kernel build and h_eval take the first axis a slab at a
    # time; the sums keep their order, so not a bit moves
    g = _grid(d=d, N=N, M=8)
    c_d = BUMP_CONSTANTS[d][0]
    assert (_cell_averaged_kernel(g, n, c_d).tobytes()
            == _whole_cell_averaged_kernel(g, n, c_d).tobytes())
    m = make_mollifier(g, n)
    lags = [np.zeros(d), np.full(d, 0.3 / n), np.r_[0.9 / n, np.zeros(d - 1)]]
    for z in lags[: 2 if d == 3 else 3]:  # each whole 3-D tensor is 33 MB
        assert np.float64(h_eval(m, z)).tobytes() == np.float64(_whole_h_eval(m, z)).tobytes()


def test_the_3d_quadratures_hold_no_whole_tensor():
    # whole, the N = 32, n = 4 kernel build peaked at 85 MiB and h_eval at 212 MiB
    g = _grid(d=3, N=32, M=8)
    tracemalloc.start()
    try:
        m = make_mollifier(g, 4)
        kernel_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        h_eval(m, np.zeros(3))
        h_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel_peak < 10 * 2**20, kernel_peak
    assert h_peak < 5 * 2**20, h_peak


def _fft_reference(m, increments):
    """dx^d · irfftn(rfftn(ΔW) · rfftn(K)) over the spatial axes, in rfftn's own order."""
    axes = tuple(range(1, m.grid.d + 1))
    spectrum = np.fft.rfftn(increments, axes=axes)
    spectrum *= np.fft.rfftn(m.kernel)[None, ...]
    out = np.fft.irfftn(spectrum, s=m.grid.shape, axes=axes)
    out *= m.grid.cell_volume
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    steps=st.integers(1, 9),
    short=st.integers(0, 8),
    block=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    sets=st.sampled_from([1, 2]),
)
def test_in_place_convolution_equals_rfftn_irfftn_bit_for_bit(d, steps, short, block, seed,
                                                              sets):
    # rfft into one complex buffer, fft and ifft in place along the other
    # axes, irfft into the output: blocks of `block` slices (a short last
    # one), and a later call on fewer slices than the buffers hold, as the
    # stream's last chunk is.  The calls take `sets` sets of outputs in turn,
    # so the last `sets` outputs all keep their bits
    g = TorusGrid(d=d, N=16 if d < 3 else 8, M=16, T=0.01)
    m = make_mollifier(g, 4 if d < 3 else 2)
    rng = np.random.default_rng(seed)
    with mock.patch("burgerslab.lattice._CHUNK", block):
        mollify_run = mollifying([m], 1.0, steps, sets)
    held = []
    for k in (steps, max(1, steps - short), steps):
        increments = rng.standard_normal((k,) + g.shape)
        (out,) = mollify_run(increments)
        assert out.shape == increments.shape
        held = (held + [(out, _fft_reference(m, increments))])[-sets:]
        for out, expected in held:
            assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
def test_one_forward_transform_serves_every_member_bit_for_bit(d, N):
    # the members share one forward transform per block; each equals its own
    # mollify, and the lattice delta and λ = 0 get the increments as they are
    g = TorusGrid(d=d, N=N, M=24, T=0.01)
    noise = sample_noise(g, 5, 1.0)
    members = [make_mollifier(g, n) for n in (2, 4, 8)] + [lattice_delta(g)]
    with mock.patch("burgerslab.lattice._CHUNK", 5):
        outs = mollifying(members, 1.0, g.M)(noise.increments)
    for m, out in zip(members[:3], outs):
        assert np.array_equal(out.view(np.int64), mollify(noise, m).increments.view(np.int64))
        assert np.array_equal(out.view(np.int64), _fft_reference(m, noise.increments).view(np.int64))
    assert outs[3] is noise.increments
    zeros = np.zeros((g.M,) + g.shape)
    assert all(out is zeros for out in mollifying(members, 0.0, g.M)(zeros))


def test_mollify_is_linear_and_zero_preserving():
    g = _grid(d=1, N=32, M=16)
    m = make_mollifier(g, 4)
    zero = sample_noise(g, seed=3, lam=0.0)
    assert np.all(mollify(zero, m).increments == 0.0)
    noise = sample_noise(g, seed=3)
    doubled = WhiteNoiseRealization(
        grid=g, seed=3, lam=2.0, increments=2.0 * noise.increments
    )
    assert np.allclose(
        mollify(doubled, m).increments,
        2.0 * mollify(noise, m).increments,
        rtol=1e-13,
        atol=0,
    )


def test_mollify_adjoint_identity():
    g = _grid(d=1, N=32, M=16)
    m = make_mollifier(g, 4)
    noise = sample_noise(g, seed=17)
    rng = np.random.default_rng(99)
    xi = rng.standard_normal((g.M,) + g.shape)
    lhs = pair(mollify(noise, m), xi)
    carrier = WhiteNoiseRealization(grid=g, seed=0, lam=1.0, increments=xi)
    rhs = pair(noise, mollify(carrier, m).increments)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_mollified_moments_white_in_time_colored_in_space():
    g = _grid(d=1, N=32, M=4, T=0.01)
    m = make_mollifier(g, 4)
    lags = [0, 2, 4]
    samples = {lag: [] for lag in lags}
    time_products = []
    for s in range(2500):
        mn = mollify(sample_noise(g, seed=s), m)
        for lag in lags:
            samples[lag].append(mn.increments[0, 0] * mn.increments[0, lag])
        time_products.append(mn.increments[0, 0] * mn.increments[1, 0])
    var_node = g.dt * m.c_n_discrete
    for lag in lags:
        vals = np.asarray(samples[lag])
        target = g.dt * h_eval(m, [lag * g.dx])
        se = math.sqrt((var_node**2 + target**2) / vals.size)
        assert abs(vals.mean() - target) <= 4 * se, f"lag {lag}"
    tp = np.asarray(time_products)
    assert abs(tp.mean()) <= 4 * var_node / math.sqrt(tp.size)


def test_per_node_variance_equals_discrete_constant_exactly_in_law():
    # one realization, many nodes+steps: sharper than per-node statistics
    g = _grid(d=1, N=64, M=256, T=0.05)
    m = make_mollifier(g, 4)
    mn = mollify(sample_noise(g, seed=11), m)
    emp = float(np.var(mn.increments))
    target = g.dt * m.c_n_discrete
    # mollified values are spatially correlated: effective sample count is
    # reduced by roughly the kernel width (≈ N·dx·n/2 independent per slice)
    assert abs(emp / target - 1.0) <= 0.1


def test_good_approximation_gap_decreases_with_n():
    g = _grid(d=1, N=128, M=8, T=0.01)
    noise = sample_noise(g, seed=23)
    x = g.axis_coords()
    t = np.arange(g.M) * g.dt
    xi = np.sin(2 * np.pi * x)[None, :] * (1.0 + t)[:, None]
    base_val = pair(noise, xi)
    gaps = []
    for n in (4, 8, 16, 32):
        m = make_mollifier(g, n)
        gaps.append(abs(pair(mollify(noise, m), xi) - base_val))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


# ---------------------------------------------------------------------------
# the mollification defect and the law it scales
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_the_defect_is_the_space_time_norm_of_the_defect_field(d, N):
    # ψ⊗(ρ_n∗D − D) formed as one (M,) + grid array and normed as a whole;
    # a φ with zero amplitudes has D = 0, the case converge's ratio guards
    g = TorusGrid(d=d, N=N, M=48, T=0.05)
    m = make_mollifier(g, 4)
    for phi in build_bank(g):
        _, D, _ = phi.spatial_tensors(g)
        psi, _ = phi.time_profile(g)
        field = psi.reshape((-1,) + (1,) * d) * (_fft_reference(m, D[None])[0] - D)
        whole = math.sqrt(g.dt * g.cell_volume * float(np.sum(field * field)))
        assert abs(mollification_defect(m, phi) - whole) <= 1e-12 * whole, phi.id
    flat = TestFunction(id="flat", t_center=0.025, t_radius=0.02, x_center=(0.5,) * d,
                        x_radius=0.2, amplitudes=(0.0,) * d)
    assert mollification_defect(m, flat) == 0.0


@pytest.mark.parametrize("d,N,M", [(1, 32, 64), (2, 16, 32)])
def test_rhs_minus_limit_has_the_law_the_defect_scales(d, N, M):
    # rhs(n) − limit = −dx^d·Σ_k ψ_k·Σ_x (ΔWⁿ − ΔW)·D, the noise paired with
    # the defect field, is centred Gaussian with standard deviation
    # σ = λ·mollification_defect.  Over S seeds its mean square over σ² is a
    # χ²_S/S, 1 within five standard errors 5·sqrt(2/S); a σ off by 10%
    # reads about 0.83.  No march: the seeds are drawn a block at a time,
    # mollified and contracted with every φ's D at once.
    g = TorusGrid(d=d, N=N, M=M, T=0.1)
    lam, seeds = 0.8, 10_000
    m = make_mollifier(g, 4)
    bank = build_bank(g)
    psis = np.stack([phi.time_profile(g)[0] for phi in bank])
    Ds = np.stack([phi.spatial_tensors(g)[1].ravel() for phi in bank])
    block = (1 << 21) // (8 * M * g.num_nodes)  # seeds whose increments take 2 MiB
    mollify_run = mollifying([m], lam, block * M)
    devs = []
    for lo in range(0, seeds, block):
        increments = draw_seeds(g, range(lo, min(lo + block, seeds)), lam).increments
        rows = len(increments)
        increments = increments.reshape((-1,) + g.shape)
        (defect,) = mollify_run(increments)
        defect -= increments
        per_step = defect.reshape(rows, M, -1) @ Ds.T
        devs.append(-g.cell_volume * np.einsum("bkf,fk->bf", per_step, psis))
    devs = np.concatenate(devs)
    sigma = np.array([lam * mollification_defect(m, phi) for phi in bank])
    mean_square = np.mean(devs * devs, axis=0) / sigma**2
    assert np.all(np.abs(mean_square - 1.0) <= 5 * math.sqrt(2 / seeds)), mean_square


# ---------------------------------------------------------------------------
# Wiener paths and quadratic variation
# ---------------------------------------------------------------------------


def test_wiener_path_telescopes_stored_increments():
    g = _grid(d=1, N=32, M=64)
    m = make_mollifier(g, 4)
    mn = mollify(sample_noise(g, seed=2), m)
    path = wiener_path(mn.increments[:, 5])
    assert path[0] == 0.0
    assert path.shape == (g.M + 1,)
    assert np.allclose(np.diff(path), mn.increments[:, 5], rtol=0, atol=1e-15)


def test_quadratic_variation_basics():
    dt = 0.01
    path = 3.0 * np.arange(11) * dt
    assert quadratic_variation(path) == pytest.approx(10 * (3.0 * dt) ** 2)
    assert quadratic_variation(-path) == quadratic_variation(path)
    with pytest.raises(ValueError):
        quadratic_variation(np.array([1.0]))


def test_single_path_quadratic_variation_law():
    g = TorusGrid(d=1, N=16, M=10_000, T=0.1)
    m = make_mollifier(g, 4)
    mn = mollify(sample_noise(g, seed=41), m)
    qv = quadratic_variation(wiener_path(mn.increments[:, 3]))
    target = g.T * m.c_n_discrete
    assert abs(qv / target - 1.0) <= 0.05  # estimator spread ~ √(2/M) ≈ 1.4%


def test_terminal_variance_of_paths():
    g = _grid(d=1, N=16, M=8, T=0.1)
    m = make_mollifier(g, 4)
    finals = np.array(
        [wiener_path(mollify(sample_noise(g, seed=s), m).increments[:, 0])[-1] for s in range(2500)]
    )
    target = g.T * m.c_n_discrete
    assert abs(finals.var() / target - 1.0) <= 0.08


# ---------------------------------------------------------------------------
# coarse graining
# ---------------------------------------------------------------------------


def test_coarse_grain_identity():
    g = _grid()
    noise = sample_noise(g, seed=9)
    assert coarse_grain(noise, 1) is noise


def test_coarse_grain_divisibility_errors():
    g = _grid(d=1, N=32, M=64)
    noise = sample_noise(g, seed=9)
    with pytest.raises(ValueError):
        coarse_grain(noise, 3)
    # seen: coarse_grid floored both sizes and returned N = 10, M = 7
    with pytest.raises(ValueError, match="N = 32"):
        coarse_grid(g, 3)
    # N = 32 is divisible by 2, but M = 30 is not divisible by 2² = 4
    short = sample_noise(_grid(d=1, N=32, M=30), seed=9)
    with pytest.raises(ValueError, match="M = 30"):
        coarse_grain(short, 2)
    with pytest.raises(ValueError, match="M = 30"):
        coarse_grid(short.grid, 2)


@pytest.mark.parametrize("d", [1, 2])
def test_coarse_grain_pairing_consistency_is_exact(d):
    g = _grid(d=d, N=16, M=16)
    noise = sample_noise(g, seed=31)
    factor, tf = 2, 4
    coarse = coarse_grain(noise, factor)
    cg = coarse.grid
    rng = np.random.default_rng(8)
    xi_coarse = rng.standard_normal((cg.M,) + cg.shape)
    xi_fine = np.repeat(xi_coarse, tf, axis=0)
    for axis in range(1, d + 1):
        xi_fine = np.repeat(xi_fine, factor, axis=axis)
    lhs = pair(coarse, xi_coarse)
    rhs = pair(noise, xi_fine)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def _reshape_sum(increments, factor):
    """block_sum's former body: one numpy sum over every block axis of a reshape."""
    d = increments.ndim - 1
    tf = factor * factor
    shape = [increments.shape[0] // tf, tf]
    for n in increments.shape[1:]:
        shape.extend([n // factor, factor])
    summed = increments.reshape(shape).sum(axis=tuple(range(1, 2 * d + 2, 2)))
    summed /= float(factor) ** d
    return summed


def _block_sum(increments, factor):
    """block_sum into NaN-filled buffers, checking it returns ``out``."""
    coarse = tuple(n // factor for n in increments.shape[1:])
    out = np.full((len(increments) // factor**2,) + coarse, np.nan)
    partial = np.full(increments.shape[:-1] + (increments.shape[-1] // factor,), np.nan)
    assert block_sum(increments, factor, out, partial) is out
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    factor=st.sampled_from([2, 4]),
    coarse_steps=st.integers(1, 3),
    coarse_nodes=st.integers(2, 4),
    zeros=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sum_equals_the_reshape_sum_bit_for_bit(d, factor, coarse_steps, coarse_nodes,
                                                      zeros, seed):
    # whole-array adds of the last axis's offsets, then numpy's sum over the
    # fine steps and the other offsets, add in the reshape-sum's order: the
    # same bits, signed zeros included.  A coarse grid of one node is left
    # out: there numpy merges the block axes into one pairwise sum, and no
    # TorusGrid has fewer than 8 nodes
    N = factor * coarse_nodes
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((factor * factor * coarse_steps,) + (N,) * d)
    hit = rng.random(increments.shape) < zeros
    increments[hit] = np.where(rng.random(np.count_nonzero(hit)) < 0.5, 0.0, -0.0)
    expected = _reshape_sum(increments, factor)
    assert _block_sum(increments, factor).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d,N,K,factor", [(1, 128, 256, 8), (1, 128, 256, 16), (1, 64, 128, 8),
                                           (2, 32, 128, 8)])
def test_block_sum_past_seven_offsets_keeps_numpys_pairwise_order(d, N, K, factor):
    # from 8 terms on numpy sums the last axis pairwise, and block_sum
    # takes that sum from numpy itself
    increments = np.random.default_rng(K).standard_normal((K,) + (N,) * d)
    expected = _reshape_sum(increments, factor)
    assert _block_sum(increments, factor).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_coarse_grain_sums_a_chunk_at_a_time_to_the_bits_of_one_pass(d):
    # chunks of 24 fine steps for fac 2 (the last of M = 160 short) and 16
    # for fac 4 give the reshape-sum's bits over the whole range, and the
    # partial sums take one chunk's scratch beside the coarse output: summed
    # whole, fac 2 held half the realization as well
    g = TorusGrid(d=d, N=32, M=160, T=0.1)
    noise = sample_noise(g, seed=3)
    with mock.patch("burgerslab.lattice._CHUNK", 24):
        for factor in (2, 4):
            coarse = coarse_grain(noise, factor).increments
            assert coarse.tobytes() == _reshape_sum(noise.increments, factor).tobytes()
    base = sample_noise(TorusGrid(d=1, N=128, M=4096), seed=3)  # 4 MiB
    tracemalloc.start()
    try:
        coarse = coarse_grain(base, 2).increments
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < coarse.nbytes + lattice._CHUNK_BYTES, (peak, coarse.nbytes)


def test_coarse_increments_have_coarse_variance():
    g = _grid(d=1, N=32, M=256, T=0.1)
    noise = sample_noise(g, seed=55)
    coarse = coarse_grain(noise, 2)
    cg = coarse.grid
    target = cg.dt / cg.cell_volume
    samples = coarse.increments.ravel()
    assert abs(samples.var() / target - 1.0) <= 0.1


def test_unit_bump_has_unit_mass():
    # c₁·bump is the unit-mass delta-net profile of the time sections
    c_1 = BUMP_CONSTANTS[1][0]
    u = np.linspace(-1, 1, 100_001)
    mass = np.trapezoid(c_1 * bump(u), u)
    assert abs(mass - 1.0) <= 1e-8
    assert bump(np.array([1.0]))[0] == 0.0
