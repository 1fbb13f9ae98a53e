"""Noise laws: sampling, pairing, mollification, quadratic variation, coarse graining."""

import math

import numpy as np
import pytest

from burgerslab.bank import bump
from burgerslab.lattice import TorusGrid
from burgerslab.noise import (
    WhiteNoiseRealization,
    _bump_constants,
    coarse_grain,
    h_eval,
    make_mollifier,
    mollify,
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
    return _bump_constants(m.grid.d)[0] * n**m.grid.d * bump(n * r)


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


def test_zero_amplitude_gives_exact_zeros():
    g = _grid()
    off = sample_noise(g, seed=5, lam=0.0)
    assert np.all(off.increments == 0.0)
    assert off.lam == 0.0


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


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


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
# Wiener paths and quadratic variation
# ---------------------------------------------------------------------------


def test_wiener_path_telescopes_stored_increments():
    g = _grid(d=1, N=32, M=64)
    m = make_mollifier(g, 4)
    mn = mollify(sample_noise(g, seed=2), m)
    path = wiener_path(mn, 5)
    assert path[0] == 0.0
    assert path.shape == (g.M + 1,)
    assert np.allclose(np.diff(path), mn.increments[:, 5], rtol=0, atol=1e-15)


def test_wiener_path_rejects_off_grid_nodes():
    g = _grid(d=1, N=32, M=8)
    mn = mollify(sample_noise(g, seed=2), make_mollifier(g, 4))
    with pytest.raises(ValueError):
        wiener_path(mn, 32)
    with pytest.raises(ValueError):
        wiener_path(mn, (1, 1))


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
    qv = quadratic_variation(wiener_path(mn, 3))
    target = g.T * m.c_n_discrete
    assert abs(qv / target - 1.0) <= 0.05  # estimator spread ~ √(2/M) ≈ 1.4%


def test_terminal_variance_of_paths():
    g = _grid(d=1, N=16, M=8, T=0.1)
    m = make_mollifier(g, 4)
    finals = np.array(
        [wiener_path(mollify(sample_noise(g, seed=s), m), 0)[-1] for s in range(2500)]
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
    # N = 32 is divisible by 2, but M = 30 is not divisible by 2² = 4
    short = sample_noise(_grid(d=1, N=32, M=30), seed=9)
    with pytest.raises(ValueError, match="M = 30"):
        coarse_grain(short, 2)


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
    c_1 = _bump_constants(1)[0]
    u = np.linspace(-1, 1, 100_001)
    mass = np.trapezoid(c_1 * bump(u), u)
    assert abs(mass - 1.0) <= 1e-8
    assert bump(np.array([1.0]))[0] == 0.0
