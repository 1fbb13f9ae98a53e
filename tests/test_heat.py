"""Heat scheme: stability, positivity, zero-noise reduction, oracles."""

import math

import numpy as np
import pytest

from burgerslab.lattice import TorusGrid, laplacian_values
from burgerslab.noise import make_mollifier, mollify, sample_noise
from burgerslab.heat import (
    initial_cosine,
    initial_gaussian_bump,
    initial_zero,
    make_initial,
    solve_heat,
    stability_check,
)


def _stable_grid(d=1, N=32, T=0.1, safety=4):
    # dt = dx²/safety per time step
    dx = 1.0 / N
    M = int(math.ceil(T * safety / dx**2))
    return TorusGrid(d=d, N=N, M=M, T=T)


def _mollified(grid, seed=0, lam=1.0, n=4):
    return mollify(sample_noise(grid, seed=seed, lam=lam), make_mollifier(grid, n))


def test_stability_margin_values():
    assert stability_check(TorusGrid(d=1, N=16, M=512, T=1.0)) == pytest.approx(0.0)
    g2 = TorusGrid(d=2, N=16, M=2048, T=1.0)  # dt = dx²/8
    assert stability_check(g2) == pytest.approx(0.5)
    g3 = TorusGrid(d=3, N=16, M=256, T=1.0)  # dt = dx²
    assert stability_check(g3) < 0.0


def test_zero_noise_step_is_explicit_heat_step():
    g = _stable_grid()
    rng = np.random.default_rng(1)
    z0 = np.exp(rng.standard_normal(g.shape))
    sol = solve_heat(g, _mollified(g, lam=0.0), initial_zero(g), z0_override=z0)
    for k in (0, g.M // 2, g.M - 1):
        z = sol.values[k]
        explicit = z + g.dt * laplacian_values(z, g.dx)
        assert np.array_equal(sol.values[k + 1], explicit)


def test_constants_are_heat_invariant():
    g = _stable_grid()
    z0 = np.full(g.shape, 2.5)
    sol = solve_heat(g, _mollified(g, lam=0.0), initial_zero(g), z0_override=z0)
    assert np.allclose(sol.values, 2.5, rtol=0, atol=1e-14)


def test_step_rejects_bad_input():
    unstable = TorusGrid(d=1, N=16, M=2, T=1.0)  # dt = 0.5 >> dx²/2
    with pytest.raises(ValueError, match="stability"):
        solve_heat(unstable, _mollified(unstable, n=2), initial_zero(unstable))
    g = _stable_grid()
    noise, f = _mollified(g), initial_zero(g)
    one_zero = np.concatenate([[0.0], np.ones(g.N - 1)])
    with pytest.raises(ValueError, match="positive"):
        solve_heat(g, noise, f, z0_override=one_zero)
    with pytest.raises(ValueError, match="shape"):
        solve_heat(g, noise, f, z0_override=np.ones(g.N + 1))


def test_noise_factor_has_mean_one():
    # E[exp(g − ½σ²)] = 1 for g ~ N(0, σ²) with σ² = λ²·c_n·dt: the exact
    # lognormal identity the compensator is built on
    g = _stable_grid()
    m = make_mollifier(g, 4)
    sigma_sq = m.c_n_discrete * g.dt
    rng = np.random.default_rng(12345)
    draws = np.exp(rng.normal(0.0, math.sqrt(sigma_sq), size=200_000) - 0.5 * sigma_sq)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) <= 4 * se


def test_flat_start_zero_noise_stays_one():
    g = _stable_grid()
    sol = solve_heat(g, _mollified(g, lam=0.0), initial_zero(g))
    assert np.all(sol.values == 1.0)


def test_trajectory_starts_at_exp_f_exactly():
    g = _stable_grid()
    f = initial_cosine(g, a=0.3)
    sol = solve_heat(g, _mollified(g, lam=0.0), f)
    assert np.array_equal(sol.values[0], np.exp(f.values))
    assert sol.values.shape == (g.M + 1,) + g.shape


def test_positivity_along_noisy_trajectory():
    g = _stable_grid(N=32, T=0.1)
    sol = solve_heat(g, _mollified(g, seed=3, lam=1.0), initial_cosine(g, a=0.5))
    assert np.all(sol.values > 0.0)
    assert sol.scheme_meta["stability_margin"] >= 0.0


def test_single_mode_oracle_second_order():
    # Z(t) = 1 + a e^{−(2π/L)²t} cos(2πx/L), injected via the z0 hook
    a, T = 0.5, 0.1
    kappa = (2 * np.pi) ** 2
    errs = []
    for N, M in [(32, 512), (64, 2048), (128, 8192)]:
        g = TorusGrid(d=1, N=N, M=M, T=T)
        x = g.axis_coords()
        sol = solve_heat(
            g,
            _mollified(g, lam=0.0),
            initial_zero(g),
            z0_override=1.0 + a * np.cos(2 * np.pi * x),
        )
        exact = 1.0 + a * math.exp(-kappa * T) * np.cos(2 * np.pi * x)
        err = float(np.max(np.abs(sol.values[-1] - exact)))
        errs.append(err)
        assert err <= 1.0 * (g.dt + g.dx**2)
    order01 = math.log2(errs[0] / errs[1])
    order12 = math.log2(errs[1] / errs[2])
    assert abs(order01 - 2.0) <= 0.2
    assert abs(order12 - 2.0) <= 0.2


def test_ensemble_mean_solves_deterministic_heat():
    # the Itô integral has zero mean, so E[Z] follows the λ=0 dynamics
    g = _stable_grid(N=16, T=0.05)
    f = initial_cosine(g, a=0.4)
    reference = solve_heat(g, _mollified(g, lam=0.0), f).values[-1]
    finals = np.array(
        [solve_heat(g, _mollified(g, seed=s, lam=1.0), f).values[-1] for s in range(500)]
    )
    se = finals.std(axis=0) / math.sqrt(finals.shape[0])
    z_scores = np.abs(finals.mean(axis=0) - reference) / se
    assert float(np.max(z_scores)) <= 4.5  # 16 simultaneous comparisons


def test_scheme_is_linear_in_initial_data():
    g = _stable_grid(N=32)
    noise = _mollified(g, seed=9, lam=1.0)
    f = initial_zero(g)
    rng = np.random.default_rng(4)
    z1 = np.exp(rng.standard_normal(g.shape))
    z2 = np.exp(rng.standard_normal(g.shape))
    a, b = 0.7, 1.9
    combined = solve_heat(g, noise, f, z0_override=a * z1 + b * z2).values[-1]
    split = (
        a * solve_heat(g, noise, f, z0_override=z1).values[-1]
        + b * solve_heat(g, noise, f, z0_override=z2).values[-1]
    )
    assert np.allclose(combined, split, rtol=1e-12, atol=0)


def test_solver_validates_inputs():
    g = _stable_grid()
    other = TorusGrid(d=1, N=g.N * 2, M=g.M, T=g.T)
    noise = _mollified(g)
    with pytest.raises(ValueError):
        solve_heat(other, noise, initial_zero(other))
    with pytest.raises(ValueError):
        solve_heat(g, noise, initial_zero(other))
    with pytest.raises(ValueError):
        solve_heat(g, noise, initial_zero(g), z0_override=np.zeros(g.shape))
    unstable = TorusGrid(d=1, N=32, M=4, T=1.0)
    with pytest.raises(ValueError):
        solve_heat(unstable, _mollified(unstable), initial_zero(unstable))


def test_initial_presets():
    g = _stable_grid(d=2, N=16)
    f = initial_gaussian_bump(g, a=0.5, w=0.1, center=[0.5, 0.5])
    assert f.values.shape == g.shape
    assert np.all(np.exp(f.values) > 0)
    with pytest.raises(ValueError):
        initial_gaussian_bump(g, a=1.0, w=0.5, center=[0.5, 0.5])
    with pytest.raises(ValueError):
        initial_gaussian_bump(g, a=1.0, w=0.1, center=[0.5])
    by_name = make_initial(g, "gaussian-bump", {"a": 0.5, "w": 0.1, "center": [0.5, 0.5]})
    assert np.array_equal(by_name.values, f.values)
    with pytest.raises(ValueError):
        make_initial(g, "sawtooth", {})
