"""Heat scheme: stability, positivity, zero-noise reduction, oracles."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgerslab.lattice import ScalarField, TorusGrid, laplacian_values
from burgerslab.noise import MollifiedNoise, lattice_delta, make_mollifier, mollify, sample_noise
from burgerslab import lattice
from burgerslab.heat import (
    compensator,
    initial_cosine,
    initial_gaussian_bump,
    initial_zero,
    make_initial,
    marcher,
    solve_heat,
    stability_check,
    stream,
)


def _stable_grid(d=1, N=32, T=0.1, safety=4):
    # dt = dx²/safety per time step
    dx = 1.0 / N
    M = int(math.ceil(T * safety / dx**2))
    return TorusGrid(d=d, N=N, M=M, T=T)


def _mollified(grid, seed=0, lam=1.0, n=4):
    return mollify(sample_noise(grid, seed=seed, lam=lam), make_mollifier(grid, n))


def _march_from(grid, noise, z0):
    """The M+1 slices of the scheme from an arbitrary start z0: one `march` chunk."""
    Z, march = marcher(grid, 1, grid.M)
    Z[0, 0] = z0
    comp = compensator(noise.lam, noise.mollifier, grid.dt)
    march(grid.M, [noise.increments], [comp], 0)
    return Z[0]


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
    values = _march_from(g, _mollified(g, lam=0.0), z0)
    for k in (0, g.M // 2, g.M - 1):
        z = values[k]
        explicit = z + g.dt * laplacian_values(z, g.dx)
        assert np.array_equal(values[k + 1], explicit)


def test_constants_are_heat_invariant():
    g = _stable_grid()
    z0 = np.full(g.shape, 2.5)
    values = _march_from(g, _mollified(g, lam=0.0), z0)
    assert np.allclose(values, 2.5, rtol=0, atol=1e-14)


def test_step_rejects_bad_input():
    unstable = TorusGrid(d=1, N=16, M=2, T=1.0)  # dt = 0.5 >> dx²/2
    with pytest.raises(ValueError, match="stability"):
        solve_heat(unstable, _mollified(unstable, n=2), initial_zero(unstable))
    g = _stable_grid()
    noise = _mollified(g)
    one_zero = np.concatenate([[0.0], np.ones(g.N - 1)])
    # a zero node in the start fails the march's step-0 check
    with pytest.raises(ValueError, match=r"Z > 0.*step 0, node \(0,\) is 0\.0$"):
        _march_from(g, noise, one_zero)
    # a start of the wrong shape is rejected where it is built
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g, np.log(np.ones(g.N + 1)))


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


def test_single_mode_oracle_second_order():
    # Z(t) = 1 + a e^{−(2π/L)²t} cos(2πx/L), marched from its own start
    a, T = 0.5, 0.1
    kappa = (2 * np.pi) ** 2
    errs = []
    for N, M in [(32, 512), (64, 2048), (128, 8192)]:
        g = TorusGrid(d=1, N=N, M=M, T=T)
        x = g.axis_coords()
        values = _march_from(g, _mollified(g, lam=0.0), 1.0 + a * np.cos(2 * np.pi * x))
        exact = 1.0 + a * math.exp(-kappa * T) * np.cos(2 * np.pi * x)
        err = float(np.max(np.abs(values[-1] - exact)))
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
    rng = np.random.default_rng(4)
    z1 = np.exp(rng.standard_normal(g.shape))
    z2 = np.exp(rng.standard_normal(g.shape))
    a, b = 0.7, 1.9
    combined = _march_from(g, noise, a * z1 + b * z2)[-1]
    split = a * _march_from(g, noise, z1)[-1] + b * _march_from(g, noise, z2)[-1]
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
        _march_from(g, noise, np.zeros(g.shape))
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


def _noises(grid, lams):
    return [_mollified(grid, seed=s, lam=lam, n=2 + s) for s, lam in enumerate(lams)]


@pytest.mark.parametrize("d,N,T", [(1, 32, 0.1), (2, 16, 0.05)])
@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("chunk_bytes", [None, 7 * 8])
def test_batched_march_equals_single_marches_bit_for_bit(d, N, T, override, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        # chunks of a few steps, with a short last chunk
        monkeypatch.setattr("burgerslab.lattice._CHUNK_BYTES", chunk_bytes * N**d)
    g = _stable_grid(d=d, N=N, T=T)
    if override:
        # an arbitrary start, not one of the presets
        f = ScalarField(g, np.random.default_rng(2).standard_normal(g.shape))
    else:
        f = initial_cosine(g, a=0.4)
    for lams in ([1.0, 0.5], [1.0, 0.0, 2.0]):
        noises = _noises(g, lams)
        # one batch through all M steps, against solve_heat's checked chunks
        batch, march = marcher(g, len(noises), g.M)
        batch[:, 0] = np.exp(f.values)
        march(g.M, [mn.increments for mn in noises],
              [compensator(mn.lam, mn.mollifier, g.dt) for mn in noises], 0)
        for mn, values in zip(noises, batch):
            assert np.array_equal(values, solve_heat(g, mn, f).values)
    # the march is the scheme, step for step
    mn = noises[-1]
    comp = 0.5 * mn.lam**2 * mn.mollifier.c_n_discrete * g.dt
    z = batch[-1, 0]
    for k in range(g.M):
        z = (z + g.dt * laplacian_values(z, g.dx)) * np.exp(mn.increments[k] - comp)
        assert np.array_equal(batch[-1, k + 1], z)


def _reference_march(grid, z0, increments, compensated):
    """The march as it was written before it wrote in place, slice by slice from rolls.

    Each step sums its Laplacian from zero, (0 + axis 1) + axis 2 …, takes
    ·dt and +Z in a separate core slice, multiplies by the noise factor and
    copies the new core into the (S, M+1) + grid block.
    """
    S, K = len(increments), len(increments[0])
    block = np.empty((S, K + 1) + grid.shape)
    block[:, 0] = z0
    core = block[:, 0].copy()
    axes = range(1, grid.d + 1)
    for k in range(K):
        twice = 2.0 * core
        lap = 0.0 + ((np.roll(core, -1, axes[0]) - twice) + np.roll(core, 1, axes[0]))
        for axis in axes[1:]:
            lap = lap + ((np.roll(core, -1, axis) - twice) + np.roll(core, 1, axis))
        bracket = lap / (grid.dx * grid.dx) * grid.dt + core
        factor = np.stack([np.exp(inc[k] - c) for inc, c in zip(increments, compensated)])
        core = bracket * factor
        block[:, k + 1] = core
    return block


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2]),
    S=st.sampled_from([1, 5]),
    lam=st.sampled_from([0.0, 1.0]),
    flat=st.booleans(),
    steps=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_march_equals_the_reference_march_bit_for_bit(d, S, lam, flat, steps, seed):
    # chunks of `steps` steps through M = 23, so the last chunk is short; a
    # flat start has an exactly zero Laplacian, at every step when λ = 0
    g = TorusGrid(d=d, N=8, M=23, T=0.05)
    rng = np.random.default_rng(seed)
    z0 = np.full(g.shape, 0.7) if flat else np.exp(0.3 * rng.standard_normal(g.shape))
    increments = [lam * 0.05 * rng.standard_normal((g.M,) + g.shape) for _ in range(S)]
    compensated = [0.5 * lam**2 * 0.0025 * (s + 1) for s in range(S)]
    expected = _reference_march(g, z0, increments, compensated)
    Z, march = marcher(g, S, steps)
    Z[:, 0] = z0
    marched = np.empty_like(expected)
    marched[:, 0] = z0
    for lo in range(0, g.M, steps):
        hi = min(lo + steps, g.M)
        march(hi - lo, [inc[lo:hi] for inc in increments], compensated, lo)
        marched[:, lo + 1 : hi + 1] = Z[:, 1 : hi - lo + 1]
        Z[:, 0] = Z[:, hi - lo]
    assert marched.tobytes() == expected.tobytes()


@pytest.mark.parametrize("S", [1, 3])
def test_march_allocates_one_factor_run_and_a_few_slices(S):
    # beside its padded (257, S) + (66, 66) block, the march's own buffers are
    # the noise-factor run, the stencil's runs and the rows' views: a second
    # temporary the size of the block (8 MiB per member) would show here, as
    # it would in the 2-D weak study's peak
    g = TorusGrid(d=2, N=64, M=8192, T=0.1)
    increments = [np.zeros((256,) + g.shape)] * S
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        Z, march = marcher(g, S, 256)
        Z[:, 0] = 1.0
        march(256, increments, [0.0] * S, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 257 * S * (g.N + 2) ** g.d * 8
    assert peak - before - block < lattice._CHUNK_BYTES + 16 * S * g.num_nodes * 8


@pytest.mark.parametrize("d,N,T,safety", [(1, 32, 0.1, 4), (2, 16, 0.05, 4), (3, 8, 0.02, 8)])
def test_a_healthy_march_raises_no_floating_point_warning(d, N, T, safety, monkeypatch):
    # the stencil runs across the padded slice's ghost cells and discards
    # their results; they hold periodic copies of Z, so no step overflows or
    # divides there, whatever the buffers held before (many short chunks, so
    # the halo, the factor runs and every buffer are refilled again and again)
    monkeypatch.setattr("burgerslab.lattice._CHUNK", 3)
    g = _stable_grid(d=d, N=N, T=T, safety=safety)
    members = [make_mollifier(g, 2), lattice_delta(g)]
    z0 = np.exp(initial_cosine(g, a=0.4).values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, _, _, Z, _, _ in stream([(1, g, members)], 3, 1.0, [z0]):
            pass
        solve_heat(g, _mollified(g, n=2), initial_cosine(g, a=0.4))
        assert Z.min() > 0.0


def test_batch_member_on_another_grid_is_rejected():
    g = _stable_grid()
    other = TorusGrid(d=1, N=g.N, M=g.M, T=g.T * 0.5)
    z0 = np.ones(g.shape)
    with pytest.raises(ValueError, match="on its own grid"):
        next(stream([(1, g, [make_mollifier(g, 4), make_mollifier(other, 4)])], 0, 1.0, [z0]))
    with pytest.raises(ValueError, match="on its own grid"):
        next(stream([(1, g, [])], 0, 1.0, [z0]))
    with pytest.raises(ValueError, match="different grid"):
        solve_heat(g, _mollified(other), initial_zero(g))


def test_breakdown_names_step_and_node():
    g = _stable_grid(N=16)
    noise = _mollified(g, lam=2e3)
    with pytest.raises(ValueError, match=r"heat march needs finite Z > 0.*step \d+, node \(\d+,\)") as err:
        solve_heat(g, noise, initial_zero(g))
    # the message carries the noise factor that carried Z into the failing
    # step at the failing node, and the grid's stability margin
    message = str(err.value)
    step, node = (int(v) for v in re.search(r"step (\d+), node \((\d+),\)", message).groups())
    comp = 0.5 * noise.lam**2 * noise.mollifier.c_n_discrete * g.dt
    with np.errstate(over="ignore"):
        factor = float(np.exp(noise.increments[step - 1, node] - comp))
    assert f"dt) = {factor!r}," in message
    assert f"dx² = {stability_check(g)!r})" in message
    # a noise factor of 0, nan or inf at step 2, node 5 breaks Z at step 3 there
    quiet = _mollified(g, lam=0.0)
    for increment, shown in ((-np.inf, "0.0"), (np.nan, "nan"), (np.inf, "inf")):
        increments = quiet.increments.copy()
        increments[2, 5] = increment
        broken = MollifiedNoise(quiet.base, quiet.mollifier, increments)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=rf"step 3, node \(5,\) is {shown}$") as err:
                solve_heat(g, broken, initial_zero(g))
        assert f"dt) = {shown}," in str(err.value)
        assert f"dx² = {stability_check(g)!r})" in str(err.value)


def test_overflowing_start_is_reported_at_step_zero():
    g = _stable_grid(N=16)
    f = initial_cosine(g, a=800.0)  # exp(800) overflows at the crest
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"step 0, node \(0,\) is inf"):
            solve_heat(g, _mollified(g, lam=0.0), f)
