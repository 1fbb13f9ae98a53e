"""Random-walk oracle: path laws, exact degenerate cases, solver cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgerslab import fk
from burgerslab.fk import FkEstimate, fk_estimate, z_score
from burgerslab.heat import compensator, initial_gaussian_bump, initial_zero, solve_heat
from burgerslab.lattice import ScalarField, TorusGrid
from burgerslab.noise import make_mollifier, mollify, sample_noise


def _noise(grid, seed=0, lam=1.0, n=4):
    return mollify(sample_noise(grid, seed=seed, lam=lam), make_mollifier(grid, n))


def _displacement_moment(g, axis, power, t, num_paths=20_000, seed=0):
    """fk_estimate of E[1 + X_a^power] for the walk's displacement X from the centre.

    With λ = 0 the estimate averages exp(f) over the walk's end nodes, so
    exp(f) = 1 + (wrapped offset along `axis`)^power reads off that moment.
    """
    centre = (0.5 * g.L,) * g.d
    offset = g.wrapped_offsets()  # node offsets from 0; shift the centre there
    profile = 1.0 + np.roll(offset, g.N // 2) ** power
    shape = [1] * g.d
    shape[axis] = g.N
    values = np.log(np.broadcast_to(profile.reshape(shape), g.shape))
    f = ScalarField(grid=g, values=values)
    return fk_estimate(_noise(g, lam=0.0), f, t, centre, num_paths,
                       "ito-compensated", brownian_seed=seed)


def test_path_starts_at_zero_and_is_reproducible():
    g = TorusGrid(d=2, N=16, M=32, T=0.01)
    # no steps: every walk still sits on its start node
    start = _displacement_moment(g, axis=0, power=2, t=0.0, num_paths=200)
    assert start.mean == 1.0 and start.stderr == 0.0
    # the walk is a function of brownian_seed alone
    a = _displacement_moment(g, axis=1, power=2, t=g.T, num_paths=200, seed=5)
    assert a == _displacement_moment(g, axis=1, power=2, t=g.T, num_paths=200, seed=5)
    assert a.mean != _displacement_moment(g, axis=1, power=2, t=g.T, num_paths=200,
                                          seed=6).mean
    with pytest.raises(ValueError, match="nonnegative"):
        _displacement_moment(g, axis=0, power=2, t=g.T, num_paths=200, seed=-1)


def test_increment_law():
    # one step: each axis moves by N(0, 2·dt), read at the nearest node, so
    # E[Q²] = 2·dt + dx²/12 (Sheppard's correction; its error is of order
    # exp(−2π²·2dt/dx²) ≈ 1e-11 on this grid)
    g = TorusGrid(d=2, N=64, M=64, T=0.01)
    for axis in range(g.d):
        second = _displacement_moment(g, axis, power=2, t=g.dt, seed=axis)
        target = 2.0 * g.dt + g.dx**2 / 12.0
        assert abs(second.mean - 1.0 - target) < 4.0 * second.stderr
        first = _displacement_moment(g, axis, power=1, t=g.dt, seed=axis)
        assert abs(first.mean - 1.0) < 4.0 * first.stderr


def test_terminal_position_variance():
    # 2T = 0.02 ≪ (L/2)², so wrapping distorts nothing measurable
    g = TorusGrid(d=1, N=64, M=64, T=0.01)
    est = _displacement_moment(g, axis=0, power=2, t=g.T, num_paths=4000)
    target = 2.0 * g.T + g.dx**2 / 12.0
    assert abs(est.mean - 1.0 - target) < 4.0 * est.stderr


def test_degenerate_cases_are_exact():
    g = TorusGrid(d=1, N=32, M=64, T=0.01)
    noise = _noise(g, lam=0.0)
    f0 = initial_zero(g)
    est = fk_estimate(noise, f0, g.T, [0.5], 500, "ito-compensated")
    assert est.mean == 1.0
    assert est.stderr == 0.0
    # t = 0: no steps, the estimate is exp(f(x)) with no spread
    f = initial_gaussian_bump(g, a=0.8, w=0.1, center=[0.5])
    est0 = fk_estimate(noise, f, 0.0, [0.5], 200, "uncompensated")
    assert est0.mean == pytest.approx(math.exp(f.values[16]), rel=1e-15)
    assert est0.stderr == 0.0


def test_modes_coincide_without_noise():
    g = TorusGrid(d=1, N=32, M=64, T=0.01)
    noise = _noise(g, lam=0.0)
    f = initial_gaussian_bump(g, a=0.8, w=0.1, center=[0.5])
    a = fk_estimate(noise, f, g.T, [0.25], 400, "ito-compensated", brownian_seed=3)
    b = fk_estimate(noise, f, g.T, [0.25], 400, "uncompensated", brownian_seed=3)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_heat_kernel_oracle_without_noise():
    # Z0 = 1 + a·cos(2πx): e^{tΔ} damps the mode by e^{−4π²t}
    g = TorusGrid(d=1, N=128, M=256, T=0.01)
    noise = _noise(g, lam=0.0, n=8)
    a = 0.5
    x = g.axis_coords()
    f = ScalarField(grid=g, values=np.log(1.0 + a * np.cos(2 * np.pi * x)))
    for node in (0, 32, 64):
        target = 1.0 + a * math.exp(-4.0 * math.pi**2 * g.T) * math.cos(2 * np.pi * x[node])
        est = fk_estimate(noise, f, g.T, [x[node]], 10_000, "ito-compensated")
        assert abs(est.mean - target) < 3.0 * est.stderr + 1e-12


def test_validation_errors():
    g = TorusGrid(d=1, N=32, M=64, T=0.01)
    noise = _noise(g)
    f = initial_zero(g)
    with pytest.raises(ValueError, match="time node"):
        fk_estimate(noise, f, 1.5 * g.dt, [0.5], 200, "ito-compensated")
    with pytest.raises(ValueError, match="node"):
        fk_estimate(noise, f, g.T, [0.013], 200, "ito-compensated")
    with pytest.raises(ValueError, match="100 paths"):
        fk_estimate(noise, f, g.T, [0.5], 50, "ito-compensated")
    with pytest.raises(ValueError, match="mode"):
        fk_estimate(noise, f, g.T, [0.5], 200, "stratonovich")
    g2 = TorusGrid(d=1, N=16, M=64, T=0.01)
    with pytest.raises(ValueError, match="grids"):
        fk_estimate(noise, initial_zero(g2), g.T, [0.5], 200, "ito-compensated")


def test_stderr_decays_like_root_num_paths():
    g = TorusGrid(d=1, N=32, M=128, T=0.01)
    noise = _noise(g, seed=2, lam=1.0)
    f = initial_zero(g)
    counts = [100, 1000, 10_000]
    errs = [
        fk_estimate(noise, f, g.T, [0.5], p, "ito-compensated", brownian_seed=4).stderr
        for p in counts
    ]
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_brownian_seed_only_adds_monte_carlo_noise():
    g = TorusGrid(d=1, N=32, M=128, T=0.01)
    noise = _noise(g, seed=2, lam=1.0)
    f = initial_zero(g)
    a = fk_estimate(noise, f, g.T, [0.5], 4000, "ito-compensated", brownian_seed=0)
    b = fk_estimate(noise, f, g.T, [0.5], 4000, "ito-compensated", brownian_seed=1)
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) < 4.0 * math.hypot(a.stderr, b.stderr)


def test_solver_cross_check_selects_compensated_mode():
    T = 0.1
    g = TorusGrid(d=1, N=32, M=410, T=T)
    noise = _noise(g, seed=7, lam=1.0)
    f = initial_gaussian_bump(g, a=0.5, w=0.12, center=[0.37])
    sol = solve_heat(g, noise, f)
    probes = [(205, 16), (410, 8)]
    for m, node in probes:
        t, x = m * g.dt, node * g.dx
        solver_value = float(sol.values[m][node])
        good = fk_estimate(noise, f, t, [x], 3000, "ito-compensated", brownian_seed=1)
        assert abs(z_score(good, solver_value)) < 3.5
        bare = fk_estimate(noise, f, t, [x], 3000, "uncompensated", brownian_seed=1)
        assert abs(z_score(bare, solver_value)) > 5.0


def test_two_dimensional_estimate_runs():
    g = TorusGrid(d=2, N=16, M=208, T=0.1)
    noise = _noise(g, seed=1, lam=1.0)
    f = initial_gaussian_bump(g, a=0.3, w=0.15, center=[0.5, 0.25])
    sol = solve_heat(g, noise, f)
    m, idx = 104, (8, 4)
    est = fk_estimate(
        noise, f, m * g.dt, [idx[0] * g.dx, idx[1] * g.dx], 2000,
        "ito-compensated", brownian_seed=2,
    )
    assert np.isfinite(est.mean) and est.stderr > 0.0
    assert abs(z_score(est, float(sol.values[m][idx]))) < 4.0


def test_z_score_edge_cases():
    est = FkEstimate(t=0.0, x=(0.0,), num_paths=100, mean=1.0, stderr=0.0,
                     correction_mode="uncompensated")
    assert z_score(est, 1.0) == 0.0
    assert z_score(est, 2.0) == math.inf


# ---------------------------------------------------------------------------
# the walk's wrap: exactly np.remainder


_L = 1.0
_EDGES = [
    0.0, -0.0, _L, -_L, 2.0 * _L - 2.0**-52, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
    np.nextafter(_L, 0.0), np.nextafter(_L, 2.0), np.nextafter(-_L, 0.0),
    -2.0**-60, -1e-17, -5e-324,  # x + L rounds to L
]
_IN_RANGE = st.one_of(st.sampled_from(_EDGES),
                      st.floats(-_L, 2.0 * _L, exclude_max=True, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(inside=st.lists(_IN_RANGE, min_size=1, max_size=40),
       outside=st.lists(st.floats(-6.0 * _L, 7.0 * _L), max_size=3),
       N=st.sampled_from([8, 13, 32]))
def test_wrap_equals_remainder_in_floats_and_nodes(inside, outside, N):
    # positions in [−L, 2L) take the exact fix-up; a set with any position
    # outside takes np.remainder itself
    pos = np.array(inside + outside).reshape(-1, 1)
    expected = np.remainder(pos, _L)
    got = pos.copy()
    fk._wrap(got, _L)
    assert np.array_equal(got, expected)
    # the walk reads node index N as node 0, where the remainder took % N
    inv_dx = N / _L
    nodes = fk._locate(got, inv_dx, (np.empty(len(pos), dtype=np.int64),))[0]
    assert np.all((0 <= nodes) & (nodes <= N))
    assert np.array_equal(nodes % N, np.rint(expected[:, 0] * inv_dx).astype(np.int64) % N)


def _reference_estimate(noise, f, t, x, num_paths, mode, brownian_seed):
    """The walk as written with a float remainder and an integer modulo per step."""
    grid = noise.grid
    m = int(round(t / grid.dt))
    rng = fk.seeded_stream(brownian_seed, fk._BROWNIAN_STREAM_TAG)
    scale = math.sqrt(2.0 * grid.dt)
    inv_dx = 1.0 / grid.dx
    N, d = grid.N, grid.d
    pos = np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (num_paths, 1))
    expo = np.zeros(num_paths)
    for k in range(m):
        nodes = tuple((np.rint(pos[:, a] * inv_dx).astype(np.int64) % N) for a in range(d))
        expo += noise.increments[m - 1 - k][nodes]
        pos += rng.normal(0.0, scale, size=(num_paths, d))
        pos %= grid.L
    if mode == "ito-compensated":
        expo -= compensator(noise.lam, noise.mollifier, m * grid.dt)
    nodes = tuple((np.rint(pos[:, a] * inv_dx).astype(np.int64) % N) for a in range(d))
    values = np.exp(f.values[nodes] + expo)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(num_paths))


@pytest.mark.parametrize("d,N,M,T,n,steps,coarse", [
    (1, 32, 410, 0.1, 4, 410, False),
    (1, 16, 8, 0.1, 2, 8, False),
    (2, 16, 64, 0.01, 4, 40, False),
    # √(2dt) = 0.71 > L/3: some steps leave [−L, 2L) and take the remainder
    (1, 8, 4, 1.0, 2, 4, True),
])
def test_walk_equals_the_remainder_walk_bit_for_bit(d, N, M, T, n, steps, coarse, monkeypatch):
    g = TorusGrid(d=d, N=N, M=M, T=T)
    noise = _noise(g, seed=3, lam=1.0, n=n)
    center = [0.3] + [0.6] * (d - 1)
    f = initial_gaussian_bump(g, a=0.4, w=0.2, center=center)
    remainders = []
    remainder = np.remainder

    def counted(*args, **kwargs):
        remainders.append(1)
        return remainder(*args, **kwargs)

    monkeypatch.setattr(np, "remainder", counted)
    x = [(N // 2) * g.dx] + [(N // 4) * g.dx] * (d - 1)
    for seed in range(3):
        for mode in ("ito-compensated", "uncompensated"):
            est = fk_estimate(noise, f, steps * g.dt, x, 500, mode, brownian_seed=seed)
            ref = _reference_estimate(noise, f, steps * g.dt, x, 500, mode, seed)
            assert (est.mean, est.stderr) == ref, (seed, mode)
    # the remainder runs only on the steps the fix-up cannot reach
    assert bool(remainders) == coarse
