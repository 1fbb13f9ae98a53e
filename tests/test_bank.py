"""Test-function bank: bump calculus, supports, tensors, validation."""

import numpy as np
import pytest

from burgerslab.bank import TestFunction, build_bank, bump, bump_d1, bump_d2
from burgerslab.lattice import TorusGrid, divergence_values, laplacian_values


def test_bump_values_and_support():
    assert bump(0.0) == pytest.approx(np.exp(-1.0))
    assert bump(1.0) == 0.0
    assert bump(-1.0) == 0.0
    assert bump(2.5) == 0.0
    # even / odd / even symmetry of the derivative ladder
    u = np.linspace(-0.95, 0.95, 39)
    assert np.allclose(bump(u), bump(-u), rtol=0, atol=0)
    assert np.allclose(bump_d1(u), -bump_d1(-u), rtol=0, atol=0)
    assert np.allclose(bump_d2(u), bump_d2(-u), rtol=0, atol=0)
    assert bump_d1(0.0) == 0.0


@pytest.mark.parametrize("deriv,order", [(bump_d1, 1), (bump_d2, 2)])
def test_bump_derivatives_match_finite_differences(deriv, order):
    # h balances truncation against cancellation in the second difference
    u = np.linspace(-0.8, 0.8, 25)
    h = 1e-4
    if order == 1:
        fd = (bump(u + h) - bump(u - h)) / (2 * h)
    else:
        fd = (bump(u + h) - 2 * bump(u) + bump(u - h)) / h**2
    assert np.max(np.abs(deriv(u) - fd)) < 1e-5


def _grid(d=1, N=64):
    return TorusGrid(d=d, N=N, M=16, T=1.0)


def test_default_bank_shape_and_ids():
    for d in (1, 2):
        bank = build_bank(_grid(d=d))
        assert len(bank) == 6
        assert [tf.id for tf in bank] == [f"phi{i}" for i in range(1, 7)]
        for tf in bank:
            assert tf.dim == d
            lo, hi = tf.t_support
            assert 0.0 < lo < hi < 1.0


def test_support_validation():
    g = _grid()
    # time support touching the boundary
    tf = TestFunction("bad-t", 0.5, 0.5, (0.5,), 0.2, (1.0,))
    with pytest.raises(ValueError, match="strictly inside"):
        tf.validate_on(g)
    # spatial diameter filling the period
    tf = TestFunction("bad-x", 0.5, 0.2, (0.5,), 0.5, (1.0,))
    with pytest.raises(ValueError, match="period"):
        tf.validate_on(g)
    # dimension mismatch
    tf = TestFunction("bad-d", 0.5, 0.2, (0.5, 0.5), 0.2, (1.0, -1.0))
    with pytest.raises(ValueError, match="d=1"):
        tf.validate_on(g)


def test_constructor_validation():
    with pytest.raises(ValueError, match="same length"):
        TestFunction("x", 0.5, 0.2, (0.5, 0.5), 0.2, (1.0,))
    with pytest.raises(ValueError, match="t_radius"):
        TestFunction("x", 0.5, -0.2, (0.5,), 0.2, (1.0,))
    with pytest.raises(ValueError, match="id"):
        TestFunction("", 0.5, 0.2, (0.5,), 0.2, (1.0,))


def test_build_bank_spec_path_and_errors():
    g = _grid()
    specs = [
        {"t_center": 0.5, "t_radius": 0.2, "x_center": (0.4,), "x_radius": 0.1,
         "amplitudes": (2.0,)},
    ]
    bank = build_bank(g, specs)
    assert bank[0].id == "phi1" and bank[0].amplitudes == (2.0,)

    with pytest.raises(ValueError, match="missing keys"):
        build_bank(g, [{"t_center": 0.5}])
    dup = [dict(specs[0], id="same"), dict(specs[0], id="same")]
    with pytest.raises(ValueError, match="duplicate"):
        build_bank(g, dup)


def test_values_vanish_outside_support():
    g = _grid(d=2, N=32)
    tf = TestFunction("loc", 0.5, 0.1, (0.25, 0.25), 0.1, (1.0, -0.5))
    # outside in time: the time factor and its derivative are exactly zero
    assert tf.psi_t(0.9) == 0.0
    assert tf.dpsi_t(0.05) == 0.0
    # far away in space: every shared tensor is exactly zero
    for tensor in tf.spatial_tensors(g):
        far = tensor[24:, 24:]  # nodes near (0.75, 0.75), distance > radius
        assert np.all(far == 0.0)
        assert np.any(tensor != 0.0)


def test_spatial_tensor_cache_and_immutability():
    g = _grid()
    tf = build_bank(g)[0]
    P1, D1, Q1 = tf.spatial_tensors(g)
    P2, _, _ = tf.spatial_tensors(g)
    assert P1 is P2
    with pytest.raises(ValueError):
        P1[0] = 1.0
    assert D1.shape == g.shape and Q1.shape == g.shape


@pytest.mark.parametrize("d", [1, 2])
def test_analytic_derivatives_match_stencils_at_second_order(d):
    # sampled-profile stencils approximate the analytic derivatives with
    # O(dx²) error; halving dx should cut the defect by about 4
    defects = {}
    for N in (48, 96):
        g = TorusGrid(d=d, N=N, M=16, T=1.0)
        tf = TestFunction(
            "probe", 0.5, 0.3, (0.5,) * d, 0.3, tuple([1.0, -0.7][:d])
        )
        P, D, Q = tf.spatial_tensors(g)
        amp = np.asarray(tf.amplitudes).reshape((d,) + (1,) * d)
        div_stencil = divergence_values(amp * P, g.dx)
        lap_stencil = laplacian_values(P, g.dx)
        defects[N] = max(
            np.max(np.abs(div_stencil - D)),
            np.max(np.abs(lap_stencil - Q)),
        )
    ratio = defects[48] / defects[96]
    assert 3.0 < ratio < 5.2


def test_time_factor_chain_rule():
    g = _grid()
    tf = build_bank(g)[3]
    h = 1e-6
    for t in (0.2, 0.5, 0.77):
        fd = (tf.psi_t(t + h) - tf.psi_t(t - h)) / (2 * h)
        assert tf.dpsi_t(t) == pytest.approx(fd, abs=1e-6)
    lo, hi = tf.t_support
    assert tf.psi_t(lo) == 0.0 and tf.psi_t(hi) == 0.0
    assert tf.dpsi_t(lo - 0.01) == 0.0
