"""Lattice calculus: stencils, duality, inner products."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import burgerslab
from burgerslab.lattice import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence,
    divergence_values,
    gradient,
    gradient_norm_sq,
    gradient_values,
    inner_space,
    laplacian,
    laplacian_values,
)


def _grid(d=1, N=64, M=16, T=1.0):
    return TorusGrid(d=d, N=N, M=M, T=T)


def _random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


def _random_vector(grid, rng):
    return VectorField(grid, rng.standard_normal((grid.d,) + grid.shape))


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TorusGrid(d=4, N=16, M=4)
    with pytest.raises(ValueError):
        TorusGrid(d=1, N=4, M=4)
    with pytest.raises(ValueError):
        TorusGrid(d=1, N=16, M=1)
    with pytest.raises(ValueError):
        TorusGrid(d=1, N=16, M=4, T=-1.0)


def test_grid_spacing_is_exact():
    g = TorusGrid(d=2, N=32, M=10, L=2.0, T=0.5)
    assert g.dx == 2.0 / 32
    assert g.dt == 0.5 / 10
    assert g.shape == (32, 32)
    assert g.num_nodes == 1024


def test_fields_validate_shape_and_finiteness():
    g = _grid(d=2, N=8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8,)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((8, 8)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_laplacian_annihilates_constants():
    g = _grid(d=2, N=16)
    u = ScalarField(g, np.full(g.shape, 3.7))
    assert np.all(laplacian(u).values == 0.0)
    v = VectorField(g, np.full((2, 16, 16), -1.2))
    assert np.all(divergence(v).values == 0.0)
    assert np.all(gradient(u).values == 0.0)


def test_laplacian_matches_analytic_second_derivative():
    g = _grid(d=1, N=64)
    x = g.axis_coords()
    u = ScalarField(g, np.sin(2 * np.pi * x))
    exact = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * x)
    err = np.max(np.abs(laplacian(u).values - exact))
    # Taylor remainder of the second difference: κ⁴ dx²/12, 10% headroom
    bound = (2 * np.pi) ** 4 * g.dx**2 / 12 * 1.1
    assert err <= bound


def test_laplacian_is_axis_separable():
    g = _grid(d=2, N=32)
    x = g.axis_coords()
    ux = np.sin(2 * np.pi * x)[:, None] * np.ones(32)[None, :]
    uy = np.ones(32)[:, None] * np.sin(2 * np.pi * x)[None, :]
    combined = laplacian(ScalarField(g, ux + uy)).values
    separate = laplacian(ScalarField(g, ux)).values + laplacian(ScalarField(g, uy)).values
    # linearity is exact; float addition order costs ~eps·N²/dx² in absolute terms
    assert np.allclose(combined, separate, rtol=0, atol=1e-10)


def test_gradient_matches_analytic_derivative_at_second_order():
    errs = []
    for N in (32, 64, 128):
        g = _grid(d=1, N=N)
        x = g.axis_coords()
        u = ScalarField(g, np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.max(np.abs(gradient(u).values[0] - exact)))
    order01 = math.log2(errs[0] / errs[1])
    order12 = math.log2(errs[1] / errs[2])
    assert abs(order01 - 2.0) <= 0.2
    assert abs(order12 - 2.0) <= 0.2


def test_gradient_of_axis_function_has_no_cross_component():
    g = _grid(d=2, N=16)
    x = g.axis_coords()
    u = ScalarField(g, np.sin(2 * np.pi * x)[:, None] * np.ones(16)[None, :])
    grad = gradient(u).values
    assert np.all(grad[1] == 0.0)


def test_divergence_in_1d_is_gradient_of_single_component():
    g = _grid(d=1, N=32)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(g.shape)
    v = VectorField(g, vals[None, :])
    u = ScalarField(g, vals)
    assert np.array_equal(divergence(v).values, gradient(u).values[0])


def test_wide_stencil_differs_from_compact_by_dx_squared():
    g = _grid(d=1, N=64)
    x = g.axis_coords()
    u = ScalarField(g, np.sin(2 * np.pi * x))
    wide = divergence(gradient(u)).values
    compact = laplacian(u).values
    diff = np.max(np.abs(wide - compact))
    # symbols: compact −κ²(1−(κdx)²/12), wide −κ²(1−(κdx)²/3) ⇒ gap κ⁴dx²/4
    expected = (2 * np.pi) ** 4 * g.dx**2 / 4
    assert diff <= 2 * expected
    assert diff >= expected / 2  # the stencils genuinely differ


@pytest.mark.parametrize("d", [1, 2])
def test_duality_gradient_divergence(d):
    rng = np.random.default_rng(42 + d)
    g = _grid(d=d, N=32 if d == 1 else 16)
    for _ in range(20):
        u = _random_scalar(g, rng)
        v = _random_vector(g, rng)
        lhs = inner_space(gradient(u), v)
        rhs = -inner_space(u, divergence(v))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale <= 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_laplacian_self_adjoint(d):
    rng = np.random.default_rng(99 + d)
    g = _grid(d=d, N=32 if d == 1 else 16)
    for _ in range(10):
        u = _random_scalar(g, rng)
        v = _random_scalar(g, rng)
        lhs = inner_space(laplacian(u), v)
        rhs = inner_space(u, laplacian(v))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale <= 1e-12


def test_inner_space_trig_closed_forms():
    g = _grid(d=1, N=64)
    x = g.axis_coords()
    s = ScalarField(g, np.sin(2 * np.pi * x))
    c = ScalarField(g, np.cos(2 * np.pi * x))
    # periodic trapezoid integrates trig polynomials below Nyquist exactly
    assert abs(inner_space(s, s) - 0.5) <= 1e-14
    assert abs(inner_space(s, c)) <= 1e-14


def test_inner_space_positivity_and_errors():
    g = _grid(d=1, N=16)
    rng = np.random.default_rng(3)
    u = _random_scalar(g, rng)
    assert inner_space(u, u) > 0
    zero = ScalarField(g, np.zeros(g.shape))
    assert inner_space(zero, zero) == 0.0
    v = _random_vector(g, rng)
    with pytest.raises(ValueError):
        inner_space(u, v)
    other = ScalarField(_grid(d=1, N=32), np.zeros(32))
    with pytest.raises(ValueError):
        inner_space(u, other)


# ---------------------------------------------------------------------------
# slice stencils against a np.roll reference, bit for bit


def _roll_laplacian(a, dx, d):
    out = np.zeros_like(a)
    for axis in range(a.ndim - d, a.ndim):
        out += np.roll(a, -1, axis=axis) - 2.0 * a + np.roll(a, 1, axis=axis)
    out /= dx * dx
    return out


def _roll_gradient(a, dx, d):
    out = np.empty((d,) + a.shape)
    for i, axis in enumerate(range(a.ndim - d, a.ndim)):
        out[i] = np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)
    out /= 2.0 * dx
    return out


def _roll_divergence(v, dx):
    out = np.zeros(v.shape[1:])
    for axis in range(v.shape[0]):
        out += np.roll(v[axis], -1, axis=axis) - np.roll(v[axis], 1, axis=axis)
    out /= 2.0 * dx
    return out


def _bits(a):
    # compares signed zeros too, which np.array_equal would not
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
def test_slice_stencils_equal_roll_reference_bit_for_bit(d, stack):
    rng = np.random.default_rng(10 * d + len(stack))
    a = rng.standard_normal(stack + (8,) * d)
    a.flat[::7] = 0.0
    a.flat[1::11] = -0.0
    dx = 1.0 / 8
    expected = _roll_laplacian(a, dx, d)
    assert np.array_equal(_bits(laplacian_values(a, dx, d)), _bits(expected))
    buffer = np.full_like(a, np.nan)
    assert laplacian_values(a, dx, d, out=buffer) is buffer
    assert np.array_equal(_bits(buffer), _bits(expected))
    assert np.array_equal(_bits(gradient_values(a, dx, d)), _bits(_roll_gradient(a, dx, d)))
    if not stack:
        v = rng.standard_normal((d,) + (8,) * d)
        assert np.array_equal(_bits(divergence_values(v, dx)), _bits(_roll_divergence(v, dx)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gradient_norm_sq_equals_summed_squared_components_bit_for_bit(d):
    # one component at a time, in axis order from zero: the same sums as
    # squaring and adding the stacked gradient's components
    a = np.random.default_rng(d).standard_normal((5,) + (8,) * d)
    reference = np.zeros_like(a)
    for g in gradient_values(a, 0.125, d):
        reference += g * g
    assert np.array_equal(_bits(gradient_norm_sq(a, 0.125, d)), _bits(reference))


def test_grid_rejects_non_integral_sizes_by_name():
    for name, value in (("d", 1.5), ("N", 64.5), ("M", 10000.5), ("N", 64.0), ("d", True)):
        sizes = {"d": 1, "N": 64, "M": 10000, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TorusGrid(**sizes)
    assert TorusGrid(d=np.int64(1), N=np.int32(64), M=10000).shape == (64,)


_BLAS_CALLS = frozenset(["dot", "einsum", "tensordot", "matmul", "inner", "vdot"])


def _blas_uses(source: str) -> list:
    """(line, what) of each np/numpy BLAS-backed call and each @ or @= in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _BLAS_CALLS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_core_reduces_without_blas():
    # artifacts are byte-identical across thread counts because every
    # reduction is an np.sum; a BLAS contraction may split its sum by thread
    assert _blas_uses("a = np.dot(x, y) + numpy.einsum('i,i', x, y)\nb = x @ y\nb @= y\n") == [
        (1, "np.dot"), (1, "numpy.einsum"), (2, "@"), (3, "@")]
    package = Path(burgerslab.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package.parent)}:{line}: {what}"
        for path in sorted(package.rglob("*.py"))
        for line, what in _blas_uses(path.read_text())
    ]
    assert offenders == []


def _log_uses(source: str) -> list:
    """(line, enclosing function or None) of each np.log / numpy.log in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "log"
                and isinstance(child.value, ast.Name)
                and child.value.id in ("np", "numpy")
            ):
                found.append((child.lineno, func))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda use: use[0])


def test_log_of_z_is_taken_in_one_function():
    # log Z and its finite-Z > 0 check live in colehopf.checked_log; a second
    # np.log elsewhere would take the log without the check
    assert _log_uses("def f(z):\n    return np.log(z)\nw = numpy.log(2.0) + math.log(2.0)\n") == [
        (2, "f"), (3, None)]
    package = Path(burgerslab.__file__).resolve().parent
    uses = [
        (f"{path.relative_to(package.parent)}:{line}", func)
        for path in sorted(package.rglob("*.py"))
        for line, func in _log_uses(path.read_text())
    ]
    offenders = [
        f"{where} in {func}" for where, func in uses
        if not (where.startswith("burgerslab/colehopf.py:") and func == "checked_log")
    ]
    assert offenders == []
    assert len(uses) == 1, uses
