"""The standard bump and the smooth space-time test functions built from it.

``bump`` is the one bump profile of the package: the noise module scales it
into the mollifier, and the time sections normalize it into a delta net.
Every test function here has the separable form

    phi_i(t, x) = a_i * psi((t - t0)/r_t) * prod_j psi((x_j - c_j)/r_x),

where ``psi(u) = exp(-1/(1-u^2))`` on ``|u| < 1`` and exactly zero outside,
``a`` is a constant amplitude vector, and the spatial displacement
``x_j - c_j`` is taken in the wrapped (minimum-image) sense so the profile
lives on the torus rather than on a line.  The time support ``(t0-r_t,
t0+r_t)`` must sit strictly inside ``(0, T)`` and the spatial diameter
``2 r_x`` strictly inside one period; both are validated, because the
weak-form identities integrate by parts freely only when all boundary
terms vanish identically.

Derivatives are analytic, via the chain rule on

    psi'(u)  = psi(u) * g(u),          g(u)  = -2u (1-u^2)^{-2},
    psi''(u) = psi(u) * (g(u)^2 + g'(u)),
    g'(u)    = -2 (1-u^2)^{-2} - 8 u^2 (1-u^2)^{-3}.

Near the support edge g blows up polynomially while psi vanishes faster
than any polynomial; products are evaluated under a mask slightly inside
``|u| < 1`` so no inf*0 can occur (the excluded sliver is below the double
underflow threshold anyway).

Because all d components share one scalar spatial profile, the three
spatial contractions every pairing needs are shared tensors:

    P = prod_j psi_j                  (profile itself),
    D = sum_a a_a psi'_a prod_{l!=a} psi_l      (spatial part of div phi),
    Q = sum_j psi''_j prod_{l!=j} psi_l         (spatial part of Lap phi_i / a_i).

These are cached per (function, grid) pair; a full space-time pairing then
costs one weighted time loop over precomputed N^d arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from burgerslab.lattice import TorusGrid

__all__ = ["TestFunction", "build_bank", "bump", "bump_d1", "bump_d2"]

# Points with 1 - u^2 below this are treated as exactly outside the
# support.  exp(-1/2e-9) underflows to zero in float64, so the cut
# changes no representable value; it only keeps g(u) finite.
_EDGE = 1e-9


def bump(u):
    """C^infty bump exp(-1/(1-u^2)) for |u| < 1, exactly 0 elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - _EDGE
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def bump_d1(u):
    """First derivative of :func:`bump`, analytic, 0 outside the support."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - _EDGE
    ui = u[inside]
    den = 1.0 - ui * ui
    out[inside] = np.exp(-1.0 / den) * (-2.0 * ui / den**2)
    return out


def bump_d2(u):
    """Second derivative of :func:`bump`, analytic, 0 outside the support."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - _EDGE
    ui = u[inside]
    den = 1.0 - ui * ui
    g = -2.0 * ui / den**2
    gp = -2.0 / den**2 - 8.0 * ui * ui / den**3
    out[inside] = np.exp(-1.0 / den) * (g * g + gp)
    return out


def _wrap(delta, period):
    """Minimum-image displacement in (-period/2, period/2]."""
    return (delta + 0.5 * period) % period - 0.5 * period


@dataclass(frozen=True)
class TestFunction:
    """One separable bump test function; see the module docstring."""

    __test__ = False  # not a pytest suite, despite the name

    id: str
    t_center: float
    t_radius: float
    x_center: tuple
    x_radius: float
    amplitudes: tuple

    def __post_init__(self):
        if not self.id:
            raise ValueError("test function needs a non-empty id")
        if not (self.t_radius > 0.0 and np.isfinite(self.t_radius)):
            raise ValueError(f"t_radius must be positive, got {self.t_radius}")
        if not (self.x_radius > 0.0 and np.isfinite(self.x_radius)):
            raise ValueError(f"x_radius must be positive, got {self.x_radius}")
        if len(self.x_center) != len(self.amplitudes):
            raise ValueError(
                "x_center and amplitudes must have the same length, got "
                f"{len(self.x_center)} and {len(self.amplitudes)}"
            )
        if len(self.x_center) == 0:
            raise ValueError("test function needs at least one spatial axis")
        object.__setattr__(self, "x_center", tuple(float(c) for c in self.x_center))
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))

    # -- geometry ------------------------------------------------------

    @property
    def dim(self):
        return len(self.x_center)

    @property
    def t_support(self):
        return (self.t_center - self.t_radius, self.t_center + self.t_radius)

    def validate_on(self, grid: TorusGrid):
        """Check dimension and strict interior support on this grid."""
        if self.dim != grid.d:
            raise ValueError(
                f"test function {self.id} has {self.dim} spatial components "
                f"but the grid has d={grid.d}"
            )
        lo, hi = self.t_support
        if not (lo > 0.0 and hi < grid.T):
            raise ValueError(
                f"time support ({lo:g}, {hi:g}) of {self.id} must lie "
                f"strictly inside (0, {grid.T:g})"
            )
        if not (2.0 * self.x_radius < grid.L):
            raise ValueError(
                f"spatial diameter {2.0 * self.x_radius:g} of {self.id} "
                f"must be smaller than the period {grid.L:g}"
            )

    # -- time factor ---------------------------------------------------

    def psi_t(self, t):
        """Scalar time factor psi((t - t0)/r_t)."""
        return float(bump((t - self.t_center) / self.t_radius))

    def dpsi_t(self, t):
        """d/dt of the time factor."""
        return float(bump_d1((t - self.t_center) / self.t_radius)) / self.t_radius

    # -- spatial tensors -------------------------------------------------

    def spatial_tensors(self, grid: TorusGrid):
        """Shared tensors (P, D, Q) on the grid; cached, do not mutate."""
        return _spatial_tensors(self, grid)


@lru_cache(maxsize=128)
def _spatial_tensors(tf: TestFunction, grid: TorusGrid):
    tf.validate_on(grid)
    x = grid.axis_coords()
    psi, dpsi, ddpsi = [], [], []
    for a in range(grid.d):
        u = _wrap(x - tf.x_center[a], grid.L) / tf.x_radius
        psi.append(bump(u))
        dpsi.append(bump_d1(u) / tf.x_radius)
        ddpsi.append(bump_d2(u) / tf.x_radius**2)

    def along(vec, axis):
        shape = [1] * grid.d
        shape[axis] = grid.N
        return vec.reshape(shape)

    P = np.ones(grid.shape)
    for a in range(grid.d):
        P = P * along(psi[a], a)

    D = np.zeros(grid.shape)
    Q = np.zeros(grid.shape)
    for a in range(grid.d):
        rest = np.ones(grid.shape)
        for l in range(grid.d):
            if l != a:
                rest = rest * along(psi[l], l)
        D += tf.amplitudes[a] * along(dpsi[a], a) * rest
        Q += along(ddpsi[a], a) * rest

    for arr in (P, D, Q):
        arr.setflags(write=False)
    return P, D, Q


# ---------------------------------------------------------------------------
# default bank


def build_bank(grid: TorusGrid, specs=None):
    """Build a list of test functions valid on ``grid``.

    With ``specs=None`` returns the default bank of six functions with
    staggered centers, radii, and sign patterns (amplitude vectors are
    truncated to the grid dimension).  Otherwise ``specs`` is an iterable
    of dicts with keys ``t_center, t_radius, x_center, x_radius,
    amplitudes`` and optional ``id``.
    """
    if specs is None:
        T, L, d = grid.T, grid.L, grid.d
        raw = [
            (0.50, 0.30, (0.50, 0.50, 0.50), 0.20, (1.0, 0.6, -0.4)),
            (0.35, 0.25, (0.30, 0.65, 0.45), 0.15, (-0.8, 1.0, 0.5)),
            (0.65, 0.25, (0.70, 0.40, 0.60), 0.25, (0.9, -0.7, 1.0)),
            (0.50, 0.45, (0.55, 0.60, 0.30), 0.30, (1.2, 0.8, -0.6)),
            (0.30, 0.20, (0.80, 0.25, 0.50), 0.18, (0.7, -1.1, 0.9)),
            (0.70, 0.22, (0.45, 0.75, 0.35), 0.22, (-1.0, 0.5, 0.8)),
        ]
        specs = [
            {
                "id": f"phi{i + 1}",
                "t_center": tc * T,
                "t_radius": tr * T,
                "x_center": tuple(c * L for c in xc[:d]),
                "x_radius": rx * L,
                "amplitudes": amp[:d],
            }
            for i, (tc, tr, xc, rx, amp) in enumerate(raw)
        ]

    bank = []
    for i, s in enumerate(specs):
        missing = {"t_center", "t_radius", "x_center", "x_radius", "amplitudes"} - set(s)
        if missing:
            raise ValueError(f"test function spec {i} is missing keys {sorted(missing)}")
        tf = TestFunction(
            id=s.get("id", f"phi{i + 1}"),
            t_center=float(s["t_center"]),
            t_radius=float(s["t_radius"]),
            x_center=tuple(s["x_center"]),
            x_radius=float(s["x_radius"]),
            amplitudes=tuple(s["amplitudes"]),
        )
        tf.validate_on(grid)
        bank.append(tf)
    ids = [tf.id for tf in bank]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate test function ids in bank: {ids}")
    return bank
