"""The standard bump and the smooth space-time test functions built from it.

``bump`` is the one bump profile of the package, and ``BUMP_CONSTANTS`` holds
its normalization and L² norm per dimension: the noise module scales it into
the mollifier, and the time sections normalize it into a delta net.
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

These are cached per (function, grid) pair, next to the lattice duals

    -∇_h·(aP)   and   -∇_h·(aQ),

with which a pairing linear in U = ∇_h H is taken against H itself:
⟨a·∇_h H, P⟩ = ⟨H, -∇_h·(aP)⟩ holds exactly on the lattice (summation by
parts), so those pairings need no gradient.  The same place knows each
function's support: the window of steps with |t_k - t_c| < t_r, and the
spatial box of nodes within the radius of the centre on each axis, grown by
one node for the stencil of the duals.  A box that straddles the periodic
seam is split into basic slices, at most 2^d pieces.  A space-time pairing
then costs one weighted time loop over the window, each step contracted
over the box only.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from burgerslab.lattice import TorusGrid, along, divergence_values, real, wrap

__all__ = ["BUMP_CONSTANTS", "TestFunction", "build_bank", "bump", "bump_d1", "bump_d2"]

# Points with 1 - u^2 below this are treated as exactly outside the
# support.  exp(-1/2e-9) underflows to zero in float64, so the cut
# changes no representable value; it only keeps g(u) finite.
_EDGE = 1e-9


def _on_support(u):
    """(zeros like u, the mask |u| < 1 − _EDGE, u on the mask, 1 − u² on the mask)."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0 - _EDGE
    ui = u[inside]
    return np.zeros_like(u), inside, ui, 1.0 - ui * ui


def bump(u):
    """C^infty bump exp(-1/(1-u^2)) for |u| < 1, exactly 0 elsewhere."""
    out, inside, _, den = _on_support(u)
    out[inside] = np.exp(-1.0 / den)
    return out


# (c_d, ‖ρ‖²) of the normalized bump ρ = c_d·bump(|x|) in dimension d = 1, 2, 3.
# c_d = 1/∫ρ̃ and ‖ρ‖² = c_d²·∫ρ̃² for the unnormalized bump ρ̃ reduce to 1-D
# radial integrals against the surface area of S^{d-1}.  The table holds the
# floats that composite Simpson over 2·10⁵ panels of [0, 1] gives for them, a
# quadrature error many orders below every tolerance used downstream;
# `tests/test_noise.py` recomputes that quadrature and holds the table to it.
BUMP_CONSTANTS = {
    1: (2.252283621043581, 0.6751168130096974),
    2: (2.143565775792237, 0.5418154448231047),
    3: (2.2671167396083263, 0.4939504682066668),
}


def bump_d1(u):
    """First derivative of :func:`bump`, analytic, 0 outside the support."""
    out, inside, ui, den = _on_support(u)
    out[inside] = np.exp(-1.0 / den) * (-2.0 * ui / den**2)
    return out


def bump_d2(u):
    """Second derivative of :func:`bump`, analytic, 0 outside the support."""
    out, inside, ui, den = _on_support(u)
    g = -2.0 * ui / den**2
    gp = -2.0 / den**2 - 8.0 * ui * ui / den**3
    out[inside] = np.exp(-1.0 / den) * (g * g + gp)
    return out


def _axis_pieces(inside: np.ndarray) -> tuple:
    """Basic slices covering a cyclic arc of nodes grown by one on each side."""
    N, count = inside.size, int(np.count_nonzero(inside))
    if count + 2 >= N:
        return (slice(0, N),)
    start = (int(np.argmax(inside & ~np.roll(inside, 1))) - 1) % N
    stop = start + count + 2
    return (slice(start, min(stop, N)),) + ((slice(0, stop - N),) if stop > N else ())


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

    def time_profile(self, grid: TorusGrid):
        """(psi, dpsi/dt) of the time factor at the left endpoints t_k = k dt, k < M."""
        u = (grid.dt * np.arange(grid.M) - self.t_center) / self.t_radius
        return bump(u), bump_d1(u) / self.t_radius

    def time_l2_sq(self, grid: TorusGrid) -> float:
        """dt·Σ_k ψ(t_k)², the squared L² norm of the time factor over the same left endpoints."""
        psi, _ = self.time_profile(grid)
        return grid.dt * float(np.sum(psi * psi))

    # -- spatial tensors -------------------------------------------------

    @lru_cache(maxsize=128)
    def spatial_tensors(self, grid: TorusGrid):
        """Shared tensors (P, D, Q) on the grid; cached, do not mutate."""
        self.validate_on(grid)
        x = grid.axis_coords()
        psi, dpsi, ddpsi = [], [], []
        for a in range(grid.d):
            u = wrap(x - self.x_center[a], grid.L) / self.x_radius
            psi.append(bump(u))
            dpsi.append(bump_d1(u) / self.x_radius)
            ddpsi.append(bump_d2(u) / self.x_radius**2)

        P = np.ones(grid.shape)
        for a in range(grid.d):
            P = P * along(psi[a], a, grid.d)

        D = np.zeros(grid.shape)
        Q = np.zeros(grid.shape)
        for a in range(grid.d):
            rest = np.ones(grid.shape)
            for l in range(grid.d):
                if l != a:
                    rest = rest * along(psi[l], l, grid.d)
            D += self.amplitudes[a] * along(dpsi[a], a, grid.d) * rest
            Q += along(ddpsi[a], a, grid.d) * rest

        for arr in (P, D, Q):
            arr.setflags(write=False)
        return P, D, Q

    @lru_cache(maxsize=128)
    def duals(self, grid: TorusGrid):
        """(-∇_h·(aP), -∇_h·(aQ)) on the grid; cached, do not mutate."""
        P, _, Q = self.spatial_tensors(grid)
        amps = np.asarray(self.amplitudes).reshape((grid.d,) + (1,) * grid.d)
        duals = tuple(-divergence_values(amps * arr, grid.dx) for arr in (P, Q))
        for arr in duals:
            arr.setflags(write=False)
        return duals

    @lru_cache(maxsize=128)
    def support(self, grid: TorusGrid):
        """(window, box): the steps and the spatial slices the function touches; cached.

        ``window`` is the slice of steps k < M with |k·dt - t_c| < t_r.
        ``box`` is a tuple of pieces, each a tuple of d basic slices; the
        pieces tile the nodes within x_radius of the centre on each axis
        (wrapped), grown by one node on each side, so every tensor above and
        both duals vanish outside them.  Both come from the geometry, not
        from the nonzeros: in 1-D, D = a·psi' is zero at the centre.
        """
        steps = np.flatnonzero(np.abs(grid.dt * np.arange(grid.M) - self.t_center) < self.t_radius)
        window = slice(int(steps[0]), int(steps[-1]) + 1) if steps.size else slice(0, 0)
        x = grid.axis_coords()
        per_axis = [
            _axis_pieces(np.abs(wrap(x - c, grid.L)) < self.x_radius) for c in self.x_center
        ]
        return window, tuple(itertools.product(*per_axis))


# ---------------------------------------------------------------------------
# default bank


def _reals(name: str, values) -> tuple:
    """A list of real numbers as a tuple of floats; anything else is named, not parsed."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of real numbers, got {values!r}")
    return tuple(real(name, v) for v in values)


def _test_id(name: str, value) -> str:
    """An id as it is; item names, CSV cells and SVG labels carry it unescaped."""
    if not (isinstance(value, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", value)):
        raise ValueError(f"{name} must be a non-empty string of letters, digits, "
                         f"'_', '-' and '.', got {value!r}")
    return value


def build_bank(grid: TorusGrid, specs=None):
    """Build a list of test functions valid on ``grid``.

    With ``specs=None`` returns the default bank of six functions with
    staggered centers, radii, and sign patterns (amplitude vectors are
    truncated to the grid dimension).  Otherwise ``specs`` is an iterable
    of dicts with keys ``t_center, t_radius, x_center, x_radius,
    amplitudes`` and optional ``id`` (ASCII letters, digits, ``_``, ``-``
    and ``.``), whose numbers must already be real numbers: a string or a
    bool is refused by name, not converted, and any other key is named.
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
        required = {"t_center", "t_radius", "x_center", "x_radius", "amplitudes"}
        missing, unknown = required - set(s), set(s) - required - {"id"}
        if missing:
            raise ValueError(f"test function spec {i} is missing keys {sorted(missing)}")
        if unknown:
            raise ValueError(f"test function spec {i} has unknown keys {sorted(unknown)}")
        spec = f"test function spec {i}: "
        tf = TestFunction(
            id=_test_id(spec + "id", s.get("id", f"phi{i + 1}")),
            t_center=real(spec + "t_center", s["t_center"]),
            t_radius=real(spec + "t_radius", s["t_radius"]),
            x_center=_reals(spec + "x_center", s["x_center"]),
            x_radius=real(spec + "x_radius", s["x_radius"]),
            amplitudes=_reals(spec + "amplitudes", s["amplitudes"]),
        )
        tf.validate_on(grid)
        bank.append(tf)
    if not bank:
        raise ValueError("need at least one test function")
    ids = [tf.id for tf in bank]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate test function ids in bank: {ids}")
    return bank
