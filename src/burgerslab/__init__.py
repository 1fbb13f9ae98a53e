"""burgerslab: a numerical laboratory for the conservative stochastic Burgers
equation on the periodic lattice.

The package builds the regularized stochastic heat equation

    dZ = Δ_x Z dt + Z dW^n   (Itô),      Z(0, x) = exp(f(x)),

applies the Cole-Hopf transform U = ∇_x log Z, and verifies — realization by
realization and in coupled refinement studies — the identities that make U a
weak generalized solution of

    ∂_t U = Δ_x U + ∇_x ‖U‖² + ∇_x Ẇ,      U(0, x) = ∇_x f(x),

where Ẇ is space-time white noise mollified at scale 1/n.

Modules
-------
lattice   periodic grids, discrete calculus, duality-exact inner products
bank      the standard bump and the space-time test functions built from it
noise     white noise realizations, mollifiers, Wiener paths, their laws
heat      positivity-preserving Itô scheme for the regularized heat equation
colehopf  the Cole-Hopf sequence and the KPZ / weak-form residual identities
fk        Feynman-Kac Monte Carlo cross-validation of the heat solver
harness   config, studies, reports, and the command line (on top of the
          modules above, none of which imports it)
"""

from burgerslab.lattice import (
    TorusGrid,
    ScalarField,
    VectorField,
    laplacian,
    gradient,
    divergence,
    inner_space,
)

__all__ = [
    "TorusGrid",
    "ScalarField",
    "VectorField",
    "laplacian",
    "gradient",
    "divergence",
    "inner_space",
]

__version__ = "0.1.0"
