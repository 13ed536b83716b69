"""Harmonic extension to the upper half space: the profile psi and the
energy identity audit.

The extension of u adds one variable y > 0 and turns the nonlocal operator
into the boundary flux of a local degenerate-elliptic problem with weight
y^{1-2s}.  Spectrally the construction is diagonal: each Fourier mode of u
is damped by the universal profile psi evaluated at |xi| y.  So the energy
audit needs no slice U(., y_j) at all: by Parseval its quadrature is one
1-D sum over the y nodes per distinct |xi| (648 radii on a 32^3 grid, not
32768 nodes), weighted by the Hermitian-weighted |u^|^2 binned by radius
(spectral.half_power).  One forward transform of u and one psi evaluation
per y node make the whole audit.  The slice-by-slice construction it
replaces is the tests' real-space oracle (tests/extension_reference.py).

psi is used through its closed form in terms of the modified Bessel
function K_s, but the closed form is not taken on faith: the test suite
integrates the defining ODE psi'' + ((1-2s)/y) psi' = psi backward from the
decaying end and compares the two on (0, 50].
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv

from .params import extension_constant
from .spectral import Field, Grid, fftn, half_power


@dataclass(frozen=True)
class YGrid:
    """Graded nodes y_j = Y_max (j/J)^gamma, j = 1..J (y=0 kept separate).

    Grading concentrates nodes at the boundary where the weight y^{1-2s}
    and the profile's y^{2s} Frobenius branch live.
    """

    nodes: np.ndarray
    Y_max: float
    gamma: float

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", n)
        if n.size < 64:
            raise ValueError(f"need J >= 64 nodes; got {n.size}")
        if n[0] <= 0 or np.any(np.diff(n) <= 0):
            raise ValueError("nodes must be positive and strictly increasing")

    @property
    def J(self) -> int:
        return self.nodes.size

    @classmethod
    def graded(cls, J: int, Y_max: float, gamma: float = 2.0) -> "YGrid":
        j = np.arange(1, J + 1, dtype=np.float64)
        return cls(Y_max * (j / J) ** gamma, Y_max, gamma)


def default_y_max(grid: Grid) -> float:
    """40 / |xi_min|, deep enough that the slowest mode's profile is < 1e-8."""
    return 40.0 * grid.L / (2.0 * math.pi)


def psi_profile(s: float, y):
    """The minimizing extension profile: (2^{1-s}/Gamma(s)) y^s K_s(y).

    Normalized psi(0) = 1; at s = 1/2 it collapses to e^{-y}.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    out = np.empty_like(y)
    pos = y > 0
    c = 2.0 ** (1.0 - s) / math.gamma(s)
    with np.errstate(invalid="ignore", over="ignore"):
        out[pos] = c * y[pos] ** s * kv(s, y[pos])
    out[~pos] = 1.0
    out[np.isnan(out)] = 0.0  # kv underflow at very large y
    return float(out[0]) if scalar else out


def _cell_weights(ygrid: YGrid, s: float) -> np.ndarray:
    """Exact integrals of y^{1-2s} over the cells [y_{j-1}, y_j], y_0 = 0."""
    e = 2.0 - 2.0 * s
    edges = np.concatenate([[0.0], ygrid.nodes])
    return np.diff(edges**e) / e


def energy_identity_check(u: Field, s: float, ygrid: YGrid):
    """lhs = extension energy of the harmonic extension; rhs = k_s times the
    spectral seminorm squared; returns (lhs, rhs, ratio).

    The extension damps each mode by psi(|xi| y), so by Parseval every term
    of the energy quadrature is a sum over the distinct radii |xi| against
    the radial masses m(|xi|), the Hermitian-weighted |u^|^2 binned by
    radius.  Per y node: the x part is the trapezoid in y of the sum of
    |xi|^2 psi^2 m; the y part uses the cell difference quotient of psi,
    except in the first cell, where U - u follows the y^{2s} Frobenius
    branch and the weighted integral is done in closed form on that ansatz
    (a plain quotient loses the boundary layer).  One forward transform in
    all; no slice of the extension is formed, and the profile is held for
    two consecutive y nodes at a time.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    grid = u.grid
    # complex fftn, halved: perfbench/test_perfbench.py names this binding
    uhat = fftn(u.values)[..., : grid.M // 2 + 1]
    radii, inverse = np.unique(np.sqrt(grid.half_freq_norm_sq()), return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=half_power(grid, uhat).ravel())
    xmass = radii**2 * mass
    y = ygrid.nodes
    w = _cell_weights(ygrid, s)
    lhs = 0.0
    prev, x_prev = np.ones_like(radii), float(np.sum(xmass))  # psi(0) = 1
    for j, yj in enumerate(y):
        psi = psi_profile(s, radii * yj)
        x_now = float(xmass @ psi**2)
        dpsi2 = float(mass @ (psi - prev) ** 2)
        if j == 0:
            lhs += w[0] * 0.5 * (x_prev + x_now) + 2.0 * s * yj ** (-2.0 * s) * dpsi2
        else:
            lhs += w[j] * (0.5 * (x_prev + x_now) + dpsi2 / (yj - y[j - 1]) ** 2)
        prev, x_prev = psi, x_now
    rhs = extension_constant(s) * float(mass @ radii ** (2.0 * s))
    return lhs, rhs, lhs / rhs
