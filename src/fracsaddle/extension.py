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
per block of y nodes make the whole audit; pairs (|xi|, y) far past the
profile's decay are left at 0, not evaluated.  The slice-by-slice
construction it replaces is the tests' real-space oracle
(tests/extension_reference.py).

psi is used through its closed form in terms of the modified Bessel
function K_s, computed here in numpy on two routes: a power series for
small arguments and the trapezoid rule on an integral representation up to
the underflow of e^{-y}.  The test suite checks it against
scipy.special's K_s to 1e-13 relative, and does not take the closed form on
faith either: it integrates the defining ODE psi'' + ((1-2s)/y) psi' = psi
backward from the decaying end and compares the two on (0, 50].
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .params import extension_constant
from .spectral import Field, Grid, half_power, rfftn
# energy_identity_check never calls fftn; perfbench/test_perfbench.py names this binding
from .spectral import fftn


@dataclass(frozen=True)
class YGrid:
    """Increasing nodes y_1 < ... < y_J in y > 0 (y=0 kept separate)."""

    nodes: np.ndarray

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
    def graded(cls, J: int, Y_max: float) -> "YGrid":
        """y_j = Y_max (j/J)^2, j = 1..J: the quadratic grading concentrates
        nodes at the boundary, where the weight y^{1-2s} and the profile's
        y^{2s} Frobenius branch live."""
        j = np.arange(1, J + 1, dtype=np.float64)
        return cls(Y_max * (j / J) ** 2)


def default_y_max(grid: Grid) -> float:
    """40 / |xi_min|, deep enough that the slowest mode's profile is < 1e-8."""
    return 40.0 * grid.L / (2.0 * math.pi)


# Routes of psi on y > 0.  Below _SERIES_BELOW the I_{+-s} power series,
# whose cancellation costs at most ~1e-14 at s = 0.01 and 0.99 there; past
# _UNDERFLOW, e^{-y} is 0; in between the trapezoid rule, one octave of y at
# a time.
_SERIES_BELOW = 0.5
_UNDERFLOW = 746.0
_V_MAX = 7.0  # e^{-v^2} cuts the trapezoid sum off below rounding
_TILE = 8192  # most (y, v) pairs per trapezoid pass: 64 kB, held in cache


def _psi_series(s: float, c: float, y: np.ndarray) -> np.ndarray:
    """K_s = pi (I_{-s} - I_s) / (2 sin(pi s)); with z = y^2/4 that makes
    psi = A(z) - y^{2s} B(z) with A(0) = 1.  Ten terms reach rounding for
    z < 1/16."""
    pref = c * math.pi / (2.0 * math.sin(math.pi * s))
    a = [pref * 2.0**s / math.gamma(1.0 - s)]
    b = [pref * 2.0**-s / math.gamma(1.0 + s)]
    for k in range(1, 10):
        a.append(a[-1] / (k * (k - s)))
        b.append(b[-1] / (k * (k + s)))
    z = 0.25 * y * y
    return polyval(z, a) - y ** (2.0 * s) * polyval(z, b)


def _psi_trapezoid(s: float, c: float, y: np.ndarray, lo: float, pairs: int) -> np.ndarray:
    """y^s K_s(y) from e^y K_s(y) = int_0^inf e^{-v^2} cosh(s t) 2 / sqrt(2y + v^2) dv
    with t = 2 asinh(v / sqrt(2y)), for y in [lo, 2 lo).

    The integrand is even and analytic in the strip |Im v| < d = sqrt(2y),
    where e^{-v^2} grows like e^{(Im v)^2}, so the trapezoid rule with step
    h errs by about exp(d^2 - 2 pi d / h) (Trefethen & Weideman, SIAM Review
    2014): e^-40 with the step below at d = sqrt(2 lo).  The (y, v) table
    is built for at most `pairs` pairs at a time.
    """
    d2 = 2.0 * lo
    h = 2.0 * math.pi * math.sqrt(d2) / (40.0 + d2)
    v = np.arange(0.0, _V_MAX, h)
    w = h * np.exp(-v * v)
    w[0] *= 0.5
    scaled = np.empty(y.size)  # e^y K_s(y)
    rows = max(1, pairs // v.size)
    for i in range(0, y.size, rows):
        two_y = 2.0 * y[i : i + rows, None]
        f = v / np.sqrt(two_y)
        np.arcsinh(f, out=f)
        f *= 2.0 * s
        np.cosh(f, out=f)
        q = two_y + v * v
        f /= np.sqrt(q, out=q)
        f *= w
        # a row sum, not a BLAS product, so each value is independent of the batch
        scaled[i : i + rows] = f.sum(axis=1)
    return 2.0 * c * y**s * np.exp(-y) * scaled


def psi_profile(s: float, y):
    """The minimizing extension profile: (2^{1-s}/Gamma(s)) y^s K_s(y).

    Normalized psi(0) = 1; at s = 1/2 it collapses to e^{-y}.  K_s comes
    from a power series for small y and the trapezoid rule for an integral
    representation from there on; psi is exactly 0 once e^{-y} underflows.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    c = 2.0 ** (1.0 - s) / math.gamma(s)
    out = np.zeros_like(y)
    out[y == 0] = 1.0
    small = (y > 0) & (y < _SERIES_BELOW)
    out[small] = _psi_series(s, c, y[small])
    lo = _SERIES_BELOW
    while lo < _UNDERFLOW:
        band = (y >= lo) & (y < min(2.0 * lo, _UNDERFLOW))
        # no more pairs per pass than points in the call: memory stays O(y)
        out[band] = _psi_trapezoid(s, c, y[band], lo, min(y.size, _TILE))
        lo *= 2.0
    return float(out[0]) if scalar else out


def _cell_weights(ygrid: YGrid, s: float) -> np.ndarray:
    """Exact integrals of y^{1-2s} over the cells [y_{j-1}, y_j], y_0 = 0."""
    e = 2.0 - 2.0 * s
    edges = np.concatenate([[0.0], ygrid.nodes])
    return np.diff(edges**e) / e


# y nodes per psi_profile call: 16 x 648 radii on a 32^3 grid spreads the
# call's fixed cost while its trapezoid temporaries stay at a few MB.
_BLOCK = 16
# psi decreases, and psi(40) is 1.3e-17 at s = 0.75 and below 3.4e-17 for any
# s, so each psi^2 the audit would take past it is below 1.2e-33, far under
# the rounding of its sums: such pairs stay 0 and are not evaluated.
_NEGLIGIBLE_FROM = 40.0


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
    all; no slice of the extension is formed, and the profile is evaluated
    for _BLOCK y nodes at a time, never as the whole (J x radii) table, and
    only on the radii with |xi| y below _NEGLIGIBLE_FROM at the block's
    first (smallest) y.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    grid = u.grid
    uhat = rfftn(u.values)
    radii, inverse = np.unique(np.sqrt(grid.half_freq_norm_sq()), return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=half_power(grid, uhat).ravel())
    xmass = radii**2 * mass
    y = ygrid.nodes
    x_part = np.empty(y.size)  # sum of |xi|^2 psi^2 m at each y node
    dpsi2 = np.empty(y.size)  # sum of (psi_j - psi_{j-1})^2 m, with psi(0) = 1
    prev = np.ones((1, radii.size))
    for j in range(0, y.size, _BLOCK):
        yb = y[j : j + _BLOCK]
        # radii are sorted and yb[0] is the block's smallest y; radius 0 is always kept
        n = np.searchsorted(radii * yb[0], _NEGLIGIBLE_FROM)
        psi = psi_profile(s, np.outer(yb, radii[:n]))
        x_part[j : j + _BLOCK] = psi**2 @ xmass[:n]
        dpsi2[j : j + _BLOCK] = np.diff(psi, axis=0, prepend=prev[:, :n]) ** 2 @ mass[:n]
        # the radii left out here drop from the previous block's last psi to 0
        dpsi2[j] += prev[0, n:] ** 2 @ mass[n : prev.shape[1]]
        prev = psi[-1:]
    w = _cell_weights(ygrid, s)
    x_cells = 0.5 * (np.concatenate([[xmass.sum()], x_part[:-1]]) + x_part)
    lhs = float(
        w @ x_cells
        + 2.0 * s * y[0] ** (-2.0 * s) * dpsi2[0]
        + w[1:] @ (dpsi2[1:] / np.diff(y) ** 2)
    )
    rhs = extension_constant(s) * float(mass @ radii ** (2.0 * s))
    return lhs, rhs, lhs / rhs
