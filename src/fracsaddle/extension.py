"""Harmonic extension to the upper half space: profile, weighted energy,
and the trace/energy identities.

The extension of u adds one variable y > 0 and turns the nonlocal operator
into the boundary flux of a local degenerate-elliptic problem with weight
y^{1-2s}.  Spectrally the construction is diagonal: each Fourier mode of u
is damped by the universal profile psi evaluated at |xi| y, so the whole
extension costs one transform per y slice, and psi is evaluated once per
distinct |xi| per slice (648 radii on a 32^3 grid, not 32768 nodes).  Every
field here is real, so the slices are written by real inverse transforms from
the rfftn half spectrum, and the Dirichlet sums run over that half with
Hermitian weights (spectral.half_parseval_sum).  The audits stream the
slices: the energy identity holds two consecutive slices at a time, never
the J of them.

psi is used through its closed form in terms of the modified Bessel
function K_s, but the closed form is not taken on faith: the test suite
integrates the defining ODE psi'' + ((1-2s)/y) psi' = psi backward from the
decaying end and compares the two on (0, 50].
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv

from .coxeter import CoxeterGroup
from .params import extension_constant
from .solver import get_action
from .spectral import Field, Grid, fftn, half_parseval_sum, irfftn, rfftn, seminorm_sq


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


@dataclass
class ExtensionField:
    base: Grid
    ygrid: YGrid
    values: np.ndarray  # shape grid.shape + (J,)
    trace: Field

    def __post_init__(self):
        want = self.base.shape + (self.ygrid.J,)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")


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


def _harmonic_slices(u: Field, s: float, ygrid: YGrid):
    """Yield the extension's slices U(., y_j), j = 1..J, in order.

    Each slice is the real inverse transform of the damped rfftn half
    spectrum.  psi is evaluated once per distinct |xi| on that half and
    gathered back onto it, on the same floats as a per-node evaluation, so
    the result is bitwise the same.
    """
    grid = u.grid
    # complex fftn, halved: perfbench/test_perfbench.py names this binding
    uhat = np.ascontiguousarray(fftn(u.values)[..., : grid.M // 2 + 1])
    k2 = grid.half_freq_norm_sq()
    radii, inverse = np.unique(np.sqrt(k2), return_inverse=True)
    inverse = inverse.reshape(k2.shape)  # numpy < 2 returns it flat
    for y in ygrid.nodes:
        yield irfftn(psi_profile(s, radii * y)[inverse] * uhat, grid.shape)


def harmonic_extend(u: Field, s: float, ygrid: YGrid) -> ExtensionField:
    """Multiply each mode by psi(|xi| y_j); the trace slice is u itself.

    The slices are stored slice-major, so each values[..., j] is contiguous.
    """
    buf = np.empty((ygrid.J,) + u.grid.shape)
    for j, v in enumerate(_harmonic_slices(u, s, ygrid)):
        buf[j] = v
    return ExtensionField(u.grid, ygrid, np.moveaxis(buf, 0, -1), u.copy())


def _cell_weights(ygrid: YGrid, s: float) -> np.ndarray:
    """Exact integrals of y^{1-2s} over the cells [y_{j-1}, y_j], y_0 = 0."""
    e = 2.0 - 2.0 * s
    edges = np.concatenate([[0.0], ygrid.nodes])
    return np.diff(edges**e) / e


def _slices_energy(trace: Field, slices, ygrid: YGrid, s: float) -> float:
    """Weighted Dirichlet energy of the J slices above trace, in one pass.

    Only the previous slice is kept.  x derivatives are spectral per slice;
    the y derivative uses cell difference quotients, except in the first
    cell where U - trace follows the y^{2s} Frobenius branch and the weighted
    integral is done in closed form on that ansatz (a plain quotient loses
    the boundary layer).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    grid = trace.grid
    y = ygrid.nodes
    w = _cell_weights(ygrid, s)
    k2 = grid.half_freq_norm_sq()
    A = np.empty(ygrid.J + 1)
    A[0] = half_parseval_sum(grid, rfftn(trace.values), k2)
    prev = trace.values
    for j, v in enumerate(slices):
        A[j + 1] = half_parseval_sum(grid, rfftn(v), k2)
        if j == 0:
            d0 = v - prev
            y_part = 2.0 * s * y[0] ** (-2.0 * s) * grid.cellvol * float(np.sum(d0**2))
        else:
            dq = (v - prev) / (y[j] - y[j - 1])
            y_part += w[j] * grid.cellvol * float(np.sum(dq**2))
        prev = v
    x_part = float(np.sum(w * 0.5 * (A[:-1] + A[1:])))
    return x_part + y_part


def extension_energy(U: ExtensionField, s: float) -> float:
    """Weighted Dirichlet energy: integral of y^{1-2s} |grad U|^2."""
    slices = (U.values[..., j] for j in range(U.ygrid.J))
    return _slices_energy(U.trace, slices, U.ygrid, s)


def energy_identity_check(u: Field, s: float, ygrid: YGrid):
    """lhs = extension energy of the harmonic extension; rhs = k_s times the
    spectral seminorm squared; returns (lhs, rhs, ratio).

    The slices stream into the energy, so no J-slice extension is stored.
    """
    lhs = _slices_energy(u, _harmonic_slices(u, s, ygrid), ygrid, s)
    rhs = extension_constant(s) * seminorm_sq(u, s)
    return lhs, rhs, lhs / rhs


def trace_inequality_check(V: ExtensionField, s: float):
    """Seminorm of the trace against the scaled extension energy.

    satisfied allows 2% quadrature slack; equality is approached exactly
    when V is the harmonic extension of its own trace.
    """
    lhs = seminorm_sq(V.trace, s)
    rhs = extension_energy(V, s) / extension_constant(s)
    return lhs, rhs, bool(lhs <= rhs * 1.02)


def extend_symmetry_check(u: Field, G: CoxeterGroup, s: float, ygrid=None) -> bool:
    """True iff every slice of the extension inherits u's signed symmetry.

    Slices are checked as they are made, against their own scale, and the
    check stops at the first one that breaks the symmetry.
    """
    grid = u.grid
    if ygrid is None:
        ygrid = YGrid.graded(64, default_y_max(grid))
    action = get_action(grid, G)
    for v in _harmonic_slices(u, s, ygrid):
        flat = v.ravel()
        scale = max(1.0, float(np.abs(flat).max()))
        for i in range(G.order):
            img = flat[action.tables[i]]
            if np.abs(img - action.signs[i] * flat).max() > 1e-12 * scale:
                return False
    return True
