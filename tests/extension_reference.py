"""Real-space oracle for the extension audit: the harmonic extension built
slice by slice, its weighted Dirichlet energy, and the trace and symmetry
audits on the stored extension.

The package's energy_identity_check never forms a slice: it sums the same
quadrature per distinct |xi|, by Parseval.  This module forms the J slices
U(., y_j) by real inverse transforms and transforms each one back, so it
checks that per-radius sum through an independent route.  It lives with the
tests because only they call it.
"""

from dataclasses import dataclass

import numpy as np

from fracsaddle.coxeter import CoxeterGroup
from fracsaddle.extension import YGrid, _cell_weights, default_y_max, psi_profile
from fracsaddle.params import extension_constant
from fracsaddle.solver import get_action
from fracsaddle.spectral import Field, Grid, fftn, half_parseval_sum, irfftn, rfftn, seminorm_sq


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


def _harmonic_slices(u: Field, s: float, ygrid: YGrid):
    """Yield the extension's slices U(., y_j), j = 1..J, in order.

    Each slice is the real inverse transform of the damped rfftn half
    spectrum.  psi is evaluated once per distinct |xi| on that half and
    gathered back onto it, on the same floats as a per-node evaluation, so
    the result is bitwise the same.
    """
    grid = u.grid
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
