"""Action functional, L^2 gradient, and Nehari-ray algebra.

Everything here derives from one evaluation of a field u, `_evaluate`: its
transform u_hat, K_alpha * |u|^p, Q = ||u||^2_{H^s} and D(u) = integral of
(K_alpha * |u|^p)|u|^p.  The energy, gradient, Nehari scale and Nehari
energy are formulas in these four; the evaluation of t u is a rescale of
that of u.  The public functions and `solver.solve` share this one path.

Every field is real, so u_hat is the rfftn half spectrum and the symbols
are sampled on that half (`Grid.half_freq_norm_sq`).  The gradient
g = (1 + |xi|^{2s}) u - F, with F = (K_alpha * |u|^p)|u|^{p-2} u, is formed
there too, and the residual of the descent is a Parseval sum on it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ModelParams
from .spectral import Field, Grid, half_inner, half_parseval_sum, irfftn, riesz_convolve, rfftn


@dataclass(frozen=True)
class EnergyBreakdown:
    """Quadratic part, nonlocal interaction D(u), and their combination.

    `nonlocal_` carries the trailing underscore only because the bare word
    is a Python keyword.
    """

    quad: float
    nonlocal_: float
    total: float


class _Evaluation(NamedTuple):
    """u_hat (the rfftn half), K_alpha * |u|^p, Q = ||u||^2_{H^s} and D(u)
    for one field."""

    uhat: np.ndarray
    conv: np.ndarray
    Q: float
    D: float

    def scaled(self, t: float, p: float) -> "_Evaluation":
        """The evaluation of t u, by homogeneity."""
        return _Evaluation(t * self.uhat, t**p * self.conv, t**2 * self.Q, t ** (2.0 * p) * self.D)


def _evaluate(values: np.ndarray, grid: Grid, params: ModelParams, mult: np.ndarray) -> _Evaluation:
    """One rfftn and one padded convolution; mult is |xi|^{2s} on the half spectrum."""
    uhat = rfftn(values)
    Q = half_parseval_sum(grid, uhat, 1.0 + mult)
    up = np.abs(values) ** params.p
    conv = riesz_convolve(Field(grid, up), params.alpha).values
    # einsum's own loop: no conv * up temporary, and unlike np.dot no BLAS
    # call, which can go multithreaded (slower on a busy host) and reorders
    # the sum with the thread count
    D = grid.cellvol * float(np.einsum("i,i->", conv.ravel(), up.ravel()))
    return _Evaluation(uhat, conv, Q, D)


def _force_hat(values: np.ndarray, ev: _Evaluation, p: float) -> np.ndarray:
    """The rfftn half of F = (K_alpha * |u|^p)|u|^{p-2} u from an evaluation of u."""
    if p == 2.0:
        force = ev.conv * values
    else:
        force = ev.conv * np.sign(values) * np.abs(values) ** (p - 1.0)
    return rfftn(force)


def _gradient_hat(ev: _Evaluation, mult: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """The rfftn half of the gradient, (1 + |xi|^{2s}) u_hat - F_hat."""
    return (1.0 + mult) * ev.uhat - fhat


def _residual(grid: Grid, ghat: np.ndarray, uhat: np.ndarray) -> float:
    """Relative L^2 norm of the gradient g projected orthogonal to the ray u,
    by Parseval from the rfftn halves of g and u."""
    uu = half_inner(grid, uhat, uhat)
    r = ghat - (half_inner(grid, ghat, uhat) / uu) * uhat
    return float(np.sqrt(half_inner(grid, r, r) / uu))


def _action(Q, D, p: float):
    """I(u) = Q/2 - D/(2p); Q and D may be arrays of ray samples."""
    return 0.5 * Q - D / (2.0 * p)


def _nehari_factor(Q: float, D: float, p: float) -> float:
    """The t > 0 with <I'(tu), tu> = 0: (Q / D)^{1/(2p-2)}."""
    return (Q / D) ** (1.0 / (2.0 * p - 2.0))


def _nehari_value(Q: float, D: float, p: float) -> float:
    """I at the Nehari crossing of the ray: (1/2 - 1/2p) Q^{p/(p-1)} / D^{1/(p-1)}."""
    return (0.5 - 0.5 / p) * Q ** (p / (p - 1.0)) / D ** (1.0 / (p - 1.0))


def _evaluate_field(u: Field, params: ModelParams):
    """The evaluation of a Field and the half-spectrum symbol it used; needs
    s in (0, 1]."""
    if not 0.0 < params.s <= 1.0:
        raise ValueError(f"s must lie in (0, 1]; got {params.s}")
    mult = u.grid.half_freq_norm_sq() ** params.s
    return _evaluate(u.values, u.grid, params, mult), mult


def interaction(u: Field, params: ModelParams) -> float:
    """D(u) = integral of (K_alpha * |u|^p) |u|^p."""
    return _evaluate_field(u, params)[0].D


def energy(u: Field, params: ModelParams) -> EnergyBreakdown:
    """I(u) = (1/2)||u||_{H^s}^2 - (1/2p) D(u)."""
    ev, _ = _evaluate_field(u, params)
    return EnergyBreakdown(0.5 * ev.Q, ev.D, _action(ev.Q, ev.D, params.p))


def gradient(u: Field, params: ModelParams) -> Field:
    """L^2 gradient (-Delta)^s u + u - (K_alpha * |u|^p)|u|^{p-2} u."""
    ev, mult = _evaluate_field(u, params)
    ghat = _gradient_hat(ev, mult, _force_hat(u.values, ev, params.p))
    return Field(u.grid, irfftn(ghat, u.grid.shape))


def nehari_energy(u: Field, params: ModelParams) -> float:
    """Energy at the Nehari crossing of the ray through u, in closed form:
    (1/2 - 1/2p) ||u||^{2p/(p-1)} / D(u)^{1/(p-1)}."""
    ev, _ = _evaluate_field(u, params)
    if ev.D <= 0.0:
        raise ValueError("nehari_energy needs interaction(u) > 0")
    return _nehari_value(ev.Q, ev.D, params.p)
