"""Solver oracles for the tests: the fibering-ray diagnostic of a solution,
used to confirm that a Nehari-projected solution sits at the peak of its
ray, and the real-space gradient and residual that the spectral ones on the
rfftn half spectrum replace.

They live with the tests because only the tests call them.
"""

import numpy as np

from fracsaddle.energy import _action
from fracsaddle.energy import energy as energy_of
from fracsaddle.params import ModelParams
from fracsaddle.solver import Solution
from fracsaddle.spectral import ifftn


def mountain_pass_check(sol: Solution, params: ModelParams) -> float:
    """Max of the fibering ray I(t u) over t in [0, 2], 101 samples.

    By homogeneity I(t u) = t^2 Q/2 - t^{2p} D/(2p), so the whole ray
    follows from one energy evaluation; the max must sit at t = 1 for a
    Nehari-projected solution.
    """
    bre = energy_of(sol.u, params)
    ts = np.linspace(0.0, 2.0, 101)
    ray = _action(ts**2 * (2.0 * bre.quad), ts ** (2.0 * params.p) * bre.nonlocal_, params.p)
    return float(ray.max())


def _gradient(values: np.ndarray, ev, mult: np.ndarray, p: float) -> np.ndarray:
    """(-Delta)^s u + u - (K_alpha * |u|^p)|u|^{p-2} u from an evaluation of u.

    ev.uhat is the full complex spectrum fftn(u) and mult the full-lattice
    symbol |xi|^{2s}.
    """
    if p == 2.0:
        force = ev.conv * values
    else:
        force = ev.conv * np.sign(values) * np.abs(values) ** (p - 1.0)
    return ifftn(mult * ev.uhat).real + values - force


def _residual(g: np.ndarray, u: np.ndarray) -> float:
    """Relative L^2 norm of the gradient g projected orthogonal to the ray u."""
    gu = float(np.sum(g * u))
    uu = float(np.sum(u * u))
    return float(np.sqrt(np.sum((g - (gu / uu) * u) ** 2) / uu))
