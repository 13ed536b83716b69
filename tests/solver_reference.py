"""The fibering-ray diagnostic of a solution, used by the tests to confirm
that a Nehari-projected solution sits at the peak of its ray.

It lives with the tests because only they call it.
"""

import numpy as np

from fracsaddle.energy import _action
from fracsaddle.energy import energy as energy_of
from fracsaddle.params import ModelParams
from fracsaddle.solver import Solution


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
