"""Reference profile for the extension tests: the defining ODE of psi,
integrated numerically, against which psi_profile's closed form is checked.

It lives with the tests because only they call it, and its solve_ivp would
otherwise put scipy.integrate (and the optimize, linalg and sparse modules
that import pulls in) on every fracsaddle import.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp


def psi_ode_solution(s: float, y_eval: np.ndarray) -> np.ndarray:
    """Independent profile: integrate psi'' + ((1-2s)/y) psi' = psi backward
    from the decaying end, then normalize to psi(0) = 1 via the Frobenius
    split w(y) = A + B y^{2s} near the origin.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    y_eval = np.asarray(y_eval, dtype=np.float64)
    y_hi = 50.0
    if y_eval.size == 0 or y_eval.min() <= 0.0 or y_eval.max() > y_hi:
        raise ValueError("y_eval must lie within (0, 50]")
    y_lo = min(1e-6, 0.5 * float(y_eval.min()))

    def rhs(y, w):
        return [w[1], w[0] - (1.0 - 2.0 * s) / y * w[1]]

    # decaying end: w ~ y^{s-1/2} e^{-y}, so w'/w = (s-1/2)/y - 1
    w0 = [1.0, (s - 0.5) / y_hi - 1.0]
    pts = np.unique(np.concatenate([y_eval[y_eval <= y_hi], [y_lo, 2.0 * y_lo]]))
    sol = solve_ivp(
        rhs,
        (y_hi, y_lo),
        w0,
        t_eval=pts[::-1],
        rtol=1e-12,
        atol=1e-300,
        method="DOP853",
    )
    if not sol.success:
        raise RuntimeError(f"profile integration failed: {sol.message}")
    ys, ws = sol.t[::-1], sol.y[0][::-1]
    y1, y2 = ys[0], ys[1]
    w1, w2 = ws[0], ws[1]
    A = (w1 * y2 ** (2.0 * s) - w2 * y1 ** (2.0 * s)) / (
        y2 ** (2.0 * s) - y1 ** (2.0 * s)
    )
    lookup = dict(zip(ys.tolist(), (ws / A).tolist()))
    out = np.empty_like(y_eval)
    for i, y in enumerate(y_eval):
        out[i] = lookup[y] if y in lookup else math.nan
    if np.any(np.isnan(out)):
        raise ValueError("y_eval must lie within (0, 50]")
    return out
