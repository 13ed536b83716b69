"""Problem parameters and analytic constants.

The model is the nonlocal equation

    (-Delta)^s u + u = (K_alpha * |u|^p) |u|^{p-2} u   on R^N,

where K_alpha(x) = A_alpha |x|^{alpha-N} is the Riesz kernel.  This module
holds the parameter quadruple (N, s, alpha, p), the admissibility predicate,
and the closed-form constants that the rest of the package consumes.
"""

import math
from dataclasses import dataclass

@dataclass(frozen=True)
class ModelParams:
    """The problem quadruple (N, s, alpha, p).

    N is the spatial dimension, s the order of the fractional Laplacian,
    alpha the Riesz kernel order, p the nonlinearity exponent.  N = 2 is
    accepted only when ``experimental`` is set; production runs use N >= 3.
    """

    N: int
    s: float
    alpha: float
    p: float
    experimental: bool = False


def admissible(params: ModelParams) -> bool:
    """Pure predicate: True iff the parameter quadruple is in the admissible range.

    Requires 0 < s < 1, 0 < alpha < N, N >= 3 (or N = 2 in experimental
    mode), and 2 <= p < (N + alpha)/(N - 2s) with strict upper inequality.
    """
    N, s, alpha, p = params.N, params.s, params.alpha, params.p
    if not all(math.isfinite(v) for v in (s, alpha, p)):
        return False
    if N != int(N) or N < 2:
        return False
    if N == 2 and not params.experimental:
        return False
    if not 0.0 < s < 1.0:
        return False
    if not 0.0 < alpha < N:
        return False
    if N <= 2.0 * s:
        return False
    p_crit = (N + alpha) / (N - 2.0 * s)
    return 2.0 <= p < p_crit


def riesz_constant(N: int, alpha: float) -> float:
    """A_alpha = Gamma((N-alpha)/2) / (Gamma(alpha/2) pi^{N/2} 2^alpha)."""
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N)={N}; got {alpha}")
    return math.gamma((N - alpha) / 2.0) / (
        math.gamma(alpha / 2.0) * math.pi ** (N / 2.0) * 2.0**alpha
    )


def critical_exponent(params: ModelParams) -> float:
    """Upper admissibility bound (N + alpha)/(N - 2s) for the exponent p."""
    N, s, alpha = params.N, params.s, params.alpha
    if N <= 2.0 * s:
        raise ValueError(f"critical exponent undefined for N <= 2s (N={N}, s={s})")
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N)={N}; got {alpha}")
    return (N + alpha) / (N - 2.0 * s)


def extension_constant(s: float) -> float:
    """k_s = 2^{1-2s} Gamma(1-s) / Gamma(s), the trace-identity constant."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)
