"""Spectral oracles for the tests: the angular frequencies and |xi|^2 on
the full frequency lattice, the symbol |xi|^{2s} there, the fractional
Laplacian applied as a full-spectrum multiplier, the Gagliardo seminorm
by direct double sum, and the Riesz kernel sampled on the whole doubled
grid with its full-grid transform.

The solver applies (-Delta)^s on the rfftn half spectrum inside its own
transforms (Grid.half_freq_norm_sq) and never reads the full lattice; the
O(M^{2N}) double sum is the FFT-free oracle of the seminorm.  The solver
builds only one octant of the kernel transform (spectral._kernel_octant);
the (2M)^N kernel is the oracle of that octant and of the direct-sum
convolution checks.  They live with the tests because only the tests call
them.
"""

import math

import numpy as np

from fracsaddle.params import riesz_constant
from fracsaddle.spectral import Field, Grid, fftn, ifftn, origin_cell_average, rfftn


def axis_freqs(grid: Grid) -> np.ndarray:
    """Angular wavenumbers 2 pi m / L of one axis, in fftfreq order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)


def freq_norm_sq(grid: Grid) -> np.ndarray:
    """|xi|^2 on the full frequency lattice."""
    xi = axis_freqs(grid)
    grids = np.meshgrid(*([xi] * grid.N_dims), indexing="ij", sparse=True)
    return sum(g**2 for g in grids)


def multiplier(grid: Grid, s: float) -> np.ndarray:
    """The symbol |xi|^{2s} on the discrete frequency lattice (zero at xi=0)."""
    return freq_norm_sq(grid) ** s


def fractional_laplacian(u: Field, s: float) -> Field:
    """Apply (-Delta)^s spectrally; s = 1 is allowed for classical cross-checks."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1]; got {s}")
    out = ifftn(multiplier(u.grid, s) * fftn(u.values)).real
    return Field(u.grid, out)


_tail_cache: dict = {}


def _box_complement_integral(N: int, s: float) -> float:
    """Integral of |w|^{-N-2s} over R^N minus the unit box [-1/2, 1/2]^N.

    One explicit shell of Gauss-Legendre box integrals plus the exact
    self-similar closure: the same integral outside the box of half-width
    B equals (2B)^{-2s} times this one, so the region beyond the shell
    folds back algebraically.
    """
    key = (N, round(s, 12))
    if key in _tail_cache:
        return _tail_cache[key]
    P, q = 2, 16
    t, wts = np.polynomial.legendre.leggauss(q)
    t = 0.5 * t  # nodes on [-1/2, 1/2]
    wts = 0.5 * wts
    total = 0.0
    for k in np.ndindex(*(2 * P + 1,) * N):
        k = np.array(k) - P
        if not k.any():
            continue
        axes = np.meshgrid(*[(t + ki) for ki in k], indexing="ij", sparse=True)
        wprod = np.ones((q,) * N)
        for ax in range(N):
            shape = [1] * N
            shape[ax] = q
            wprod = wprod * wts.reshape(shape)
        r2 = sum(a**2 for a in axes)
        total += float(np.sum(wprod * r2 ** (-(N + 2.0 * s) / 2.0)))
    result = total / (1.0 - (2.0 * P + 1.0) ** (-2.0 * s))
    _tail_cache[key] = result
    return result


def _seminorm_normalization(N: int, s: float) -> float:
    """Constant C(N, s)/2 relating the raw Gagliardo double integral to
    ||(-Delta)^{s/2} u||^2; with the convention used here the two quantities
    agree (up to discretization), so the normalized seminorm needs no extra
    factor anywhere else."""
    C = (
        s
        * 4.0**s
        * math.gamma((N + 2.0 * s) / 2.0)
        / (math.pi ** (N / 2.0) * math.gamma(1.0 - s))
    )
    return C / 2.0


def gagliardo_norm_sq(u: Field, s: float) -> float:
    """Normalized Gagliardo seminorm squared by direct double sum.

    Sums |u(x) - u(y)|^2 / |x - y|^{N + 2s} over ordered node pairs with the
    minimum-image distance convention and weight cellvol^2, restores the
    kernel mass beyond the minimum-image cell with a mean-field tail term
    (exact for constants, decorrelation closure otherwise), and applies the
    seminorm normalization so the result measures the same quantity as
    seminorm_sq.  Cost is O(M^{2N}); grids with more than 4096 nodes are
    refused.  Serves as an FFT-free oracle up to discretization error,
    which grows like h^{2-2s} as s -> 1.
    """
    grid = u.grid
    if grid.n_nodes > 4096:
        raise ValueError(f"direct double sum refused for {grid.n_nodes} > 4096 nodes")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1); got {s}")
    N, L = grid.N_dims, grid.L
    x = grid.axis_nodes()
    mesh = np.meshgrid(*([x] * N), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    f = u.values.ravel()
    n = coords.shape[0]
    expo = (N + 2.0 * s) / 2.0
    total = 0.0
    chunk = max(1, (1 << 22) // max(1, n))
    for i0 in range(0, n, chunk):
        d = coords[i0 : i0 + chunk, None, :] - coords[None, :, :]
        d = np.mod(d + L / 2.0, L) - L / 2.0
        r2 = np.einsum("ijk,ijk->ij", d, d)
        df2 = (f[i0 : i0 + chunk, None] - f[None, :]) ** 2
        mask = r2 > 0
        total += float((df2[mask] / r2[mask] ** expo).sum())
    pair_sum = grid.cellvol**2 * total
    # ||u||^2 - (mean u)^2 L^N written as a variance so constants give 0
    var = grid.cellvol * float(np.sum((f - f.mean()) ** 2))
    tail = 2.0 * _box_complement_integral(N, s) * L ** (-2.0 * s) * var
    return _seminorm_normalization(N, s) * (pair_sum + tail)


def build_riesz_kernel(grid: Grid, alpha: float) -> Field:
    """Sample A_alpha |x|^{alpha - N} on the doubled grid covering [-L, L)^N.

    The singular origin cell is replaced by the analytic average of the
    kernel over that cell, so the convolution quadrature stays second order.
    """
    N = grid.N_dims
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N)={N}; got {alpha}")
    big = Grid(N, 2 * grid.M, 2 * grid.L)  # same h, twice the box
    c = big.axis_nodes()  # covers [-L, L)
    mesh = np.meshgrid(*([c] * N), indexing="ij", sparse=True)
    r2 = sum(g**2 for g in mesh)
    A = riesz_constant(N, alpha)
    with np.errstate(divide="ignore"):
        vals = A * r2 ** ((alpha - N) / 2.0)
    origin = tuple([grid.M] * N)  # node at x = 0 in the doubled grid
    vals[origin] = A * origin_cell_average(N, alpha, grid.h)
    return Field(big, vals)


def full_kernel_transform(grid: Grid, alpha: float) -> np.ndarray:
    """The rfftn of the wrap-ordered doubled-grid kernel, every bin: real,
    with the rounding-size imaginary part dropped."""
    return rfftn(np.fft.ifftshift(build_riesz_kernel(grid, alpha).values)).real
