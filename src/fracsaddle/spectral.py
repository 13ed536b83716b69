"""Periodic pseudospectral discretization: grids, fields, the fractional
Laplacian as a Fourier multiplier, and the Riesz-kernel convolution.

The whole-space problem is truncated to the box [-L/2, L/2)^N with M nodes
per axis, x_j = -L/2 + j L/M.  Frequencies are the angular wavenumbers
xi = 2 pi m / L, m in {-M/2, ..., M/2 - 1}, so the multiplier of
(-Delta)^s is |xi|^{2s} verbatim.  Discrete integrals carry the quadrature
weight (L/M)^N and Parseval holds with that weight.  Fields are real, so the
Parseval norms sum over the half spectrum that rfftn keeps, with the
Hermitian weights of half_power.

The Riesz convolution K_alpha * f is computed as a linear (non-circular)
convolution: f is zero-padded onto a doubled grid covering [-L, L)^N and
multiplied against the sampled kernel in frequency space.  Using the
periodic multiplier |xi|^{-alpha} instead would let the slowly decaying
kernel's images pollute the small-frequency behavior; zero-padding removes
wrap-around exactly.  One caveat follows from the same choice: the lattice
symmetry action identifies the -L/2 box faces periodically while the linear
convolution does not, so equivariance statements for the convolution hold
on fields that vanish at those faces (every decaying solution does).
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .params import riesz_constant

_WORKERS = 1


def set_threads(n: int) -> None:
    """Set the worker count used by all transforms."""
    global _WORKERS
    _WORKERS = max(1, int(n))


def get_threads() -> int:
    return _WORKERS


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)^N_dims with M nodes per axis."""

    N_dims: int
    M: int
    L: float

    def __post_init__(self):
        if self.M < 8 or self.M % 2:
            raise ValueError(f"M must be even and >= 8; got {self.M}")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.N_dims < 1:
            raise ValueError("N_dims must be >= 1")

    @property
    def h(self) -> float:
        return self.L / self.M

    @property
    def shape(self):
        return (self.M,) * self.N_dims

    @property
    def n_nodes(self) -> int:
        return self.M**self.N_dims

    @property
    def cellvol(self) -> float:
        return self.h**self.N_dims

    def axis_nodes(self) -> np.ndarray:
        return -self.L / 2 + self.h * np.arange(self.M)

    def axis_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * sfft.fftfreq(self.M, d=self.h)

    def coords(self):
        """Sparse broadcastable coordinate arrays, one per axis."""
        x = self.axis_nodes()
        return np.meshgrid(*([x] * self.N_dims), indexing="ij", sparse=True)

    def radius(self) -> np.ndarray:
        """|x| at every node (dense array)."""
        return np.sqrt(sum(c**2 for c in self.coords()))

    def freq_norm_sq(self) -> np.ndarray:
        xi = self.axis_freqs()
        grids = np.meshgrid(*([xi] * self.N_dims), indexing="ij", sparse=True)
        return sum(g**2 for g in grids)

    def half_freq_norm_sq(self) -> np.ndarray:
        """|xi|^2 on the rfftn half spectrum: last-axis bins 0..M/2.

        Bin M/2 holds -M/2 in fftfreq order; squared, it is the Nyquist bin.
        """
        return np.ascontiguousarray(self.freq_norm_sq()[..., : self.M // 2 + 1])

    def doubled(self) -> "Grid":
        return Grid(self.N_dims, 2 * self.M, 2 * self.L)


@dataclass
class Field:
    """Real-valued samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def fftn(a: np.ndarray) -> np.ndarray:
    return sfft.fftn(a, workers=_WORKERS)


def ifftn(a: np.ndarray) -> np.ndarray:
    return sfft.ifftn(a, workers=_WORKERS)


def rfftn(a: np.ndarray) -> np.ndarray:
    return sfft.rfftn(a, workers=_WORKERS)


def irfftn(a: np.ndarray, shape) -> np.ndarray:
    return sfft.irfftn(a, s=shape, workers=_WORKERS)


def half_power(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    """Parseval-weighted |v^|^2 on the rfftn half vhat of a real field v:
    summed against an even symbol, it gives (cellvol / n_nodes) times the sum
    of symbol |v^|^2 over the full spectrum.

    Each last-axis bin 1..M/2-1 stands for itself and its Hermitian mirror,
    so it counts twice; bin 0 and the Nyquist bin M/2 are their own mirrors
    and count once.
    """
    w = np.full(vhat.shape[-1], 2.0)
    w[0] = w[-1] = 1.0
    return grid.cellvol / grid.n_nodes * w * (vhat.real**2 + vhat.imag**2)


def half_parseval_sum(grid: Grid, vhat: np.ndarray, symbol: np.ndarray) -> float:
    """(cellvol / n_nodes) * sum of symbol |v^|^2 over the full spectrum of a
    real field v, from its rfftn half vhat and an even symbol on that half."""
    return float(np.sum(symbol * half_power(grid, vhat)))


def multiplier(grid: Grid, s: float) -> np.ndarray:
    """The symbol |xi|^{2s} on the discrete frequency lattice (zero at xi=0)."""
    return grid.freq_norm_sq() ** s


def _parseval_sum(u: Field, s: float, shift: float) -> float:
    """Parseval sum of (shift + |xi|^{2s}) |u^|^2 over the half spectrum."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1]; got {s}")
    symbol = shift + u.grid.half_freq_norm_sq() ** s
    return half_parseval_sum(u.grid, rfftn(u.values), symbol)


def hs_norm_sq(u: Field, s: float) -> float:
    """||u||^2_{L^2} + ||(-Delta)^{s/2} u||^2_{L^2} by Parseval."""
    return _parseval_sum(u, s, 1.0)


def seminorm_sq(u: Field, s: float) -> float:
    """||(-Delta)^{s/2} u||^2_{L^2} by Parseval."""
    return _parseval_sum(u, s, 0.0)


def l2_norm_sq(u: Field) -> float:
    return float(u.grid.cellvol * np.sum(u.values**2))


# ---------------------------------------------------------------------------
# Riesz kernel and convolution
# ---------------------------------------------------------------------------

class _LRU:
    """At most `size` built entries; a miss past that drops the least recently used."""

    def __init__(self, size: int):
        self.size = size
        self.entries = OrderedDict()

    def lookup(self, key, build):
        """The entry for key, made by build() on a miss."""
        if key in self.entries:
            self.entries.move_to_end(key)
        else:
            self.entries[key] = build()
            if len(self.entries) > self.size:
                self.entries.popitem(last=False)
        return self.entries[key]


# A run uses one (grid, alpha); the tests cycle through a few.
_kernel_cache = _LRU(4)


def _unit_cell_mean(N: int, alpha: float) -> float:
    """Mean of |y|^{alpha - N} over the unit cell [-1/2, 1/2]^N.

    |y|^{alpha - N} is homogeneous of degree alpha - N, so
    div(y |y|^{alpha - N}) = alpha |y|^{alpha - N}, and the divergence
    theorem moves the singular volume integral onto the cell faces.  Every
    face has y.n = 1/2 and all 2N faces carry the same integral:

        mean = (N / alpha) * int_{[-1/2, 1/2]^{N-1}} (1/4 + |z|^2)^{(alpha - N)/2} dz.

    The face integrand is analytic; its nearest complex singularity,
    z_i = +-i/2 with the other coordinates zero, lies half an interval width
    off the real segment.  That is the Bernstein ellipse with rho = 1 + sqrt 2,
    so q Gauss-Legendre nodes per axis err by about rho^{-2q}: q = 20 reaches
    rounding (about 1e-16 relative).  For N = 1 the face is a point and the
    result is the closed form 2^{1 - alpha} / alpha.
    """
    t, w = np.polynomial.legendre.leggauss(20)
    t, w = 0.5 * t, 0.5 * w  # nodes and weights on [-1/2, 1/2]
    z2, wts = np.zeros(()), np.ones(())
    for _ in range(N - 1):
        z2 = np.add.outer(z2, t**2)
        wts = np.multiply.outer(wts, w)
    return N / alpha * float(np.sum(wts * (0.25 + z2) ** ((alpha - N) / 2.0)))


def origin_cell_average(N: int, alpha: float, h: float) -> float:
    """Average of |x|^{alpha - N} over the cell [-h/2, h/2]^N."""
    return h ** (alpha - N) * _unit_cell_mean(N, alpha)


def build_riesz_kernel(grid: Grid, alpha: float) -> Field:
    """Sample A_alpha |x|^{alpha - N} on the doubled grid covering [-L, L)^N.

    The singular origin cell is replaced by the analytic average of the
    kernel over that cell, so the convolution quadrature stays second order.
    """
    N = grid.N_dims
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N)={N}; got {alpha}")
    big = grid.doubled()
    c = big.axis_nodes()  # covers [-L, L)
    mesh = np.meshgrid(*([c] * N), indexing="ij", sparse=True)
    r2 = sum(g**2 for g in mesh)
    A = riesz_constant(N, alpha)
    with np.errstate(divide="ignore"):
        vals = A * r2 ** ((alpha - N) / 2.0)
    origin = tuple([grid.M] * N)  # node at x = 0 in the doubled grid
    vals[origin] = A * origin_cell_average(N, alpha, grid.h)
    return Field(big, vals)


def _kernel_transform(grid: Grid, alpha: float) -> np.ndarray:
    """Cached rfftn of the wrap-ordered doubled-grid kernel for (grid, alpha).

    The kernel is even, so its transform is real; the imaginary part is
    rounding (about 1e-17 relative) and is dropped.
    """
    def build():
        kernel = build_riesz_kernel(grid, alpha)
        khat = sfft.rfftn(sfft.ifftshift(kernel.values), workers=_WORKERS)
        return np.ascontiguousarray(khat.real)

    return _kernel_cache.lookup((grid, round(alpha, 12)), build)


def riesz_convolve(f: Field, alpha: float) -> Field:
    """Linear convolution K_alpha * f on the original grid.

    The transform of f zero-padded onto the doubled grid, times the kernel
    transform, cropped back to the original grid and scaled by the cell
    volume.  The (2M)^N pad is never built (Hockney & Eastwood): the
    forward pass transforms axis by axis, so each axis pads only when it is
    reached and the axes not yet reached still hold M entries; the inverse
    pass transforms in place and keeps the first M entries of each axis as
    soon as that axis is done.
    """
    grid = f.grid
    khat = _kernel_transform(grid, alpha)
    n, M, axes = 2 * grid.M, grid.M, range(grid.N_dims - 1)
    spec = sfft.rfft(f.values, n=n, axis=-1, workers=_WORKERS)
    for ax in reversed(axes):
        spec = sfft.fft(spec, n=n, axis=ax, workers=_WORKERS)
    spec *= khat
    for ax in axes:
        spec = sfft.ifft(spec, axis=ax, overwrite_x=True, workers=_WORKERS)
        spec = spec[(slice(None),) * ax + (slice(0, M),)]
    out = sfft.irfft(spec, n=n, axis=-1, workers=_WORKERS)[..., :M]
    return Field(grid, grid.cellvol * out)

