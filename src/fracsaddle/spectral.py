"""Periodic pseudospectral discretization: grids, fields, the fractional
Laplacian as a Fourier multiplier, and the Riesz-kernel convolution.

The whole-space problem is truncated to the box [-L/2, L/2)^N with M nodes
per axis, x_j = -L/2 + j L/M.  Frequencies are the angular wavenumbers
xi = 2 pi m / L, m in {-M/2, ..., M/2 - 1}, so the multiplier of
(-Delta)^s is |xi|^{2s} verbatim.  Discrete integrals carry the quadrature
weight (L/M)^N and Parseval holds with that weight.  Fields are real, so the
Parseval norms sum over the half spectrum that rfftn keeps, with the
Hermitian weights of half_power.

The transforms are numpy.fft's (pocketfft, one thread), one axis at a time
in a single buffer per call: numpy's own fftn allocates a new array for
every axis.  A real input to fftn is transformed on its half spectrum and
mirrored.

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

from .params import riesz_constant


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)^N_dims with M nodes per axis."""

    N_dims: int
    M: int
    L: float

    def __post_init__(self):
        if self.M < 8 or self.M % 2:
            raise ValueError(f"M must be even and >= 8; got {self.M}")
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"L must be positive and finite; got {self.L}")
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
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.h)

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


def _in_place(transform, spec: np.ndarray, axes) -> np.ndarray:
    """spec transformed in place by np.fft.fft or ifft along each of axes.

    numpy's fftn, ifftn and rfftn allocate a new array for every axis; one
    buffer reused across the axes costs half as much at 48^3.
    """
    for ax in axes:
        transform(spec, axis=ax, out=spec)
    return spec


def fftn(a: np.ndarray) -> np.ndarray:
    """Complex transform over every axis.

    A real input is transformed to its rfftn half, and the other half
    follows from Hermitian symmetry, X[-k] = conj X[k]: about half the work
    of a complex transform.  On the leading axes k -> -k is a flip followed
    by a shift by one; on the last axis it is the reversed slice.
    """
    if np.iscomplexobj(a):
        return _in_place(np.fft.fft, np.array(a, np.complex128), range(a.ndim))
    n = a.shape[-1]
    m = n // 2 + 1
    out = np.empty(a.shape, np.complex128)
    half = out[..., :m]
    lead = tuple(range(a.ndim - 1))
    _in_place(np.fft.fft, np.fft.rfft(a, axis=-1, out=half), lead)
    mirror = np.flip(half[..., n - m:0:-1], lead)
    np.conjugate(np.roll(mirror, 1, lead), out=out[..., m:])
    return out


def ifftn(a: np.ndarray) -> np.ndarray:
    return _in_place(np.fft.ifft, np.array(a, np.complex128), range(a.ndim))


def rfftn(a: np.ndarray) -> np.ndarray:
    return _in_place(np.fft.fft, np.fft.rfft(a, axis=-1), range(a.ndim - 1))


def irfftn(a: np.ndarray, shape) -> np.ndarray:
    """The real field of the given shape whose rfftn half is a."""
    spec = _in_place(np.fft.ifft, np.array(a, np.complex128), range(a.ndim - 1))
    return np.fft.irfft(spec, n=shape[-1], axis=-1)


def _hermitian_weights(grid: Grid, m: int) -> np.ndarray:
    """Parseval weights of the m last-axis bins of an rfftn half.

    Each bin 1..M/2-1 stands for itself and its Hermitian mirror, so it
    counts twice; bin 0 and the Nyquist bin M/2 are their own mirrors and
    count once.
    """
    w = np.full(m, 2.0)
    w[0] = w[-1] = 1.0
    return grid.cellvol / grid.n_nodes * w


def half_power(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    """Parseval-weighted |v^|^2 on the rfftn half vhat of a real field v:
    summed against an even symbol, it gives (cellvol / n_nodes) times the sum
    of symbol |v^|^2 over the full spectrum."""
    return _hermitian_weights(grid, vhat.shape[-1]) * (vhat.real**2 + vhat.imag**2)


def half_parseval_sum(grid: Grid, vhat: np.ndarray, symbol: np.ndarray) -> float:
    """(cellvol / n_nodes) * sum of symbol |v^|^2 over the full spectrum of a
    real field v, from its rfftn half vhat and an even symbol on that half."""
    return float(np.sum(symbol * half_power(grid, vhat)))


def half_inner(grid: Grid, ahat: np.ndarray, bhat: np.ndarray) -> float:
    """The L^2 inner product cellvol * sum of a b of two real fields, by
    Parseval from their rfftn halves ahat and bhat."""
    cross = ahat.real * bhat.real + ahat.imag * bhat.imag
    return float(np.sum(_hermitian_weights(grid, ahat.shape[-1]) * cross))


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
        khat = rfftn(np.fft.ifftshift(kernel.values))
        return np.ascontiguousarray(khat.real)

    return _kernel_cache.lookup((grid, round(alpha, 12)), build)


def riesz_convolve(f: Field, alpha: float) -> Field:
    """Linear convolution K_alpha * f on the original grid.

    The transform of f zero-padded onto the doubled grid, times the kernel
    transform, cropped back to the original grid and scaled by the cell
    volume.  The real (2M)^N pad is never built (Hockney & Eastwood): the
    last axis is padded by rfft straight into a zeroed half spectrum, and
    each leading axis is then transformed in place over only the entries
    that the axes not yet reached leave nonzero (M of them per such axis);
    the inverse pass transforms in place and keeps the first M entries of
    each axis as soon as that axis is done.
    """
    grid = f.grid
    khat = _kernel_transform(grid, alpha)
    n, M, axes = 2 * grid.M, grid.M, range(grid.N_dims - 1)
    spec = np.zeros(khat.shape, np.complex128)
    np.fft.rfft(f.values, n=n, axis=-1, out=spec[(slice(0, M),) * (grid.N_dims - 1)])
    for ax in reversed(axes):
        part = spec[(slice(0, M),) * ax]
        np.fft.fft(part, axis=ax, out=part)
    spec *= khat
    for ax in axes:
        np.fft.ifft(spec, axis=ax, out=spec)
        spec = spec[(slice(None),) * ax + (slice(0, M),)]
    out = np.fft.irfft(spec, n=n, axis=-1)[..., :M]
    return Field(grid, grid.cellvol * out)

