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
every axis.

The Riesz convolution K_alpha * f is computed as a linear (non-circular)
convolution: f is zero-padded onto a doubled grid covering [-L, L)^N and
multiplied against the sampled kernel in frequency space.  Using the
periodic multiplier |xi|^{-alpha} instead would let the slowly decaying
kernel's images pollute the small-frequency behavior; zero-padding removes
wrap-around exactly.  The kernel is even in every axis, so its transform is
real and even, and one octant of it (bins 0..M of every axis) holds all of
it: that octant is built one axis at a time as type-1 DCTs, and no (2M)^N
array is built or kept.  The padded spectrum is transformed in slabs of
last-axis bins within _SLAB_BYTES (1 MiB, half the host's L2), and one that
fits is a single slab, so the working set of a convolution stays near that
budget plus a few M^N arrays whatever M is.  One caveat follows from the
zero-padding: the lattice symmetry action identifies the -L/2 box faces
periodically while the linear convolution does not, so equivariance
statements for the convolution hold on fields that vanish at those faces
(every decaying solution does).
"""

from collections import OrderedDict
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .params import riesz_constant


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)^N_dims with M nodes per axis."""

    N_dims: int
    M: int
    L: float

    def __post_init__(self):
        for name in ("N_dims", "M"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer; got {value!r}")
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

    def coords(self):
        """Sparse broadcastable coordinate arrays, one per axis."""
        x = self.axis_nodes()
        return np.meshgrid(*([x] * self.N_dims), indexing="ij", sparse=True)

    def radius(self) -> np.ndarray:
        """|x| at every node (dense array)."""
        return np.sqrt(sum(c**2 for c in self.coords()))

    def half_freq_norm_sq(self) -> np.ndarray:
        """|xi|^2 on the rfftn half spectrum: every bin of the leading axes in
        fftfreq order, and the rfft bins 0..M/2 of the last axis."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.h)
        half = 2.0 * np.pi * np.fft.rfftfreq(self.M, d=self.h)
        grids = np.meshgrid(*([xi] * (self.N_dims - 1)), half, indexing="ij", sparse=True)
        return sum(g**2 for g in grids)


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
    return _in_place(np.fft.fft, np.array(a, np.complex128), range(a.ndim))


def ifftn(a: np.ndarray) -> np.ndarray:
    return _in_place(np.fft.ifft, np.array(a, np.complex128), range(a.ndim))


def rfftn(a: np.ndarray) -> np.ndarray:
    return _in_place(np.fft.fft, np.fft.rfft(a, axis=-1), range(a.ndim - 1))


def irfftn(a: np.ndarray, shape) -> np.ndarray:
    """The real field of the given shape whose rfftn half is a."""
    return _irfftn_in_place(np.array(a, np.complex128), shape)


def _irfftn_in_place(spec: np.ndarray, shape) -> np.ndarray:
    """irfftn of a complex128 rfftn half that its leading-axis passes
    overwrite: for a caller whose half is a temporary, it saves the copy."""
    _in_place(np.fft.ifft, spec, range(spec.ndim - 1))
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

# The padded spectrum is transformed in slabs of last-axis bins of at most
# this many bytes (at least one bin).  1 MiB is half the 2 MB L2 cache of
# the host in perfbench's provenance, so a slab and its kernel block stay there together through the
# leading-axis passes and the multiply, and the working set stays near 1 MiB
# whatever M is.  On that host a 48^3 convolution took 0.96-0.98 times as
# long as with the whole padded spectrum at 1 MiB, 0.97-1.04 at 2 MiB and
# 1.1 at 0.5 or 4 MiB (groundstate48 peak RSS 60.9, 61.1, 60.7 and 63.5 MB);
# 24^3 is one slab under all four.
_SLAB_BYTES = 1 << 20


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


def _mirror(M: int) -> np.ndarray:
    """Indices 0..M, M-1..1: bin k of a length-2M axis reads entry min(k, 2M - k)."""
    return np.r_[0 : M + 1, M - 1 : 0 : -1]


def _kernel_octant(grid: Grid, alpha: float) -> np.ndarray:
    """The transform of the sampled kernel on the doubled grid, bins 0..M of every axis.

    A_alpha |x|^{alpha - N} is sampled at |x_j| = j h, j = 0..M, on each
    axis, with the singular origin cell replaced by the analytic average of
    the kernel over that cell, so the convolution quadrature stays second
    order.  On the doubled grid, wrap-ordered, the kernel is even in every
    axis (entry 2M - j equals entry j), so its transform is real and even
    too, and bins 0..M hold all of it.  Each axis is transformed as the rfft
    of its even extension, a type-1 DCT; the imaginary part is rounding
    (about 1e-17 relative) and is dropped.
    """
    N, M = grid.N_dims, grid.M
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N)={N}; got {alpha}")
    r2 = sum(np.meshgrid(*([(grid.h * np.arange(M + 1)) ** 2] * N), indexing="ij", sparse=True))
    A = riesz_constant(N, alpha)
    with np.errstate(divide="ignore"):
        khat = A * r2 ** ((alpha - N) / 2.0)
    khat[(0,) * N] = A * origin_cell_average(N, alpha, grid.h)
    for ax in range(N):
        khat = np.fft.rfft(khat.take(_mirror(M), axis=ax), axis=ax).real.copy()
    return khat


def _kernel_transform(grid: Grid, alpha: float) -> tuple:
    """Cached kernel transform for (grid, alpha), one block per slab.

    The octant, mirrored out along the axis next to the last (2M bins there,
    M + 1 on the others), cut into contiguous blocks of as many last-axis
    bins as a slab of the padded spectrum holds within _SLAB_BYTES (at least
    one, at most all M + 1).  Kept as the bare octant, that axis too would
    need a mirrored view, whose inner loops are only one slab's few bins
    long: the multiply took 2.4 times as long at 48^3 with 14-bin slabs.
    Mirrored out, it runs over long contiguous rows, and only the outer
    leading axes need mirrored views (_times_kernel).
    """
    def build():
        N, M = grid.N_dims, grid.M
        width = min(M + 1, max(1, _SLAB_BYTES // (16 * (2 * M) ** (N - 1))))
        khat = _kernel_octant(grid, alpha)
        if N > 1:
            khat = khat.take(_mirror(M), axis=N - 2)
        return tuple(np.ascontiguousarray(khat[..., b : b + width]) for b in range(0, M + 1, width))

    return _kernel_cache.lookup((grid, round(alpha, 12)), build)


def _times_kernel(spec: np.ndarray, kblock: np.ndarray, M: int, ax: int = 0) -> None:
    """spec *= the kernel transform, in place, from one block.

    Along each leading axis that the block holds only bins 0..M of, bins k
    and 2M - k share the block's entry k, so the block is applied through
    mirrored views.
    """
    if kblock.shape == spec.shape:
        np.multiply(spec, kblock, out=spec)
        return
    keep = (slice(None),) * ax
    _times_kernel(spec[keep + (slice(0, M + 1),)], kblock, M, ax + 1)
    mirrored = kblock[keep + (slice(M - 1, 0, -1),)]
    _times_kernel(spec[keep + (slice(M + 1, None),)], mirrored, M, ax + 1)


def _zero_padding(spec: np.ndarray, M: int) -> None:
    """Zero the padding of a slab: every entry with a leading-axis index of
    M or more.  The copy of the rfft half fills the rest, so it is not
    zeroed first."""
    for ax in range(spec.ndim - 1):
        spec[(slice(0, M),) * ax + (slice(M, None),)] = 0.0


def _padded_product(spec: np.ndarray, kblock: np.ndarray, M: int) -> np.ndarray:
    """Leading-axis transforms of a padded slab, the kernel multiply and the
    inverse transforms, in place; returns the view of the first M entries of
    each leading axis.

    On entry only the first M entries of each leading axis are nonzero.  Each
    forward pass transforms in place only the entries that the axes not yet
    reached leave nonzero (M of them per such axis); each inverse pass keeps
    the first M entries of its axis as soon as that axis is done.
    """
    lead = spec.ndim - 1
    for ax in reversed(range(lead)):
        part = spec[(slice(0, M),) * ax]
        np.fft.fft(part, axis=ax, out=part)
    _times_kernel(spec, kblock, M)
    for ax in range(lead):
        np.fft.ifft(spec, axis=ax, out=spec)
        spec = spec[(slice(None),) * ax + (slice(0, M),)]
    return spec


def _slabbed_product(half: np.ndarray, blocks: tuple, M: int) -> None:
    """_padded_product over slabs of last-axis bins of the rfft half, which
    each slab's result overwrites.  The slab buffer is freed on return,
    before the caller's irfft allocates its output."""
    lead = half.ndim - 1
    inner = (slice(0, M),) * lead
    slab = np.empty((2 * M,) * lead + (blocks[0].shape[-1],), np.complex128)
    b0 = 0
    for kblock in blocks:
        b1 = b0 + kblock.shape[-1]
        s = slab[..., : b1 - b0]
        _zero_padding(s, M)
        s[inner] = half[..., b0:b1]
        half[..., b0:b1] = _padded_product(s, kblock, M)
        b0 = b1


def riesz_convolve(f: Field, alpha: float) -> Field:
    """Linear convolution K_alpha * f on the original grid.

    The transform of f zero-padded onto the doubled grid, times the kernel
    transform, cropped back to the original grid and scaled by the cell
    volume; the result is a compact M^N array.  The real (2M)^N pad is never
    built (Hockney & Eastwood): the last axis is padded by rfft, and the
    leading axes are transformed in place, pruned to the entries that can be
    nonzero (_padded_product).  The kernel transform is kept as its octant,
    mirrored out along the axis next to the last (_kernel_transform).

    The leading-axis passes and the multiply of one last-axis bin never read
    another bin, so they run over slabs of last-axis bins within
    _SLAB_BYTES, one slab buffer reused (_slabbed_product): the rfft half is
    copied into each slab and the slab's cropped result back.  A spectrum
    within the budget is one slab.
    """
    grid = f.grid
    blocks = _kernel_transform(grid, alpha)
    n, M = 2 * grid.M, grid.M
    half = np.fft.rfft(f.values, n=n, axis=-1)
    _slabbed_product(half, blocks, M)
    out = np.fft.irfft(half, n=n, axis=-1)[..., :M]
    return Field(grid, grid.cellvol * out)
