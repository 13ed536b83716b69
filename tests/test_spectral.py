import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

from fracsaddle import spectral
from fracsaddle.spectral import (
    Field,
    Grid,
    fftn,
    half_inner,
    half_parseval_sum,
    hs_norm_sq,
    ifftn,
    irfftn,
    l2_norm_sq,
    origin_cell_average,
    rfftn,
    riesz_convolve,
    seminorm_sq,
)

from spectral_reference import (
    build_riesz_kernel,
    fractional_laplacian,
    freq_norm_sq,
    full_kernel_transform,
    gagliardo_norm_sq,
    multiplier,
)

# Origin-cell averages of |x|^{alpha-N} over the unit cell in 3-D, computed
# independently of the face-integral rule: by adaptive volume quadrature
# (scipy nquad after a t^m substitution) with a midpoint-refinement
# cross-check.  The 1-D and 2-D values have closed forms instead:
# 2 (1/2)^a / a and 4 ln(1 + sqrt 2).
CELL_MEAN_3D = {
    0.5: 19.602646339577046,
    1.0: 7.6741242224437345,
    2.0: 2.380077363980,
    2.5: 1.5085612293494586,
}


def small_grid(N=3, M=8, L=4.0):
    return Grid(N, M, L)


def test_grid_geometry():
    g = Grid(3, 16, 8.0)
    assert g.h == pytest.approx(0.5)
    assert g.shape == (16, 16, 16)
    assert g.n_nodes == 4096
    assert g.cellvol == pytest.approx(0.125)
    nodes = g.axis_nodes()
    assert nodes[0] == pytest.approx(-4.0)
    assert nodes[-1] == pytest.approx(4.0 - 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 15, 8.0)  # odd M
    with pytest.raises(ValueError):
        Grid(3, 4, 8.0)  # too small
    with pytest.raises(ValueError):
        Grid(3, 16, -1.0)
    for L in (np.inf, np.nan):  # each once ran a solve to energy=nan
        with pytest.raises(ValueError, match="L must be positive and finite"):
            Grid(3, 16, L)


def test_grid_refuses_non_integer_sizes():
    # Grid(3, 16.0, 8.0) once built and then failed inside riesz_convolve
    # with a dtype cast error
    for args in [(3, 16.0, 8.0), (3, np.float64(16), 8.0), (True, 16, 8.0), (3, "16", 8.0)]:
        with pytest.raises(ValueError, match="must be an integer"):
            Grid(*args)
    g = Grid(np.int64(3), np.int32(16), 8.0)
    assert g.shape == (16, 16, 16)


def test_field_shape_check():
    g = small_grid()
    with pytest.raises(ValueError):
        Field(g, np.zeros((8, 8)))


def test_multiplier_matches_analytic_symbol():
    g = Grid(2, 16, 5.0)
    for s in (0.25, 0.5, 1.0):
        mult = multiplier(g, s)
        k = np.fft.fftfreq(16, d=g.h)
        xi2 = (2.0 * math.pi) ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
        assert np.allclose(mult, xi2**s, rtol=1e-13, atol=0.0)


def test_plane_waves_are_eigenfunctions():
    g = Grid(2, 16, 6.0)
    x = g.coords()
    for m in [(1, 0), (3, 2), (-5, 7), (8, 0)]:  # includes a Nyquist mode
        wave = np.cos(2.0 * math.pi * (m[0] * x[0] + m[1] * x[1]) / g.L)
        lam = (2.0 * math.pi / g.L) ** 2 * (m[0] ** 2 + m[1] ** 2)
        for s in (0.3, 0.5, 1.0):
            out = fractional_laplacian(Field(g, wave), s)
            assert np.allclose(out.values, lam**s * wave, rtol=0.0, atol=1e-12 * lam**s)


def test_fractional_laplacian_s_range():
    g = small_grid()
    u = Field(g, np.zeros(g.shape))
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            fractional_laplacian(u, s)


def test_self_adjointness(rng):
    g = Grid(3, 12, 6.0)
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    s = 0.5
    lu, lv = fractional_laplacian(u, s), fractional_laplacian(v, s)
    a = g.cellvol * np.sum(lu.values * v.values)
    b = g.cellvol * np.sum(u.values * lv.values)
    assert a == pytest.approx(b, rel=1e-11)


def test_norm_decomposition(rng):
    g = Grid(3, 12, 6.0)
    u = Field(g, rng.standard_normal(g.shape))
    s = 0.5
    assert hs_norm_sq(u, s) == pytest.approx(l2_norm_sq(u) + seminorm_sq(u, s), rel=1e-12)
    # the seminorm is the quadratic form of the operator
    lu = fractional_laplacian(u, s)
    quad = g.cellvol * np.sum(lu.values * u.values)
    assert seminorm_sq(u, s) == pytest.approx(quad, rel=1e-10)


@pytest.mark.parametrize("shape", [(9,), (10,), (7, 5), (6, 8), (5, 7, 9), (4, 6, 8)])
def test_transforms_match_scipy(shape, rng):
    # odd and even lengths, real and complex inputs
    r = rng.standard_normal(shape)
    c = r + 1j * rng.standard_normal(shape)
    half = sfft.rfftn(r)
    pairs = [
        (fftn(r), sfft.fftn(r)),
        (fftn(c), sfft.fftn(c)),
        (ifftn(c), sfft.ifftn(c)),
        (rfftn(r), half),
        (irfftn(half, shape), r),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("N, M", [(1, 8), (2, 10), (3, 12), (3, 16)])
def test_half_freq_norm_sq_is_the_cropped_full_spectrum(N, M):
    # built from the rfft bins of the last axis: bin M/2 is +M/2 there and
    # -M/2 in fftfreq order, which squares to the same value
    g = Grid(N, M, 7.0)
    half = g.half_freq_norm_sq()
    assert half.flags.c_contiguous
    assert np.array_equal(half, freq_norm_sq(g)[..., : M // 2 + 1])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_half_parseval_sum_matches_full_spectrum(N, rng):
    # power in the last-axis bin-0 and Nyquist planes, which count once
    g = Grid(N, 8, 5.0)
    last = np.arange(g.M).reshape((1,) * (N - 1) + (g.M,))
    u = rng.standard_normal(g.shape) + 3.0 + 2.0 * (-1.0) ** last
    full = fftn(u)
    assert np.abs(full[..., 0]).max() > g.n_nodes
    assert np.abs(full[..., g.M // 2]).max() > g.n_nodes
    symbol = 1.0 + freq_norm_sq(g) ** 0.5
    want = g.cellvol / g.n_nodes * np.sum(symbol * np.abs(full) ** 2)
    got = half_parseval_sum(g, rfftn(u), 1.0 + g.half_freq_norm_sq() ** 0.5)
    assert got == pytest.approx(want, rel=1e-14)
    # and the inner product of two real fields from their halves
    v = rng.standard_normal(g.shape) - 1.0 + (-1.0) ** last
    inner = half_inner(g, rfftn(u), rfftn(v))
    assert inner == pytest.approx(g.cellvol * np.sum(u * v), rel=1e-13)


def test_l2_norm_of_constant():
    g = Grid(2, 8, 3.0)
    u = Field(g, np.full(g.shape, 2.0))
    assert l2_norm_sq(u) == pytest.approx(4.0 * g.L**2, rel=1e-14)


def test_origin_cell_closed_forms():
    # 1-D: mean of |y|^{a-1} over [-1/2, 1/2] is 2 (1/2)^a / a
    for a in (0.3, 0.5, 0.9):
        want = 2.0 * 0.5**a / a
        assert origin_cell_average(1, a, 1.0) == pytest.approx(want, rel=1e-12)
    # 2-D, alpha = 1: 4 ln(1 + sqrt 2)
    assert origin_cell_average(2, 1.0, 1.0) == pytest.approx(4.0 * math.log(1.0 + math.sqrt(2.0)), rel=1e-12)
    # 3-D: reference volume-quadrature values
    for a, want in CELL_MEAN_3D.items():
        assert origin_cell_average(3, a, 1.0) == pytest.approx(want, rel=1e-12)


def test_origin_cell_scaling():
    a, h = 2.0, 0.37
    want = h ** (a - 3.0) * origin_cell_average(3, a, 1.0)
    assert origin_cell_average(3, a, h) == pytest.approx(want, rel=1e-12)


def test_kernel_symmetry_and_values():
    g = Grid(3, 8, 4.0)
    k = build_riesz_kernel(g, 2.0)
    big = k.grid
    assert big.M == 16
    v = k.values
    # even under every axis flip on the doubled grid
    for ax in range(3):
        flipped = np.flip(v, axis=ax)
        rolled = np.roll(flipped, 1, axis=ax)  # node -(-L) wraps
        assert np.array_equal(rolled, v)
    A = 1.0 / (4.0 * math.pi)
    # probe a regular node: |x| = 1 at offset (2, 0, 0) from the origin node
    origin = (8, 8, 8)
    probe = v[10, 8, 8]
    assert probe == pytest.approx(A / 1.0, rel=1e-14)
    assert np.isfinite(v[origin])
    assert v[origin] > v[10, 8, 8]  # averaged singular cell dominates


def test_kernel_alpha_validation():
    g = small_grid()
    for bad in (0.0, 3.0, -1.0):
        with pytest.raises(ValueError, match="alpha must lie in"):
            riesz_convolve(Field(g, np.zeros(g.shape)), bad)


def test_convolution_matches_direct_sum_1d(rng):
    g = Grid(1, 32, 8.0)
    f = rng.standard_normal(g.shape)
    out = riesz_convolve(Field(g, f), 0.5)
    kern = build_riesz_kernel(g, 0.5).values
    x = g.axis_nodes()
    want = np.empty_like(f)
    for i in range(g.M):
        acc = 0.0
        for j in range(g.M):
            # kernel sampled at x_i - x_j on the doubled grid: index offset + M
            acc += kern[(i - j) + g.M] * f[j]
        want[i] = acc * g.cellvol
    err = np.abs(out.values - want).max() / np.abs(want).max()
    assert err <= 1e-12


def test_convolution_matches_direct_sum_2d(rng):
    g = Grid(2, 12, 6.0)
    f = rng.standard_normal(g.shape)
    out = riesz_convolve(Field(g, f), 1.0)
    kern = build_riesz_kernel(g, 1.0).values
    want = np.zeros_like(f)
    for i0 in range(g.M):
        for i1 in range(g.M):
            block = kern[i0 + g.M - np.arange(g.M)[:, None], i1 + g.M - np.arange(g.M)[None, :]]
            want[i0, i1] = np.sum(block * f) * g.cellvol
    err = np.abs(out.values - want).max() / np.abs(want).max()
    assert err <= 1e-12


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_convolution_matches_direct_sum_3d(alpha, rng):
    # the pruned transform passes differ with the axis count, so 3-D gets its own check
    g = Grid(3, 8, 6.0)
    f = rng.standard_normal(g.shape)
    out = riesz_convolve(Field(g, f), alpha)
    kern = build_riesz_kernel(g, alpha).values
    idx = g.M - np.arange(g.M)
    want = np.empty_like(f)
    for i in np.ndindex(*g.shape):
        block = kern[np.ix_(i[0] + idx, i[1] + idx, i[2] + idx)]
        want[i] = np.sum(block * f) * g.cellvol
    err = np.abs(out.values - want).max() / np.abs(want).max()
    assert err <= 1e-12


@pytest.mark.parametrize("N, alpha", [(1, 0.5), (2, 1.0), (3, 2.0)])
def test_convolution_matches_full_pad(N, alpha, rng):
    # the same product of transforms with the (2M)^N zero pad built explicitly
    g = Grid(N, 16, 8.0)
    f = rng.standard_normal(g.shape)
    out = riesz_convolve(Field(g, f), alpha).values
    kern = build_riesz_kernel(g, alpha)
    khat = sfft.rfftn(sfft.ifftshift(kern.values))
    pad = np.zeros(kern.grid.shape)
    inner = (slice(0, g.M),) * N
    pad[inner] = f
    want = g.cellvol * sfft.irfftn(sfft.rfftn(pad) * khat, s=pad.shape)[inner]
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "N, alpha", [(N, a) for N in (1, 2, 3) for a in (0.5, 1.0, 1.5, 2.0, 2.5) if a < N]
)
def test_kernel_octant_matches_full_transform(N, alpha, monkeypatch):
    # the per-axis DCT-I of the octant against the rfftn of the whole (2M)^N
    # kernel: bins 0..M of every axis.  The stored blocks side by side are
    # bins 0..M of the outer leading axes and every bin of the axis next to
    # the last, within one slab and past the budget alike
    g = Grid(N, 16, 8.0)
    full = full_kernel_transform(g, alpha)
    octant = spectral._kernel_octant(g, alpha)
    assert octant.shape == (g.M + 1,) * N
    want = full[(slice(0, g.M + 1),) * (N - 1)]
    assert np.abs(octant - want).max() <= 1e-15 * np.abs(want).max()
    want = full[(slice(0, g.M + 1),) * max(N - 2, 0)]
    for budget in (spectral._SLAB_BYTES, 3 * 16 * (2 * g.M) ** (N - 1)):
        monkeypatch.setattr(spectral, "_SLAB_BYTES", budget)
        monkeypatch.setattr(spectral, "_kernel_cache", spectral._LRU(4))
        stored = np.concatenate(spectral._kernel_transform(g, alpha), axis=-1)
        assert np.abs(stored - want).max() <= 1e-15 * np.abs(want).max()


def test_kernel_cache_keeps_one_mirrored_axis(monkeypatch):
    # 24^3 is one slab, and its kernel is the octant mirrored out along the
    # axis next to the last only: 25 x 48 x 25 doubles
    g = Grid(3, 24, 18.0)
    monkeypatch.setattr(spectral, "_kernel_cache", spectral._LRU(4))
    blocks = spectral._kernel_transform(g, 2.0)
    assert sum(b.nbytes for b in blocks) == 25 * 48 * 25 * 8


@pytest.mark.parametrize("N, M, alpha", [(1, 16, 0.5), (2, 16, 1.0), (3, 12, 2.0), (3, 16, 0.5)])
def test_convolution_slabs_match_one_slab(N, M, alpha, rng, monkeypatch):
    # a budget of one or three last-axis bins forces many slabs, with a
    # shorter last slab for three; every bin sees the same arithmetic
    g = Grid(N, M, 8.0)
    f = Field(g, rng.standard_normal(g.shape))
    monkeypatch.setattr(spectral, "_kernel_cache", spectral._LRU(4))
    one = riesz_convolve(f, alpha).values
    assert len(spectral._kernel_transform(g, alpha)) == 1
    for width in (1, 3):
        monkeypatch.setattr(spectral, "_SLAB_BYTES", width * 16 * (2 * M) ** (N - 1))
        monkeypatch.setattr(spectral, "_kernel_cache", spectral._LRU(4))
        assert len(spectral._kernel_transform(g, alpha)) == -(-(M + 1) // width)
        assert np.array_equal(riesz_convolve(f, alpha).values, one)


def test_convolution_working_set(monkeypatch):
    # traced peaks at 48^3: 21.4 MB for a first kernel build and 9.95 MB for
    # one convolution when the whole (2M)^N kernel and padded spectrum were
    # built; 5.74 and 4.53 MB with the octant and 1 MiB slabs.  The bounds
    # leave about 13% and 10% over those.
    g = Grid(3, 48, 24.0)
    f = Field(g, np.ones(g.shape))
    monkeypatch.setattr(spectral, "_kernel_cache", spectral._LRU(4))
    tracemalloc.start()
    try:
        spectral._kernel_transform(g, 2.0)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = riesz_convolve(f, 2.0)
        conv_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert out.values.flags.c_contiguous and out.values.base is None
    assert build_peak <= 6.5e6, build_peak
    assert conv_peak <= 5.0e6, conv_peak


def test_convolution_linearity_and_positivity(rng):
    g = Grid(2, 16, 6.0)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    ca = riesz_convolve(Field(g, a), 1.0).values
    cb = riesz_convolve(Field(g, b), 1.0).values
    cab = riesz_convolve(Field(g, 2.0 * a - 3.0 * b), 1.0).values
    assert np.allclose(cab, 2.0 * ca - 3.0 * cb, rtol=1e-12, atol=1e-12 * np.abs(ca).max())
    pos = riesz_convolve(Field(g, np.abs(a)), 1.0).values
    assert pos.min() > 0.0


def test_convolution_shift_equivariance():
    # a compactly supported bump convolved after a lattice shift equals the
    # shifted convolution as long as neither support touches the box edge
    g = Grid(2, 32, 16.0)
    x = g.coords()
    bump = np.exp(-4.0 * (x[0] ** 2 + x[1] ** 2))
    bump[(np.abs(x[0]) > 4.0) | (np.abs(x[1]) > 4.0)] = 0.0
    shifted = np.roll(bump, (3, -2), axis=(0, 1))
    c1 = riesz_convolve(Field(g, shifted), 1.0).values
    c2 = np.roll(riesz_convolve(Field(g, bump), 1.0).values, (3, -2), axis=(0, 1))
    # linear (non-circular) convolution only matches where the shifted kernel
    # window stays inside; compare on the central half of the box
    sl = (slice(8, 24), slice(8, 24))
    err = np.abs(c1[sl] - c2[sl]).max() / np.abs(c2[sl]).max()
    assert err <= 1e-6


def test_gagliardo_matches_spectral_seminorm():
    # single-mode field on a 16^2 grid; the double-sum route should land on
    # the spectral value once the periodization tail is accounted for
    g = Grid(2, 16, 10.0)
    x = g.coords()
    u = Field(g, np.cos(2.0 * math.pi * x[0] / g.L) * np.cos(2.0 * math.pi * x[1] / g.L))
    for s in (0.25, 0.5):
        spec = seminorm_sq(u, s)
        gag = gagliardo_norm_sq(u, s)
        assert abs(gag - spec) / spec <= 0.10, (s, gag / spec)
    # at s = 0.75 the near-diagonal quadrature error of the double sum is
    # O(h^{2-2s}) and dominates; the two routes still agree in order of magnitude
    spec = seminorm_sq(u, 0.75)
    gag = gagliardo_norm_sq(u, 0.75)
    assert 0.5 <= gag / spec <= 2.0


def test_gagliardo_constant_field_is_zero():
    g = Grid(2, 12, 5.0)
    u = Field(g, np.full(g.shape, 3.0))
    assert gagliardo_norm_sq(u, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_gagliardo_node_guard():
    g = Grid(3, 20, 5.0)  # 8000 nodes, over the O(n^2) comfort limit
    with pytest.raises(ValueError):
        gagliardo_norm_sq(Field(g, np.zeros(g.shape)), 0.5)
