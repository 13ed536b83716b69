import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import kve

from fracsaddle import extension, spectral
from fracsaddle.coxeter import named_group
from fracsaddle.extension import YGrid, default_y_max, energy_identity_check, psi_profile
from fracsaddle.solver import GroupAction
from fracsaddle.spectral import Field, Grid, fftn, ifftn, irfftn, seminorm_sq

from extension_reference import (
    ExtensionField,
    _harmonic_slices,
    _slices_energy,
    extend_symmetry_check,
    harmonic_extend,
    trace_inequality_check,
)
from ode_reference import psi_ode_solution
from spectral_reference import freq_norm_sq


def smooth_field(grid, rng, width=0.5):
    noise = rng.standard_normal(grid.shape)
    return Field(grid, ifftn(fftn(noise) * np.exp(-width * freq_norm_sq(grid))).real)


def test_ygrid_graded():
    yg = YGrid.graded(64, 10.0)
    assert yg.J == 64
    assert yg.nodes[0] > 0.0
    assert yg.nodes[-1] == pytest.approx(10.0)
    assert np.all(np.diff(yg.nodes) > 0.0)
    # quadratic grading concentrates nodes near the trace
    assert yg.nodes[0] == pytest.approx(10.0 / 64**2)


def test_ygrid_validation():
    with pytest.raises(ValueError):
        YGrid.graded(16, 10.0)  # too few slices
    with pytest.raises(ValueError):
        YGrid(nodes=np.array([0.0, 1.0] + list(np.linspace(2, 10, 66))))


def test_psi_half_is_exponential():
    # through both routes: the series below 0.5, the trapezoid rule beyond
    y = np.concatenate([np.linspace(0.0, 30.0, 200), np.geomspace(30.0, 700.0, 100)])
    assert np.abs(psi_profile(0.5, y) / np.exp(-y) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("s", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_psi_matches_scipy_bessel(s):
    # scipy's kv underflows to 0 from y = 700 on, so the oracle is kve, the
    # scaled K_s, times e^{-y}.  Measured: at most 6.9e-14 over s in this list
    # (on 20000 points), nearly all of it kve's own error near y = 2; the
    # profile is within 1.4e-14 of a 30-digit mpmath K_s there.
    y = np.geomspace(1e-10, 700.0, 4000)
    want = 2.0 ** (1.0 - s) / math.gamma(s) * y**s * kve(s, y) * np.exp(-y)
    assert np.abs(psi_profile(s, y) / want - 1.0).max() <= 1e-13


@pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
def test_psi_is_zero_past_underflow(s):
    v = psi_profile(s, np.array([745.0, 746.0, 800.0, 1e4, 1e300, np.inf]))
    assert 0.0 <= v[0] < 1e-300
    assert np.array_equal(v[1:], np.zeros(5))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_psi_shape(s):
    y = np.linspace(0.0, 40.0, 400)
    v = psi_profile(s, y)
    assert v[0] == pytest.approx(1.0)
    assert np.all(np.diff(v) < 0.0)
    assert np.all(v > 0.0) or v[-1] == 0.0  # underflow far out maps to 0
    assert psi_profile(s, 800.0) == 0.0
    assert float(psi_profile(s, 0.0)) == 1.0


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_psi_matches_ode(s):
    y = np.linspace(0.05, 50.0, 500)
    closed = psi_profile(s, y)
    shot = psi_ode_solution(s, y)
    assert np.abs(closed - shot).max() <= 1e-8


def test_psi_ode_domain():
    with pytest.raises(ValueError):
        psi_ode_solution(0.5, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        psi_ode_solution(0.5, np.array([60.0]))


def test_harmonic_extend_trace_and_constant():
    g = Grid(2, 16, 8.0)
    yg = YGrid.graded(64, default_y_max(g))
    c = Field(g, np.full(g.shape, 1.5))
    U = harmonic_extend(c, 0.5, yg)
    assert np.array_equal(U.trace.values, c.values)
    # the zero mode never decays: every slice keeps the constant
    assert np.allclose(U.values, 1.5, rtol=0.0, atol=1e-12)


def test_harmonic_extend_single_mode():
    g = Grid(2, 16, 8.0)
    x = g.coords()
    k = 2.0 * math.pi / g.L
    u = Field(g, np.cos(k * x[0] + 0.0 * x[1]))
    yg = YGrid.graded(64, default_y_max(g))
    U = harmonic_extend(u, 0.5, yg)
    for j in (0, 10, 40):
        want = math.exp(-k * yg.nodes[j]) * u.values
        assert np.allclose(U.values[..., j], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_harmonic_extend_matches_pointwise_profile(s, rng):
    # psi evaluated once per distinct |xi| must equal psi at every node, bitwise
    g = Grid(3, 12, 8.0)
    u = smooth_field(g, rng)
    yg = YGrid.graded(64, default_y_max(g))
    U = harmonic_extend(u, s, yg)
    assert U.values.shape == g.shape + (64,)
    xi = np.sqrt(g.half_freq_norm_sq())
    uhat = fftn(u.values)[..., : g.M // 2 + 1]
    for j in (0, 1, 17, 40, 63):
        want = irfftn(psi_profile(s, xi * yg.nodes[j]) * uhat, g.shape)
        assert np.array_equal(U.values[..., j], want)


@pytest.mark.parametrize("N, M", [(3, 12), (2, 16)])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_harmonic_extend_matches_complex_transforms(N, M, s, rng):
    # the real inverse from the half spectrum is the complex inverse's real part
    g = Grid(N, M, 8.0)
    u = smooth_field(g, rng)
    yg = YGrid.graded(64, default_y_max(g))
    U = harmonic_extend(u, s, yg)
    xi = np.sqrt(freq_norm_sq(g))
    uhat = fftn(u.values)
    for j in range(yg.J):
        want = ifftn(psi_profile(s, xi * yg.nodes[j]) * uhat).real
        assert np.abs(U.values[..., j] - want).max() <= 1e-14 * np.abs(u.values).max()


def test_extension_field_shape_check():
    g = Grid(2, 16, 8.0)
    yg = YGrid.graded(64, 10.0)
    with pytest.raises(ValueError):
        ExtensionField(g, yg, np.zeros(g.shape + (63,)), Field(g, np.zeros(g.shape)))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_energy_identity_smooth_field(s, rng):
    g = Grid(2, 16, 10.0)
    u = smooth_field(g, rng)
    yg = YGrid.graded(128, default_y_max(g))
    lhs, rhs, ratio = energy_identity_check(u, s, yg)
    assert lhs > 0.0 and rhs > 0.0
    assert abs(ratio - 1.0) <= 0.02


def test_energy_identity_converges_in_J(rng):
    g = Grid(2, 16, 10.0)
    u = smooth_field(g, rng)
    errs = []
    for J in (64, 128, 256):
        yg = YGrid.graded(J, default_y_max(g))
        _, _, ratio = energy_identity_check(u, 0.25, yg)
        errs.append(abs(ratio - 1.0))
    assert errs[1] <= 0.7 * errs[0]
    assert errs[2] <= 0.7 * errs[1]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_energy_identity_matches_slice_oracle(s, rng):
    # the per-radius sums are the slice oracle's quadrature by Parseval, and
    # they hold nothing of the size of the J slices
    for g in (Grid(2, 16, 10.0), Grid(3, 16, 12.0)):
        yg = YGrid.graded(256, default_y_max(g))
        for u in (smooth_field(g, rng), Field(g, rng.standard_normal(g.shape))):
            tracemalloc.start()
            try:
                lhs, _, _ = energy_identity_check(u, s, yg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            want = _slices_energy(u, _harmonic_slices(u, s, yg), yg, s)
            assert abs(lhs - want) <= 1e-12 * want
            assert peak < yg.J * u.values.nbytes / 4


@pytest.mark.parametrize("J", [64, 256])
def test_energy_identity_cost_shape(J, monkeypatch, rng):
    # one forward transform whatever J is, and one profile evaluation per
    # block of 16 y nodes
    calls = {"transforms": 0, "psi_profile": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fftn", "rfftn"):
        monkeypatch.setattr(extension, name, counted("transforms", getattr(extension, name)))
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(spectral, name, counted("transforms", getattr(spectral, name)))
    monkeypatch.setattr(extension, "psi_profile", counted("psi_profile", extension.psi_profile))
    g = Grid(3, 12, 8.0)
    energy_identity_check(smooth_field(g, rng), 0.5, YGrid.graded(J, default_y_max(g)))
    assert calls == {"transforms": 1, "psi_profile": J // 16}


def test_trace_inequality_harmonic_and_perturbed(rng):
    g = Grid(2, 16, 10.0)
    u = smooth_field(g, rng)
    yg = YGrid.graded(128, default_y_max(g))
    U = harmonic_extend(u, 0.5, yg)
    lhs, rhs, ok = trace_inequality_check(U, 0.5)
    assert ok
    assert lhs == pytest.approx(seminorm_sq(u, 0.5), rel=1e-12)
    assert lhs <= rhs * 1.02
    # any competitor with the same trace costs at least the harmonic energy
    for k in range(5):
        pert = rng.standard_normal(U.values.shape) * 0.05 * np.abs(U.values).max()
        pert[..., -1] = 0.0
        V = ExtensionField(g, yg, U.values + pert, U.trace)
        plhs, prhs, pok = trace_inequality_check(V, 0.5)
        assert pok
        assert prhs > rhs


def test_extend_symmetry_check():
    g = Grid(3, 12, 8.0)
    G = named_group("A1")
    rng = np.random.default_rng(5)
    u = Field(g, GroupAction(g, G).project(smooth_field(g, rng).values))
    assert np.abs(u.values).max() > 0.0
    yg = YGrid.graded(64, default_y_max(g))
    assert extend_symmetry_check(u, G, 0.5, yg)
    broken = u.values.copy()
    broken[3, 4, 5] += 0.1 * np.abs(broken).max()
    assert not extend_symmetry_check(Field(g, broken), G, 0.5, yg)
