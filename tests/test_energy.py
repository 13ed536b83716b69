import numpy as np
import pytest

from fracsaddle.energy import (
    _evaluate_field,
    _nehari_factor,
    energy,
    gradient,
    interaction,
    nehari_energy,
)
from fracsaddle.params import ModelParams
from fracsaddle.spectral import Field, Grid, hs_norm_sq

from spectral_reference import freq_norm_sq

PARAMS = ModelParams(3, 0.5, 2.0, 2.0)


def nehari_scale(u):
    """The t > 0 that puts t u on the Nehari set, as solve forms it."""
    ev, _ = _evaluate_field(u, PARAMS)
    return _nehari_factor(ev.Q, ev.D, PARAMS.p)


def smooth_field(grid, rng, width=0.3):
    from fracsaddle.spectral import fftn, ifftn

    noise = rng.standard_normal(grid.shape)
    return Field(grid, ifftn(fftn(noise) * np.exp(-width * freq_norm_sq(grid))).real)


def test_energy_decomposition(rng):
    g = Grid(3, 10, 6.0)
    u = smooth_field(g, rng)
    bre = energy(u, PARAMS)
    assert bre.quad == pytest.approx(0.5 * hs_norm_sq(u, PARAMS.s), rel=1e-13)
    assert bre.nonlocal_ == pytest.approx(interaction(u, PARAMS), rel=1e-13)
    assert bre.total == pytest.approx(bre.quad - bre.nonlocal_ / (2.0 * PARAMS.p), rel=1e-12)


def test_interaction_positive_and_even(rng):
    g = Grid(3, 10, 6.0)
    u = smooth_field(g, rng)
    D = interaction(u, PARAMS)
    assert D > 0.0
    flipped = Field(g, -u.values)
    assert interaction(flipped, PARAMS) == pytest.approx(D, rel=1e-13)


def test_interaction_homogeneity(rng):
    g = Grid(3, 10, 6.0)
    u = smooth_field(g, rng)
    D = interaction(u, PARAMS)
    t = 1.7
    scaled = Field(g, t * u.values)
    assert interaction(scaled, PARAMS) == pytest.approx(t ** (2.0 * PARAMS.p) * D, rel=1e-11)


@pytest.mark.parametrize("p", [2.0, 2.2])
def test_gradient_matches_finite_differences(rng, p):
    params = ModelParams(3, 0.5, 2.0, p)
    g = Grid(3, 10, 6.0)
    for _ in range(3):
        u = smooth_field(g, rng)
        v = smooth_field(g, rng)
        gr = gradient(u, params)
        pairing = g.cellvol * float(np.sum(gr.values * v.values))
        eps = 1e-5
        up = energy(Field(g, u.values + eps * v.values), params).total
        dn = energy(Field(g, u.values - eps * v.values), params).total
        fd = (up - dn) / (2.0 * eps)
        assert pairing == pytest.approx(fd, rel=1e-5)


def test_gradient_of_symmetric_profile_is_symmetric(rng):
    # the zero-padded convolution sees the -L/2 face without a +L/2 mirror,
    # so symmetry holds only up to the boundary value of the profile
    # (~1e-10 here), not to machine precision
    g = Grid(3, 10, 6.0)
    u = Field(g, np.exp(-g.radius() ** 2))
    gr = gradient(u, PARAMS).values
    for ax in range(3):
        flipped = np.roll(np.flip(gr, axis=ax), 1, axis=ax)
        assert np.allclose(flipped, gr, rtol=0.0, atol=1e-9 * np.abs(gr).max())


def test_nehari_scale_lands_on_manifold(rng):
    g = Grid(3, 10, 6.0)
    u = smooth_field(g, rng)
    t = nehari_scale(u)
    su = Field(g, t * u.values)
    Q = hs_norm_sq(su, PARAMS.s)
    D = interaction(su, PARAMS)
    assert Q == pytest.approx(D, rel=1e-10)


def test_nehari_energy_closed_form(rng):
    g = Grid(3, 10, 6.0)
    u = smooth_field(g, rng)
    t = nehari_scale(u)
    su = Field(g, t * u.values)
    assert nehari_energy(u, PARAMS) == pytest.approx(energy(su, PARAMS).total, rel=1e-12)
    # invariant along the ray
    assert nehari_energy(Field(g, 2.5 * u.values), PARAMS) == pytest.approx(
        nehari_energy(u, PARAMS), rel=1e-11
    )


def test_nehari_rejects_zero_interaction():
    g = Grid(3, 10, 6.0)
    zero = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        nehari_energy(zero, PARAMS)
