import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from fracsaddle import analysis
from fracsaddle.analysis import (
    decay_exponent,
    energy_table,
    nodal_domains,
    sign_on_fundamental_domain,
    solve_level,
)
from fracsaddle.coxeter import CoxeterGroup, _fingerprint, named_group
from fracsaddle.params import ModelParams
from fracsaddle.solver import GroupAction, SolverConfig, _index_table, initial_guess, solve
from fracsaddle.spectral import Field, Grid

from coxeter_reference import facet_candidates, orbit, stabilizer

PARAMS = ModelParams(3, 0.5, 2.0, 2.0)


def two_bumps(grid, d=2.5, w=1.0):
    x = grid.coords()
    r2p = (x[0] - d) ** 2 + x[1] ** 2 + x[2] ** 2
    r2m = (x[0] + d) ** 2 + x[1] ** 2 + x[2] ** 2
    return Field(grid, np.exp(-r2p / w) - np.exp(-r2m / w))


def test_nodal_single_bump():
    g = Grid(3, 16, 10.0)
    u = Field(g, np.exp(-g.radius() ** 2))
    rep = nodal_domains(u)
    assert rep.count == 1
    assert rep.component_sizes[0] > 0
    assert rep.threshold == pytest.approx(1e-3 * np.abs(u.values).max())


def test_nodal_two_bumps():
    # box wide enough that the tails die before the unmirrored -L/2 face,
    # so the two components are exact mirror images above threshold
    g = Grid(3, 16, 12.0)
    rep = nodal_domains(two_bumps(g))
    assert rep.count == 2
    assert len(rep.component_sizes) == 2
    assert rep.component_sizes[0] == rep.component_sizes[1]


def test_nodal_quadrant_pattern():
    g = Grid(2, 32, 10.0)
    x = g.coords()
    u = Field(g, np.sin(2.0 * np.pi * x[0] / g.L) * np.sin(2.0 * np.pi * x[1] / g.L))
    rep = nodal_domains(u)
    assert rep.count == 4
    # four congruent quadrants that hold every node above threshold
    assert len(set(rep.component_sizes)) == 1
    assert sum(rep.component_sizes) == int(np.sum(np.abs(u.values) > rep.threshold))


def test_nodal_invariances():
    g = Grid(3, 16, 10.0)
    u = two_bumps(g)
    base = nodal_domains(u).count
    assert nodal_domains(Field(g, -u.values)).count == base
    assert nodal_domains(Field(g, 7.5 * u.values)).count == base


def test_nodal_validation():
    g = Grid(3, 8, 4.0)
    with pytest.raises(ValueError):
        nodal_domains(Field(g, np.zeros(g.shape)))


@pytest.mark.parametrize("shape", [(40, 40), (17, 23), (12, 12, 12), (9, 14, 11)])
@pytest.mark.parametrize("fill", [0.3, 0.5, 0.7])
def test_label_matches_ndimage(shape, fill, rng):
    # the numbering too: both count components in the C order of their first voxel
    mask = rng.random(shape) < fill
    labels = analysis._label(mask)
    want, count = ndimage.label(mask)
    assert labels.max() == count
    assert np.array_equal(labels, want)
    assert np.array_equal(np.bincount(labels.ravel()), np.bincount(want.ravel()))


@pytest.mark.parametrize("N", [2, 3])
def test_label_keeps_opposite_faces_apart(N):
    # the box truncates whole space: the first and last layer of an axis are
    # not neighbours, so slabs on opposite faces stay separate components
    mask = np.zeros((10,) * N, dtype=bool)
    for ax in range(N):
        for layer in (0, -1):
            mask[(slice(2, 8),) * ax + (layer,) + (slice(2, 8),) * (N - ax - 1)] = True
    labels = analysis._label(mask)
    want, count = ndimage.label(mask)
    assert count == 2 * N
    assert np.array_equal(labels, want)
    assert sorted(np.bincount(labels.ravel())[1:]) == [6 ** (N - 1)] * (2 * N)


@pytest.mark.parametrize("q", [3.0, 4.0, 5.0])
def test_decay_planted_power_law(q):
    g = Grid(3, 48, 24.0)
    u = Field(g, (1.0 + g.radius() ** 2) ** (-q / 2.0))
    slope = decay_exponent(u, 0.2, 0.4)
    assert abs(slope - (-q)) <= 0.03 * q


def test_decay_gaussian_is_steep():
    g = Grid(3, 48, 24.0)
    u = Field(g, np.exp(-g.radius() ** 2 / 4.0))
    assert decay_exponent(u, 0.2, 0.4) < -10.0


def test_decay_refuses_bumps_inside_the_window():
    # B2's bumps at M=24, L=18 peak at |x| = 4.74, past the window's inner
    # edge 0.2 L = 3.6: the slope there would measure the bumps, not a tail
    g = Grid(3, 24, 18.0)
    x = g.coords()
    c = 4.74 / math.sqrt(2.0)
    bump = lambda a, b: np.exp(-((x[0] - a) ** 2 + (x[1] - b) ** 2 + x[2] ** 2))
    u = Field(g, bump(c, c) - bump(-c, -c))
    with pytest.raises(ValueError, match="inner edge"):
        decay_exponent(u, 0.2, 0.4)


def test_decay_window_validation():
    g = Grid(3, 16, 8.0)
    u = Field(g, np.exp(-g.radius() ** 2))
    with pytest.raises(ValueError):
        decay_exponent(u, 0.4, 0.2)
    with pytest.raises(ValueError):
        decay_exponent(u, 0.2, 0.5)  # beyond the periodization cap
    with pytest.raises(ValueError):
        decay_exponent(u, 0.43, 0.45)  # too few shells


def test_sign_on_chamber_positive_field():
    g = Grid(3, 16, 10.0)
    u = Field(g, np.exp(-g.radius() ** 2))
    assert sign_on_fundamental_domain(u, named_group("A1"))
    assert sign_on_fundamental_domain(u, named_group("B3"))


def test_sign_on_chamber_odd_field():
    g = Grid(3, 16, 10.0)
    u = two_bumps(g)  # positive where x1 > 0
    assert sign_on_fundamental_domain(u, named_group("A1"))


def test_sign_on_chamber_counterexample():
    g = Grid(3, 16, 10.0)
    x = g.coords()
    # two sign changes along x1, so the half-space x1 > 0 sees both signs
    u = Field(g, np.sin(4.0 * np.pi * x[0] / g.L) + 0.0 * x[1] + 0.0 * x[2])
    assert not sign_on_fundamental_domain(u, named_group("A1"))


def test_sign_on_chamber_zero_field():
    g = Grid(3, 8, 4.0)
    assert not sign_on_fundamental_domain(Field(g, np.zeros(g.shape)), named_group("A1"))


def test_solve_level_caches():
    g = Grid(3, 12, 8.0)
    G = named_group("trivial")
    base = SolverConfig(params=PARAMS, grid=g, group=G, tol=1e-4)
    cache = {}
    a = solve_level(G, base, cache)
    b = solve_level(named_group("trivial"), base, cache)
    assert a is b
    assert len(cache) == 1


def test_solve_level_cache_keys_on_max_iters():
    g = Grid(3, 12, 8.0)
    G = named_group("trivial")
    cache = {}
    capped = solve_level(G, SolverConfig(params=PARAMS, grid=g, group=G, tol=1e-4, max_iters=1), cache)
    full = solve_level(G, SolverConfig(params=PARAMS, grid=g, group=G, tol=1e-4), cache)
    assert capped.iterations == 1 and not capped.converged
    assert full is not capped
    assert full.converged and full.iterations > 1
    assert len(cache) == 2


def test_solve_level_cache_keys_on_every_config_field():
    # the key once listed grid, params, tol, max_iters and R by hand, so a
    # solve setting added to SolverConfig got another setting's cached solve
    @dataclass
    class Tagged(SolverConfig):
        tag: int = 0

    g = Grid(3, 12, 8.0)
    G = named_group("trivial")
    base = Tagged(params=PARAMS, grid=g, group=G, tol=1e-4)
    cache = {}
    first = solve_level(G, base, cache)
    assert solve_level(G, replace(base, tag=1), cache) is not first
    assert solve_level(G, replace(base), cache) is first
    assert len(cache) == 2


def test_energy_table_small():
    g = Grid(3, 16, 10.0)
    configs = [
        SolverConfig(params=PARAMS, grid=g, group=named_group(n), tol=1e-4)
        for n in ("trivial", "A1")
    ]
    table = energy_table(configs)
    assert [r.group for r in table] == ["trivial", "A1"]
    triv, a1 = table
    assert triv.converged and triv.c_G > 0.0
    assert math.isinf(triv.c_star)
    assert a1.converged
    # the rank-1 breakup candidate is two free copies
    assert a1.c_star == pytest.approx(2.0 * triv.c_G, rel=1e-10)
    assert a1.margin == pytest.approx(a1.c_star - a1.c_G)
    assert a1.c_G > triv.c_G


def test_energy_table_takes_stabilizers_of_continuous_facet_points(monkeypatch):
    # at M = 12, L = 8 the grid node nearest to (L/4) x, for x a B3 wall
    # point, lies on a codimension-2 face, whose stabilizer has order 4, not 2
    levels = []

    def stub(group, base, cache=None):
        levels.append(group.order)
        return SimpleNamespace(energy=1.0, converged=True)

    monkeypatch.setattr(analysis, "solve_level", stub)
    cfg = SolverConfig(params=PARAMS, grid=Grid(3, 12, 8.0), group=named_group("B3"))
    (row,) = energy_table([cfg])
    assert levels == [48, 1, 2, 2, 2]
    assert row.c_star == 24.0


# The geometric route: continuous points of the chamber, their stabilizers
# and their orbits.  The rank-2 single flip has only the trivial level.
@pytest.mark.parametrize("G", [
    *(named_group(n) for n in ("trivial", "A1", "A1xA1", "A2", "B2", "B3")),
    CoxeterGroup([np.diag([-1, 1])]),
    CoxeterGroup([np.array([[0, -1], [-1, 0]])]),
    CoxeterGroup([np.diag([1, 1, -1])]),
], ids=["trivial", "A1", "A1xA1", "A2", "B2", "B3", "flip2", "antidiagonal", "mirror3"])
def test_breakup_levels_match_facet_points(G):
    want = [(len(orbit(G, x)), stabilizer(G, x)) for x in facet_candidates(G)]
    got = analysis._breakup_levels(G)
    assert [n for n, _ in got] == [n for n, _ in want]
    assert [_fingerprint(S.elements) for _, S in got] == [_fingerprint(S.elements) for _, S in want]
    # element for element, so the solves see the same lists in the same order
    assert all(np.array_equal(S.elements, R.elements) for (_, S), (_, R) in zip(got, want))


@pytest.fixture(scope="module")
def table24():
    """The M=24 table over trivial, A1, A1xA1, B2, its cache and its solve count."""
    g = Grid(3, 24, 18.0)
    configs = [SolverConfig(params=PARAMS, grid=g, group=named_group(n))
               for n in ("trivial", "A1", "A1xA1", "B2")]
    solves = []

    def counting(cfg, u0):
        solves.append(cfg.group)
        return solve(cfg, u0)

    cache = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "solve", counting)
        table = energy_table(configs, cache)
    return table, cache, solves, configs[0]


def test_energy_table_solves_each_conjugacy_class_once(table24):
    table, cache, solves, _ = table24
    # trivial, A1, A1xA1, B2 and the diagonal mirror of B2; the rank-2
    # trivial group and the x1 and x2 mirrors of A1xA1 are reused
    assert len(solves) == 5 and len(cache) == 5
    assert [r.group for r in table] == ["trivial", "A1", "A1xA1", "B2"]
    assert all(r.verified for r in table)


def test_energy_table_starts_from_the_shifted_gaussian(table24):
    # 162 iterations from the Gaussian bump orbits (13/35/28/34/52), 104 from
    # the solved groundstate moved by whole nodes (13/19/22/35/15), and 99
    # from the trivial class's Gaussian moved by whole nodes (13/23/20/22/21)
    _, cache, _, _ = table24
    starts = {G.name: sol.metadata["start"] for sol, G, _ in cache.values()}
    assert starts["trivial"] == "gaussian"
    assert starts["A1"] == [3, 0, 0] and starts["A1xA1"] == [3, 3, 0]
    assert sum(sol.iterations for sol, _, _ in cache.values()) <= 110


def test_saddle_solve_on_an_empty_cache_makes_one_solve(monkeypatch):
    # solve_level solves only the class asked for, not the groundstate first
    solves = []

    def counting(cfg, u0):
        solves.append(cfg.group)
        return solve(cfg, u0)

    monkeypatch.setattr(analysis, "solve", counting)
    G = named_group("A1")
    cfg = SolverConfig(params=PARAMS, grid=Grid(3, 16, 12.0), group=G, tol=1e-5)
    cache = {}
    sol = solve_level(G, cfg, cache)
    assert len(cache) == 1 and solves == [G]
    start, u0 = initial_guess(cfg)
    assert sol.metadata["start"] == start != "gaussian"
    assert np.array_equal(sol.u.values, solve(cfg, u0).u.values)


def test_saddle_a1_48_starts_from_the_shifted_gaussian(saddle_a1_48):
    # 107 iterations and 74 rejected mixes from the Gaussian bump orbit; 15
    # from the solved groundstate moved by whole nodes, after its 14
    assert saddle_a1_48.converged
    assert saddle_a1_48.metadata["start"] == [4, 0, 0]
    assert saddle_a1_48.iterations <= 25


# Each mirror is conjugate to a cached class by a signed permutation S; the
# x3 mirror needs a 3-cycle, where S and S^T differ, so swapping them would
# put the reused field outside its class.  The anti-diagonal mirror needs a
# negation whose -L/2 face layer is not pinned, which the padded convolution
# does not see as a symmetry: its direct solve reaches residual 2.45e-5 by
# iteration 60 and stays there, so it runs all 2000 max_iters (2017
# evaluations, about 10 s on two cores), and the reused field measures
# 3.47e-5, so both report not converged, with energies 3.8e-10 apart
# (relative).
@pytest.mark.parametrize("mirror, source", [
    ([[1, 0], [0, -1]], "A1"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], "A1"),
    ([[0, -1], [-1, 0]], None),  # from the diagonal mirror, a breakup class of B2
])
def test_solve_level_reuses_conjugate_class(mirror, source, table24):
    _, cache, solves, base = table24
    g = base.grid
    G = CoxeterGroup([np.array(mirror)])
    n_solves = len(solves)
    sol = solve_level(G, base, cache)
    assert len(solves) == n_solves  # no new solve
    reused = sol.metadata["reused_from"]
    assert reused["group"]["name"] == source and reused["group"]["order"] == 2
    # the generators name the solved group, also one without a name
    cached = next(v for v, G0, _ in cache.values()
                  if [m.tolist() for m in G0.generators] == reused["group"]["generators"])
    S = np.array(reused["signed_permutation"])
    want = cached.u.values.ravel()[_index_table(g, S)].reshape(g.shape)
    assert np.array_equal(sol.u.values, want)
    assert np.array_equal(GroupAction(g, G).project(sol.u.values), sol.u.values)
    assert nodal_domains(sol.u).count == nodal_domains(cached.u).count
    cfg = SolverConfig(params=PARAMS, grid=g, group=G)
    direct = solve(cfg, initial_guess(cfg)[1])
    assert sol.converged == direct.converged == (source == "A1")
    assert sol.energy == pytest.approx(direct.energy, rel=1e-8)


def test_solve_level_shares_embedded_element_set(table24):
    # the rank-3 x1 mirror acts on the grid as A1 does: one cache entry, and
    # the cached solution itself comes back, with no new solve
    _, cache, solves, base = table24
    n_entries, n_solves = len(cache), len(solves)
    a1 = solve_level(named_group("A1"), base, cache)
    assert solve_level(CoxeterGroup([np.diag([-1, 1, 1])]), base, cache) is a1
    assert len(cache) == n_entries and len(solves) == n_solves
