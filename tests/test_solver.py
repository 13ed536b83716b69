import importlib
import tracemalloc

import numpy as np
import pytest

from fracsaddle.analysis import nodal_domains, sign_on_fundamental_domain, solve_level
from fracsaddle.coxeter import CoxeterGroup, _signed_permutations, named_group
from fracsaddle import solver, spectral
from fracsaddle.energy import (
    _evaluate_field,
    _force_hat,
    _nehari_factor,
    _residual,
    energy,
    gradient,
    interaction,
    nehari_energy,
)
from fracsaddle.params import ModelParams
from fracsaddle.solver import (
    CollapseToZero,
    GroupAction,
    SolverConfig,
    get_action,
    initial_guess,
    solve,
    symmetrize,
)
from fracsaddle.spectral import (
    Field,
    Grid,
    fftn,
    hs_norm_sq,
    ifftn,
    irfftn,
    l2_norm_sq,
    rfftn,
    seminorm_sq,
)

from solver_reference import _gradient as reference_gradient
from solver_reference import _residual as reference_residual
from solver_reference import mountain_pass_check
from spectral_reference import multiplier

PARAMS = ModelParams(3, 0.5, 2.0, 2.0)
GROUPS = ["A1", "A1xA1", "A2", "B2", "B3"]


def start(cfg):
    """solve from initial_guess(cfg), the start every class solve takes."""
    return solve(cfg, initial_guess(cfg)[1])


def gaussian(g):
    """The trivial class's start, the centred Gaussian of width L/8."""
    return np.exp(-g.radius() ** 2 / (g.L / 8.0) ** 2)


def chamber_ray(G, M):
    """The distinct whole-node shifts rint(k q), k = 1, ..., M/2 - 1, along
    the unit chamber direction q on a 3-D grid, in order."""
    q = G.chamber().interior_point()
    q = np.pad(q / np.linalg.norm(q), (0, 3 - G.rank))
    shifts = (tuple(np.rint(k * q).astype(int).tolist()) for k in range(1, M // 2))
    return [list(s) for s in dict.fromkeys(shifts)]


def element_row(G, m):
    """The index of element m in G.elements, which orders the action's rows."""
    return next(i for i, g in enumerate(G.elements) if np.array_equal(g, m))


def test_action_table_flip_1d():
    G = named_group("A1")
    action = GroupAction(Grid(1, 8, 4.0), G)
    # node x_k = -2 + k/2 maps to index (8 - k) % 8 under x -> -x
    row = action.tables[element_row(G, [[-1]])]
    assert np.array_equal(row, (8 - np.arange(8)) % 8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_index_table_matches_coordinate_map(k):
    # table[j] = flat index of m x_j: map the node's coordinates, wrap them
    # into [-L/2, L/2) and round back to lattice indices
    g = Grid(k, 8, 4.0)
    x = np.stack([c.ravel() for c in np.meshgrid(*([g.axis_nodes()] * k), indexing="ij")])
    for m in _signed_permutations(k):
        y = np.mod(m @ x + g.L / 2.0, g.L)
        want = np.ravel_multi_index(tuple(np.rint(y / g.h).astype(np.int64) % g.M), g.shape)
        assert np.array_equal(solver._index_table(g, m), want)


def test_action_table_swap_2d(rng):
    g = Grid(2, 8, 4.0)
    vals = rng.standard_normal(g.shape)
    swap = np.array([[0, 1], [1, 0]])
    G = CoxeterGroup([swap])
    row = GroupAction(g, G).tables[element_row(G, swap)]
    assert np.array_equal(vals.ravel()[row].reshape(g.shape), vals.T)


@pytest.mark.parametrize("name", GROUPS)
def test_symmetrize_idempotent_bitwise(name, rng):
    g = Grid(3, 8, 4.0)
    G = named_group(name)
    u = Field(g, rng.standard_normal(g.shape))
    once = symmetrize(u, G)
    twice = symmetrize(once, G)
    assert np.array_equal(once.values, twice.values)


@pytest.mark.parametrize("name", GROUPS)
def test_symmetrize_equivariant_bitwise(name, rng):
    g = Grid(3, 8, 4.0)
    G = named_group(name)
    action = get_action(g, G)
    flat = symmetrize(Field(g, rng.standard_normal(g.shape)), G).values.ravel()
    for i in range(G.order):
        assert np.array_equal(flat[action.tables[i]], action.signs[i] * flat)


def test_symmetrize_kills_even_part():
    g = Grid(3, 8, 4.0)
    x = g.coords()
    even = np.cos(2.0 * np.pi * x[0] / g.L) + x[1] * 0.0 + x[2] * 0.0
    out = symmetrize(Field(g, np.broadcast_to(even, g.shape).copy()), named_group("A1"))
    assert np.all(out.values == 0.0)


def test_symmetrize_trivial_group_returns_a_copy(rng):
    # the class of the trivial group is every field; the result is still a
    # new array, so writing to it leaves the input alone
    g = Grid(3, 8, 4.0)
    u = Field(g, rng.standard_normal(g.shape))
    out = symmetrize(u, named_group("trivial"))
    assert np.array_equal(out.values, u.values)
    assert not np.shares_memory(out.values, u.values)


@pytest.mark.parametrize("name", GROUPS)
def test_symmetrize_vanishes_on_walls(name, rng):
    g = Grid(3, 8, 4.0)
    G = named_group(name)
    out = symmetrize(Field(g, rng.standard_normal(g.shape)), G).values
    C = G.chamber()
    coords = np.stack(np.meshgrid(*([g.axis_nodes()] * 3), indexing="ij"), axis=-1)
    on_wall = np.zeros(g.shape, dtype=bool)
    for n in C.normals:
        n3 = np.zeros(3)
        n3[: len(n)] = n
        on_wall |= np.abs(coords @ n3) < 1e-12
    assert np.all(out[on_wall] == 0.0)


@pytest.mark.parametrize("name", ["trivial", "A1"])
def test_solve_starts_at_the_nehari_energy_of_its_start(name):
    # initial_guess leaves the Nehari scaling to solve, which scales the
    # start once: the first traced energy is the start's own Nehari energy
    g = Grid(3, 16, 8.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group(name), max_iters=1)
    u0 = initial_guess(cfg)[1]
    assert hs_norm_sq(u0, PARAMS.s) != pytest.approx(interaction(u0, PARAMS), rel=1e-3)
    sol = solve(cfg, u0)
    assert sol.metadata["trace"]["energy"][0] == pytest.approx(nehari_energy(u0, PARAMS), rel=1e-13)
    assert sol.metadata["evaluations"] == 2  # the start and one trial
    if name == "trivial":
        assert u0.values.min() > 0.0


def test_init_saddle_rank1_geometry():
    # the Gaussian moved 2 nodes along the x1 axis and made odd: a positive
    # bump at +2h, a negative one at -2h and the wall plane exactly zero
    g = Grid(3, 16, 12.0)
    G = named_group("A1")
    shift, u = initial_guess(SolverConfig(params=PARAMS, grid=g, group=G))
    assert shift == [2, 0, 0]
    vals = u.values
    action = get_action(g, G)
    flat = vals.ravel()
    assert np.array_equal(flat[action.tables[1]], -flat)
    k0 = g.M // 2  # node at x1 = 0
    assert np.all(vals[k0, :, :] == 0.0)
    assert np.unravel_index(np.argmax(vals), g.shape) == (k0 + 2, k0, k0)
    assert np.unravel_index(np.argmin(vals), g.shape) == (k0 - 2, k0, k0)


@pytest.mark.parametrize("name", GROUPS)
def test_init_saddle_symmetry_all_groups(name):
    g = Grid(3, 16, 12.0)
    G = named_group(name)
    u = initial_guess(SolverConfig(params=PARAMS, grid=g, group=G))[1]
    action = get_action(g, G)
    flat = u.values.ravel()
    for i in range(G.order):
        assert np.array_equal(flat[action.tables[i]], action.signs[i] * flat)
    assert np.abs(u.values).max() > 0.0


def test_init_saddle_collapses_below_grid_scale():
    # a bump of width 0.025 at the origin, far below the node spacing h = 0.625,
    # is on the grid one value at the origin node, which is on the wall: the
    # start is even in x1, and the odd class keeps nothing
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("A1"))
    with pytest.raises(CollapseToZero, match="initial field symmetrized to zero"):
        solve(cfg, Field(g, np.exp(-g.radius() ** 2 / 0.025**2)))


@pytest.mark.parametrize("name", ["trivial", *GROUPS])
def test_initial_guess_without_groundstate_is_the_gaussian_start(name):
    # the documented start, rebuilt: the Gaussian itself for the trivial
    # class, else the Gaussian rolled by the whole nodes rint(k q) of its
    # label, on the chamber ray, and projected onto the class
    g = Grid(3, 16, 12.0)
    G = named_group(name)
    label, u = initial_guess(SolverConfig(params=PARAMS, grid=g, group=G))
    if G.is_trivial():
        assert label == "gaussian"
        assert np.array_equal(u.values, gaussian(g))
        return
    assert label in chamber_ray(G, g.M)
    want = symmetrize(Field(g, np.roll(gaussian(g), label, range(3))), G)
    assert np.array_equal(u.values, want.values)


@pytest.mark.parametrize("name", GROUPS)
def test_initial_guess_from_groundstate(name):
    # the start is the trivial class's Gaussian moved along the chamber ray:
    # bitwise in its class, the same on every call, and of least Nehari
    # energy among the shifts the scan looks at, those up to the first rise
    g = Grid(3, 24, 18.0)
    G = named_group(name)
    cfg = SolverConfig(params=PARAMS, grid=g, group=G)
    label, u = initial_guess(cfg)
    assert np.array_equal(symmetrize(u, G).values, u.values)
    again = initial_guess(cfg)
    assert again[0] == label and np.array_equal(again[1].values, u.values)
    energies = []
    for shift in chamber_ray(G, g.M):
        cand = symmetrize(Field(g, np.roll(gaussian(g), shift, range(3))), G)
        if l2_norm_sq(cand) < 1e-20:  # on a wall
            continue
        energies.append(nehari_energy(cand, PARAMS))
        if len(energies) > 1 and energies[-1] > energies[-2]:
            break
    assert nehari_energy(u, PARAMS) == min(energies)


def test_initial_guess_skips_shifts_on_walls(solves24):
    # B3's chamber direction rounds to the nodes (1,1,0), (2,1,1) and (2,2,1)
    # first, each on a wall of the chamber, where the class keeps nothing
    g = Grid(3, 24, 18.0)
    G = named_group("B3")
    cfg = SolverConfig(params=PARAMS, grid=g, group=G)
    walls = chamber_ray(G, g.M)[:3]
    assert walls == [[1, 1, 0], [2, 1, 1], [2, 2, 1]]
    for shift in walls:
        with pytest.raises(CollapseToZero):
            solve(cfg, Field(g, np.roll(gaussian(g), shift, range(3))))
    shift, u = initial_guess(cfg)
    assert shift not in walls and np.abs(u.values).max() > 0.0
    sol = solves24("B3")  # solved from this start
    assert sol.converged and sol.iterations <= 30  # 29 from the Gaussian bump orbit, 21 here


def test_initial_guess_refuses_a_grid_too_coarse_for_the_class():
    # at M = 8 every shift of B3's ray, k = 1, 2, 3, lies on a wall
    cfg = SolverConfig(params=PARAMS, grid=Grid(3, 8, 6.0), group=named_group("B3"))
    with pytest.raises(CollapseToZero, match="at M = 8"):
        initial_guess(cfg)


def test_solver_config_validation():
    g = Grid(3, 8, 4.0)
    G = named_group("trivial")
    with pytest.raises(ValueError):
        SolverConfig(params=PARAMS, grid=g, group=G, tol=0.0)
    # an infinite tol once passed the initial guess off as converged, and a NaN
    # one never converged
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(params=PARAMS, grid=g, group=G, tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(params=PARAMS, grid=g, group=G, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(params=PARAMS, grid=Grid(2, 8, 4.0), group=named_group("B3"))
    # a 2-D grid once solved the N = 2 problem for N = 3 parameters, past the
    # admissibility check that keeps N = 2 experimental
    with pytest.raises(ValueError, match="the grid has 2 dimensions but the problem has N = 3"):
        SolverConfig(params=ModelParams(3, 0.5, 1.5, 2.0), grid=Grid(2, 16, 8.0), group=G)
    N2 = ModelParams(2, 0.5, 1.5, 2.0, experimental=True)
    with pytest.raises(ValueError, match="group acts on 3 coordinates"):
        SolverConfig(params=N2, grid=Grid(2, 8, 4.0), group=named_group("B3"))
    # p = 2 is the upper critical exponent (N + alpha)/(N - 2s) here
    with pytest.raises(ValueError):
        SolverConfig(params=ModelParams(3, 0.5, 1.0, 2.0), grid=g, group=G)


def test_solve_groundstate_smoke():
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), tol=1e-5)
    sol = start(cfg)
    assert sol.converged
    assert sol.residual <= 1e-5
    assert sol.energy > 0.0
    assert sol.iterations <= cfg.max_iters
    assert sol.metadata["stalled"] is False
    assert sol.u.grid == g
    # metadata holds what the solve measured; its inputs are in cfg
    assert set(sol.metadata) == {"stalled", "mixes_accepted", "mixes_rejected",
                                 "evaluations", "trace", "time_seconds"}
    # the converged energy is the Nehari value of its own field
    assert nehari_energy(sol.u, PARAMS) == pytest.approx(sol.energy, rel=1e-8)


def test_solve_residual_at_iteration_cap():
    # stopping at max_iters after a step: residual and converged describe the
    # returned field, while the trace keeps the state each iteration started from
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), max_iters=3)
    sol = start(cfg)
    assert sol.iterations == 3 and not sol.converged
    u = sol.u.values
    grad = gradient(sol.u, PARAMS).values
    ray = float(np.sum(grad * u)) / float(np.sum(u * u))
    want = np.sqrt(np.sum((grad - ray * u) ** 2) / np.sum(u * u))
    assert sol.residual == pytest.approx(want, rel=1e-10)
    assert sol.metadata["trace"]["residual"][-1] != pytest.approx(want, rel=1e-3)


def test_caches_are_bounded_lru():
    A1 = named_group("A1")
    for cache, fetch in (
        (spectral._kernel_cache, lambda g: spectral._kernel_transform(g, 0.5)),
        (solver._action_cache, lambda g: get_action(g, A1)),
    ):
        n = cache.size
        grids = [Grid(1, 8 + 2 * k, 4.0) for k in range(n + 1)]
        built = [fetch(g) for g in grids[:n]]
        assert fetch(grids[0]) is built[0]  # a hit makes grids[0] the newest
        fetch(grids[n])  # one past the bound drops grids[1], the oldest
        assert len(cache.entries) == n
        assert fetch(grids[0]) is built[0]
        assert fetch(grids[n - 1]) is built[n - 1]
        assert fetch(grids[1]) is not built[1]


def _pohozaev_residual(u, P):
    s, N = P.s, P.N
    lhs = (N - 2 * s) / 2 * seminorm_sq(u, s) + N / 2 * l2_norm_sq(u)
    rhs = (N + P.alpha) / (2 * P.p) * interaction(u, P)
    return abs(lhs - rhs) / rhs


def test_solve_groundstate_alpha1():
    # alpha != 2 with s != 1/2; s = 3/4 keeps p = 2 below the critical
    # exponent (N + alpha)/(N - 2s) = 8/3.  The Pohozaev identity
    # (N-2s)/2 [u]^2 + N/2 ||u||^2 = (N+alpha)/(2p) D(u) is not enforced by the
    # solver; its residual measured 4.7e-3 here.
    P = ModelParams(3, 0.75, 1.0, 2.0)
    g = Grid(3, 32, 12.0)
    sol = start(SolverConfig(params=P, grid=g, group=named_group("trivial")))
    assert sol.converged
    assert nodal_domains(sol.u).count == 1
    assert sol.energy > 0.0
    assert _pohozaev_residual(sol.u, P) <= 6e-3


# p != 2 and s = 1/4; each Pohozaev bound sits above the residual measured
# here: p = 2.5 A1 3.4e-4 (20 iterations), p = 2.5 groundstate 3.7e-3
# (12 iterations), s = 1/4 A1 3.1e-4 (30 iterations).  Coarser boxes are
# under-resolved and still report converged: the p = 2.5 groundstate at
# M = 24 splits into 13 (L = 18) or 7 (L = 12) nodal domains.
@pytest.mark.parametrize("s, alpha, p, name, M, L, pohozaev", [
    (0.75, 2.0, 2.5, "A1", 24, 12.0, 5e-4),
    (0.75, 2.0, 2.5, "trivial", 32, 12.0, 5e-3),
    (0.25, 2.5, 2.0, "A1", 24, 18.0, 5e-4),
])
def test_solve_beyond_p2_and_s_half(s, alpha, p, name, M, L, pohozaev):
    P = ModelParams(3, s, alpha, p)
    g = Grid(3, M, L)
    G = named_group(name)
    cfg = SolverConfig(params=P, grid=g, group=G)
    sol = start(cfg)
    assert sol.converged
    assert nodal_domains(sol.u).count == G.order
    if not G.is_trivial():
        assert sign_on_fundamental_domain(sol.u, G)
    assert _pohozaev_residual(sol.u, P) <= pohozaev
    # the production path, which the CLI takes, returns the same field; a
    # saddle once started from this grid's solved groundstate here, whose
    # artifacts left Pohozaev residuals of 2.2e-2 (p = 2.5) and 5.1e-4 (s = 1/4)
    level = solve_level(G, cfg)
    assert np.array_equal(level.u.values, sol.u.values)
    assert _pohozaev_residual(level.u, P) <= pohozaev


@pytest.fixture(scope="module")
def solves24():
    """Converged solves at N=3, M=24, L=18, one per class, made on first use."""
    g = Grid(3, 24, 18.0)
    done = {}

    def get(name):
        if name not in done:
            done[name] = start(SolverConfig(params=PARAMS, grid=g, group=named_group(name)))
        return done[name]

    return get


@pytest.mark.parametrize("name", ["trivial", "A1"])
def test_solve_descent_invariants(name, solves24):
    sol = solves24(name)
    meta = sol.metadata
    trace = meta["trace"]
    assert sol.converged
    assert len(trace["residual"]) == len(trace["energy"]) == len(trace["step"]) == sol.iterations
    assert trace["residual"][-1] == sol.residual
    # every accepted step, mixed or plain, strictly lowers the Nehari energy
    assert np.all(np.diff(trace["energy"]) < 0.0)
    assert trace["energy"][-1] == pytest.approx(sol.energy, rel=1e-12)
    steps = trace["step"]
    assert steps[-1] is None and None not in steps[:-1]
    assert set(steps[:-1]) <= {"mixed", "plain"}
    assert meta["mixes_accepted"] == steps.count("mixed")
    # one evaluation for the start, one per trial: a rejected mix costs one more
    assert meta["evaluations"] == sol.iterations + meta["mixes_rejected"]


def test_solve_stall_costs_one_evaluation(monkeypatch):
    # without the rounding slack in the energy safeguard, tol 1e-9 is below
    # the rounding floor of the Nehari energy here: the plain step stops
    # descending after 22 iterations at residual 2.3e-9
    monkeypatch.setattr(solver, "_SLACK", 0)
    g = Grid(3, 24, 18.0)
    sol = start(SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), tol=1e-9))
    meta = sol.metadata
    assert meta["stalled"] and not sol.converged
    assert meta["trace"]["step"][-1] is None
    # the start, one trial per step, one per rejected mix and the failed plain step
    assert meta["evaluations"] == sol.iterations + meta["mixes_rejected"] + 1


@pytest.mark.parametrize("name", ["trivial", "A1", "B2"])
def test_solve_converges_below_the_rounding_floor(name, solves24):
    # tol 1e-9 stalled here after 23, 48 and 65 iterations, at residuals of
    # 3.5e-9 to 4.7e-9, while the safeguard asked for a strict fall of E;
    # with the slack the three converge in 23, 50 and 79 iterations
    g = Grid(3, 24, 18.0)
    sol = start(SolverConfig(params=PARAMS, grid=g, group=named_group(name), tol=1e-9))
    assert sol.converged and not sol.metadata["stalled"]
    assert sol.residual <= 1e-9
    E = np.array(sol.metadata["trace"]["energy"])
    assert np.all(np.diff(E) < solver._SLACK * np.finfo(float).eps * np.abs(E[:-1]))
    assert sol.energy == pytest.approx(solves24(name).energy, rel=1e-10)


def test_solve_groundstate_is_accelerated(solves24):
    # the plain fixed-point descent needs 129 iterations here; Anderson mixing 13
    sol = solves24("trivial")
    assert sol.converged
    assert sol.iterations <= 30
    assert sol.metadata["mixes_accepted"] >= sol.iterations // 2


# Pohozaev residuals measured here: A2 2.6e-3; B3 3.4e-2, set by the box, not
# the mesh: B3's face mass (max |u| on the faces over max |u|) is 0.21, M = 32
# at the same L measures 3.4e-2 again, and L = 24 measures 1.2e-2.
@pytest.mark.parametrize("name, pohozaev", [("A2", 3.5e-3), ("B3", 4.5e-2)])
def test_solve_saddle_rank_beyond_two(name, pohozaev, solves24):
    G = named_group(name)
    sol = solves24(name)
    assert sol.converged
    assert nodal_domains(sol.u).count == G.order
    assert sign_on_fundamental_domain(sol.u, G)
    assert _pohozaev_residual(sol.u, PARAMS) <= pohozaev


def test_solve_restart_is_stable():
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), tol=1e-5)
    sol = start(cfg)
    again = solve(cfg, sol.u)
    assert again.iterations == 1
    assert again.energy == pytest.approx(sol.energy, rel=1e-10)


def test_solve_saddle_smoke():
    g = Grid(3, 16, 10.0)
    G = named_group("A1")
    cfg = SolverConfig(params=PARAMS, grid=g, group=G, tol=1e-5)
    sol = start(cfg)
    assert sol.converged
    # stays in the odd class, bitwise
    action = get_action(g, G)
    flat = sol.u.values.ravel()
    assert np.array_equal(flat[action.tables[1]], -flat)
    # costs more than the free minimum
    free = start(SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), tol=1e-5))
    assert sol.energy > free.energy


def test_solve_rejects_zero_class():
    g = Grid(3, 16, 10.0)
    G = named_group("A1")
    cfg = SolverConfig(params=PARAMS, grid=g, group=G, tol=1e-5)
    x = g.coords()
    even = np.exp(-(x[0] ** 2 + x[1] ** 2 + x[2] ** 2))
    with pytest.raises(CollapseToZero):
        solve(cfg, Field(g, even))


def test_mountain_pass_peak_at_one():
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"), tol=1e-5)
    sol = start(cfg)
    peak = mountain_pass_check(sol, PARAMS)
    assert peak == pytest.approx(energy(sol.u, PARAMS).total, rel=1e-9)


@pytest.mark.parametrize("kind", ["smooth", "B2", "A1 solution"])
def test_spectral_residual_and_plain_image_match_real_space(kind, rng):
    # the residual and the plain image are formed on the rfftn half from
    # F = (K * |u|^p)|u|^{p-2} u; the oracle forms g in real space from the
    # full complex spectrum and takes w = P(u - B^{-1} g)
    g = Grid(3, 16, 10.0)
    G = None if kind == "smooth" else named_group(kind.split()[0])
    if kind == "A1 solution":
        sol = start(SolverConfig(params=PARAMS, grid=g, group=G))
        assert sol.converged
        u = sol.u
    else:
        noise = rng.standard_normal(g.shape)
        u = Field(g, irfftn(rfftn(noise) * np.exp(-0.3 * g.half_freq_norm_sq()), g.shape))
        if G is not None:
            u = symmetrize(u, G)
        ev, _ = _evaluate_field(u, PARAMS)
        u = Field(g, _nehari_factor(ev.Q, ev.D, PARAMS.p) * u.values)
    ev, mult = _evaluate_field(u, PARAMS)
    fhat = _force_hat(u.values, ev, PARAMS.p)
    got = _residual(g, (1.0 + mult) * ev.uhat - fhat, ev.uhat)
    full = multiplier(g, PARAMS.s)
    grad = reference_gradient(u.values, ev._replace(uhat=fftn(u.values)), full, PARAMS.p)
    want = reference_residual(grad, u.values)
    # the residual is relative to ||u||, and both routes round g at about
    # eps ||u||: at a converged field (residual ~1e-6) that floor is the
    # absolute term, not the relative one
    assert got == pytest.approx(want, rel=1e-12, abs=1e-16)
    project = (lambda v: v) if G is None else get_action(g, G).project
    w = project(irfftn(fhat / (1.0 + mult), g.shape))
    old = project(u.values - ifftn(fftn(grad) / (1.0 + full)).real)
    assert np.abs(w - old).max() <= 1e-13 * np.abs(old).max()


@pytest.mark.parametrize("name", ["trivial", "A1"])
def test_solve_transform_count(name, monkeypatch):
    # one rfftn per evaluation; per iteration one rfftn of the force and,
    # unless the iteration converged, one irfftn for the plain image; no
    # full complex transform
    g = Grid(3, 16, 10.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group(name))
    init = initial_guess(cfg)[1]
    calls = dict.fromkeys(("fftn", "ifftn", "rfftn", "irfftn"), 0)

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each module's transform bindings and the transform each one counts as;
    # every transform binding a module holds must be listed, so a renamed or
    # added import fails here instead of going uncounted
    bindings = {
        importlib.import_module("fracsaddle.energy"): {"rfftn": "rfftn", "irfftn": "irfftn"},
        solver: {"fftn": "fftn", "ifftn": "ifftn", "_irfftn_in_place": "irfftn"},
    }
    for mod, names in bindings.items():
        assert {n for n in vars(mod) if "fft" in n} == set(names)
        for name, kind in names.items():
            monkeypatch.setattr(mod, name, counted(kind, getattr(mod, name)))
    sol = solve(cfg, init)
    assert sol.converged
    assert calls["fftn"] == calls["ifftn"] == 0
    assert calls["rfftn"] == sol.metadata["evaluations"] + sol.iterations
    assert calls["irfftn"] <= sol.iterations


@pytest.mark.parametrize("name", ["A1xA1", "B2", "B3"])
def test_solve_evaluates_class_members_only(name, monkeypatch):
    # the Anderson mix is formed without projecting it again, so every field
    # the solve evaluates must already be a fixed point of the projection;
    # B3 negates every axis, so every float32 history row is rounded at
    # signed images of each node
    g = Grid(3, 16, 10.0)
    G = named_group(name)
    action = get_action(g, G)
    evaluate = solver._evaluate
    in_class = []

    def checked(values, *args):
        in_class.append(np.array_equal(action.project(values), values))
        return evaluate(values, *args)

    monkeypatch.setattr(solver, "_evaluate", checked)
    sol = start(SolverConfig(params=PARAMS, grid=g, group=G))
    assert sol.converged and sol.metadata["mixes_accepted"] >= 1
    assert len(in_class) == sol.metadata["evaluations"] and all(in_class)


def test_solve_working_set():
    # traced peak of a 48^3 groundstate solve, kernel built beforehand: 21.5 MB
    # with float64 Anderson rows, the unscaled accepted evaluation kept and
    # the whole (M, M, 2M) irfft output; 13.6 MB with float32 rows, in-place
    # rescaling and the irfft in chunks.  The bound leaves about 10%.
    g = Grid(3, 48, 24.0)
    cfg = SolverConfig(params=PARAMS, grid=g, group=named_group("trivial"))
    init = initial_guess(cfg)[1]
    spectral._kernel_transform(g, PARAMS.alpha)
    tracemalloc.start()
    try:
        sol = solve(cfg, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak <= 15.0e6, peak
