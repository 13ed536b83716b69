"""Symmetrization, the initial guess, and the Nehari-projected descent loop.

Symmetrization is the linchpin: the saddle classes are defined by the exact
relation u(g x) = phi(g) u(x), and a floating-point average over the group
would only satisfy it to rounding error, which the descent flow then
amplifies.  The projection here is therefore built from integer index
tables: each node stores which canonical orbit representative feeds it and
with which sign, so projecting is a gather, one averaged value per orbit,
and a signed scatter.  Idempotence and equivariance hold bitwise.

Lattice nodes fixed by an orientation-reversing element (reflection walls,
including the periodic identification of the -L/2 faces) can only carry the
value 0 and are pinned there.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .coxeter import CoxeterGroup, _embed
from .energy import _action, _evaluate, _force_hat, _gradient_hat
from .energy import _nehari_factor, _nehari_value, _residual
# solve never calls energy(); perfbench/test_perfbench.py names this binding
from .energy import energy as energy_of
from .params import ModelParams, admissible
from .spectral import _LRU, Field, Grid, _irfftn_in_place
# solve never calls fftn or ifftn; perfbench/test_perfbench.py names these bindings
from .spectral import fftn, ifftn

_ZERO_TOL = 1e-10
_DEPTH = 5  # Anderson history: 3, 5 and 10 all converge under the energy safeguard
# A candidate passes the energy safeguard if its Nehari energy is below
# E + _SLACK eps |E|.  Near the minimum E - E* ~ c r^2 at residual r, so at
# r ~ 1e-9 good steps change E by about its rounding, which Q and D carry
# from sums over every node; a strict cE < E stalled tol 1e-9 at 24^3.
_SLACK = 64


class CollapseToZero(Exception):
    """The symmetric class lost all mass during projection or descent."""


@dataclass
class SolverConfig:
    params: ModelParams
    grid: Grid
    group: CoxeterGroup
    max_iters: int = 2000
    tol: float = 1e-6
    R: float | None = None  # saddle bump scale; None picks initial_guess's default

    def __post_init__(self):
        if self.grid.N_dims != self.params.N:
            raise ValueError(
                f"the grid has {self.grid.N_dims} dimensions but the problem "
                f"has N = {self.params.N}"
            )
        if not admissible(self.params):
            raise ValueError(f"inadmissible problem parameters {self.params}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite; got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.group.rank > self.grid.N_dims:
            raise ValueError(
                f"group acts on {self.group.rank} coordinates but the grid "
                f"has only {self.grid.N_dims}"
            )


@dataclass
class Solution:
    u: Field
    energy: float
    residual: float
    iterations: int
    converged: bool
    metadata: dict = field(default_factory=dict)


def _index_table(grid: Grid, m: np.ndarray) -> np.ndarray:
    """Flat source indices: table[j] = flat index of m x_j (periodic).

    Axis r of the source index is the node's index on the axis c with
    m[r, c] != 0, negated where m[r, c] = -1.  With x_k = -L/2 + k h, the
    negated node -x_k sits at index (M - k) % M.  On np.arange(n) shaped
    like the grid, the negation is a flip of axis r and a roll by one, and
    the choice of axes is a transpose, so signed permutations act exactly
    on indices and never interpolate.
    """
    a = np.arange(grid.n_nodes).reshape(grid.shape)
    for r in np.flatnonzero(m.sum(axis=1) < 0):
        a = np.roll(np.flip(a, r), 1, r)
    return a.transpose(np.abs(m).argmax(axis=0)).ravel()


class GroupAction:
    """Precomputed index machinery for one (grid, group) pair.

    tables[i][j] = flat index of g_i^{-1} x_j, so a gather along tables[i]
    evaluates u(g_i^{-1} x) = (g_i . u)(x).
    """

    def __init__(self, grid: Grid, group: CoxeterGroup):
        if group.rank > grid.N_dims:
            raise ValueError(
                f"group acts on {group.rank} coordinates but the grid "
                f"has only {grid.N_dims}"
            )
        self.grid = grid
        self.group = group
        n = grid.n_nodes
        order = group.order
        self.signs = group.signs.astype(np.float64)
        self.tables = np.empty((order, n), dtype=np.int64)
        for i, g in enumerate(group.elements):
            self.tables[i] = _index_table(grid, _embed(g.T, grid.N_dims))
        # nodes fixed by any orientation-reversing element must vanish
        self_idx = np.arange(n)
        wall = np.zeros(n, dtype=bool)
        for i in range(order):
            if self.signs[i] < 0:
                wall |= self.tables[i] == self_idx
        self.wall = wall
        # canonical orbit representatives: the smallest flat index per orbit
        rep = self.tables.min(axis=0)
        self.rep_sel = np.flatnonzero((rep == self_idx) & ~wall)
        self.gather = self.tables[:, self.rep_sel]

    def project(self, values: np.ndarray) -> np.ndarray:
        """P_G u = (1/|G|) sum_g phi(g) u(g^{-1} x), exactly idempotent.

        Averages once per orbit, then scatters the value back through the
        group with the sign character.  The base term is row 0, the identity
        (CoxeterGroup.elements lists it first), so a field already in the
        range passes through bitwise.
        """
        flat = values.ravel()
        rows = self.signs[:, None] * flat[self.gather]
        base = rows[0]
        v = base + (rows - base).sum(axis=0) / len(self.signs)
        out = np.empty_like(flat)
        for i in range(len(self.signs)):
            out[self.gather[i]] = self.signs[i] * v
        out[self.wall] = 0.0
        return out.reshape(values.shape)


# An energy table over trivial, A1, A1xA1 and B2 builds 4 distinct actions.
_action_cache = _LRU(8)


def get_action(grid: Grid, group: CoxeterGroup) -> GroupAction:
    """The cached action of group's element set embedded into grid's axes.

    Groups of any rank that act alike on the grid share one action.  Its rows
    follow the element order of the group that built it, so index
    action.tables with action.signs, not with another group's element order.
    Conjugate groups have other tables and are keyed apart.
    """
    return _action_cache.lookup(
        (grid, group.fingerprint(grid.N_dims)), lambda: GroupAction(grid, group)
    )


def symmetrize(u: Field, G: CoxeterGroup) -> Field:
    """Project onto the class {u : u(g x) = phi(g) u(x)}."""
    if G.is_trivial():
        return u.copy()
    return Field(u.grid, get_action(u.grid, G).project(u.values))


# ---------------------------------------------------------------------------
# Initial guess
# ---------------------------------------------------------------------------

def separation_factor(G: CoxeterGroup, q: np.ndarray) -> float:
    """Smallest l with l * (min pairwise distance of the orbit of q) >= 6.

    q is a unit vector inside the chamber, so its stabilizer is trivial and
    its |G| images g q are distinct.
    """
    pts = G.elements @ q
    d = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((d**2).sum(axis=2))
    m = dist[dist > 1e-9].min()
    return 6.0 / m


def initial_guess(config: SolverConfig) -> Field:
    """The start of a solve in config's class; solve projects and scales it.

    The trivial class starts from a centered Gaussian of width L/8.  Any
    other class takes a unit direction q through the chamber interior and
    places one Gaussian of width R/2 at l_G R q, at minimum-image distance
    in the periodic box; the class projection then builds the signed orbit
    exactly, a bump of sign phi(g) at each g l_G R q.  The rank-1 case
    reduces to two opposite bumps at +-3R along the wall normal.  R is
    config.R, or by default the largest comfortable bump scale: capped at
    L/8 and kept clear of the wrap guard l_G R <= L/2 - 3R.
    """
    grid, G = config.grid, config.group
    if G.is_trivial():
        sigma = grid.L / 8.0
        return Field(grid, np.exp(-grid.radius() ** 2 / sigma**2))
    q = G.chamber().interior_point()
    q = q / np.linalg.norm(q)
    ell = separation_factor(G, q)
    R = config.R
    if R is None:
        R = min(grid.L / 8.0, 0.9 * (grid.L / 2.0) / (ell + 3.0))
    if not 0.0 < R < grid.L / 4.0:
        raise ValueError(f"R must lie in (0, L/4); got {R}")
    if ell * R > grid.L / 2.0 - 3.0 * R:
        raise ValueError(
            f"placement radius {ell * R:.3f} exceeds L/2 - 3R = "
            f"{grid.L / 2.0 - 3.0 * R:.3f}; shrink R"
        )
    center = np.zeros(grid.N_dims)
    center[: G.rank] = ell * R * q
    L = grid.L
    offsets = (np.mod(x - c + L / 2.0, L) - L / 2.0 for x, c in zip(grid.coords(), center))
    return symmetrize(Field(grid, np.exp(-sum(d**2 for d in offsets) / (R / 2.0) ** 2)), G)


# ---------------------------------------------------------------------------
# Descent loop
# ---------------------------------------------------------------------------

def solve(config: SolverConfig, initial: Field) -> Solution:
    """Minimize the energy over the Nehari set of the symmetric class.

    The start is projected onto the class (CollapseToZero if nothing is
    left), evaluated, and scaled onto the Nehari set; initial_guess gives
    one.  Each iteration forms the plain image w = P(u - d) of the iterate
    u, where d is the (1 + |xi|^{2s})^{-1}-smoothed gradient and P the class
    projection: the map u -> w is the Petviashvili iteration.  The gradient
    is g = (1 + |xi|^{2s}) u - F with F = (K_alpha * |u|^p)|u|^{p-2} u, so
    u - d = (1 + |xi|^{2s})^{-1} F, and w costs one rfftn of F and one
    irfftn; the residual is a Parseval sum on the half spectrum of g.
    Anderson mixing (Walker & Ni 2011) over the last _DEPTH differences of
    w and of the residual f = w - u proposes w - dW gamma, with gamma the
    least-squares fit of f by dF.  w and every dW row lie in the class
    bitwise, and the mix is formed by elementwise operations, which round a
    node and its signed images alike, so it needs no second projection.
    A candidate is accepted, and rescaled onto the Nehari set, only if its
    interaction D is positive and its closed-form Nehari energy is below
    the current one, up to _SLACK rounding units.  A rejected mix
    clears the history and falls back to the plain step w under the same
    test; the Petviashvili step needs no step control inside the basin
    (Pelinovsky & Stepanyants 2004), so if w fails too the solve stops with
    metadata["stalled"] set.  Convergence is declared on the plain L^2
    gradient residual projected orthogonal to the ray direction.  The
    returned residual and converged flag are those of the returned field,
    also when the loop stops at max_iters after a step.

    metadata["trace"] holds, per iteration, the residual and the Nehari
    energy of the iterate the iteration starts from, and the kind of step
    taken ("mixed", "plain", or None when the iteration converged or
    stalled); the counters hold the accepted and rejected mixes and the
    functional evaluations (one padded convolution each).
    """
    t_start = time.perf_counter()
    params, grid = config.params, config.grid
    p = params.p
    action = None if config.group.is_trivial() else get_action(grid, config.group)

    def project(vals):
        return vals if action is None else action.project(vals)

    mult = grid.half_freq_norm_sq() ** params.s
    precond = 1.0 / (1.0 + mult)

    u = project(initial.values)
    norm = np.sqrt(float(grid.cellvol * np.sum(u**2)))
    if norm < _ZERO_TOL:
        raise CollapseToZero("initial field symmetrized to zero")
    ev = _evaluate(u, grid, params, mult)
    if ev.D <= 0.0:
        raise ValueError("initial field has no interaction mass")
    t = _nehari_factor(ev.Q, ev.D, p)
    u, ev = t * u, ev.scaled(t, p)
    E = _nehari_value(ev.Q, ev.D, p)
    counts = {"mixes_accepted": 0, "mixes_rejected": 0, "evaluations": 1}

    def descends(cand):
        """The evaluation and Nehari energy of cand if it lowers E, else None."""
        counts["evaluations"] += 1
        cev = _evaluate(cand, grid, params, mult)
        if cev.D > 0.0:
            cE = _nehari_value(cev.Q, cev.D, p)
            if cE < E + _SLACK * np.finfo(float).eps * abs(E):
                return cev, cE
        return None

    dW = np.empty((_DEPTH,) + grid.shape)
    dF = np.empty((_DEPTH,) + grid.shape)
    stored = 0  # difference rows filled since the last reset
    w_prev = f_prev = None
    trace = {"residual": [], "energy": [], "step": []}
    residual = np.inf
    iters = 0
    stalled = False
    for iters in range(1, config.max_iters + 1):
        fhat = _force_hat(u, ev, p)
        residual = _residual(grid, _gradient_hat(ev, mult, fhat), ev.uhat)
        # the trial evaluations below set the peak memory, and u_hat and the
        # convolution are dead once the force is formed; Q and D stay, for
        # the energy of a converged or stalled solve
        ev = ev._replace(uhat=None, conv=None)
        trace["residual"].append(residual)
        trace["energy"].append(E)
        if residual <= config.tol:
            trace["step"].append(None)
            break

        w = project(_irfftn_in_place(precond * fhat, grid.shape))
        del fhat  # likewise
        f = w - u
        if w_prev is not None:
            row = stored % _DEPTH
            np.subtract(w, w_prev, out=dW[row])
            np.subtract(f, f_prev, out=dF[row])
            stored += 1
        w_prev, f_prev = w, f

        kind, found = None, None
        m = min(stored, _DEPTH)
        if m:
            F = dF[:m].reshape(m, -1)
            gamma = np.linalg.lstsq(F @ F.T, F @ f.ravel(), rcond=None)[0]
            cand = w.copy()
            for k in range(m):
                cand -= gamma[k] * dW[k]
            found = descends(cand)
            if found:
                kind = "mixed"
                counts["mixes_accepted"] += 1
            else:
                counts["mixes_rejected"] += 1
                stored = 0
        if not found:
            if float(np.sum(w**2)) * grid.cellvol < _ZERO_TOL**2:
                raise CollapseToZero("iterate symmetrized to zero")
            cand = w
            found = descends(cand)
            if found:
                kind = "plain"
        trace["step"].append(kind)
        if not found:
            stalled = True
            break
        cev, E = found
        tt = _nehari_factor(cev.Q, cev.D, p)
        u, ev = tt * cand, cev.scaled(tt, p)
    else:
        # out of iterations after a step: report the residual of the returned u
        residual = _residual(grid, _gradient_hat(ev, mult, _force_hat(u, ev, p)), ev.uhat)

    elapsed = time.perf_counter() - t_start
    meta = {
        "params": {"N": params.N, "s": params.s, "alpha": params.alpha, "p": params.p},
        "grid": {"M": grid.M, "L": grid.L, "N_dims": grid.N_dims},
        "group": {"name": config.group.name, "order": config.group.order},
        "tol": config.tol,
        "max_iters": config.max_iters,
        "stalled": stalled,
        **counts,
        "trace": trace,
        "time_seconds": elapsed,
        "time_per_iteration": elapsed / max(iters, 1),
    }
    return Solution(
        u=Field(grid, u),
        energy=_action(ev.Q, ev.D, p),
        residual=residual,
        iterations=iters,
        converged=residual <= config.tol,
        metadata=meta,
    )
