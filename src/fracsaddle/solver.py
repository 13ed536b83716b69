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

The tables are not cached: initial_guess builds the class action for its
start scan and solve builds its own for the descent, so an action and its
order x M^N int64 tables (42.5 MB for B3 at 48^3) are freed when the call
returns.

Every class starts from one Gaussian (initial_guess): centred for the
trivial class, and otherwise rolled by whole nodes into the chamber and
projected, so the start too moves on the lattice and never interpolates.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .coxeter import CoxeterGroup, _embed
from .energy import _action, _evaluate, _force_and_residual, _nehari_factor, _nehari_value
from .energy import nehari_energy
# solve never calls energy(); perfbench/test_perfbench.py names this binding
from .energy import energy as energy_of
from .params import ModelParams, admissible
from .spectral import Field, Grid, _irfftn_in_place
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
    evaluates u(g_i^{-1} x) = (g_i . u)(x).  Nothing in the package keeps an
    action: one lives for one start scan (initial_guess) or one solve.
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


# ---------------------------------------------------------------------------
# Initial guess
# ---------------------------------------------------------------------------

def initial_guess(config: SolverConfig):
    """(start, field): the start of a solve in config's class, which solve
    projects and scales, and its label, "gaussian" or the shift taken.

    The trivial class starts from a centered Gaussian of width L/8.  Any
    other class starts from that Gaussian rolled by the whole nodes
    rint(k q), k = 1, 2, ..., along the unit chamber direction q and
    projected: a signed orbit of Gaussian bumps, moved exactly.  A shift
    that projects to zero is skipped, the scan stops at the first shift
    whose Nehari energy rises, and the least is kept; each candidate costs
    one evaluation.  If no shift survives the projection, the grid is too
    coarse for the class: CollapseToZero.
    """
    grid, G = config.grid, config.group
    gauss = np.exp(-grid.radius() ** 2 / (grid.L / 8.0) ** 2)
    if G.is_trivial():
        return "gaussian", Field(grid, gauss)
    action = GroupAction(grid, G)
    q = G.chamber().interior_point()
    direction = np.zeros(grid.N_dims)
    direction[: G.rank] = q / np.linalg.norm(q)
    start, best, E_best = None, None, np.inf
    shifts = np.rint(np.arange(1, grid.M // 2)[:, None] * direction).astype(np.int64).tolist()
    for shift in dict.fromkeys(map(tuple, shifts)):  # distinct, in order
        cand = Field(grid, action.project(np.roll(gauss, shift, range(grid.N_dims))))
        if np.sqrt(grid.cellvol * np.sum(cand.values**2)) < _ZERO_TOL:
            continue
        E = nehari_energy(cand, config.params)
        if E > E_best:
            break
        start, best, E_best = list(shift), cand, E
    if best is None:
        raise CollapseToZero(f"every whole-node shift of the start projects to zero at M = {grid.M}")
    return start, best


# ---------------------------------------------------------------------------
# Descent loop
# ---------------------------------------------------------------------------

def solve(config: SolverConfig, initial: Field) -> Solution:
    """Minimize the energy over the Nehari set of the symmetric class.

    The start is projected onto the class (CollapseToZero if nothing is
    left), evaluated, and scaled onto the Nehari set; initial_guess's field
    is one.  Each iteration forms the plain image w = P(u - d) of the iterate
    u, where d is the (1 + |xi|^{2s})^{-1}-smoothed gradient and P the class
    projection: the map u -> w is the Petviashvili iteration.  The gradient
    is g = (1 + |xi|^{2s}) u - F with F = (K_alpha * |u|^p)|u|^{p-2} u, so
    u - d = (1 + |xi|^{2s})^{-1} F, and w costs one rfftn of F and one
    irfftn; the residual is a Parseval sum on the half spectrum of g.
    Anderson mixing (Walker & Ni 2011) over the last _DEPTH differences of
    w and of the residual f = w - u proposes w - dW gamma, with gamma the
    least-squares fit of f by dF.  The dW and dF rows are stored as
    float32 and the fit's Gram matrix in float64.  w and every dW row lie
    in the class bitwise (float32 rounding is odd), and the mix is formed
    in float64 by elementwise operations, which round a node and its
    signed images alike, so it needs no second projection.
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
    action = None if config.group.is_trivial() else GroupAction(grid, config.group)

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

    dW = np.empty((_DEPTH,) + grid.shape, np.float32)
    dF = np.empty((_DEPTH,) + grid.shape, np.float32)
    gram = np.empty((_DEPTH, _DEPTH))  # dF row products, summed in float64
    stored = 0  # difference rows filled since the last reset
    w_prev = f_prev = None
    trace = {"residual": [], "energy": [], "step": []}
    residual = np.inf
    iters = 0
    stalled = False
    for iters in range(1, config.max_iters + 1):
        fhat, residual = _force_and_residual(u, ev, grid, mult, p)
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
            # einsum casts the float32 rows in buffered chunks, and unlike
            # F @ F.T it calls no BLAS product; only the row just stored
            # has new products
            F = dF[:m].reshape(m, -1)
            gram[row, :m] = gram[:m, row] = np.einsum("ij,j->i", F, F[row], dtype=np.float64)
            gamma = np.linalg.lstsq(gram[:m, :m], np.einsum("ij,j->i", F, f.ravel()), rcond=None)[0]
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
        ev, E = found
        del found  # else ev's u_hat and convolution outlive ev's dropping them
        tt = _nehari_factor(ev.Q, ev.D, p)
        ev = ev.scaled(tt, p)
        # a plain step's cand is w, which w_prev keeps unscaled
        u = tt * cand if cand is w else np.multiply(cand, tt, out=cand)
    else:
        # out of iterations after a step: report the residual of the returned u
        residual = _force_and_residual(u, ev, grid, mult, p)[1]

    return Solution(
        u=Field(grid, u),
        energy=_action(ev.Q, ev.D, p),
        residual=residual,
        iterations=iters,
        converged=residual <= config.tol,
        metadata={"stalled": stalled, **counts, "trace": trace,
                  "time_seconds": time.perf_counter() - t_start},
    )
