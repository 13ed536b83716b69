"""Post-hoc checks on computed fields: nodal structure, tail decay, chamber
sign, and the energy comparison table for the saddle existence chain."""

from dataclasses import dataclass, fields, replace

import numpy as np

from .coxeter import CoxeterGroup
from .energy import _action, _evaluate_field, _force_and_residual
from .solver import SolverConfig, _index_table, initial_guess, solve
from .spectral import Field

# Nodes with |u| at or below this fraction of max |u| count as the nodal set.
_EPS_REL = 1e-3


@dataclass(frozen=True)
class NodalReport:
    count: int
    component_sizes: list
    threshold: float


def _label(mask: np.ndarray) -> np.ndarray:
    """Face-connected components of a boolean mask, without wrap-around.

    0 off the mask; the components are numbered 1, 2, ... in the C order of
    their first voxel, as scipy.ndimage.label numbers them.  Union-find on
    the edges between face neighbours, one vectorized round at a time: every
    edge whose ends have different roots hooks the larger root onto the
    smaller, then every pointer jumps to its root.  A pointer never points
    to a larger index, so each root ends as its component's first voxel.
    """
    ids = np.arange(mask.size).reshape(mask.shape)
    a, b = [], []
    for ax in range(mask.ndim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        both = mask[lo] & mask[hi]
        a.append(ids[lo][both])
        b.append(ids[hi][both])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(mask.size)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
    labels = np.zeros(mask.shape, np.int64)
    labels[mask] = np.unique(parent[mask.ravel()], return_inverse=True)[1] + 1
    return labels


def nodal_domains(u: Field) -> NodalReport:
    """Count connected components of {u > eps} and {u < -eps} separately.

    Face adjacency, non-periodic at the box boundary: the box truncates
    whole space, and wrap adjacency would merge components through the tail
    region.  Component sizes are reported so spurious slivers can be
    flagged by the caller.
    """
    amax = float(np.abs(u.values).max())
    if amax == 0.0:
        raise ValueError("nodal_domains needs a nonzero field")
    eps = _EPS_REL * amax
    sizes = []
    for mask in (u.values > eps, u.values < -eps):
        labels = _label(mask)
        sizes.extend(np.bincount(labels.ravel())[1:].tolist())
    sizes.sort(reverse=True)
    return NodalReport(count=len(sizes), component_sizes=sizes, threshold=eps)


def decay_exponent(u: Field, r_min_frac: float = 0.2, r_max_frac: float = 0.4) -> float:
    """Log-log slope of the radial max of |u| over shells of width h.

    The window is capped at 0.45 L because minimum-image geometry and the
    periodic images contaminate radii close to L/2.  A field whose max |u|
    sits at or beyond the window's inner edge is refused: the window then
    cuts through the bump cores, and its slope measures their arrangement,
    not a tail.
    """
    if not 0.0 < r_min_frac < r_max_frac <= 0.45:
        raise ValueError(
            f"need 0 < r_min_frac < r_max_frac <= 0.45; got "
            f"({r_min_frac}, {r_max_frac})"
        )
    grid = u.grid
    r = grid.radius().ravel()
    a = np.abs(u.values).ravel()
    lo, hi = r_min_frac * grid.L, r_max_frac * grid.L
    r_peak = float(r[np.argmax(a)])
    if r_peak >= lo:
        raise ValueError(
            f"max |u| at |x| = {r_peak:.3g} is at or beyond the fit window's "
            f"inner edge {lo:.3g}, so the window holds no tail"
        )
    shell = np.floor(r / grid.h).astype(np.int64)
    nsh = int(shell.max()) + 1
    shell_max = np.zeros(nsh)
    np.maximum.at(shell_max, shell, a)
    centers = (np.arange(nsh) + 0.5) * grid.h
    sel = (centers >= lo) & (centers <= hi) & (shell_max > 0)
    if sel.sum() < 5:
        raise ValueError(f"only {int(sel.sum())} populated shells in the fit window")
    slope = np.polyfit(np.log(centers[sel]), np.log(shell_max[sel]), 1)[0]
    return float(slope)


def sign_on_fundamental_domain(u: Field, G: CoxeterGroup) -> bool:
    """True iff nodes strictly inside the chamber with |u| above threshold
    share a single sign."""
    amax = float(np.abs(u.values).max())
    if amax == 0.0:
        return False
    eps = _EPS_REL * amax
    C = G.chamber()
    k = C.normals.shape[1]
    x = u.grid.coords()
    inside = np.ones(u.grid.shape, dtype=bool)
    tol = 1e-9 * u.grid.L
    for n in C.normals:
        d = sum(n[c] * x[c] for c in range(k))
        inside &= d > tol
    vals = u.values[inside]
    vals = vals[np.abs(vals) > eps]
    if vals.size == 0:
        return True
    return bool(np.all(vals > 0) or np.all(vals < 0))


# ---------------------------------------------------------------------------
# Energy comparison table
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    group: str
    c_G: float
    c_star: float
    margin: float
    verified: bool
    converged: bool


def _breakup_levels(G: CoxeterGroup):
    """(|O_x|, S_x) for the chamber points x whose breakups bound G's level.

    A chamber point is fixed exactly by the simple reflections whose walls
    hold it (Steinberg): an interior point by none (orbit |G|) and, with two
    walls or more, a point inside one wall by that wall's mirror (orbit
    |G|/2); a single wall holds only the origin, which is no breakup.  Each
    normal is e_i or e_i +- e_j, so the rounded mirror is exact.
    """
    if G.is_trivial():
        return []
    normals = G.chamber().normals
    levels = [(G.order, CoxeterGroup.trivial(G.rank))]
    if len(normals) >= 2:
        for n in normals:
            r = np.rint(np.eye(G.rank) - 2.0 * np.outer(n, n) / (n @ n)).astype(np.int64)
            levels.append((G.order // 2, CoxeterGroup([r])))
    return levels


def solve_level(group: CoxeterGroup, base: SolverConfig, cache: dict | None = None):
    """Solve the symmetric minimization for `group` on base's grid/params.

    The groundstate and saddle commands and energy_table solve here.
    Results are memoized in `cache` (keyed by the group's lattice-conjugacy
    class, CoxeterGroup.canonical_form on the grid's axes, and every other
    field of base, since each can change the answer) so a table run and its
    breakup candidates share solves; pass the same dict across calls to
    reuse them.  A group conjugate to a solved one gets the solved field
    moved by index (see _conjugate); a group with the same embedded element
    set gets the cached object itself.  A missing class is solved once, from
    initial_guess, and no other class is solved for it; metadata["start"]
    records the start.
    """
    if cache is None:
        cache = {}
    cfg = replace(base, group=group)
    form, sigma = group.canonical_form(cfg.grid.N_dims)
    key = (form, *(getattr(cfg, f.name) for f in fields(cfg) if f.name != "group"))
    if key not in cache:
        start, init = initial_guess(cfg)
        sol = solve(cfg, init)
        sol.metadata["start"] = start
        cache[key] = (sol, group, sigma)
    sol, G0, sigma0 = cache[key]
    S = sigma0.T @ sigma
    if np.array_equal(S, np.eye(len(S), dtype=S.dtype)):
        return sol
    return _conjugate(sol, G0, S, cfg)


def _conjugate(sol, G0: CoxeterGroup, S: np.ndarray, cfg: SolverConfig):
    """sol, solved for G0, moved to the class of cfg.group = S^T G0 S as
    u(x) = v(S x).

    The gather is exact and keeps u in its class bitwise, but the padded
    convolution sees a negated axis's -L/2 face layer map to itself, not to
    +L/2, so the functional is invariant only when that layer is zero.  The
    energy, residual and converged flag are therefore measured on u, with
    one evaluation.  metadata["reused_from"] names the solved group, with its
    generators, and S.
    """
    grid, params = cfg.grid, cfg.params
    u = Field(grid, sol.u.values.ravel()[_index_table(grid, S)].reshape(grid.shape))
    ev, mult = _evaluate_field(u, params)
    residual = _force_and_residual(u.values, ev, grid, mult, params.p)[1]
    reused = {"group": {"name": G0.name, "order": G0.order,
                        "generators": [g.tolist() for g in G0.generators]},
              "signed_permutation": S.tolist()}
    return replace(
        sol,
        u=u,
        energy=_action(ev.Q, ev.D, params.p),
        residual=residual,
        converged=residual <= cfg.tol,
        metadata={**sol.metadata, "reused_from": reused},
    )


def energy_table(configs, cache: dict | None = None) -> list:
    """One row per config: the symmetric level c_G against the cheapest
    breakup level c*_G = min |O_x| c_{S_x} over the chamber points x of
    _breakup_levels: |G| c_trivial and, with two walls or more, |G|/2 times
    the level of each wall's mirror.

    verified requires every involved solve to converge and the strict chain
    to hold with margin above 5% of c_G.  A shared `cache` dict (see
    solve_level) lets repeated table builds reuse converged solves.
    """
    if cache is None:
        cache = {}
    rows = []
    for cfg in configs:
        G = cfg.group
        name = G.name or f"order{G.order}"
        sol = solve_level(G, cfg, cache)
        c_G = sol.energy
        all_conv = sol.converged
        c_star = float("inf")
        for orbit_size, stabilizer in _breakup_levels(G):
            sub = solve_level(stabilizer, cfg, cache)
            all_conv = all_conv and sub.converged
            c_star = min(c_star, orbit_size * sub.energy)
        margin = c_star - c_G
        rows.append(
            TableRow(
                group=name,
                c_G=c_G,
                c_star=c_star,
                margin=margin,
                verified=all_conv and c_G > 0 and margin > 0.05 * c_G,
                converged=sol.converged,
            )
        )
    return rows
