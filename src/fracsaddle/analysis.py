"""Post-hoc checks on computed fields: nodal structure, tail decay, chamber
sign, and the energy comparison table for the saddle existence chain."""

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .coxeter import CoxeterGroup
from .energy import _action, _evaluate_field, _gradient
from .solver import (
    SolverConfig,
    _index_table,
    _residual,
    init_groundstate,
    init_saddle,
    solve,
)
from .spectral import Field


@dataclass(frozen=True)
class NodalReport:
    count: int
    component_sizes: list
    threshold: float


def nodal_domains(u: Field, eps_rel: float = 1e-3) -> NodalReport:
    """Count connected components of {u > eps} and {u < -eps} separately.

    Face adjacency, non-periodic at the box boundary: the box truncates
    whole space, and wrap adjacency would merge components through the tail
    region.  Component sizes are reported so spurious slivers can be
    flagged by the caller.
    """
    if not 0.0 < eps_rel < 1.0:
        raise ValueError(f"eps_rel must lie in (0, 1); got {eps_rel}")
    amax = float(np.abs(u.values).max())
    if amax == 0.0:
        raise ValueError("nodal_domains needs a nonzero field")
    eps = eps_rel * amax
    sizes = []
    for mask in (u.values > eps, u.values < -eps):
        labels, _ = ndimage.label(mask)
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


def sign_on_fundamental_domain(u: Field, G: CoxeterGroup, eps_rel: float = 1e-3) -> bool:
    """True iff nodes strictly inside the chamber with |u| above threshold
    share a single sign."""
    amax = float(np.abs(u.values).max())
    if amax == 0.0:
        return False
    eps = eps_rel * amax
    C = G.chamber()
    k = C.normals.shape[1]
    x = u.grid.axis_nodes()
    mesh = np.meshgrid(*([x] * u.grid.N_dims), indexing="ij")
    inside = np.ones(u.grid.shape, dtype=bool)
    tol = 1e-9 * u.grid.L
    for n in C.normals:
        d = sum(n[c] * mesh[c] for c in range(k))
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
    orbit_size: int
    c_Sq: float
    c_star: float
    margin: float
    verified: bool
    converged: bool


@dataclass
class EnergyTable:
    rows: list

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["group", "cG", "cStar", "margin", "verified"])
            for r in self.rows:
                c_star = "" if not np.isfinite(r.c_star) else f"{r.c_star:.10g}"
                margin = "" if not np.isfinite(r.margin) else f"{r.margin:.10g}"
                w.writerow([r.group, f"{r.c_G:.10g}", c_star, margin, str(r.verified).lower()])


def _facet_candidates(G: CoxeterGroup):
    """Representative points whose orbits bound the saddle level from above.

    Unit points, one through the chamber interior (the two-bump route for
    rank one, stabilizer trivial) and one in the relative interior of each
    wall (the dominant route for rank two and up, stabilizer that wall's
    reflection).  They are continuous points, not grid nodes: rounding one
    to the grid can move it onto a smaller face and enlarge its stabilizer.
    """
    C = G.chamber()
    q = C.interior_point()
    cands = [q / np.linalg.norm(q)]
    for i, n in enumerate(C.normals):
        x = q - (np.dot(q, n) / np.dot(n, n)) * n
        nx = np.linalg.norm(x)
        if nx < 1e-9:
            continue
        x = x / nx
        ok = all(
            np.dot(C.normals[j], x) > 1e-9 for j in range(len(C.normals)) if j != i
        ) and abs(np.dot(n, x)) < 1e-9
        if ok:
            cands.append(x)
    return cands


def solve_level(group: CoxeterGroup, base: SolverConfig, cache: dict | None = None):
    """Solve the symmetric minimization for `group` on base's grid/params.

    Results are memoized in `cache` (keyed by the group's lattice-conjugacy
    class, CoxeterGroup.canonical_form on the grid's axes, and every config
    field the solve reads: grid, params, tol, max_iters, R) so a table
    run and its breakup candidates share solves; pass the same dict across
    calls to reuse them.  A group conjugate to a solved one gets the solved
    field moved by index (see _conjugate); a group with the same embedded
    element set gets the cached object itself.
    """
    if cache is None:
        cache = {}
    cfg = replace(base, group=group)
    form, sigma = group.canonical_form(cfg.grid.N_dims)
    key = (form, cfg.grid, cfg.params, cfg.tol, cfg.max_iters, cfg.R)
    if key not in cache:
        if group.is_trivial():
            u0 = init_groundstate(cfg.grid, cfg.params)
        else:
            u0 = init_saddle(cfg.grid, group, cfg.params, R=cfg.R)
        cache[key] = (solve(cfg, u0), sigma)
    sol, sigma0 = cache[key]
    S = sigma0.T @ sigma
    if np.array_equal(S, np.eye(len(S), dtype=S.dtype)):
        return sol
    return _conjugate(sol, S, cfg)


def _conjugate(sol, S: np.ndarray, cfg: SolverConfig):
    """sol moved to the class of cfg.group = S^T G0 S as u(x) = v(S x).

    The gather is exact and keeps u in its class bitwise, but the padded
    convolution sees a negated axis's -L/2 face layer map to itself, not to
    +L/2, so the functional is invariant only when that layer is zero.  The
    energy, residual and converged flag are therefore measured on u, with
    one evaluation.  metadata["reused_from"] names the solved group and S.
    """
    grid, params = cfg.grid, cfg.params
    u = Field(grid, sol.u.values.ravel()[_index_table(grid, S)].reshape(grid.shape))
    ev, mult = _evaluate_field(u, params)
    residual = _residual(_gradient(u.values, ev, mult, params.p), u.values)
    meta = dict(sol.metadata)
    meta["group"] = {"name": cfg.group.name, "order": cfg.group.order}
    meta["reused_from"] = {"group": sol.metadata["group"], "signed_permutation": S.tolist()}
    return replace(
        sol,
        u=u,
        energy=_action(ev.Q, ev.D, params.p),
        residual=residual,
        converged=residual <= cfg.tol,
        metadata=meta,
    )


def energy_table(configs, cache: dict | None = None) -> EnergyTable:
    """One row per config: the symmetric level c_G against the cheapest
    breakup level c*_G = min |O_x| c_{S_x} over the facet representatives x
    of _facet_candidates, with O_x the orbit and S_x the stabilizer of x
    itself, so |O_x| |S_x| = |G|.

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
        if G.is_trivial():
            rows.append(
                TableRow(
                    group=name,
                    c_G=c_G,
                    orbit_size=1,
                    c_Sq=c_G,
                    c_star=float("inf"),
                    margin=float("inf"),
                    verified=sol.converged and c_G > 0,
                    converged=sol.converged,
                )
            )
            continue
        all_conv = sol.converged
        interior_c = float("nan")
        interior_orbit = G.order
        c_star = float("inf")
        for idx, x in enumerate(_facet_candidates(G)):
            orb = G.orbit(x)
            sub = solve_level(G.stabilizer(x), cfg, cache)
            all_conv = all_conv and sub.converged
            cand = len(orb) * sub.energy
            if idx == 0:
                interior_c = sub.energy
                interior_orbit = len(orb)
            c_star = min(c_star, cand)
        margin = c_star - c_G
        rows.append(
            TableRow(
                group=name,
                c_G=c_G,
                orbit_size=interior_orbit,
                c_Sq=interior_c,
                c_star=c_star,
                margin=margin,
                verified=all_conv and c_G > 0 and margin > 0.05 * c_G,
                converged=sol.converged,
            )
        )
    return EnergyTable(rows)
