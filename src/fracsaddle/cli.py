"""Command-line front end.

Subcommands: groundstate, saddle, table, decay, extension-check, info.
Exit codes: 0 success, 1 configuration or validation error, 2 a run that
finished but did not meet its convergence or tolerance target.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import spectral
from .analysis import (
    decay_exponent,
    energy_table,
    nodal_domains,
    sign_on_fundamental_domain,
)
from .extension import YGrid, default_y_max, energy_identity_check
from .fieldio import (
    ConfigError,
    group_name_list,
    load_config,
    read_field,
    resolve_group,
    resolved_config_dict,
    solution_report,
    write_field,
    write_report,
)
from .params import critical_exponent, extension_constant, riesz_constant
from .solver import CollapseToZero, SolverConfig, initial_guess, solve


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracsaddle",
        description="Groundstates and reflection-symmetric saddle solutions "
        "of a nonlocal Choquard equation on a periodic box.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="override output directory")
        return p

    with_config(sub.add_parser("groundstate", help="minimize without symmetry"))
    with_config(sub.add_parser("saddle", help="minimize in a signed symmetry class"))
    with_config(sub.add_parser("table", help="energy comparison table over groups"))
    dp = sub.add_parser("decay", help="re-fit the tail exponent of a saved field")
    dp.add_argument("--field", required=True, help="path to a saved .f64 field")
    dp.add_argument("--window", type=float, nargs=2, default=(0.2, 0.4),
                    metavar=("RMIN", "RMAX"), help="fit window as fractions of L")
    dp.add_argument("--out", default=None, help="write a JSON report here")
    ep = with_config(sub.add_parser("extension-check", help="energy identity sweep over s"))
    ep.add_argument("--seed", type=int, default=None, help="override solver.seed (test field)")
    ip = sub.add_parser("info", help="print the analytic constants for a problem")
    ip.add_argument("--config", required=True)
    return ap


def _prepare(args, allow_s_list=False, unread=("seed",)):
    cfg = load_config(args.config, allow_s_list=allow_s_list, unread=unread)
    if args.out is not None:
        cfg["output"]["dir"] = args.out
    return cfg


def _solver_config(cfg, group) -> SolverConfig:
    sv = cfg["solver"]
    return SolverConfig(
        params=cfg["params"],
        grid=cfg["grid"],
        group=group,
        max_iters=sv["max_iters"],
        tol=sv["tol"],
        R=sv["R"],
    )


def _run_and_write(cfg, sc: SolverConfig) -> int:
    """Solve, measure the nodal domains and the tail once, and write both."""
    sol = solve(sc, initial_guess(sc))
    group = sc.group
    nodal = nodal_domains(sol.u)
    slope = reason = None
    try:
        slope = decay_exponent(sol.u, 0.2, 0.4)
    except ValueError as exc:  # the window holds bump cores or too few shells
        reason = str(exc)
    echo = resolved_config_dict(cfg["params"], cfg["grid"], group, cfg["solver"], cfg["output"])
    report = solution_report(sol, nodal.count, slope, reason, echo)
    if not group.is_trivial():
        report["nodal_report"] = {
            "count": nodal.count,
            "component_sizes": nodal.component_sizes,
            "threshold": nodal.threshold,
        }
        report["constant_sign_on_chamber"] = sign_on_fundamental_domain(sol.u, group)
    outdir = Path(cfg["output"]["dir"])
    name = group.name or "custom"
    write_field(outdir / f"{name}_solution.f64", sol.u, cfg["params"],
                description=f"converged={sol.converged} energy={sol.energy:.8g}")
    write_report(outdir / f"{name}_report.json", report)
    print(
        f"{name}: converged={sol.converged} iters={sol.iterations} "
        f"energy={sol.energy:.8g} residual={sol.residual:.3g} "
        f"nodal={nodal.count}"
    )
    return 0 if sol.converged else 2


def cmd_groundstate(args) -> int:
    cfg = _prepare(args, unread=("seed", "R"))
    group = resolve_group(cfg["group_spec"])
    if not group.is_trivial():
        raise ConfigError("groundstate runs need the trivial group")
    return _run_and_write(cfg, _solver_config(cfg, group))


def cmd_saddle(args) -> int:
    cfg = _prepare(args)
    group = resolve_group(cfg["group_spec"])
    if group.is_trivial():
        raise ConfigError("saddle runs need a nontrivial group")
    return _run_and_write(cfg, _solver_config(cfg, group))


def cmd_table(args) -> int:
    cfg = _prepare(args)
    names = group_name_list(cfg["group_spec"])
    if not names:
        raise ConfigError("table runs need a nonempty group name list")
    configs = [_solver_config(cfg, resolve_group({"name": n})) for n in names]
    table = energy_table(configs)
    outdir = Path(cfg["output"]["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    table.to_csv(outdir / "energy_table.csv")
    for row in table.rows:
        star = f"{row.c_star:.6g}" if np.isfinite(row.c_star) else "-"
        print(f"{row.group}: cG={row.c_G:.6g} cStar={star} verified={row.verified}")
    return 0 if all(r.verified for r in table.rows) else 2


def cmd_decay(args) -> int:
    field, meta = read_field(args.field)
    lo, hi = args.window
    slope = decay_exponent(field, lo, hi)
    print(f"decay slope over [{lo}L, {hi}L]: {slope:.4f}")
    if args.out:
        write_report(Path(args.out), {"field": str(args.field), "window": [lo, hi],
                                      "slope": slope, "sidecar": meta})
    return 0


def cmd_extension_check(args) -> int:
    cfg = _prepare(args, allow_s_list=True, unread=("tol", "max_iters", "R"))
    grid = cfg["grid"]
    J = 256
    seed = cfg["solver"]["seed"] if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    damp = np.exp(-0.5 * grid.half_freq_norm_sq())
    smooth = spectral.irfftn(spectral.rfftn(noise) * damp, grid.shape)
    u = spectral.Field(grid, smooth)
    outdir = Path(cfg["output"]["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    yg = YGrid.graded(J, default_y_max(grid))
    rows = []
    ok = True
    for s in cfg["s_values"]:
        lhs, rhs, ratio = energy_identity_check(u, s, yg)
        rows.append((s, J, lhs, rhs, ratio))
        ok = ok and abs(ratio - 1.0) <= 0.02
        print(f"s={s}: lhs={lhs:.8g} rhs={rhs:.8g} ratio={ratio:.6f}")
    with open(outdir / "extension_check.csv", "w") as fh:
        fh.write("s,J,lhs,rhs,ratio\n")
        for r in rows:
            fh.write(f"{r[0]},{r[1]},{r[2]:.12g},{r[3]:.12g},{r[4]:.12g}\n")
    return 0 if ok else 2


def cmd_info(args) -> int:
    cfg = load_config(args.config)
    params = cfg["params"]
    print(f"N={params.N} s={params.s} alpha={params.alpha} p={params.p}")
    print(f"A_alpha            = {riesz_constant(params.N, params.alpha):.12g}")
    print(f"k_s                = {extension_constant(params.s):.12g}")
    print(f"critical exponent  = {critical_exponent(params):.12g}")
    return 0


_COMMANDS = {
    "groundstate": cmd_groundstate,
    "saddle": cmd_saddle,
    "table": cmd_table,
    "decay": cmd_decay,
    "extension-check": cmd_extension_check,
    "info": cmd_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CollapseToZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
