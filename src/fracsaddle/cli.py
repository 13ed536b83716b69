"""Command-line front end.

Subcommands: groundstate, saddle, table, decay, extension-check, info.
groundstate and saddle solve the config's class through
analysis.solve_level, as table does for each of its groups.
Exit codes: 0 success, 1 configuration or validation error, 2 a run that
finished but did not meet its convergence or tolerance target.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import spectral
from .analysis import (
    decay_exponent,
    energy_table,
    nodal_domains,
    sign_on_fundamental_domain,
    solve_level,
)
from .extension import YGrid, default_y_max, energy_identity_check
from .fieldio import load_config, read_field, write_csv, write_field, write_report
from .params import critical_exponent, extension_constant, riesz_constant
from .solver import CollapseToZero
# cli never calls solve; perfbench/test_perfbench.py names this binding
from .solver import solve


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
    with_config(sub.add_parser("extension-check", help="energy identity sweep over s"))
    ip = sub.add_parser("info", help="print the analytic constants for a problem")
    ip.add_argument("--config", required=True)
    return ap


def _prepare(args):
    cfg = load_config(args.config, args.command)
    if args.out is not None:
        cfg["output"]["dir"] = args.out
    return cfg


def _run_and_write(args) -> int:
    """groundstate and saddle: solve the config's class with solve_level,
    measure the nodal domains and the tail once, and write the field and the
    report of both."""
    cfg = _prepare(args)
    (sc,) = cfg["configs"]
    group = sc.group
    sol = solve_level(group, sc)
    nodal = nodal_domains(sol.u)
    slope = reason = None
    try:
        slope = decay_exponent(sol.u, 0.2, 0.4)
    except ValueError as exc:  # the window holds bump cores or too few shells
        reason = str(exc)
    grid, name = cfg["grid"], group.name or "custom"
    report = {
        "energy": sol.energy,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "nodal_count": nodal.count,
        "decay_slope": slope,
        "decay_slope_reason": reason,
        "converged": sol.converged,
        # the resolved config, defaults filled in, so the run can be repeated
        "config": {
            "problem": dataclasses.asdict(cfg["params"]),
            "grid": {"M": grid.M, "L": grid.L},
            "group": {"name": name, "order": group.order},
            "solver": cfg["solver"],
            "output": cfg["output"],
        },
        "metadata": sol.metadata,
    }
    if not group.is_trivial():
        report["nodal_report"] = dataclasses.asdict(nodal)
        report["constant_sign_on_chamber"] = sign_on_fundamental_domain(sol.u, group)
    outdir = Path(cfg["output"]["dir"])
    write_field(outdir / f"{name}_solution.f64", sol.u, cfg["params"],
                description=f"converged={sol.converged} energy={sol.energy:.8g}")
    write_report(outdir / f"{name}_report.json", report)
    print(
        f"{name}: converged={sol.converged} iters={sol.iterations} "
        f"energy={sol.energy:.8g} residual={sol.residual:.3g} "
        f"nodal={nodal.count}"
    )
    return 0 if sol.converged else 2


def cmd_table(args) -> int:
    cfg = _prepare(args)
    rows = energy_table(cfg["configs"])

    def cell(x):  # the trivial group has no breakup: its cStar and margin are blank
        return f"{x:.10g}" if np.isfinite(x) else ""

    write_csv(Path(cfg["output"]["dir"]) / "energy_table.csv",
              ["group", "cG", "cStar", "margin", "verified"],
              [[r.group, f"{r.c_G:.10g}", cell(r.c_star), cell(r.margin), str(r.verified).lower()]
               for r in rows])
    for r in rows:
        star = f"{r.c_star:.6g}" if np.isfinite(r.c_star) else "-"
        print(f"{r.group}: cG={r.c_G:.6g} cStar={star} verified={r.verified}")
    return 0 if all(r.verified for r in rows) else 2


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
    cfg = _prepare(args)
    grid = cfg["grid"]
    J = 256
    rng = np.random.default_rng(cfg["solver"]["seed"])
    noise = rng.standard_normal(grid.shape)
    damp = np.exp(-0.5 * grid.half_freq_norm_sq())
    smooth = spectral.irfftn(spectral.rfftn(noise) * damp, grid.shape)
    u = spectral.Field(grid, smooth)
    yg = YGrid.graded(J, default_y_max(grid))
    rows = []
    ok = True
    for s in cfg["s_values"]:
        lhs, rhs, ratio = energy_identity_check(u, s, yg)
        rows.append([str(s), str(J), f"{lhs:.12g}", f"{rhs:.12g}", f"{ratio:.12g}"])
        ok = ok and abs(ratio - 1.0) <= 0.02
        print(f"s={s}: lhs={lhs:.8g} rhs={rhs:.8g} ratio={ratio:.6f}")
    write_csv(Path(cfg["output"]["dir"]) / "extension_check.csv",
              ["s", "J", "lhs", "rhs", "ratio"], rows)
    return 0 if ok else 2


def cmd_info(args) -> int:
    cfg = load_config(args.config, args.command)
    params = cfg["params"]
    print(f"N={params.N} s={params.s} alpha={params.alpha} p={params.p}")
    print(f"A_alpha            = {riesz_constant(params.N, params.alpha):.12g}")
    print(f"k_s                = {extension_constant(params.s):.12g}")
    print(f"critical exponent  = {critical_exponent(params):.12g}")
    return 0


_COMMANDS = {
    "groundstate": _run_and_write,
    "saddle": _run_and_write,
    "table": cmd_table,
    "decay": cmd_decay,
    "extension-check": cmd_extension_check,
    "info": cmd_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CollapseToZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
