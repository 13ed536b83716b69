"""Run configuration, field persistence, and report emission.

Fields travel as raw little-endian float64 in C order next to a JSON
sidecar carrying the grid and problem metadata; configs and reports are
JSON; tables are CSV with LF line ends.  Everything is diff-able and
language-neutral.  fieldio is the one module that writes files and picks
their format, creating the output directory; cli decides what goes in them.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from .coxeter import CoxeterGroup, named_group
from .params import ModelParams, admissible
from .solver import SolverConfig
from .spectral import Field, Grid

_SOLVE_KEYS = {
    "problem": {"N", "s", "alpha", "p", "experimental"},
    "grid": {"M", "L"},
    "group": {"name", "generators"},
    "solver": {"tol", "max_iters"},
    "output": {"dir"},
}
# The keys each command reads, section by section.  A known key outside its
# command's set is refused, and a section is required only where it is read.
# No reflection generates the trivial group, so groundstate reads only a name.
_READS = {
    "groundstate": {**_SOLVE_KEYS, "group": {"name"}},
    "saddle": _SOLVE_KEYS,
    "table": {**_SOLVE_KEYS, "group": {"name"}},
    "extension-check": {"problem": _SOLVE_KEYS["problem"], "grid": {"M", "L"},
                        "solver": {"seed"}, "output": {"dir"}},
    "info": {"problem": _SOLVE_KEYS["problem"]},
}
# Every key that some command reads; any other key is unknown.
_CONFIG_KEYS = {sec: set().union(*(r.get(sec, ()) for r in _READS.values()))
                for sec in _SOLVE_KEYS}

# The solver keys in the order a report echoes them, with SolverConfig's
# defaults; extension-check's seed is no SolverConfig field.
_SOLVER_DEFAULTS = {"tol": SolverConfig.tol, "max_iters": SolverConfig.max_iters, "seed": 0}


class ConfigError(ValueError):
    pass


def _number(where: str, value, integer: bool = False):
    """value as a float, or an int with integer; booleans, strings,
    non-finite numbers (JSON Infinity, NaN) and non-integral integers are
    refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number; got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"'{where}' must be a finite number; got {value!r}")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"'{where}' must be an integer; got {value!r}")
    return int(value)


def load_config(path, command) -> dict:
    """Parse and validate a run configuration file for command.

    A key that command does not read (_READS) is refused.  Returns params,
    s_values, and grid, solver and output where command reads them,
    defaulted only in the keys it reads.  For groundstate, saddle and table,
    configs holds the validated SolverConfig of each group, resolved from
    each name or from the generators, "trivial" when neither is given:
    groundstate needs the trivial group, saddle a nontrivial one, and only
    table may give 'group.name' as a list, a nonempty one.  Every refusal,
    a group acting on more axes than the grid has and a tol or max_iters
    SolverConfig refuses included, is a ConfigError.  Only extension-check
    may give 's' as a list (a sweep over the fractional order); params then
    carries the first value and every listed value is checked against the
    norm-side constraints only.  s_values holds the validated values of 's'
    as floats, a single one when 's' is a number.
    """
    reads = _READS[command]
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object; got {raw!r}")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    for section in ("problem", "grid"):
        if section in reads and section not in raw:
            raise ConfigError(f"missing required section '{section}'")
    for section, data in raw.items():
        if not isinstance(data, dict):
            raise ConfigError(f"section '{section}' must be an object")
        unknown = set(data) - _CONFIG_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")
        for k in data:
            if k not in reads.get(section, ()):
                raise ConfigError(f"'{section}.{k}' is not read by this command; remove it")

    prob = raw["problem"]
    for k in ("N", "s", "alpha", "p"):
        if k not in prob:
            raise ConfigError(f"problem section needs '{k}'")
    N = _number("problem.N", prob["N"], integer=True)
    alpha = _number("problem.alpha", prob["alpha"])
    p = _number("problem.p", prob["p"])
    experimental = prob.get("experimental", False)
    if not isinstance(experimental, bool):
        raise ConfigError(f"'problem.experimental' must be true or false; got {experimental!r}")
    s_raw = prob["s"]
    sweep = isinstance(s_raw, (list, tuple))
    if sweep:
        # Sweeps over the fractional order never form the interaction term,
        # so only the norm-side constraints apply, not the p bound.
        if command != "extension-check":
            raise ConfigError("'s' must be a single number for this command")
        if not s_raw:
            raise ConfigError("'s' list must be nonempty")
        s_values = [_number("problem.s", v) for v in s_raw]
        for s in s_values:
            if not (0.0 < s < 1.0 and N > 2.0 * s):
                raise ConfigError(f"s sweep values need 0 < s < 1 and N > 2s; got s={s}")
    else:
        s_values = [_number("problem.s", s_raw)]
    params = ModelParams(N=N, s=s_values[0], alpha=alpha, p=p, experimental=experimental)
    if not sweep and not admissible(params):
        raise ConfigError(
            f"inadmissible problem parameters (N={params.N}, s={params.s}, "
            f"alpha={params.alpha}, p={params.p}): need 0 < s < 1, "
            f"0 < alpha < N, N > 2s, and 2 <= p < (N + alpha)/(N - 2s)"
            + ("" if params.N != 2 else "; N = 2 needs experimental: true")
        )
    cfg = {"params": params, "s_values": s_values}
    if "grid" in reads:
        gsec = raw["grid"]
        for k in ("M", "L"):
            if k not in gsec:
                raise ConfigError(f"grid section needs '{k}'")
        M = _number("grid.M", gsec["M"], integer=True)
        cfg["grid"] = Grid(N, M, _number("grid.L", gsec["L"]))
    if "group" in reads:
        group = raw.get("group", {})
        if "name" in group and "generators" in group:
            raise ConfigError("'group' takes 'name' or 'generators', not both")
        name = group.get("name", "trivial")
        names = name if isinstance(name, list) else [name]
        if not all(isinstance(n, str) for n in names):
            raise ConfigError(f"'group.name' must be a name or a list of names; got {name!r}")
        if isinstance(name, list) and command != "table":  # only the table compares groups
            raise ConfigError("this command needs a single group name, not a list")
        if not names:
            raise ConfigError("table runs need a nonempty group name list")
        if "generators" in group:
            gens = group["generators"]
            if not (isinstance(gens, list) and all(
                isinstance(g, list) and all(isinstance(r, list) for r in g) for g in gens
            )):
                raise ConfigError("'group.generators' must be a list of matrices (lists of rows); "
                                  f"got {gens!r}")
            gens = [np.array([[_number("group.generators", v, integer=True) for v in r] for r in g])
                    for g in gens]
        try:
            groups = ([CoxeterGroup(gens)] if "generators" in group
                      else [named_group(n) for n in names])
        except ValueError as exc:  # an unknown name, or generators that are no reflections
            raise ConfigError(str(exc)) from exc
    if "solver" in reads:
        cfg["solver"] = {k: v for k, v in _SOLVER_DEFAULTS.items() if k in reads["solver"]}
        for k, v in raw.get("solver", {}).items():
            cfg["solver"][k] = _number(f"solver.{k}", v, integer=k in ("max_iters", "seed"))
    if "output" in reads:
        cfg["output"] = {"dir": raw.get("output", {}).get("dir", "out")}
        if not isinstance(cfg["output"]["dir"], str):
            raise ConfigError(f"'output.dir' must be a string; got {cfg['output']['dir']!r}")
    if "group" in reads:
        if command == "groundstate" and not groups[0].is_trivial():
            raise ConfigError("groundstate runs need the trivial group")
        if command == "saddle" and groups[0].is_trivial():
            raise ConfigError("saddle runs need a nontrivial group")
        try:  # tol, max_iters, and a group acting on more axes than the grid has
            cfg["configs"] = [SolverConfig(params=params, grid=cfg["grid"], group=G, **cfg["solver"])
                              for G in groups]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------

# The raw file has no header: these sidecar values are the only layout it has.
_FIELD_LAYOUT = {"dtype": "<f8", "order": "C"}


def write_field(path, field: Field, params: ModelParams | None = None,
                description: str = "") -> None:
    """Raw float64 dump plus a JSON sidecar at <path>.json."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(field.values, dtype=_FIELD_LAYOUT["dtype"])
    data.tofile(path)
    meta = {
        "dims": field.grid.N_dims,
        "M": field.grid.M,
        "L": field.grid.L,
        **_FIELD_LAYOUT,
        "description": description,
    }
    if params is not None:
        meta.update({"N": params.N, "s": params.s, "alpha": params.alpha, "p": params.p})
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_field(path):
    """Load a field written by write_field; returns (Field, sidecar dict).

    The sidecar must give dims, M and L, and the dtype and order that
    write_field writes; a missing key, a non-numeric grid value or another
    layout is a ValueError that names it.
    """
    path = Path(path)
    sidecar = str(path) + ".json"
    with open(sidecar) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: a sidecar must be a JSON object; got {meta!r}")
    missing = [k for k in ("dims", "M", "L", *_FIELD_LAYOUT) if k not in meta]
    if missing:
        raise ValueError(f"{sidecar}: missing key(s) {missing}")
    for key, want in _FIELD_LAYOUT.items():
        if meta[key] != want:
            raise ValueError(f"{sidecar}: {key} {meta[key]!r} is not readable; only {want!r} is")
    grid = Grid(
        _number(f"dims in {sidecar}", meta["dims"], integer=True),
        _number(f"M in {sidecar}", meta["M"], integer=True),
        _number(f"L in {sidecar}", meta["L"]),
    )
    data = np.fromfile(path, dtype=_FIELD_LAYOUT["dtype"])
    if data.size != grid.n_nodes:
        raise ValueError(
            f"field file has {data.size} values, grid expects {grid.n_nodes}"
        )
    return Field(grid, data.reshape(grid.shape)), meta


def write_report(path, report: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=_json_default)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """header, then one line per row of formatted strings, with LF line ends."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
