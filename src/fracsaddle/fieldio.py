"""Run configuration, field persistence, and report emission.

Fields travel as raw little-endian float64 in C order next to a JSON
sidecar carrying the grid and problem metadata; configs and reports are
JSON; tables are CSV.  Everything is diff-able and language-neutral.
"""

import json
import math
from pathlib import Path

import numpy as np

from .coxeter import CoxeterGroup, named_group
from .params import ModelParams, admissible
from .spectral import Field, Grid

_CONFIG_KEYS = {
    "problem": {"N", "s", "alpha", "p", "experimental"},
    "grid": {"M", "L"},
    "group": {"name", "generators"},
    "solver": {"tol", "max_iters", "seed", "R"},
    "output": {"dir"},
}

_SOLVER_DEFAULTS = {"tol": 1e-6, "max_iters": 2000, "seed": 0, "R": None}
_OUTPUT_DEFAULTS = {"dir": "out"}


class ConfigError(ValueError):
    pass


def _check_keys(section: str, data: dict) -> None:
    unknown = set(data) - _CONFIG_KEYS[section]
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


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


def load_config(path, allow_s_list=False, unread=()) -> dict:
    """Parse and validate a run configuration file.

    Returns a resolved dict with keys params, grid, group_spec, solver,
    output and s_values; group resolution is deferred to resolve_group so
    the table command can accept a list of names.  With allow_s_list the
    problem section may give 's' as a list (for sweeps over the fractional
    order); params then carries the first value and every listed value is
    checked against the norm-side constraints only.  s_values holds the
    validated values of 's' as floats, a single one when 's' is a number.
    A solver key named in unread is refused: the command would not read it.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object; got {raw!r}")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    for section in ("problem", "grid"):
        if section not in raw:
            raise ConfigError(f"missing required section '{section}'")
    for section, data in raw.items():
        if not isinstance(data, dict):
            raise ConfigError(f"section '{section}' must be an object")
        _check_keys(section, data)

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
        if not allow_s_list:
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
    gsec = raw["grid"]
    for k in ("M", "L"):
        if k not in gsec:
            raise ConfigError(f"grid section needs '{k}'")
    grid = Grid(params.N, _number("grid.M", gsec["M"], integer=True), _number("grid.L", gsec["L"]))

    solver = dict(_SOLVER_DEFAULTS)
    for k, v in raw.get("solver", {}).items():
        if k in unread:
            raise ConfigError(f"'solver.{k}' is not read by this command; remove it")
        if k != "R" or v is not None:
            v = _number(f"solver.{k}", v, integer=k in ("max_iters", "seed"))
        solver[k] = v
    output = dict(_OUTPUT_DEFAULTS)
    output.update(raw.get("output", {}))
    if not isinstance(output["dir"], str):
        raise ConfigError(f"'output.dir' must be a string; got {output['dir']!r}")
    group = raw.get("group", {"name": "trivial"})
    if "name" in group and "generators" in group:
        raise ConfigError("'group' takes 'name' or 'generators', not both")
    if not all(isinstance(n, str) for n in group_name_list(group)):
        raise ConfigError(f"'group.name' must be a name or a list of names; got {group['name']!r}")
    if "generators" in group:
        gens = group["generators"]
        if not (isinstance(gens, list) and all(
            isinstance(g, list) and all(isinstance(r, list) for r in g) for g in gens
        )):
            raise ConfigError(f"'group.generators' must be a list of matrices (lists of rows); got {gens!r}")
        group["generators"] = [
            [[_number("group.generators", v, integer=True) for v in r] for r in g] for g in gens
        ]
    return {
        "params": params,
        "grid": grid,
        "group_spec": group,
        "solver": solver,
        "output": output,
        "s_values": s_values,
    }


def resolve_group(group_spec: dict) -> CoxeterGroup:
    if "generators" in group_spec:
        return CoxeterGroup([np.asarray(g) for g in group_spec["generators"]])
    name = group_spec.get("name", "trivial")
    if isinstance(name, list):
        raise ConfigError("this command needs a single group name, not a list")
    return named_group(name)


def group_name_list(group_spec: dict):
    name = group_spec.get("name", [])
    return name if isinstance(name, list) else [name]


def resolved_config_dict(params, grid, group, solver: dict, output: dict) -> dict:
    """Full defaulted config echo so a solve is reproducible from its report.

    solver.seed is left out: it draws extension-check's test field, and a
    solve command refuses it.
    """
    return {
        "problem": {
            "N": params.N,
            "s": params.s,
            "alpha": params.alpha,
            "p": params.p,
            "experimental": params.experimental,
        },
        "grid": {"M": grid.M, "L": grid.L},
        "group": {"name": group.name or "custom", "order": group.order},
        "solver": {k: v for k, v in solver.items() if k != "seed"},
        "output": output,
    }


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


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def solution_report(sol, nodal_count: int, decay_slope: float | None,
                    decay_slope_reason: str | None, config_echo: dict) -> dict:
    """The run report: sol's numbers, the diagnostics measured on sol.u, and
    the config echo; decay_slope is None when no tail exponent can be fitted,
    and decay_slope_reason then says why."""
    return {
        "energy": sol.energy,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "nodal_count": nodal_count,
        "decay_slope": decay_slope,
        "decay_slope_reason": decay_slope_reason,
        "converged": sol.converged,
        "config": config_echo,
        "metadata": sol.metadata,
    }
