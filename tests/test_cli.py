import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fracsaddle import cli
from fracsaddle.analysis import nodal_domains, solve_level
from fracsaddle.cli import main
from fracsaddle.fieldio import (
    ConfigError,
    load_config,
    read_field,
    write_field,
    write_report,
)
from fracsaddle.params import ModelParams
from fracsaddle.spectral import Field, Grid


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def base_config(outdir, **overrides):
    cfg = {
        "problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0},
        "grid": {"M": 12, "L": 8.0},
        "solver": {"tol": 1e-3, "max_iters": 400},
        "output": {"dir": str(outdir)},
    }
    cfg.update(overrides)
    return cfg


# -- config parsing ----------------------------------------------------------

def test_load_config_defaults(tmp_path):
    path = write_json(tmp_path / "c.json", {
        "problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0},
        "grid": {"M": 16, "L": 10.0},
    })
    cfg = load_config(path, "groundstate")
    assert cfg["params"] == ModelParams(3, 0.5, 2.0, 2.0)
    assert cfg["grid"].M == 16
    assert cfg["solver"] == {"tol": 1e-6, "max_iters": 2000}
    (sc,) = cfg["configs"]
    assert sc.group.name == "trivial"
    assert (sc.params, sc.grid, sc.tol, sc.max_iters) == (cfg["params"], cfg["grid"], 1e-6, 2000)
    assert cfg["output"]["dir"] == "out"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_json(tmp_path / "c.json", base_config(tmp_path, extra={"x": 1}))
    with pytest.raises(ConfigError, match=r"unknown top-level key\(s\): \['extra'\]"):
        load_config(path, "saddle")
    path = write_json(tmp_path / "c2.json", {
        "problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0, "qqq": 1},
        "grid": {"M": 12, "L": 8.0},
    })
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in 'problem': \['qqq'\]"):
        load_config(path, "saddle")


def test_load_config_requires_sections(tmp_path):
    # a section is required only by the commands that read it
    path = write_json(tmp_path / "c.json", {"problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0}})
    for command in ("groundstate", "saddle", "table", "extension-check"):
        with pytest.raises(ConfigError, match="missing required section 'grid'"):
            load_config(path, command)
    assert "grid" not in load_config(path, "info")
    path = write_json(tmp_path / "g.json", {"grid": {"M": 12, "L": 8.0}})
    with pytest.raises(ConfigError, match="missing required section 'problem'"):
        load_config(path, "info")


def test_load_config_inadmissible_params(tmp_path):
    bad = base_config(tmp_path)
    bad["problem"]["s"] = 0.25  # p = 2 sits exactly on the critical exponent
    path = write_json(tmp_path / "c.json", bad)
    with pytest.raises(ConfigError, match="inadmissible"):
        load_config(path, "saddle")


def test_load_config_s_list_needs_flag(tmp_path):
    # only extension-check sweeps s
    cfg = base_config(tmp_path, solver={})
    cfg["problem"]["s"] = [0.25, 0.5]
    path = write_json(tmp_path / "c.json", cfg)
    for command in ("groundstate", "saddle", "table"):
        with pytest.raises(ConfigError, match="'s' must be a single number"):
            load_config(path, command)
    out = load_config(path, "extension-check")
    assert out["params"].s == 0.25 and out["s_values"] == [0.25, 0.5]
    cfg["problem"]["s"] = [0.5, 1.5]
    path = write_json(tmp_path / "c2.json", cfg)
    with pytest.raises(ConfigError, match="s sweep values"):
        load_config(path, "extension-check")


# The config keys each command reads; every other known key is refused.
SOLVE_KEYS = {"problem.N", "problem.s", "problem.alpha", "problem.p", "problem.experimental",
              "grid.M", "grid.L", "group.name", "group.generators",
              "solver.tol", "solver.max_iters", "output.dir"}
READS = {
    "groundstate": SOLVE_KEYS - {"group.generators"},
    "saddle": SOLVE_KEYS,
    "table": SOLVE_KEYS - {"group.generators"},
    "extension-check": (SOLVE_KEYS | {"solver.seed"}) - {
        "group.name", "group.generators", "solver.tol", "solver.max_iters"},
    "info": {k for k in SOLVE_KEYS if k.startswith("problem.")},
}
# A value that each key loads with where it is read.  solver.R, the saddle
# bump scale that every run left at its default, is read by no command.
KEY_VALUES = {
    "problem.N": 3, "problem.s": 0.5, "problem.alpha": 2.0, "problem.p": 2.0,
    "problem.experimental": False, "grid.M": 12, "grid.L": 8.0, "group.name": "A1",
    "group.generators": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]], "solver.tol": 1e-3,
    "solver.max_iters": 400, "solver.seed": 5, "solver.R": 0.3, "output.dir": "run",
}
# A group section that each solve command runs with.
RUNNABLE_GROUP = {"groundstate": {"name": "trivial"}, "saddle": {"name": "A1"},
                  "table": {"name": ["trivial", "A1"]}}


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
@pytest.mark.parametrize("command", sorted(READS))
def test_load_config_reads_exactly_the_command_keys(tmp_path, command, key):
    # info once required a grid and accepted an output directory it never used;
    # table once loaded generators and then refused to run without a name list
    cfg = {"problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0}}
    if command != "info":
        cfg["grid"] = {"M": 12, "L": 8.0}
    section, name = key.split(".")
    if section == "group":  # the key tried replaces the section
        cfg["group"] = {}
    elif command in RUNNABLE_GROUP:
        cfg["group"] = RUNNABLE_GROUP[command]
    value = KEY_VALUES[key]
    if (command, key) == ("groundstate", "group.name"):
        value = "trivial"
    cfg.setdefault(section, {})[name] = value
    path = write_json(tmp_path / "c.json", cfg)
    if key not in set().union(*READS.values()):
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in '{section}': \['{name}'\]$"):
            load_config(path, command)
        return
    if key not in READS[command]:
        with pytest.raises(ConfigError, match=f"^'{key}' is not read by this command; remove it$"):
            load_config(path, command)
        return
    out = load_config(path, command)
    # the solver defaults cover exactly the solver keys the command reads
    solver = {k.split(".")[1] for k in READS[command] if k.startswith("solver.")}
    assert set(out.get("solver", {})) == solver
    if section in ("solver", "output"):
        assert out[section][name] == KEY_VALUES[key]


# Each of these once loaded, and the command or named_group refused the
# group only after the load.
@pytest.mark.parametrize("command, name, message", [
    ("groundstate", ["trivial"], "needs a single group name, not a list"),
    ("saddle", ["A1", "B2"], "needs a single group name, not a list"),
    ("table", [], "table runs need a nonempty group name list"),
    ("saddle", "C7", "unknown group name 'C7'"),
    ("table", ["A1", "C7"], "unknown group name 'C7'"),
])
def test_load_config_refuses_group_names_the_command_cannot_run(tmp_path, command, name, message):
    path = write_json(tmp_path / "c.json", base_config(tmp_path, group={"name": name}))
    with pytest.raises(ConfigError, match=message):
        load_config(path, command)


# Each of these once loaded, and cli refused the run only when it built the
# SolverConfig or checked the group's kind.
@pytest.mark.parametrize("command, group, solver, message", [
    ("saddle", {"generators": [[[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}, {},
     "group acts on 4 coordinates but the grid has only 3"),
    ("groundstate", {"name": "A1"}, {}, "groundstate runs need the trivial group"),
    ("saddle", {"name": "trivial"}, {}, "saddle runs need a nontrivial group"),
    ("table", {"name": ["trivial", "A1"]}, {"max_iters": 0}, "max_iters must be >= 1"),
    ("saddle", {"name": "A1"}, {"tol": -1e-3}, "tol must be positive and finite"),
])
def test_load_config_refuses_runs_it_cannot_build(tmp_path, command, group, solver, message):
    path = write_json(tmp_path / "c.json", base_config(tmp_path, group=group, solver=solver))
    with pytest.raises(ConfigError, match=message):
        load_config(path, command)


def test_load_config_resolves_groups(tmp_path):
    cfg = base_config(tmp_path, group={"name": ["trivial", "A1", "B2"]})
    configs = load_config(write_json(tmp_path / "c.json", cfg), "table")["configs"]
    assert [(sc.group.name, sc.group.order) for sc in configs] == [("trivial", 1), ("A1", 2), ("B2", 8)]
    assert {(sc.tol, sc.max_iters) for sc in configs} == {(1e-3, 400)}
    cfg["group"] = {"name": "B2"}
    configs = load_config(write_json(tmp_path / "c.json", cfg), "table")["configs"]
    assert [(sc.group.name, sc.group.order) for sc in configs] == [("B2", 8)]


def test_resolve_group_paths(tmp_path):
    # load_config resolves a name, generators, or no group at all (trivial)
    def group_of(command, group):
        cfg = base_config(tmp_path)
        if group is not None:
            cfg["group"] = group
        (sc,) = load_config(write_json(tmp_path / "c.json", cfg), command)["configs"]
        return sc.group

    assert group_of("saddle", {"name": "B2"}).order == 8
    assert group_of("groundstate", None).is_trivial()
    assert group_of("groundstate", {}).is_trivial()
    gens = [[[0, 1], [1, 0]]]
    assert group_of("saddle", {"generators": gens}).order == 2
    with pytest.raises(ConfigError, match="needs a single group name, not a list"):
        group_of("saddle", {"name": ["A1", "B2"]})


# -- field round trip --------------------------------------------------------

def test_field_round_trip(tmp_path, rng):
    g = Grid(3, 12, 8.0)
    u = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "f" / "u.f64"
    write_field(path, u, ModelParams(3, 0.5, 2.0, 2.0), description="probe")
    back, meta = read_field(path)
    assert np.array_equal(back.values, u.values)  # bit-identical
    assert back.grid == g
    assert meta["description"] == "probe"
    assert meta["s"] == 0.5


def test_read_field_size_mismatch(tmp_path, rng):
    g = Grid(2, 8, 4.0)
    u = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "u.f64"
    write_field(path, u)
    sidecar = json.loads(Path(f"{path}.json").read_text())
    sidecar["M"] = 16
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("key, value, match", [
    ("L", None, r"missing key\(s\) \['L'\]"),
    ("dims", None, r"missing key\(s\) \['dims'\]"),
    ("dtype", ">f8", "dtype '>f8' is not readable"),
    ("dtype", "<f4", "dtype '<f4' is not readable"),
    ("order", "F", "order 'F' is not readable"),
    ("M", "8", "'M in .*' must be a number"),
])
def test_read_field_refuses_what_it_cannot_read(tmp_path, rng, key, value, match):
    # each was once read as a <f8 C-order field, or ended in a KeyError
    g = Grid(2, 8, 4.0)
    path = tmp_path / "u.f64"
    write_field(path, Field(g, rng.standard_normal(g.shape)))
    sidecar = json.loads(Path(f"{path}.json").read_text())
    if value is None:
        del sidecar[key]
    else:
        sidecar[key] = value
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
    with pytest.raises(ValueError, match=match):
        read_field(path)


def test_write_report_numpy_types(tmp_path):
    path = tmp_path / "r.json"
    write_report(path, {"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3)})
    data = json.loads(path.read_text())
    assert data == {"a": 1.5, "b": 3, "c": [0, 1, 2]}


# -- CLI ---------------------------------------------------------------------

def test_cli_info(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"problem": base_config(tmp_path)["problem"]})
    assert main(["info", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "critical exponent" in out


def test_cli_groundstate_run(tmp_path, capsys):
    outdir = tmp_path / "run"
    path = write_json(tmp_path / "c.json", base_config(outdir))
    code = main(["groundstate", "--config", path])
    assert code == 0
    assert (outdir / "trivial_solution.f64").exists()
    report = json.loads((outdir / "trivial_report.json").read_text())
    assert report["converged"] is True
    assert report["config"]["grid"]["M"] == 12
    meta = report["metadata"]
    assert len(meta["trace"]["residual"]) == report["iterations"]
    assert meta["trace"]["step"][-1] is None
    assert meta["evaluations"] >= report["iterations"]
    assert meta["start"] == "gaussian"
    field, _ = read_field(outdir / "trivial_solution.f64")
    assert field.grid.M == 12
    assert "converged=True" in capsys.readouterr().out


def test_cli_saddle_run(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(u, *args):
        calls.append(u)
        return nodal_domains(u, *args)

    monkeypatch.setattr(cli, "nodal_domains", counted)
    outdir = tmp_path / "run"
    cfg = base_config(outdir, group={"name": "A1"})
    cfg["grid"] = {"M": 16, "L": 10.0}
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["saddle", "--config", path]) == 0
    report = json.loads((outdir / "A1_report.json").read_text())
    assert report["nodal_report"]["count"] == 2
    assert report["constant_sign_on_chamber"] is True
    # the field is labelled once, for both the count and the nodal report
    assert len(calls) == 1
    assert list(report) == ["energy", "residual", "iterations", "nodal_count", "decay_slope",
                            "decay_slope_reason", "converged", "config", "metadata",
                            "nodal_report", "constant_sign_on_chamber"]
    # the saddle starts from the groundstate moved by whole nodes along x1
    shift = report["metadata"]["start"]
    assert shift[0] > 0 and shift[1:] == [0, 0]
    assert report["nodal_count"] == report["nodal_report"]["count"] == 2
    # at M = 16 the fit window [0.2 L, 0.4 L] holds only 3 shells
    assert report["decay_slope"] is None
    assert "fit window" in report["decay_slope_reason"]
    assert "nodal=2" in capsys.readouterr().out


@pytest.mark.parametrize("command, group", [
    ("groundstate", None),
    ("saddle", {"name": "A1"}),
    ("saddle", {"generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]}),
])
def test_cli_writes_the_solve_level_solution(tmp_path, command, group):
    # groundstate and saddle write what solve_level(G, config) returns, bitwise
    outdir = tmp_path / "run"
    cfg = base_config(outdir, grid={"M": 16, "L": 10.0})
    if group is not None:
        cfg["group"] = group
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path]) == 0
    (sc,) = load_config(path, command)["configs"]
    sol = solve_level(sc.group, sc)
    name = sc.group.name or "custom"
    field, _ = read_field(outdir / f"{name}_solution.f64")
    report = json.loads((outdir / f"{name}_report.json").read_text())
    assert np.array_equal(field.values, sol.u.values)
    assert report["metadata"]["start"] == sol.metadata["start"]
    assert report["iterations"] == sol.iterations


def test_cli_decay(tmp_path, capsys):
    g = Grid(3, 48, 24.0)
    u = Field(g, (1.0 + g.radius() ** 2) ** -2.0)
    write_field(tmp_path / "u.f64", u)
    code = main(["decay", "--field", str(tmp_path / "u.f64"),
                 "--window", "0.2", "0.4", "--out", str(tmp_path / "d.json")])
    assert code == 0
    report = json.loads((tmp_path / "d.json").read_text())
    assert report["slope"] == pytest.approx(-4.0, rel=0.05)


def test_cli_decay_refuses_incomplete_sidecar(tmp_path, capsys):
    # a sidecar without L once ended the command in a KeyError traceback
    g = Grid(3, 16, 8.0)
    write_field(tmp_path / "u.f64", Field(g, np.ones(g.shape)))
    sidecar = tmp_path / "u.f64.json"
    meta = json.loads(sidecar.read_text())
    del meta["L"]
    sidecar.write_text(json.dumps(meta))
    assert main(["decay", "--field", str(tmp_path / "u.f64")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['L']" in err


def test_cli_extension_check(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = base_config(outdir, solver={})
    cfg["problem"]["s"] = [0.25, 0.5, 0.75]
    cfg["grid"] = {"M": 12, "L": 8.0}
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["extension-check", "--config", path]) == 0
    data = (outdir / "extension_check.csv").read_bytes()
    assert b"\r" not in data  # LF line ends, like every CSV a run writes
    rows = data.decode().strip().splitlines()
    assert rows[0] == "s,J,lhs,rhs,ratio"
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.25, 0.5, 0.75]
    for r in rows[1:]:
        assert abs(float(r.split(",")[4]) - 1.0) <= 0.02


def test_cli_table(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = base_config(outdir, group={"name": ["trivial", "A1"]})
    cfg["grid"] = {"M": 16, "L": 10.0}
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["table", "--config", path]) == 0
    data = (outdir / "energy_table.csv").read_bytes()
    assert b"\r" not in data  # `cut -d, -f5` must see "true", not "true\r"
    lines = data.decode().strip().splitlines()
    assert lines[0] == "group,cG,cStar,margin,verified"
    rows = list(csv.DictReader(lines))
    assert [r["group"] for r in rows] == ["trivial", "A1"]
    assert rows[0]["cStar"] == rows[0]["margin"] == ""  # the trivial group has no breakup
    assert float(rows[1]["cStar"]) == pytest.approx(2.0 * float(rows[0]["cG"]), rel=1e-9)
    assert all(r["verified"] == "true" for r in rows)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("trivial: cG=") and out[0].endswith(" cStar=- verified=True")


# Each of these was once coerced and run: tol true as 1.0 (a 2-iteration
# "converged" saddle with 22 nodal domains), max_iters 2.7 as 2, M 16.9 as 16;
# a string R "3" escaped as a TypeError traceback.  JSON Infinity and NaN load as
# floats: with tol Infinity a solve reported its initial guess as converged
# after one iteration, L NaN or Infinity ran to energy=nan, and tol NaN never
# converged.
@pytest.mark.parametrize("section, key, value", [
    ("solver", "tol", True),
    ("solver", "max_iters", 2.7),
    ("grid", "M", 16.9),
    ("solver", "max_iters", "3"),
    ("problem", "p", "2"),
    ("problem", "N", 3.5),
    ("grid", "L", False),
    ("problem", "experimental", "yes"),
    ("solver", "tol", float("inf")),
    ("solver", "tol", float("nan")),
    ("grid", "L", float("inf")),
    ("grid", "L", float("nan")),
])
def test_cli_rejects_mistyped_numbers(tmp_path, capsys, section, key, value):
    cfg = base_config(tmp_path / "run", group={"name": "A1"})
    cfg["grid"] = {"M": 16, "L": 10.0}
    cfg[section][key] = value
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["saddle", "--config", path]) == 1
    assert f"'{section}.{key}' must be" in capsys.readouterr().err


# Each of these once escaped cli.main as a TypeError traceback, except the
# name with generators, which ran the generators and dropped the name.
@pytest.mark.parametrize("command, section, value, message", [
    ("saddle", "group", {"generators": 5}, "'group.generators' must be"),
    ("saddle", "group", {"generators": [[["1", 0], [0, 1]]]}, "'group.generators' must be"),
    ("table", "group", {"name": [["A1"]]}, "'group.name' must be"),
    ("groundstate", "output", {"dir": 5}, "'output.dir' must be a string"),
    ("saddle", "group", {"name": "B2", "generators": [[[-1, 0], [0, 1]]]},
     "'group' takes 'name' or 'generators', not both"),
])
def test_cli_rejects_malformed_group_and_output(tmp_path, capsys, command, section, value, message):
    cfg = base_config(tmp_path / "run")
    cfg[section] = value
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["null", "5", '[["problem"]]'])
def test_cli_rejects_config_that_is_not_an_object(tmp_path, capsys, raw):
    path = tmp_path / "c.json"
    path.write_text(raw)
    assert main(["groundstate", "--config", str(path)]) == 1
    assert "error: a config must be a JSON object" in capsys.readouterr().err


def test_load_config_normalizes_generators(tmp_path):
    cfg = base_config(tmp_path, group={"generators": [[[-1.0, 0], [0, 1]]]})
    (sc,) = load_config(write_json(tmp_path / "c.json", cfg), "saddle")["configs"]
    G = sc.group
    assert [g.tolist() for g in G.generators] == [[[-1, 0], [0, 1]]]
    assert G.order == 2 and G.name is None


def test_load_config_keeps_integral_floats(tmp_path):
    cfg = base_config(tmp_path, group={"name": "A1"})
    cfg["grid"]["M"] = 12.0
    cfg["solver"]["max_iters"] = 400.0
    out = load_config(write_json(tmp_path / "c.json", cfg), "saddle")
    assert out["grid"].M == 12
    (sc,) = out["configs"]
    assert sc.max_iters == 400 and isinstance(sc.max_iters, int)


def test_cli_error_exits(tmp_path, capsys):
    # missing file
    assert main(["info", "--config", str(tmp_path / "nope.json")]) == 1
    # unknown config key
    bad = {"problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0, "zzz": 1}}
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["info", "--config", path]) == 1
    assert "unknown key(s) in 'problem': ['zzz']" in capsys.readouterr().err
    # the descent step is fixed at 1; a config that still sets it is refused
    bad = base_config(tmp_path)
    bad["solver"]["step"] = 1.0
    path = write_json(tmp_path / "step.json", bad)
    assert main(["groundstate", "--config", path]) == 1
    assert "unknown key(s) in 'solver': ['step']" in capsys.readouterr().err
    # wrong group kind for the command
    cfg = base_config(tmp_path, group={"name": "A1"})
    path = write_json(tmp_path / "g.json", cfg)
    assert main(["groundstate", "--config", path]) == 1
    assert "error: groundstate runs need the trivial group" in capsys.readouterr().err
    cfg = base_config(tmp_path)
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["saddle", "--config", path]) == 1
    assert "error: saddle runs need a nontrivial group" in capsys.readouterr().err


def test_cli_reports_a_collapse_to_zero(tmp_path, monkeypatch, capsys):
    # a class whose start or iterate symmetrizes to zero is a finished run
    # that missed its target: exit 2 and an error line, and no report
    def collapse(group, base, cache=None):
        raise cli.CollapseToZero("initial field symmetrized to zero")

    monkeypatch.setattr(cli, "solve_level", collapse)
    outdir = tmp_path / "run"
    path = write_json(tmp_path / "c.json", base_config(outdir, group={"name": "A1"}))
    assert main(["saddle", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: initial field symmetrized to zero\n"
    assert not outdir.exists()


def test_cli_reports_a_grid_too_coarse_for_the_class(tmp_path, capsys):
    # at M = 8 every shift of B3's start lies on a wall: exit 2 and one error
    # line naming the grid, and no report
    outdir = tmp_path / "run"
    path = write_json(tmp_path / "c.json", base_config(
        outdir, grid={"M": 8, "L": 6.0}, group={"name": "B3"}))
    assert main(["saddle", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at M = 8" in err and err.count("\n") == 1
    assert not outdir.exists()


# Each of these once ended in an OSError traceback.
def test_cli_reports_a_config_directory(tmp_path, capsys):
    assert main(["groundstate", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reports_an_output_directory_under_a_file(tmp_path, capsys):
    # raised only once the whole solve has run
    path = write_json(tmp_path / "c.json", base_config(tmp_path / "run"))
    (tmp_path / "file").write_text("")
    assert main(["groundstate", "--config", path, "--out", str(tmp_path / "file" / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_out_override(tmp_path):
    outdir = tmp_path / "a"
    path = write_json(tmp_path / "c.json", base_config(outdir))
    other = tmp_path / "b"
    assert main(["groundstate", "--config", path, "--out", str(other)]) == 0
    assert (other / "trivial_report.json").exists()
    assert not outdir.exists()


def test_cli_seed_override_is_extension_check_only(tmp_path, capsys):
    # the seed is config-only: solver.seed, which no other command reads;
    # no command takes a --seed flag
    cfg = base_config(tmp_path / "run", solver={"seed": 7})
    cfg["problem"]["s"] = [0.5]
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["extension-check", "--config", path]) == 0
    for command in ("extension-check", "groundstate"):
        with pytest.raises(SystemExit):
            main([command, "--config", path, "--seed", "7"])
    cfg["problem"]["s"] = 0.5
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["groundstate", "--config", path]) == 1
    assert "'solver.seed' is not read by this command" in capsys.readouterr().err


def test_cli_groundstate_report_omits_seed(tmp_path, capsys):
    # only extension-check reads solver.seed, so a solve's echo leaves it out
    outdir = tmp_path / "run"
    path = write_json(tmp_path / "c.json", base_config(outdir))
    assert main(["groundstate", "--config", path]) == 0
    solver = json.loads((outdir / "trivial_report.json").read_text())["config"]["solver"]
    assert solver == {"tol": 1e-3, "max_iters": 400}
    capsys.readouterr()


# Each of these once exited 0: the solve commands dropped the seed that only
# extension-check reads, and extension-check ignored the solver's tol and
# max_iters.  The refused key is named also after a key the command reads.
@pytest.mark.parametrize("command, group, solver", [
    ("groundstate", "trivial", {"tol": 1e-3, "seed": 5}),
    ("groundstate", "trivial", {"seed": 5}),
    ("saddle", "A1", {"max_iters": 400, "seed": 5}),
    ("table", ["trivial", "A1"], {"seed": 5}),
    ("extension-check", "trivial", {"tol": 1e-3}),
    ("extension-check", "trivial", {"max_iters": 400}),
    ("extension-check", "trivial", {"seed": 5, "tol": 1e-3}),
])
def test_cli_refuses_solver_keys_the_command_ignores(tmp_path, capsys, command, group, solver):
    cfg = base_config(tmp_path / "run", group={"name": group}, solver=solver)
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path]) == 1
    refused = {"extension-check": ("tol", "max_iters")}
    key = next(k for k in solver if k in refused.get(command, ("seed",)))
    assert f"error: 'solver.{key}' is not read by this command" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# Each of these once exited 0: neither command resolves a group, and info
# reads no solver key, no grid and no output directory.
@pytest.mark.parametrize("command, section, value, message", [
    ("extension-check", "group", {"name": "B3"}, "'group.name'"),
    ("info", "group", {"name": "A1"}, "'group.name'"),
    ("info", "solver", {"tol": 1e-3}, "'solver.tol'"),
    ("info", "solver", {"seed": 4, "max_iters": 10}, "'solver.seed'"),
    ("info", "grid", {"M": 12, "L": 8.0}, "'grid.M'"),
    ("info", "output", {"dir": "elsewhere"}, "'output.dir'"),
])
def test_cli_refuses_sections_the_command_ignores(tmp_path, capsys, command, section, value, message):
    cfg = base_config(tmp_path / "run", solver={})
    if command == "info":  # info reads the problem section alone
        del cfg["grid"], cfg["output"]
    cfg[section] = value
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path]) == 1
    assert f"error: {message} is not read by this command" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_extension_check_reads_the_config_seed(tmp_path, capsys):
    cfg = base_config(tmp_path / "run", solver={})
    cfg["problem"]["s"] = [0.5]

    def lhs(seed):
        cfg["solver"]["seed"] = seed
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["extension-check", "--config", path]) == 0
        rows = (tmp_path / "run" / "extension_check.csv").read_text().splitlines()
        return float(rows[1].split(",")[2])

    assert lhs(7) != lhs(0)
    capsys.readouterr()
