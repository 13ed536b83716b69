import json
from pathlib import Path

import numpy as np
import pytest

from fracsaddle import cli
from fracsaddle.analysis import nodal_domains
from fracsaddle.cli import main
from fracsaddle.fieldio import (
    ConfigError,
    load_config,
    read_field,
    resolve_group,
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
    cfg = load_config(path)
    assert cfg["params"] == ModelParams(3, 0.5, 2.0, 2.0)
    assert cfg["grid"].M == 16
    assert cfg["solver"]["tol"] == 1e-6
    assert cfg["solver"]["max_iters"] == 2000
    assert cfg["group_spec"] == {"name": "trivial"}
    assert cfg["output"]["dir"] == "out"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_json(tmp_path / "c.json", base_config(tmp_path, extra={"x": 1}))
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_json(tmp_path / "c2.json", {
        "problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0, "qqq": 1},
        "grid": {"M": 12, "L": 8.0},
    })
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_requires_sections(tmp_path):
    path = write_json(tmp_path / "c.json", {"problem": {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_inadmissible_params(tmp_path):
    bad = base_config(tmp_path)
    bad["problem"]["s"] = 0.25  # p = 2 sits exactly on the critical exponent
    path = write_json(tmp_path / "c.json", bad)
    with pytest.raises(ConfigError, match="inadmissible"):
        load_config(path)


def test_load_config_s_list_needs_flag(tmp_path):
    cfg = base_config(tmp_path)
    cfg["problem"]["s"] = [0.25, 0.5]
    path = write_json(tmp_path / "c.json", cfg)
    with pytest.raises(ConfigError):
        load_config(path)
    out = load_config(path, allow_s_list=True)
    assert out["params"].s == 0.25
    cfg["problem"]["s"] = [0.5, 1.5]
    path = write_json(tmp_path / "c2.json", cfg)
    with pytest.raises(ConfigError):
        load_config(path, allow_s_list=True)


def test_resolve_group_paths():
    assert resolve_group({"name": "B2"}).order == 8
    assert resolve_group({}).is_trivial()
    gens = [[[0, 1], [1, 0]]]
    assert resolve_group({"generators": gens}).order == 2
    with pytest.raises(ConfigError):
        resolve_group({"name": ["A1", "B2"]})


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
    path = write_json(tmp_path / "c.json", base_config(tmp_path))
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
    assert report["nodal_count"] == report["nodal_report"]["count"] == 2
    # at M = 16 the fit window [0.2 L, 0.4 L] holds only 3 shells
    assert report["decay_slope"] is None
    assert "fit window" in report["decay_slope_reason"]
    assert "nodal=2" in capsys.readouterr().out


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
    rows = (outdir / "extension_check.csv").read_text().strip().splitlines()
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
    rows = (outdir / "energy_table.csv").read_text().strip().splitlines()
    assert rows[0] == "group,cG,cStar,margin,verified"
    assert len(rows) == 3


def test_cli_table_honours_saddle_radius(tmp_path, capsys):
    # R = L/3 is outside (0, L/4): table must refuse it exactly as saddle does
    cfg = base_config(tmp_path / "run", group={"name": ["A1"]})
    cfg["solver"]["R"] = cfg["grid"]["L"] / 3.0
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["table", "--config", path]) == 1
    assert "R must lie in" in capsys.readouterr().err
    cfg["group"] = {"name": "A1"}
    path = write_json(tmp_path / "s.json", cfg)
    assert main(["saddle", "--config", path]) == 1
    assert "R must lie in" in capsys.readouterr().err


# Each of these was once coerced and run: tol true as 1.0 (a 2-iteration
# "converged" saddle with 22 nodal domains), max_iters 2.7 as 2, M 16.9 as 16;
# R "3" escaped as a TypeError traceback.  JSON Infinity and NaN load as
# floats: with tol Infinity a solve reported its initial guess as converged
# after one iteration, L NaN or Infinity ran to energy=nan, and tol NaN never
# converged.
@pytest.mark.parametrize("section, key, value", [
    ("solver", "tol", True),
    ("solver", "max_iters", 2.7),
    ("grid", "M", 16.9),
    ("solver", "R", "3"),
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
    spec = load_config(write_json(tmp_path / "c.json", cfg))["group_spec"]
    assert spec == {"generators": [[[-1, 0], [0, 1]]]}
    assert resolve_group(spec).order == 2


def test_load_config_keeps_integral_floats(tmp_path):
    cfg = base_config(tmp_path)
    cfg["grid"]["M"] = 12.0
    cfg["solver"]["max_iters"] = 400.0
    out = load_config(write_json(tmp_path / "c.json", cfg))
    assert out["grid"].M == 12
    assert out["solver"]["max_iters"] == 400 and isinstance(out["solver"]["max_iters"], int)


def test_cli_error_exits(tmp_path, capsys):
    # missing file
    assert main(["info", "--config", str(tmp_path / "nope.json")]) == 1
    # unknown config key
    bad = base_config(tmp_path)
    bad["problem"]["zzz"] = 1
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["info", "--config", path]) == 1
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
    cfg = base_config(tmp_path)
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["saddle", "--config", path]) == 1
    capsys.readouterr()


def test_cli_out_override(tmp_path):
    outdir = tmp_path / "a"
    path = write_json(tmp_path / "c.json", base_config(outdir))
    other = tmp_path / "b"
    assert main(["groundstate", "--config", path, "--out", str(other)]) == 0
    assert (other / "trivial_report.json").exists()
    assert not outdir.exists()


def test_cli_seed_override_is_extension_check_only(tmp_path, capsys):
    cfg = base_config(tmp_path / "run", solver={})
    cfg["problem"]["s"] = [0.5]
    path = write_json(tmp_path / "c.json", cfg)

    def lhs(*flags):
        assert main(["extension-check", "--config", path, *flags]) == 0
        rows = (tmp_path / "run" / "extension_check.csv").read_text().splitlines()
        return float(rows[1].split(",")[2])

    assert lhs("--seed", "7") != lhs()
    with pytest.raises(SystemExit):
        main(["groundstate", "--config", path, "--seed", "7"])
    capsys.readouterr()


def test_cli_groundstate_report_omits_seed(tmp_path, capsys):
    # only extension-check reads solver.seed, so a solve's echo leaves it out
    outdir = tmp_path / "run"
    path = write_json(tmp_path / "c.json", base_config(outdir))
    assert main(["groundstate", "--config", path]) == 0
    solver = json.loads((outdir / "trivial_report.json").read_text())["config"]["solver"]
    assert "seed" not in solver
    assert solver["tol"] == 1e-3 and solver["max_iters"] == 400
    capsys.readouterr()


# Each of these once exited 0: groundstate echoed an R it never used, the
# solve commands dropped the seed that only extension-check reads, and
# extension-check ignored the solver's tol, max_iters and R.
@pytest.mark.parametrize("command, group, solver", [
    ("groundstate", "trivial", {"R": 0.3}),
    ("groundstate", "trivial", {"seed": 5}),
    ("saddle", "A1", {"R": 0.3, "seed": 5}),
    ("table", ["trivial", "A1"], {"seed": 5}),
    ("extension-check", "trivial", {"tol": 1e-3}),
    ("extension-check", "trivial", {"max_iters": 400}),
    ("extension-check", "trivial", {"seed": 5, "R": 0.3}),
])
def test_cli_refuses_solver_keys_the_command_ignores(tmp_path, capsys, command, group, solver):
    cfg = base_config(tmp_path / "run", group={"name": group}, solver=solver)
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path]) == 1
    refused = {"groundstate": ("R", "seed"), "extension-check": ("tol", "max_iters", "R")}
    key = next(k for k in solver if k in refused.get(command, ("seed",)))
    assert f"error: 'solver.{key}' is not read by this command" in capsys.readouterr().err
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
