#!/usr/bin/env python3
"""fracsaddle benchmark: time to solution through the public CLI.

    python3 perfbench/run.py --workload groundstate48 --seed 0 --seconds 40 --trace 0

Each repetition is a fresh child process (child.py) that runs
fracsaddle.cli.main, so every repetition pays the set-up a user pays.
Repetitions run one at a time (a closed loop with one caller) with one FFT
worker and BLAS/OpenMP pinned to one thread.  Every repetition's outputs
go through a correctness gate; a repetition that fails it counts in
failed_frac and makes the command exit non-zero.

--trace 0 prints the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus the tracing overhead.
--workload all runs every workload in turn.  --out FILE writes the full
record: provenance, every sample and every metric.

The standard library is all this file and child.py need; the child imports
fracsaddle from src/ next to this directory.  See README.md here for the
metric definitions and the reason for each workload.
"""

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

# A whole invocation must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 3
REL_TOL = 1e-8  # ROADMAP's bar for converged energies
EXTENSION_RATIO_TOL = 0.02  # the CLI's own identity tolerance

PROBLEM = {"N": 3, "s": 0.5, "alpha": 2.0, "p": 2.0}
SOLVER = {"tol": 1e-6, "max_iters": 2000}
TABLE_GROUPS = ["trivial", "A1", "A1xA1", "B2"]
EXTENSION_S = [0.25, 0.5, 0.75]

WORKLOADS = {
    "groundstate48": {
        "command": "groundstate",
        "marker": ("solver", "solve"),
        "config": {"problem": PROBLEM, "grid": {"M": 48, "L": 24.0},
                   "group": {"name": "trivial"}, "solver": SOLVER},
    },
    "table24": {
        "command": "table",
        "marker": ("solver", "solve"),
        "config": {"problem": PROBLEM, "grid": {"M": 24, "L": 18.0},
                   "group": {"name": TABLE_GROUPS}, "solver": SOLVER},
    },
    "extension32": {
        "command": "extension-check",
        "marker": ("extension", "energy_identity_check"),
        "config": {"problem": dict(PROBLEM, s=EXTENSION_S), "grid": {"M": 32, "L": 24.0}},
    },
}

# Recorded from the seed commit (7ee0444) with one FFT worker.
GROUNDSTATE_ENERGY = 17.037661157521356
TABLE_ENERGIES = {
    "trivial": 17.08833563307752,
    "A1": 27.5355752092696,
    "A1xA1": 40.51399729822856,
    "B2": 62.674295239072606,
}
# extension32 (lhs, rhs) per s, keyed by benchmark seed, as the CLI's CSV
# prints them (12 significant digits).
EXTENSION_REFERENCE = {
    0: {0.25: (66.0373093335, 65.7148774481),
        0.5: (149.899281552, 149.783753386),
        0.75: (354.542028532, 354.507298164)},
}

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer metrics that are counts: they must repeat exactly between runs.
EXACT_COUNTS = (
    "solver.solves", "solver.iterations", "spectral.riesz_convolve.calls",
    "solver.project.calls", "spectral.fft.calls", "analysis.solve_level.calls",
    "analysis.solve_level.hits", "extension.psi_profile.calls", "energy.calls",
)


def config_for(name: str, seed: int) -> dict:
    """The run configuration of a workload.  Only extension32 reads the seed:
    it draws the random field the identity is checked on.  The solve
    workloads start from deterministic initial guesses, and the solver
    never reads its seed (see ROADMAP item 2)."""
    cfg = json.loads(json.dumps(WORKLOADS[name]["config"]))
    if name == "extension32":
        cfg["solver"] = {"seed": seed}
    return cfg


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def read_outputs(name: str, outdir: Path):
    """The CLI's written outputs as plain data, or None if they are missing."""
    try:
        if name == "groundstate48":
            with open(outdir / "trivial_report.json") as fh:
                rep = json.load(fh)
            return {"energy": float(rep["energy"]), "converged": rep["converged"]}
        fname = "energy_table.csv" if name == "table24" else "extension_check.csv"
        with open(outdir / fname, newline="") as fh:
            return {"rows": list(csv.DictReader(fh))}
    except (OSError, ValueError, KeyError):
        return None


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def gate(name: str, seed: int, rc, solves, outputs) -> list:
    """Reasons this repetition's results are wrong; empty when they pass."""
    if rc != 0:
        return [f"exit code {rc}"]
    if outputs is None:
        return ["outputs missing or unreadable"]
    bad = []
    if WORKLOADS[name]["marker"][1] == "solve":
        if not solves:
            bad.append("no solve ran")
        bad += [f"solve {i} did not converge" for i, s in enumerate(solves) if not s["converged"]]
    try:
        if name == "groundstate48":
            if outputs["converged"] is not True:
                bad.append("report says not converged")
            if _rel_err(outputs["energy"], GROUNDSTATE_ENERGY) > REL_TOL:
                bad.append(f"energy {outputs['energy']!r} != {GROUNDSTATE_ENERGY!r}")
        elif name == "table24":
            rows = outputs["rows"]
            if [r["group"] for r in rows] != TABLE_GROUPS:
                bad.append(f"table rows {[r['group'] for r in rows]} != {TABLE_GROUPS}")
            for r in rows:
                if r["verified"] != "true":
                    bad.append(f"row {r['group']} not verified")
                ref = TABLE_ENERGIES.get(r["group"])
                if ref is not None and _rel_err(float(r["cG"]), ref) > REL_TOL:
                    bad.append(f"row {r['group']} cG {r['cG']} != {ref!r}")
        else:
            rows = outputs["rows"]
            if [float(r["s"]) for r in rows] != EXTENSION_S:
                bad.append(f"s values {[r['s'] for r in rows]} != {EXTENSION_S}")
            refs = EXTENSION_REFERENCE.get(seed, {})
            for r in rows:
                s, lhs, rhs, ratio = (float(r[k]) for k in ("s", "lhs", "rhs", "ratio"))
                if not abs(ratio - 1.0) <= EXTENSION_RATIO_TOL:
                    bad.append(f"s={s}: ratio {ratio} outside the 2% identity")
                if _rel_err(lhs / rhs, ratio) > 1e-9:
                    bad.append(f"s={s}: ratio {ratio} != lhs/rhs {lhs / rhs}")
                if s in refs:
                    for label, got, ref in (("lhs", lhs, refs[s][0]), ("rhs", rhs, refs[s][1])):
                        if _rel_err(got, ref) > REL_TOL:
                            bad.append(f"s={s}: {label} {got!r} != {ref!r}")
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        bad.append(f"malformed outputs: {exc!r}")
    return bad


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, repdir: Path, timeout: float) -> dict:
    """Start one child, wait for it, and return its timings and result."""
    repdir.mkdir(parents=True)
    spec = dict(spec, result=str(repdir / "result.json"))
    spec_path = repdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(repdir / "stdout.txt", "w") as out, open(repdir / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                cwd=repdir, env=child_env(), stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
        t1 = time.monotonic()
    try:
        with open(spec["result"]) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    return {"t0": t0, "t1": t1, "rc": rc, "result": result, "dir": repdir}


def _stderr_tail(rep) -> str:
    try:
        lines = (rep["dir"] / "stderr.txt").read_text().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


class Run:
    """The repetitions of one workload at one seed."""

    def __init__(self, name: str, seed: int, trace: bool, workdir: Path):
        self.name, self.seed, self.trace = name, seed, trace
        self.workdir = workdir
        self.full, self.setup_only, self.traced = [], [], []
        self.failures = []
        self.attempted = 0
        self.versions = None
        w = WORKLOADS[name]
        self.config_path = workdir / "config.json"
        self.spec = {"marker_layer": w["marker"][0], "marker": w["marker"][1],
                     "trace": False, "setup_only": False}
        self.command = w["command"]

    def _repeat(self, kind: str, timeout: float):
        self.attempted += 1
        repdir = self.workdir / f"rep{self.attempted:03d}-{kind}"
        outdir = repdir / "out"
        argv = [self.command, "--config", str(self.config_path), "--out", str(outdir)]
        spec = dict(self.spec, argv=argv, trace=kind == "traced", setup_only=kind == "setup")
        rep = run_child(spec, repdir, timeout)
        res = rep["result"]
        if res is not None and self.versions is None:
            self.versions = res["versions"]
        if kind == "setup":
            ok = rep["rc"] == 0 and res is not None and res["setup_end"] is not None
            reasons = [] if ok else [f"exit code {rep['rc']}: {_stderr_tail(rep)}"]
        elif res is None:
            reasons = [f"exit code {rep['rc']}, no result: {_stderr_tail(rep)}"]
        else:
            reasons = gate(self.name, self.seed, rep["rc"], res["solves"],
                           read_outputs(self.name, outdir))
            if not reasons and res["setup_end"] is None:
                reasons = ["set-up marker never reached"]
        if reasons:
            self.failures.append({"rep": repdir.name, "reasons": reasons})
        else:
            {"full": self.full, "setup": self.setup_only, "traced": self.traced}[kind].append(rep)
        shutil.rmtree(outdir, ignore_errors=True)
        return rep

    def measure(self, seconds: float, deadline: float) -> None:
        self.workdir.mkdir(parents=True)
        self.config_path.write_text(json.dumps(config_for(self.name, self.seed)))
        warm = run_child(dict(self.spec, import_only=True), self.workdir / "warmup",
                         deadline - time.monotonic())
        if warm["rc"] != 0 or warm["result"] is None:
            raise RuntimeError(f"importing fracsaddle failed: {_stderr_tail(warm)}")
        if Path(warm["result"]["package"]).resolve() != (SRC / "fracsaddle").resolve():
            raise RuntimeError(f"imported fracsaddle from {warm['result']['package']}, "
                               f"not from {SRC}")
        start = time.monotonic()
        kinds = ["full", "traced"] if self.trace else ["full"]
        walls = {k: [] for k in kinds}
        while True:
            for kind in kinds:
                rep = self._repeat(kind, deadline - time.monotonic())
                walls[kind].append(rep["t1"] - rep["t0"])
            now = time.monotonic()
            cycle = sum(statistics.median(v) for v in walls.values())
            if now + cycle > min(start + seconds, deadline) or self.failures:
                break
        if not self.trace:
            while (len(self.full) + len(self.setup_only) < MIN_SETUP_SAMPLES
                   and not self.failures and time.monotonic() < deadline - 10.0):
                self._repeat("setup", deadline - time.monotonic())

    def end_to_end(self) -> dict:
        return {
            "setup_s": [r["result"]["setup_end"] - r["t0"] for r in self.full + self.setup_only],
            "solve_s": [r["result"]["cli_return"] - r["result"]["setup_end"] for r in self.full],
            "wall_s": [r["t1"] - r["t0"] for r in self.full],
            "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in self.full],
        }

    def layers(self) -> dict:
        traced = [r["result"]["layers"] for r in self.traced]
        if not traced:
            return {}
        out = {}
        for key, first in traced[0].items():
            vals = [t[key]["value"] for t in traced]
            if key in EXACT_COUNTS:
                value = vals[0]
                if any(v != value for v in vals):
                    self.failures.append({"rep": "traced", "reasons": [f"{key} differs: {vals}"]})
            else:
                value = statistics.median(vals)
            out[key] = {"value": value, "unit": first["unit"]}
        traced_wall = statistics.median(r["t1"] - r["t0"] for r in self.traced)
        plain = [r["t1"] - r["t0"] for r in self.full]
        plain_wall = statistics.median(plain) if plain else 0.0
        out["trace.wall_s_traced"] = {"value": traced_wall, "unit": "s"}
        out["trace.wall_s_untraced"] = {"value": plain_wall, "unit": "s"}
        out["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        return out


# ---------------------------------------------------------------------------
# Provenance and reporting
# ---------------------------------------------------------------------------

def provenance() -> dict:
    info = {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for d in sorted(cache_root.glob("index*")):
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
            info["caches"][f"L{level}-{kind}"] = size
    except OSError:
        pass
    return info


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(name, seed, trace, workdir)
    try:
        run.measure(seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = run.end_to_end()
    if trace:
        metrics = run.layers()
    else:
        metrics = {key: {"value": statistics.median(samples[key]) if samples[key] else 0.0,
                         "unit": unit} for key, unit in END_TO_END}
    failed = len(run.failures)
    print(f"{name}  seed={seed}  trace={int(trace)}  repetitions={run.attempted}  "
          f"failed={failed}")
    for key, m in metrics.items():
        count = f"  median of {len(samples[key])}" if key in samples else ""
        print(f"  {key:<36} {_fmt(m['value']):>12} {m['unit']:<5}{count}")
    print(f"  {'failed_frac':<36} {_fmt(failed / max(run.attempted, 1)):>12} "
          f"      {failed} of {run.attempted}")
    for f in run.failures:
        print(f"  FAILED {f['rep']}: {'; '.join(f['reasons'])}")
    return {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "attempted": run.attempted, "failed": failed, "failures": run.failures,
        "versions": run.versions, "samples": samples, "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload; at least one repetition runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the full record as JSON here")
    args = ap.parse_args(argv)

    if not (SRC / "fracsaddle" / "cli.py").is_file():
        print(f"error: no fracsaddle sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    prov = provenance()
    records = []
    for i, name in enumerate(names):
        # With --workload all, each workload gets its own share of the limit.
        deadline = start + HARD_LIMIT_S * (i + 1)
        try:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    prov["versions"] = next((r["versions"] for r in records if r["versions"]), None)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": prov, "runs": records}, fh, indent=1)
            fh.write("\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
