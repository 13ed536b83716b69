"""Span recording around fracsaddle's public functions, installed from outside.

Nothing in the package is edited.  A wrapper replaces an original function
at every module-level name in the package that holds it, so callers that
bound the function at import (``solver.fftn``, ``energy.riesz_convolve``,
``cli.solve``, ``analysis.solve``, the package re-exports) and callers that
look it up at call time (``from .spectral import riesz_convolve`` inside
``solve``) both reach the wrapper.  Methods are wrapped on their class.

Spans live in flat lists in memory and are summarized once, after the run:
a span's self time is its duration minus the durations of its direct
children, and a layer's self time is the sum over its spans.
"""

import functools
import importlib
import inspect
import os
import sys
import time

PACKAGE = "fracsaddle"
LAYERS = ("spectral", "solver", "energy", "analysis", "coxeter", "extension", "fieldio")
# __init__ is private by name but is where these two classes do their work.
TRACED_INITS = {"GroupAction", "CoxeterGroup"}
WRAPPER_FLAG = "_perfbench_wrapper"


def layer_module(layer: str):
    # sys.modules, not the package attribute: fracsaddle.energy on the
    # package is the energy() function, which shadows the submodule.
    return importlib.import_module(f"{PACKAGE}.{layer}")


def _package_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(orig, replacement) -> None:
    """Point every package-level name holding `orig` at `replacement`."""
    for _name, mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def wrapped_sites() -> list:
    """Every package-level name and class attribute currently holding a wrapper."""
    sites = []
    for name, mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPER_FLAG, False):
                sites.append(f"{name}.{attr}")
            elif inspect.isclass(value) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPER_FLAG, False):
                        sites.append(f"{name}.{attr}.{meth}")
    return sorted(sites)


def public_targets(layer: str):
    """(span name, owner, attribute) for the layer's public functions and methods."""
    mod = layer_module(layer)
    modname = mod.__name__
    out = []
    for attr, value in sorted(vars(mod).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != modname:
            continue
        if inspect.isfunction(value):
            out.append((f"{layer}.{attr}", mod, attr))
        elif inspect.isclass(value):
            for meth, fn in sorted(vars(value).items()):
                public = not meth.startswith("_") or (
                    meth == "__init__" and attr in TRACED_INITS
                )
                if public and inspect.isfunction(fn):
                    out.append((f"{layer}.{attr}.{meth}", value, meth))
    return out


def _solve_note(sol, args):
    return {
        "iterations": int(sol.iterations),
        "converged": bool(sol.converged),
        "stalled": bool(sol.metadata.get("stalled", False)),
    }


def _action_note(_out, args):
    act = args[0]
    arrays = (act.tables, act.gather, act.rep_sel, act.wall, act.signs)
    return {"bytes": int(sum(a.nbytes for a in arrays))}


def _field_note(_out, args):
    path = os.fspath(args[0])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


def _report_note(_out, args):
    return {"bytes": os.path.getsize(os.fspath(args[0]))}


NOTES = {
    "solver.solve": _solve_note,
    "solver.GroupAction.__init__": _action_note,
    "fieldio.write_field": _field_note,
    "fieldio.write_report": _report_note,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn, note=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, notes, clock = self._stack, self.notes, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(out, args)
            return out

        setattr(traced, WRAPPER_FLAG, True)
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            for name, owner, attr in public_targets(layer):
                orig = vars(owner)[attr]
                wrapper = self.wrap(name, orig, NOTES.get(name))
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapper)
                else:
                    rebind(orig, wrapper)

    def _note_bytes(self, *names) -> int:
        return sum(
            self.notes[i]["bytes"] for i, k in enumerate(self.names)
            if k in names and i in self.notes
        )

    def summary(self, t_solve0: float, t_end: float) -> dict:
        """Per-layer metrics from the recorded spans (see README.md)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_t = list(dur)
        for i in range(n):
            if self.parents[i] >= 0:
                self_t[self.parents[i]] -= dur[i]

        calls, incl, selfs = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            selfs[name] = selfs.get(name, 0.0) + self_t[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_t[i]
            layer_calls[layer] += 1

        def c(*names):
            return sum(calls.get(k, 0) for k in names)

        def t_incl(*names):
            return sum(incl.get(k, 0.0) for k in names)

        def t_self(*names):
            return sum(selfs.get(k, 0.0) for k in names)

        # Solve-level counts: iterations, step acceptance, cache hits.
        solves = [i for i, k in enumerate(self.names) if k == "solver.solve" and i in self.notes]
        iterations = sum(self.notes[i]["iterations"] for i in solves)
        accepted = 0
        for i in solves:
            note = self.notes[i]
            ends_on_check = note["converged"] or note["stalled"]
            accepted += note["iterations"] - (1 if ends_on_check else 0)
        # Each candidate is evaluated by one convolution called from solve
        # itself; the first such call evaluates the initial field.
        solve_set = set(solves)
        trials = sum(
            1 for i, k in enumerate(self.names)
            if k == "spectral.riesz_convolve" and self.parents[i] in solve_set
        ) - len(solves)
        missed = set()
        for i in solves:
            j = self.parents[i]
            while j >= 0:
                if self.names[j] == "analysis.solve_level":
                    missed.add(j)
                j = self.parents[j]
        level_calls = c("analysis.solve_level")

        covered = 0.0
        for i in range(n):
            if self.parents[i] < 0:
                covered += max(0.0, min(self.ends[i], t_end) - max(self.starts[i], t_solve0))
        solve_s = t_end - t_solve0

        conv_calls = c("spectral.riesz_convolve")
        m = {
            "spectral.riesz_convolve.calls": (conv_calls, "count"),
            "spectral.riesz_convolve.self_s": (t_self("spectral.riesz_convolve"), "s"),
            "spectral.riesz_convolve.ms_per_call": (
                1e3 * t_self("spectral.riesz_convolve") / conv_calls if conv_calls else 0.0, "ms"),
            "spectral.fft.calls": (c("spectral.fftn", "spectral.ifftn"), "count"),
            "spectral.fft.self_s": (t_self("spectral.fftn", "spectral.ifftn"), "s"),
            "spectral.kernel_build_s": (t_incl("spectral.build_riesz_kernel"), "s"),
            "solver.solves": (len(solves), "count"),
            "solver.iterations": (iterations, "count"),
            "solver.ms_per_iteration": (
                1e3 * t_incl("solver.solve") / iterations if iterations else 0.0, "ms"),
            "solver.step_acceptance": (accepted / trials if trials > 0 else 0.0, "ratio"),
            "solver.project.calls": (c("solver.GroupAction.project"), "count"),
            "solver.project.self_s": (t_self("solver.GroupAction.project"), "s"),
            "solver.action_build_s": (t_incl("solver.GroupAction.__init__"), "s"),
            "solver.action_tables_mb": (
                self._note_bytes("solver.GroupAction.__init__") / 1e6, "MB"),
            "solver.init_s": (t_incl("solver.init_groundstate", "solver.init_saddle"), "s"),
            "energy.calls": (layer_calls["energy"], "count"),
            "analysis.solve_level.calls": (level_calls, "count"),
            "analysis.solve_level.hits": (level_calls - len(missed), "count"),
            "analysis.diagnostics_s": (
                t_incl("analysis.nodal_domains", "analysis.decay_exponent"), "s"),
            "extension.psi_profile.calls": (c("extension.psi_profile"), "count"),
            "extension.psi_profile.self_s": (t_self("extension.psi_profile"), "s"),
            "extension.harmonic_extend.self_s": (t_self("extension.harmonic_extend"), "s"),
            "extension.extension_energy.self_s": (t_self("extension.extension_energy"), "s"),
            "fieldio.load_config_s": (t_incl("fieldio.load_config"), "s"),
            "fieldio.write_s": (t_incl("fieldio.write_field", "fieldio.write_report"), "s"),
            "fieldio.bytes_written": (
                self._note_bytes("fieldio.write_field", "fieldio.write_report"), "B"),
            "trace.spans": (n, "count"),
            "trace.solve_coverage": (covered / solve_s if solve_s > 0 else 0.0, "ratio"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
