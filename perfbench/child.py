"""One benchmark repetition: a fresh process that runs the fracsaddle CLI.

Usage: python3 child.py SPEC.json

SPEC holds the CLI arguments, where to write the result, which function
marks the end of set-up ("solve" or "energy_identity_check"), and three
switches: trace (wrap every public function of each layer), setup_only
(exit at the end of set-up) and import_only (import the package and exit,
which fills the bytecode cache before timed repetitions).

The result file records time.monotonic() at the end of set-up and when
the CLI returns (the same clock the parent reads before starting this
process), the exit code, one record per solve, the peak resident set
size, library versions, the names that hold a wrapper, and, when traced,
the per-layer summary.
"""

import json
import os
import resource
import sys
import time

import tracer


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _write(path, result) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import fracsaddle.cli as cli

    for layer in tracer.LAYERS:
        tracer.layer_module(layer)
    result = {
        "package": os.path.dirname(cli.__file__),
        "versions": _versions(),
        "setup_end": None,
        "solves": [],
    }
    if spec.get("import_only"):
        _write(spec["result"], result)
        return 0

    spans = None
    if spec["trace"]:
        spans = tracer.Tracer()
        spans.install()

    # The marker: the one wrapper an untraced run installs.  It timestamps
    # the first entry (the end of set-up) and keeps each solve's outcome
    # for the correctness gate.
    marked_name = spec["marker"]
    marked = getattr(tracer.layer_module(spec["marker_layer"]), marked_name)

    def marker(*args, **kwargs):
        if result["setup_end"] is None:
            result["setup_end"] = time.monotonic()
            if spec["setup_only"]:
                result["peak_rss_mb"] = _peak_rss_mb()
                _write(spec["result"], result)
                sys.stdout.flush()
                os._exit(0)
        out = marked(*args, **kwargs)
        if marked_name == "solve":
            result["solves"].append(
                {"converged": bool(out.converged), "iterations": int(out.iterations),
                 "energy": float(out.energy)}
            )
        return out

    setattr(marker, tracer.WRAPPER_FLAG, True)
    tracer.rebind(marked, marker)
    result["wrapped"] = tracer.wrapped_sites()

    rc = cli.main(spec["argv"])
    result["cli_return"] = time.monotonic()
    result["rc"] = rc
    result["peak_rss_mb"] = _peak_rss_mb()
    if spans is not None and result["setup_end"] is not None:
        result["layers"] = spans.summary(result["setup_end"], result["cli_return"])
    _write(spec["result"], result)
    return rc


if __name__ == "__main__":
    sys.exit(main())
