"""One pass of olim41 CLI operations in a fresh interpreter.

Reads {"ops": [argv, ...], "trace": bool} as JSON on stdin, calls
olim41.cli.main(argv) for each operation in turn, and writes one JSON
object to stdout: each operation's latency, exit status and output, the
process's peak resident memory, machine facts and, when tracing, the
layer report of tracing.py. Started by run.py with the checkout's src/
first on PYTHONPATH, so every module cache starts cold, as it does for a
user of the CLI.

The probe of calibration.py runs before the first operation, after the
last, and between two operations whenever PROBE_EVERY_S has gone by since
it last ran. Each operation reports the mean of the probe times just
before and just after it as probe_s, and the report lists every probe
time as probes.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import calibration
import tracing

PROBE_EVERY_S = 1.0
ENVIRONMENT_KNOBS = ("OLIM41_KERNEL", "OLIM_WRT_THREADS")


def _facts():
    import mpmath
    import numpy

    from olim41 import _kernels

    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "kernel_backend": _kernels.backend_name,
        "env_set": {name: name in os.environ for name in ENVIRONMENT_KNOBS},
    }


def _call(cli_main, argv, tracer):
    """(status, error): main's return or exit code, and what it raised."""
    try:
        if tracer is None:
            return cli_main(argv), None
        return tracer.operation(cli_main, argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:   # a failed operation must not end the pass
        return None, repr(exc)


def main():
    job = json.load(sys.stdin)
    from olim41.cli import main as cli_main

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    calibration.probe()    # untimed: the first run is slower, as code warms up
    probes = [calibration.probe()]
    before = []     # per operation, the index of the last probe before it
    probed = time.perf_counter()
    for argv in job["ops"]:
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            probes.append(calibration.probe())
            probed = time.perf_counter()
        before.append(len(probes) - 1)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            status, error = _call(cli_main, argv, tracer)
            latency = time.perf_counter() - start
        results.append({"argv": argv, "latency_s": latency, "status": status,
                        "error": error, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    probes.append(calibration.probe())
    for op, i in zip(results, before):
        op["probe_s"] = (probes[i] + probes[i + 1]) / 2

    report = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": _facts(),
        "probes": probes,
    }
    if tracer is not None:
        report["layers"] = tracing.report(tracer)
        report["missing"] = tracer.missing
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
