"""The benchmark's traced run reads private names of the package.

bench/tracing.py wraps them at run time, and a wrapped name that is gone
drops its metrics from the layer report, so bench/run.py prints a result
without them. This runs a small traced pass in a fresh interpreter and
requires every per-layer metric of BENCHMARK.json, each a finite number.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench/run.py adds these itself, outside the layer report
ADDED_BY_RUN = {"quantum_invariants.route_discrepancy_max",
                "bench.untraced_pass_s", "bench.traced_pass_s"}
# sweep runs the continuation path, track_geometric -> _polished -> _newton
OPERATIONS = [["wrt", "--N", "34", "--p", "3", "--form", "both"],
              ["saddle", "--p", "6"],
              ["sweep", "--start", "6", "--step", "4", "--count", "3"]]

TRACED_PASS = """
import contextlib, io, json, sys
import tracing
from olim41 import _kernels, cli

tracer = tracing.Tracer()
tracing.install(tracer)
statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(tracer.operation(cli.main, argv))
json.dump({"statuses": statuses, "missing": tracer.missing,
           "backend": hasattr(_kernels, "backend_name"),
           "layers": {name: entry[0]
                      for name, entry in tracing.report(tracer).items()}},
          sys.stdout)
"""


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_traced_pass_reports_every_layer_metric():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, json.dumps(OPERATIONS)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout, parse_constant=_reject)
    assert result["statuses"] == [0] * len(OPERATIONS)
    assert result["missing"] == []
    assert result["backend"]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    layers = result["layers"]
    assert sorted(per_layer - ADDED_BY_RUN - set(layers)) == []
    for name in per_layer - ADDED_BY_RUN:
        assert math.isfinite(layers[name]), (name, layers[name])
