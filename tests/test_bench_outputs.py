"""Every operation the benchmark's workloads can draw passes its check.

bench/workloads.py draws each pass's operations from fixed input ranges
and checks every output against bench/reference.json. A change that moves
a saddle row, drops a point or shifts a tau value fails the benchmark run;
this runs each operation of those ranges once, through the same CLI and
the same checks, so such a change fails here first. It only reads bench/.
"""

import contextlib
import importlib.util
import io
import os

import pytest

from olim41 import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _every_operation(name):
    if name == "tau-grid":
        return [["wrt", "--N", str(N), "--p", str(p), "--form", "both"]
                for N in workloads.TAU_N for p in workloads.TAU_P]
    return ([["saddle", "--p", str(p)] for p in workloads.SADDLE_P]
            + [list(workloads.OLIM_ARGV), list(workloads.SWEEP_ARGV)])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_operation_matches_the_reference(name):
    reference = workloads.load_reference()
    failures = []
    for argv in _every_operation(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        reason = (workloads.check(argv, out.getvalue(), reference)
                  if code == 0 else f"exit {code}")
        if reason is not None:
            failures.append((" ".join(argv), reason))
    assert failures == []
