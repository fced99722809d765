"""End-to-end and per-layer benchmark of the olim41 command line.

Usage, from the repository root:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Workloads (workloads.py; README.md in this directory says why each exists):
tau-grid and saddle-scan. Without --workload both run in turn.

Every operation is one call of olim41.cli.main(argv), made in-process by a
single closed-loop caller. A pass is one visit of the workload's operations
in a fresh interpreter (worker.py), so module caches start cold, as they do
for a user of the CLI. Passes repeat until --seconds have gone by.

With --trace 0 a run prints the end-to-end metrics: setup_s, ops_per_s,
latency_p50_ms, latency_tail_ms, fail_ratio and peak_rss_mb. With --trace 1
it alternates untraced and traced passes and prints the per-layer metrics
from the traced ones (tracing.py), with the pass time of both kinds, so the
tracing overhead shows. The last line of output is one JSON object with the
keys correct, attempted, failed and metrics. fail_ratio is printed, and is
failed/attempted of that line; it is not among its metrics, because it is 0
when nothing fails.

The run fails, printing no result, when it is not started from a checkout
that holds src/olim41.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_LAUNCHES = 9      # spread over the run, a few before each pass
SETUP_PER_PASS = 2
TAIL_BEYOND = 10        # samples beyond the tail percentile
RUN_LIMIT_S = 165       # no pass starts that could end after this
OVERRUN = 1.08          # no pass starts that could end after OVERRUN x --seconds
FAILURES_SHOWN = 10


def _environment(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def time_setup(env, root, launches):
    """Wall times of fresh interpreters, each running `import olim41.cli`."""
    command = [sys.executable, "-c", "import olim41.cli"]
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_pass(ops, traced, env, root, timeout):
    """(report, problem): worker.py's report of one pass, or why there is none."""
    job = json.dumps({"ops": ops, "trace": traced})
    try:
        proc = subprocess.run([sys.executable, WORKER], input=job, text=True,
                              capture_output=True, env=env, cwd=root,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass did not finish within {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"worker exited with {proc.returncode}: "
                      f"{proc.stderr.strip()[-800:]}")
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError:
        return None, f"worker printed no report: {proc.stdout[-200:]!r}"


def run_passes(ops, seconds, trace, env, root, run_start, setup):
    """Passes until `seconds` have gone by, or until the next pass could end
    after OVERRUN x `seconds`. When tracing, untraced and traced passes
    alternate, with at least one of each. Before each pass, while `setup`
    (a list, or None when tracing) holds fewer than SETUP_LAUNCHES times,
    times SETUP_PER_PASS launches and adds them to it, rescaled by the
    pass's first probe. Returns (passes, problem); each pass is
    (traced, report)."""
    passes = []
    spent = 0.0
    while True:
        launches = []
        if setup is not None and len(setup) < SETUP_LAUNCHES:
            launches = time_setup(env, root, SETUP_PER_PASS)
        traced = trace and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
        pass_start = time.perf_counter()
        report, problem = run_pass(ops, traced, env, root, max(remaining, 1.0))
        if problem:
            return passes, problem
        passes.append((traced, report))
        if setup is not None:
            setup += [calibration.rescale(t, report["probes"][0]) for t in launches]
        now = time.perf_counter()
        last = now - pass_start
        spent += last
        if now - run_start + last > RUN_LIMIT_S:
            return passes, None
        if trace and len(passes) < 2:
            continue
        if spent >= seconds or spent + last > OVERRUN * seconds:
            return passes, None


def latency_tail(latencies):
    """(value, percentile, beyond): the latency with TAIL_BEYOND operations
    above it, or the slowest when there are no more than that."""
    n = len(latencies)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return sorted(latencies)[rank], 100.0 * (rank + 1) / n, n - rank - 1


def _median(values):
    return statistics.median(values) if values else 0.0


class Report:
    """Metric lines as they are printed, and the result object."""

    def __init__(self):
        self.metrics = {}

    def show(self, metric, value, unit, note=""):
        self.metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric:42s} {value:<14.6g} {unit:8s} {note}")


def tally(passes, reference):
    """Check every operation of every pass. Returns (attempted, failures,
    timed, discrepancy): the operations run, why each failed one failed,
    (rescaled latencies, operations passed, wall latencies) per untraced
    pass, and the discrepancy column of the traced passes' wrt tables."""
    attempted = 0
    failures = []
    timed = []
    discrepancy = []
    for traced, report in passes:
        latencies = []
        walls = []
        passed = 0
        for op in report["ops"]:
            attempted += 1
            reason = op["error"]
            if reason is None and op["status"] != 0:
                reason = f"exit status {op['status']}: {op['stderr'].strip()[:200]}"
            if reason is None:
                reason = workloads.check(op["argv"], op["stdout"], reference)
            latencies.append(calibration.rescale(op["latency_s"], op["probe_s"]))
            walls.append(op["latency_s"])
            if reason is not None:
                failures.append(f"olim41 {' '.join(op['argv'])}: {reason}")
                continue
            passed += 1
            if traced and op["argv"][0] == "wrt":
                discrepancy += workloads.discrepancies(op["stdout"])
        if not traced:
            timed.append((latencies, passed, walls))
    return attempted, failures, timed, discrepancy


def show_layers(out, passes, timed, discrepancy):
    traced_reports = [report for traced, report in passes if traced]
    untraced_s = [sum(walls) for _, _, walls in timed]
    traced_s = [sum(op["latency_s"] for op in r["ops"]) for r in traced_reports]
    print(f"passes: {len(untraced_s)} untraced, {len(traced_s)} traced; "
          "busy times are thread CPU seconds per traced pass, medians over passes")
    if traced_reports:
        missing = traced_reports[0]["missing"]
        if missing:
            print("missing boundaries, their metrics left out: " + ", ".join(missing))
        for metric, (_, unit, base) in traced_reports[0]["layers"].items():
            value = statistics.median(r["layers"][metric][0] for r in traced_reports)
            out.show(metric, value, unit, base or "")
    out.show("quantum_invariants.route_discrepancy_max", max(discrepancy, default=0.0),
             "ratio", f"over {len(discrepancy)} wrt rows")
    out.show("bench.untraced_pass_s", _median(untraced_s), "s",
             f"median over {len(untraced_s)} passes")
    out.show("bench.traced_pass_s", _median(traced_s), "s",
             f"median over {len(traced_s)} passes")


def show_end_to_end(out, passes, timed, setup, attempted, failed):
    # Latencies are rescaled by the probe (calibration.py), and each
    # operation's latency is its median over the passes. The same figures
    # from wall times are printed beside them.
    def per_op(k):
        return [statistics.median(s) for s in zip(*(pass_[k] for pass_ in timed))]

    latencies, walls = per_op(0), per_op(2)
    rates = [passed / sum(lat) for lat, passed, _ in timed]
    wall_rates = [passed / sum(lat) for _, passed, lat in timed]
    tail, percentile, beyond = latency_tail(latencies)
    speed = calibration.REFERENCE_S / statistics.median(
        op["probe_s"] for traced, r in passes if not traced for op in r["ops"])
    print(f"passes: {len(timed)}; an operation's latency is its median over them; "
          f"the machine ran the probe at {speed:.3f}x its reference speed; "
          "pass wall times: " + " ".join(f"{sum(w):.3f}" for _, _, w in timed))
    out.show("setup_s", statistics.median(setup), "s",
             f"median of {len(setup)} launches, rescaled by the probe")
    out.show("ops_per_s", statistics.median(rates), "1/s",
             "median over passes of operations passed per second of the pass; "
             f"wall: {statistics.median(wall_rates):.5g}")
    out.show("latency_p50_ms", 1e3 * statistics.median(latencies), "ms",
             f"median over {len(latencies)} operations; "
             f"wall: {1e3 * statistics.median(walls):.5g}")
    out.show("latency_tail_ms", 1e3 * tail, "ms",
             f"p{percentile:.1f}: {beyond} of {len(latencies)} operations beyond it; "
             f"wall: {1e3 * latency_tail(walls)[0]:.5g}")
    print(f"{'fail_ratio':42s} {failed / attempted:<14.6g} {'ratio':8s} "
          f"{failed}/{attempted} operations failed")
    out.show("peak_rss_mb", max(r["peak_rss_mb"] for t, r in passes if not t), "MiB",
             f"max over {len(timed)} passes")


def evaluate(name, seed, seconds, trace, root):
    """Run one workload; print its metrics; return the result object."""
    run_start = time.perf_counter()
    ops, inputs = workloads.operations(name, seed)
    reference = workloads.load_reference()
    env = _environment(root)
    print(f"== {name} seed={seed} seconds={seconds} trace={int(trace)}: "
          f"{len(ops)} operations per pass, one closed-loop caller")
    print("inputs: " + json.dumps(inputs))
    setup = None
    if not trace:
        time_setup(env, root, 1)   # writes bytecode caches, if the interpreter does
        setup = []
    passes, problem = run_passes(ops, seconds, trace, env, root, run_start, setup)
    if setup is not None and passes:
        last_probe = passes[-1][1]["probes"][-1]
        setup += [calibration.rescale(t, last_probe)
                  for t in time_setup(env, root, SETUP_LAUNCHES - len(setup))]

    attempted, failures, timed, discrepancy = tally(passes, reference)
    failed = len(failures)
    if problem:   # the operations of the pass that broke off count as failed
        attempted += len(ops)
        failed += len(ops)
        failures.append(problem)
    if passes:
        print("machine: " + json.dumps(passes[0][1]["facts"]))
    for line in failures[:FAILURES_SHOWN]:
        print("FAILED " + line)
    out = Report()
    if trace:
        show_layers(out, passes, timed, discrepancy)
    elif timed:
        show_end_to_end(out, passes, timed, setup, attempted, failed)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": out.metrics}
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=56.0,
                        help="how long the passes of one run last (default 56)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker or setup launch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "olim41", "cli.py")):
        print("error: src/olim41/cli.py not found; run from the root of an "
              "olim41 checkout", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else workloads.NAMES:
        evaluate(name, args.seed, args.seconds, bool(args.trace), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
