"""Spans at olim41's layer boundaries, installed from outside the package.

install() replaces module attributes with wrappers that record one span per
call: its boundary name, wall-clock start and end, parent span, thread, and
the thread CPU time spent inside it with and without its child spans.
Spans opened in the CLI's pool threads attach to the current operation's
span. Busy times are thread CPU seconds, so a pool thread that waits for
the GIL or for the replay lock adds nothing, and busy times of threads
that take turns add up to the wall time they share.

The wrappers pass every argument, result and exception through unchanged.
A boundary whose name no longer exists is listed as missing, and report()
leaves out each metric that needs it.
"""

import functools
import threading
import time
from collections import defaultdict

# Boundaries, named as module.attribute where the calling code looks them up.
KERNELS = ("quantum_invariants._direct_sum_f64", "quantum_invariants._double_sum_f64")
REPLAYS = ("quantum_invariants._direct_sum_mp", "quantum_invariants._double_sum_mp")
TABLES = "quantum_invariants._mp_tables"
NEWTON = "saddle_solver._newton"
ELIMINATION = "saddle_solver._elimination_starts"
GRID = "saddle_solver._grid_starts"
CLASSIFY = "saddle_solver.classify"
SOLVE = "saddle_solver.solve_fig8"
TRACK = "saddle_solver.track_geometric"
BRANCH = "saddle_solver.branch_correct"
DILOG = "potential.dilog"
OPERATION = "cli.main"
# Escalation rounds of a capped evaluation, if the package does not say.
DEFAULT_ROUND_CAP = 8


class Span:
    __slots__ = ("name", "parent", "op", "thread", "start", "end", "cpu",
                 "child_cpu", "note", "_tracer", "_cpu0")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self.name = name
        self.child_cpu = 0.0
        self.note = None

    def __enter__(self):
        stack = self._tracer._stack()
        self.parent = stack[-1] if stack else self._tracer.op
        self.op = self._tracer.op
        self.thread = threading.get_ident()
        stack.append(self)
        self.start = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc_info):
        self.cpu = time.thread_time() - self._cpu0
        self.end = time.perf_counter()
        stack = self._tracer._stack()
        stack.pop()
        if stack:
            stack[-1].child_cpu += self.cpu
        self._tracer.spans.append(self)
        return False

    @property
    def self_cpu(self):
        return self.cpu - self.child_cpu

    def within(self, name):
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Spans kept in memory, and the boundaries install() could not find."""

    def __init__(self):
        self.spans = []
        self.installed = set()
        self.missing = []
        self.op = None
        self.round_cap = DEFAULT_ROUND_CAP
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def operation(self, call, *args):
        """call(*args) inside the span of one CLI operation."""
        with Span(self, OPERATION) as span:
            span.op = self.op = span
            try:
                return call(*args)
            finally:
                self.op = None


def _plain(tracer, name, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with Span(tracer, name) as span:
            result = fn(*args, **kwargs)
            if note is not None:
                span.note = note(args, result)
        return result
    return wrapper


def _tables(tracer, name, fn):
    info = getattr(fn, "cache_info", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = info().misses if info else None
        with Span(tracer, name) as span:
            result = fn(*args, **kwargs)
            if info:
                span.note = info().misses == misses   # True on a cache hit
        return result
    return wrapper


def _timed_generator(tracer, name, fn):
    """Each step of the generator in its own span; note is True on a yield."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = iter(fn(*args, **kwargs))
        while True:
            with Span(tracer, name) as span:
                try:
                    item = next(steps)
                except StopIteration:
                    return
                span.note = True
            yield item
    return wrapper


def _counted_generator(tracer, name, fn):
    """Counts yields in a zero-length span per call, without timing steps."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with Span(tracer, name) as span:
            span.note = 0
        for item in fn(*args, **kwargs):
            span.note += 1
            yield item
    return wrapper


def _dps(args, result):
    return args[2] if len(args) > 2 and isinstance(args[2], int) else None


def _converged(args, result):
    return bool(result[3]) if isinstance(result, tuple) and len(result) == 4 else None


def install(tracer):
    """Wrap every boundary that exists; record the names that do not."""
    from olim41 import cli, potential, quantum_invariants, saddle_solver

    modules = {"cli": cli, "potential": potential,
               "quantum_invariants": quantum_invariants,
               "saddle_solver": saddle_solver}
    tracer.round_cap = getattr(quantum_invariants, "_MAX_ESCALATIONS",
                               DEFAULT_ROUND_CAP)

    def patch(boundary, wrap, also=()):
        """Wrap `boundary`; `also` lists other module.attribute bindings of
        the same function, such as a name the CLI imported."""
        module, attr = boundary.split(".")
        fn = getattr(modules[module], attr, None)
        if fn is None:
            tracer.missing.append(boundary)
            return
        wrapped = wrap(tracer, boundary, fn)
        setattr(modules[module], attr, wrapped)
        for other in also:
            other_module, other_attr = other.split(".")
            if getattr(modules[other_module], other_attr, None) is fn:
                setattr(modules[other_module], other_attr, wrapped)
        tracer.installed.add(boundary)

    for boundary in KERNELS:
        patch(boundary, _plain)
    for boundary in REPLAYS:
        patch(boundary, lambda t, n, f: _plain(t, n, f, _dps))
    patch(TABLES, _tables)
    patch(NEWTON, lambda t, n, f: _plain(t, n, f, _converged))
    patch(ELIMINATION, _timed_generator)
    patch(GRID, _counted_generator)
    patch(CLASSIFY, _plain)
    patch(SOLVE, lambda t, n, f: _plain(t, n, f, lambda a, r: len(r)),
          also=("cli.solve_fig8",))
    patch(TRACK, _plain, also=("cli.track_geometric",))
    patch(BRANCH, _plain)
    patch(DILOG, _plain)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _evaluations(spans):
    """[rounds, replay self CPU] per tau evaluation: a kernel call and the
    replay rounds that follow it on the same thread."""
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    evaluations = []
    for thread_spans in by_thread.values():
        current = None
        for span in sorted(thread_spans, key=lambda s: s.start):
            if span.name in KERNELS:
                current = [0, 0.0]
                evaluations.append(current)
            elif current is not None:
                current[0] += 1
                current[1] += span.self_cpu
    return evaluations


def report(tracer):
    """{metric: (value, unit, base)} for the spans recorded so far. base
    says what a ratio or maximum was taken over, or is None."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def has(*boundaries):
        return any(b in tracer.installed for b in boundaries)

    def spans(*names):
        return [s for name in names for s in by_name[name]]

    def busy(*names):
        return sum(s.self_cpu for s in spans(*names))

    out = {}
    if has(*KERNELS):
        out["kernels.calls"] = (len(spans(*KERNELS)), "count", None)
        out["kernels.busy_s"] = (busy(*KERNELS), "s", None)
    if has(*REPLAYS):
        rounds = spans(*REPLAYS)
        digits = [s.note for s in rounds if s.note is not None]
        out["quantum_invariants.replay_rounds"] = (len(rounds), "count", None)
        out["quantum_invariants.replay_busy_s"] = (busy(*REPLAYS), "s", None)
        out["quantum_invariants.replay_dps_max"] = (
            max(digits, default=0), "digits", f"over {len(digits)} rounds")
    if has(*KERNELS) and has(*REPLAYS):
        evaluations = _evaluations(spans(*KERNELS, *REPLAYS))
        resolved = sum(1 for rounds, _ in evaluations if rounds == 0)
        capped = [busy_s for rounds, busy_s in evaluations
                  if rounds >= tracer.round_cap]
        replayed = len(evaluations) - resolved
        total_rounds = sum(rounds for rounds, _ in evaluations)
        out["kernels.resolved_ratio"] = (
            _ratio(resolved, len(evaluations)), "ratio",
            f"{resolved}/{len(evaluations)} evaluations")
        out["quantum_invariants.capped_evals"] = (len(capped), "count", None)
        out["quantum_invariants.capped_busy_s"] = (sum(capped), "s", None)
        out["quantum_invariants.useful_round_ratio"] = (
            _ratio(replayed, total_rounds), "ratio",
            f"{replayed} evaluations replayed/{total_rounds} rounds")
    if has(TABLES):
        tables = spans(TABLES)
        hits = sum(1 for s in tables if s.note is True)
        out["quantum_invariants.table_builds"] = (len(tables) - hits, "count", None)
        out["quantum_invariants.table_busy_s"] = (busy(TABLES), "s", None)
        if all(s.note is not None for s in tables):
            out["quantum_invariants.table_hit_ratio"] = (
                _ratio(hits, len(tables)), "ratio", f"{hits}/{len(tables)} calls")
    if has(NEWTON):
        newton = spans(NEWTON)
        converged = [s for s in newton if s.note]
        out["saddle_solver.newton_calls"] = (len(newton), "count", None)
        out["saddle_solver.newton_busy_s"] = (busy(NEWTON), "s", None)
        out["saddle_solver.newton_converged_ratio"] = (
            _ratio(len(converged), len(newton)), "ratio",
            f"{len(converged)}/{len(newton)} runs")
        if has(SOLVE):
            kept = sum(s.note for s in spans(SOLVE))
            in_solve = sum(1 for s in converged if s.within(SOLVE))
            out["saddle_solver.kept_per_converged"] = (
                _ratio(kept, in_solve), "ratio",
                f"{kept} points/{in_solve} converged runs in solve_fig8")
    if has(ELIMINATION):
        steps = spans(ELIMINATION)
        out["saddle_solver.elimination_starts"] = (
            sum(1 for s in steps if s.note), "count", None)
        out["saddle_solver.elimination_busy_s"] = (busy(ELIMINATION), "s", None)
    if has(GRID):
        out["saddle_solver.grid_starts"] = (
            sum(s.note for s in spans(GRID)), "count", None)
    if has(CLASSIFY):
        out["saddle_solver.classify_busy_s"] = (busy(CLASSIFY), "s", None)
    if has(SOLVE, TRACK):
        out["saddle_solver.solve_self_s"] = (busy(SOLVE, TRACK, GRID), "s", None)
    if has(SOLVE) and has(TRACK):
        out["saddle_solver.track_fallbacks"] = (
            sum(1 for s in spans(SOLVE) if s.within(TRACK)), "count", None)
    if has(BRANCH):
        out["potential.calls"] = (len(spans(BRANCH)), "count", None)
        out["potential.busy_s"] = (busy(BRANCH), "s", None)
    if has(DILOG):
        out["specfun.calls"] = (len(spans(DILOG)), "count", None)
        out["specfun.busy_s"] = (busy(DILOG), "s", None)

    ops = spans(OPERATION)
    threads = defaultdict(set)
    for span in tracer.spans:
        if span.op is not None and span.thread != span.op.thread:
            threads[span.op].add(span.thread)
    wall = sum(s.end - s.start for s in ops)
    accounted = sum(s.self_cpu for s in tracer.spans)
    out["cli.self_s"] = (busy(OPERATION), "s", None)
    out["cli.worker_threads_max"] = (
        max((len(t) for t in threads.values()), default=0), "count",
        f"over {len(ops)} operations")
    out["bench.accounted_ratio"] = (
        _ratio(accounted, wall), "ratio",
        f"{accounted:.3f} s of span CPU/{wall:.3f} s of traced wall")
    return out
