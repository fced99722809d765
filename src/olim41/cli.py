"""Command-line front end.

Every subcommand computes its full result first and emits one CSV table
(header plus rows, 12 significant digits) to stdout or --output, so a
failing computation never leaves a partial table behind. Domain errors,
and an --output path that cannot be written, exit with status 1 and a
one-line diagnostic on stderr; usage errors exit with status 2. Identical
invocations produce byte-identical output.

Subcommands:
    jones   --N --n                      colored Jones value J_n(4_1; q)
    wrt     --N --p [--form F]           tau_N(M_p); F in direct|double|both
    saddle  --p                          all critical points with V and labels
    olim    --p [--refs FILE] [--tol T]  critical values against CS + i Vol
    sweep   --start --step --count       geometric candidates along a framing ray
    growth  --p --N-list                 log-growth table of |tau_N|
    special --fn li2|cl2|b2 --arg X      special-function point values
"""

import argparse
import csv
import functools
import io
import sys
from fractions import Fraction

from .errors import DomainError
from .geometry_reference import builtin_references, compare, load_references
from .quantum_invariants import (
    RootOfUnityContext,
    colored_jones_fig8,
    formula_discrepancy,
    growth_profile,
    wrt_direct,
    wrt_double_sum,
)
from .specfun import bernoulli2_periodic, clausen2, dilog

__all__ = ["main", "emit_csv"]

_SADDLE_SCHEMA = ["p", "re_zeta", "im_zeta", "re_omega", "im_omega",
                  "c1", "c2", "re_V", "im_V", "residual", "label"]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return format(float(value), ".12g")
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_csv(rows, schema):
    """Header plus rows as CSV text, numbers at 12 significant digits."""
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(
                f"row of width {len(row)} does not fit schema of width {len(schema)}"
            )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(schema)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _saddle_row(p, point):
    c1, c2 = point.correction.c
    value = point.correction.value
    return [p, point.zeta.real, point.zeta.imag, point.omega.real,
            point.omega.imag, c1, c2, value.real, value.imag,
            point.residual, point.label]


def _cmd_jones(args):
    value = colored_jones_fig8(RootOfUnityContext(args.N), args.n)
    return emit_csv([[args.N, args.n, value.real, value.imag]],
                    ["N", "n", "re", "im"])


# The context of the last order, kept with its tables and rows, so wrt
# calls that run one order's framings in turn build them once.
_context = functools.lru_cache(maxsize=1)(RootOfUnityContext)


def _cmd_wrt(args):
    ctx = _context(args.N)
    if args.form == "direct":
        value = wrt_direct(ctx, args.p)
    elif args.form == "double":
        value = wrt_double_sum(ctx, args.p)
    else:
        direct = wrt_direct(ctx, args.p)
        double = wrt_double_sum(ctx, args.p)
        return emit_csv(
            [[args.N, args.p, direct.real, direct.imag, double.real,
              double.imag, formula_discrepancy(direct, double)]],
            ["N", "p", "re_direct", "im_direct", "re_double", "im_double",
             "discrepancy"],
        )
    return emit_csv([[args.N, args.p, args.form, value.real, value.imag]],
                    ["N", "p", "form", "re", "im"])


# saddle, olim and sweep import the saddle solver, and with it numpy, at
# each call, so the q-series subcommands never load numpy.
def _cmd_saddle(args):
    from .saddle_solver import solve_fig8
    points = solve_fig8(args.p)
    return emit_csv([_saddle_row(args.p, pt) for pt in points], _SADDLE_SCHEMA)


def _cmd_olim(args):
    from .saddle_solver import solve_fig8
    refs = load_references(args.refs) if args.refs else builtin_references()
    by_p = {ref.p: ref for ref in refs}
    if args.p not in by_p:
        raise DomainError(
            f"no reference data for p={args.p}; supply a --refs CSV with that row"
        )
    ref = by_p[args.p]
    rows = []
    for pt in solve_fig8(args.p):
        report = compare(pt.correction.value, ref, args.tol)
        rows.append([args.p, pt.zeta.real, pt.zeta.imag, pt.omega.real,
                     pt.omega.imag, report.V.real, report.V.imag,
                     report.target.real, report.target.imag,
                     report.abs_error, report.matched, pt.label])
    return emit_csv(rows, ["p", "re_zeta", "im_zeta", "re_omega", "im_omega",
                           "re_V", "im_V", "re_target", "im_target",
                           "abs_error", "matched", "label"])


def _cmd_sweep(args):
    from .saddle_solver import track_geometric
    if args.count < 0:
        raise DomainError(f"--count must be nonnegative, got {args.count}")
    framings = [args.start + args.step * i for i in range(args.count)]
    points = track_geometric(framings)
    return emit_csv([_saddle_row(p, pt) for p, pt in zip(framings, points)],
                    _SADDLE_SCHEMA)


def _cmd_growth(args):
    return emit_csv(growth_profile(args.p, args.N_list),
                    ["N", "log_tau", "log_tau_over_N", "log_tau_over_log_N"])


def _cmd_special(args):
    if args.fn == "li2":
        try:
            argument = complex(args.arg.replace(" ", ""))
        except ValueError:
            raise DomainError(f"could not parse {args.arg!r} as a complex number")
        value = dilog(argument)
    else:
        try:
            argument = float(args.arg)
        except ValueError:
            raise DomainError(f"could not parse {args.arg!r} as a real number")
        value = complex(clausen2(argument) if args.fn == "cl2"
                        else bernoulli2_periodic(argument))
    return emit_csv([[args.fn, args.arg, value.real, value.imag]],
                    ["fn", "arg", "re", "im"])


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


@functools.cache
def _build_parser():
    """The argument parser, built on first use; parse_args keeps no state
    between calls, so every main call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="olim41",
        description="WRT invariants of figure-eight surgeries and the "
                    "optimistic limits of their growth.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the CSV to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    jones = sub.add_parser("jones", parents=[common],
                           help="colored Jones value J_n(4_1; q)")
    jones.add_argument("--N", type=int, required=True, help="root-of-unity order")
    jones.add_argument("--n", type=int, required=True, help="color")
    jones.set_defaults(func=_cmd_jones)

    wrt = sub.add_parser("wrt", parents=[common], help="WRT invariant tau_N(M_p)")
    wrt.add_argument("--N", type=int, required=True, help="root-of-unity order")
    wrt.add_argument("--p", type=int, required=True, help="surgery coefficient")
    wrt.add_argument("--form", choices=["direct", "double", "both"],
                     default="direct", help="evaluation route (default direct)")
    wrt.set_defaults(func=_cmd_wrt)

    saddle = sub.add_parser("saddle", parents=[common],
                            help="critical points of the potential")
    saddle.add_argument("--p", type=int, required=True, help="surgery coefficient")
    saddle.set_defaults(func=_cmd_saddle)

    olim = sub.add_parser("olim", parents=[common],
                          help="optimistic limits against CS + i Vol references")
    olim.add_argument("--p", type=int, required=True, help="surgery coefficient")
    olim.add_argument("--refs", metavar="FILE", default=None,
                      help="reference CSV (header p,vol,cs) merged over builtins")
    olim.add_argument("--tol", type=float, default=1e-6,
                      help="match tolerance (default 1e-6)")
    olim.set_defaults(func=_cmd_olim)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="geometric candidates along p = start + k step")
    sweep.add_argument("--start", type=int, default=6)
    sweep.add_argument("--step", type=int, default=4)
    sweep.add_argument("--count", type=int, default=100)
    sweep.set_defaults(func=_cmd_sweep)

    growth = sub.add_parser("growth", parents=[common],
                            help="log-growth profile of |tau_N|")
    growth.add_argument("--p", type=int, required=True, help="surgery coefficient")
    growth.add_argument("--N-list", dest="N_list", type=_int_list, required=True,
                        help="comma-separated orders, e.g. 100,200,500")
    growth.set_defaults(func=_cmd_growth)

    special = sub.add_parser("special", parents=[common],
                             help="special-function point values")
    special.add_argument("--fn", choices=["li2", "cl2", "b2"], required=True)
    special.add_argument("--arg", required=True,
                         help="complex for li2 (e.g. 0.5+0.3j), real for cl2/b2")
    special.set_defaults(func=_cmd_special)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
