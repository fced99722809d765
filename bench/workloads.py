"""The benchmark's workloads: CLI operations generated from a seed, and the
checks their outputs must pass.

An operation is one olim41 CLI invocation, given as its argument list. The
checks parse the CSV an operation printed and compare it with
reference.json, which make_reference.py computed with the same CLI. They
never compare residual-column bytes, which are rounding noise.
"""

import csv
import io
import json
import os
import random

NAMES = ("tau-grid", "saddle-scan")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

TAU_N = range(3, 65)        # the grid of criterion 06; reference.json covers it
TAU_P = range(1, 11)
# Orders in every tau-grid subset. Their exact zeros run all escalation
# rounds and set the latency tail and most of a pass's time; sampling them
# made both depend on the seed.
TAU_ALWAYS = range(33, 41)
# The seed draws one order from each block of TAU_BLOCK in this range. Its
# orders cost 0.03-0.3 s for all ten framings, so the draw moves a pass's
# time by about 1%.
TAU_SAMPLED = range(3, 19)
TAU_BLOCK = 4

SADDLE_P = range(-40, 41)
# Always solved: these solves take 2-6x longer than their neighbours', so
# sampling them would make a pass's time depend on the seed.
SADDLE_ALWAYS = (-8, -5, -4, 4)
SADDLE_BLOCK = 4
SADDLE_KEEP = 2             # framings the seed keeps of each block
OLIM_ARGV = ["olim", "--p", "6"]
SWEEP_ARGV = ["sweep", "--start", "6", "--step", "4", "--count", "100"]
SWEEP_COUNT = 100
CL2_PI_3 = 1.0149416064096536  # Cl2(pi/3), Gieseking's constant

TAU_REL_TOL = 1e-9
TAU_ZERO = 1e-12            # |tau| below this is compared absolutely
DISCREPANCY_BOUND = 1e-9    # the criterion-06 bound on the two routes
SADDLE_TOL = 1e-9
RESIDUAL_BOUND = 1e-9


def tau_orders(seed):
    """Orders N for tau-grid: TAU_ALWAYS, plus one N from each block of
    TAU_BLOCK consecutive orders of TAU_SAMPLED.

    Blocks are taken in pairs: the first gets offset r, the second
    TAU_BLOCK - 1 - r. So every subset holds as many odd orders as even
    ones, and the sum of its orders does not depend on the seed. Odd N
    carry the exact zeros (p = 2 mod 4), whose cost dwarfs the rest.
    """
    rng = random.Random(seed)
    low = list(TAU_SAMPLED)
    blocks = [low[i:i + TAU_BLOCK] for i in range(0, len(low), TAU_BLOCK)]
    chosen = list(TAU_ALWAYS)
    for first, second in zip(blocks[0::2], blocks[1::2]):
        r = rng.randrange(TAU_BLOCK)
        chosen += [first[r], second[TAU_BLOCK - 1 - r]]
    return sorted(chosen)


def saddle_framings(seed):
    """Framings for saddle-scan: SADDLE_ALWAYS, plus SADDLE_KEEP of every
    SADDLE_BLOCK consecutive other framings in -40..40 (the first
    SADDLE_KEEP of a last short block)."""
    rng = random.Random(seed)
    rest = [p for p in SADDLE_P if p not in SADDLE_ALWAYS]
    chosen = list(SADDLE_ALWAYS)
    for i in range(0, len(rest), SADDLE_BLOCK):
        block = rest[i:i + SADDLE_BLOCK]
        if len(block) == SADDLE_BLOCK:
            block = rng.sample(block, SADDLE_KEEP)
        chosen += block[:SADDLE_KEEP]
    return sorted(chosen)


def operations(name, seed):
    """(ops, inputs): the argument lists of one pass, visited in order, and
    the generated inputs to print so that a run can be reproduced."""
    if name == "tau-grid":
        orders = tau_orders(seed)
        ops = [["wrt", "--N", str(N), "--p", str(p), "--form", "both"]
               for N in orders for p in TAU_P]
        return ops, {"N": orders, "p": [TAU_P.start, TAU_P.stop - 1]}
    if name == "saddle-scan":
        framings = saddle_framings(seed)
        ops = [["saddle", "--p", str(p)] for p in framings]
        ops += [list(OLIM_ARGV), list(SWEEP_ARGV)]
        return ops, {"saddle_p": framings, "then": [" ".join(OLIM_ARGV),
                                                    " ".join(SWEEP_ARGV)]}
    raise ValueError(f"unknown workload {name!r}")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def table(text):
    """The rows of a CSV table as dicts keyed by its header."""
    return list(csv.DictReader(io.StringIO(text)))


def _complex(row, re, im):
    return complex(float(row[re]), float(row[im]))


def _tau_matches(value, pinned):
    if abs(pinned) < TAU_ZERO:
        return abs(value - pinned) <= TAU_ZERO
    return abs(value - pinned) <= TAU_REL_TOL * abs(pinned)


def _check_wrt(argv, rows, ref):
    N, p = int(argv[argv.index("--N") + 1]), int(argv[argv.index("--p") + 1])
    if len(rows) != 1:
        return f"{len(rows)} rows"
    row = rows[0]
    pinned = ref["tau"][f"{N},{p}"]
    if float(row["discrepancy"]) >= DISCREPANCY_BOUND:
        return f"discrepancy {row['discrepancy']}"
    for route, re, im, k in (("direct", "re_direct", "im_direct", 0),
                             ("double", "re_double", "im_double", 2)):
        if not _tau_matches(_complex(row, re, im),
                            complex(pinned[k], pinned[k + 1])):
            return f"{route} tau ({row[re]}, {row[im]}) is off its pinned value"
    return None


def _close(value, pinned):
    return abs(value - pinned) <= SADDLE_TOL * max(1.0, abs(pinned))


def _check_saddle(argv, rows, ref):
    pinned = ref["saddle"][argv[argv.index("--p") + 1]]
    if len(rows) != len(pinned):
        return f"{len(rows)} points, pinned {len(pinned)}"
    for row, (zr, zi, wr, wi, vr, vi, label) in zip(rows, pinned):
        if row["label"] != label:
            return f"label {row['label']}, pinned {label}"
        if not (_close(_complex(row, "re_zeta", "im_zeta"), complex(zr, zi))
                and _close(_complex(row, "re_omega", "im_omega"), complex(wr, wi))
                and _close(_complex(row, "re_V", "im_V"), complex(vr, vi))):
            return f"point ({row['re_zeta']}, {row['im_zeta']}) is off its pinned value"
        if float(row["residual"]) >= RESIDUAL_BOUND:
            return f"residual {row['residual']}"
    return None


def _check_olim(rows):
    geometric = [row for row in rows if row["label"] == "geometric-candidate"]
    if len(geometric) != 1 or geometric[0]["matched"] != "true":
        return "geometric row does not match its reference"
    return None


def _check_sweep(rows):
    if len(rows) != SWEEP_COUNT:
        return f"{len(rows)} rows"
    target = 2j * CL2_PI_3
    gaps = [abs(_complex(row, "re_V", "im_V") - target) for row in rows]
    # as in acceptance criterion 07, from the second framing on
    if not all(gaps[i + 1] < gaps[i] for i in range(1, len(gaps) - 1)):
        return "gap to 2i Cl2(pi/3) does not decrease"
    return None


def check(argv, stdout, ref):
    """None when the output of `olim41 <argv>` is right, else the reason."""
    try:
        rows = table(stdout)
        command = argv[0]
        if command == "wrt":
            return _check_wrt(argv, rows, ref)
        if command == "saddle":
            return _check_saddle(argv, rows, ref)
        if command == "olim":
            return _check_olim(rows)
        if command == "sweep":
            return _check_sweep(rows)
        return f"no check for {command!r}"
    except (KeyError, ValueError, TypeError) as exc:
        return f"malformed output ({exc!r})"


def discrepancies(stdout):
    """The discrepancy column of a `wrt --form both` table."""
    return [float(row["discrepancy"]) for row in table(stdout)]
