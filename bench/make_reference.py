"""Regenerate reference.json, the pinned outputs the benchmark checks against.

Runs the CLI in-process over every input any seed can draw: `wrt --form
both` on the whole tau grid of criterion 06 and `saddle` at every framing
in -40..40. It takes about a minute.

Usage, from the repository root: python3 bench/make_reference.py

Regenerate only on purpose, when a change is meant to alter these values,
and say so in the change.
"""

import contextlib
import io
import json
import os
import sys

import workloads


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(argv) != 0:
            raise SystemExit(f"olim41 {' '.join(argv)} failed")
    return workloads.table(out.getvalue())


def main():
    sys.path.insert(0, os.path.abspath("src"))
    from olim41.cli import main as cli_main

    tau = {}
    for N in workloads.TAU_N:
        for p in workloads.TAU_P:
            (row,) = _run(cli_main, ["wrt", "--N", str(N), "--p", str(p),
                                     "--form", "both"])
            tau[f"{N},{p}"] = [float(row[k]) for k in
                               ("re_direct", "im_direct", "re_double", "im_double")]
    saddle = {}
    for p in workloads.SADDLE_P:
        saddle[str(p)] = [
            [float(row[k]) for k in ("re_zeta", "im_zeta", "re_omega",
                                     "im_omega", "re_V", "im_V")] + [row["label"]]
            for row in _run(cli_main, ["saddle", "--p", str(p)])
        ]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"tau": tau, "saddle": saddle}, handle,
                  separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
