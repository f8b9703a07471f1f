#!/usr/bin/env python3
"""Emit the CSVs behind all nine figures into figures/.

Thin loop over the `sltime reproduce` subcommand so one invocation rebuilds
everything.  Figure 9 runs the wave-packet experiment and takes about 5 s on
a 2-CPU Xeon host; skip it with --fast while iterating on the stationary curves.
"""

import argparse
import sys
import time

from sltime.cli import main as sltime_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--fast", action="store_true",
                    help="stationary figures only (skip the packet runs of figure 9)")
    args = ap.parse_args()

    figures = range(1, 9) if args.fast else range(1, 10)
    for k in figures:
        t0 = time.perf_counter()
        code = sltime_main(["reproduce", "--figure", str(k), "--outdir", args.outdir])
        if code != 0:
            print(f"figure {k} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"figure {k}: done in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
