#!/usr/bin/env python3
"""Regenerate the stack files under stacks/.

rep5.json is the bare representative five-cell array; rep5_arc.json is the
same array terminated with the rule-of-thumb matching cells.  Run from the
repository root after changing the representative structure or the matching
procedure.
"""

import argparse
import dataclasses
from pathlib import Path

from sltime.arc import design_rule_of_thumb
from sltime.kard import band_structure
from sltime.medium import EnergyGrid, representative_stack, save_stack


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="stacks", help="directory to write into")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    stack = representative_stack(5)
    save_stack(stack, outdir / "rep5.json")
    print(f"wrote {outdir / 'rep5.json'} (width {stack.width:g} nm)")

    band = band_structure(stack.core, stack.outside,
                          grid=EnergyGrid.linear(1.0, 300.0, 6000))[0]
    design = design_rule_of_thumb(stack.core, stack.outside, band)
    dressed = dataclasses.replace(stack, left_arc=design.arc_cell,
                                  right_arc=design.arc_cell)
    save_stack(dressed, outdir / "rep5_arc.json")
    print(f"wrote {outdir / 'rep5_arc.json'} "
          f"(matched at {design.target_energy:.4f} meV, "
          f"mu_A = {design.achieved_mu_a:.6f})")


if __name__ == "__main__":
    main()
