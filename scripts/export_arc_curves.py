#!/usr/bin/env python3
"""Dump the four real arc curves to CSV files for external plotting."""

import argparse
import pathlib
import sys

from millerzeros.evalnum import ARC_FUNCTION_NAMES, export_arc_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="arc_curves")
    ap.add_argument("--step", type=float, default=1e-3)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in ARC_FUNCTION_NAMES:
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            rows = export_arc_csv(name, fh, step=args.step)
        print(f"wrote {rows} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
