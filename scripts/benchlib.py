"""What the bench_*.py scripts share: --repeats, --label and --outdir, the
median of timed runs, the environment and the BENCH_<label>.json file.

Importing it puts this checkout's src/ first on sys.path, so that the
scripts time the package beside them.  Standard library only, besides
mpmath for its version and backend.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath  # noqa: E402


def parse(p: argparse.ArgumentParser, argv, repeats: int, label: str) -> argparse.Namespace:
    """p's arguments with --repeats (at least 1), --label and --outdir added."""
    p.add_argument("--repeats", type=int, default=repeats,
                   help=f"timed runs of each part (default {repeats})")
    p.add_argument("--label", default=label, help=f"writes BENCH_<label>.json (default {label})")
    p.add_argument("--outdir", type=Path, default=Path("."), help="directory of the JSON file")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    return args


def timed(fn, repeats: int) -> dict:
    """The median and every wall time (time.perf_counter) of repeats calls of fn."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(runs), "runs_s": runs}


def write(args: argparse.Namespace, **results) -> None:
    """BENCH_<label>.json in --outdir: the label, the environment, the repeats and results."""
    out = {"label": args.label,
           "environment": {"cores": os.cpu_count(), "python": platform.python_version(),
                           "implementation": platform.python_implementation(),
                           "machine": platform.machine(),
                           "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND},
           "repeats": args.repeats, **results}
    path = args.outdir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
