"""Time the arc-zero layers: sample angles, brackets and refined cells.

    python3 scripts/bench_arc.py --repeats 5 --label after

For each of (388, 1), (452, 1) and (1936, 1), weights of the arc-zeros
workload, the form is built once by miller_form, outside the timing.
Then HFunction.sample_angles, arc_zero_localize and refine_arc_zero on
every bracket run once untimed, as a warm-up, and --repeats times timed;
the median of each part's wall times (time.perf_counter) is recorded
with every run, refine_arc_zero's also per zero.

The result goes to BENCH_<label>.json in --outdir, together with the
environment (cores, Python, mpmath backend) and the sha256 of repr() of
the brackets and of the refined cells, so that two checkouts can be
compared for identical output.  The package is imported from this
checkout's src/.  Standard library only, besides the package itself.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import benchlib  # puts this checkout's src/ first on sys.path
from millerzeros.miller import miller_form
from millerzeros.zeros import HFunction, arc_zero_localize, refine_arc_zero

FORMS = ((388, 1), (452, 1), (1936, 1))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def bench(k: int, m: int, repeats: int) -> dict:
    form = miller_form(k, m)
    brackets = arc_zero_localize(form)
    parts = {"sample_angles": HFunction(k, m).sample_angles,
             "arc_zero_localize": lambda: arc_zero_localize(form),
             "refine_arc_zero": lambda: [refine_arc_zero(form, lo, hi) for lo, hi in brackets]}
    warm = {name: fn() for name, fn in parts.items()}
    out = {name: benchlib.timed(fn, repeats) for name, fn in parts.items()}
    out["refine_arc_zero"]["per_zero_s"] = out["refine_arc_zero"]["median_s"] / len(brackets)
    return {"k": k, "m": m, "zeros": len(brackets), "parts": out,
            "brackets_sha256": digest(brackets), "cells_sha256": digest(warm["refine_arc_zero"])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args = benchlib.parse(p, argv, repeats=5, label="arc")

    results = []
    for k, m in FORMS:
        res = bench(k, m, args.repeats)
        results.append(res)
        parts = res["parts"]
        print(f"({k}, {m}) {res['zeros']} zeros: sample_angles "
              f"{parts['sample_angles']['median_s'] * 1e3:.2f} ms, arc_zero_localize "
              f"{parts['arc_zero_localize']['median_s'] * 1e3:.1f} ms, refine_arc_zero "
              f"{parts['refine_arc_zero']['per_zero_s'] * 1e6:.0f} us per zero, "
              f"median of {args.repeats}", flush=True)
    benchlib.write(args, forms=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
