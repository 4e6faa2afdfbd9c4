"""Time the exact root census at large weight, and real_root_census (roots).

    python3 scripts/bench_census.py --repeats 3 --label after
    python3 scripts/bench_census.py --forms 48:1,60:1 --repeats 1 --outdir /tmp

Each form is built once by miller_form, outside the timing; then
zero_report(form, with_arc=False) runs --repeats times and the median of
its wall times (time.perf_counter) is recorded with every run.  One more
untimed run records the census path the form took:

  direct   every isolating interval taken straight from its root's cell
  census   zeros._census, Descartes isolation: the interlacing certificate
           or the cells failed, as for (34, 1), whose one root j = 432 is a
           grid point

together with the sha256 of the report's JSON, so that two checkouts can
be compared for identical output.  Then real_root_census(F) at each form
of ROOTS runs --repeats times, its median recorded with the sha256 of
repr((intervals, counts)) of the last run.  The result, with the environment
(cores, Python, mpmath backend), goes to BENCH_<label>.json in --outdir
and a summary to stdout.  The package is imported from this checkout's
src/.  Standard library only, besides the package itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import benchlib  # puts this checkout's src/ first on sys.path
from millerzeros import zeros
from millerzeros.miller import miller_form

FORMS = ((34, 1), (480, 1), (960, 1), (1200, 3), (1924, 1), (3840, 1))
ROOTS = ((480, 1), (600, 1))


def parse_forms(text: str) -> list:
    """'480:1,960:1' as [(480, 1), (960, 1)]."""
    return [tuple(int(v) for v in item.split(":")) for item in text.split(",")]


def census_path(form) -> tuple:
    """(path, sha256 of the report's JSON) from one traced zero_report run."""
    seen = []
    census = zeros._census

    def traced_census(*args):
        seen.append("census")
        return census(*args)

    zeros._census = traced_census
    try:
        rep = zeros.zero_report(form, with_arc=False)
    finally:
        zeros._census = census
    path = "census" if seen else "direct"
    digest = hashlib.sha256(json.dumps(rep.to_json_dict()).encode()).hexdigest()
    return path, digest


def bench(k: int, m: int, repeats: int) -> dict:
    form = miller_form(k, m)
    times = benchlib.timed(lambda: zeros.zero_report(form, with_arc=False), repeats)
    path, digest = census_path(form)
    return {"k": k, "m": m, "degree": form.faber.degree, **times, "path": path,
            "report_sha256": digest}


def bench_roots(k: int, m: int, repeats: int) -> dict:
    faber = miller_form(k, m).faber
    last = []
    times = benchlib.timed(lambda: last.append(zeros.real_root_census(faber)), repeats)
    digest = hashlib.sha256(repr(last[-1]).encode()).hexdigest()
    return {"k": k, "m": m, "degree": faber.degree, **times, "roots_sha256": digest}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--forms", type=parse_forms, default=list(FORMS),
                   help="k:m pairs, e.g. 480:1,1924:1 (default: "
                        + ",".join(f"{k}:{m}" for k, m in FORMS) + ")")
    args = benchlib.parse(p, argv, repeats=3, label="census")

    results = []
    for k, m in args.forms:
        res = bench(k, m, args.repeats)
        results.append(res)
        print(f"({k}, {m}) degree {res['degree']}: {res['median_s']:.3f} s median of "
              f"{args.repeats}, {res['path']}", flush=True)
    roots = []
    for k, m in ROOTS:
        roots.append(bench_roots(k, m, args.repeats))
        print(f"real_root_census ({k}, {m}): {roots[-1]['median_s']:.3f} s median of "
              f"{args.repeats}", flush=True)
    benchlib.write(args, forms=results, roots=roots)
    return 0


if __name__ == "__main__":
    sys.exit(main())
