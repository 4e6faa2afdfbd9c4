#!/usr/bin/env python3
"""Run the whole verification stack and print a one-screen summary.

Covers the bound ledger, the exhaustive m=1 sweep, the oscillation
estimate at its three reference pairs, and the counterexample
regression.  Exit status 0 only if every stage certifies.  The working
precision is the library's own (evalnum.DEFAULT_PREC, raised by the
precision ladders where a sign is not decided); no option sets it.
"""

import argparse
import sys
import time

from millerzeros import certify, zeros
from millerzeros.miller import miller_form

MRL_PAIRS = ((192, 1), (240, 2), (360, 10))


def stage(label, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    dt = time.perf_counter() - t0
    print(f"[{'ok' if ok else 'FAIL'}] {label:<24} {detail} ({dt:.1f}s)")
    return ok


def run_ledger():
    entries = certify.full_ledger()
    bad = [e.name for e in entries if not e.satisfied]
    for name in bad:
        print(f"    unsatisfied: {name}", file=sys.stderr)
    return not bad, f"{len(entries) - len(bad)}/{len(entries)} entries"


def run_sweep(args):
    rows = zeros.verify_theorem_m1(max_ell=args.max_ell)
    return True, f"{len(rows)} forms, all roots on [0,1728]"


def run_mrl(args):
    worst = 0.0
    for k, m in MRL_PAIRS:
        rep = certify.proposition_mrl_check(k, m, grid_step=args.grid_step)
        if rep.violations:
            return False, f"violated at k={k}, m={m}, theta={rep.violations[0]!r}"
        if rep.undecided:
            return False, f"undecided at k={k}, m={m}, theta={rep.undecided[0]!r}"
        worst = max(worst, rep.grid_max + rep.err_at_max)
    return True, f"grid max+err {worst:.6f} < 2"


def run_counterexample():
    rep = zeros.zero_report(miller_form(132, 9), with_arc=False)
    off = rep.faber_roots_out
    n = off["real_outside"] + 2 * off["complex_pairs"]
    return n >= 1 and rep.valence_ok, f"{n} roots off the interval"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-ell", type=int, default=14)
    ap.add_argument("--grid-step", type=float, default=1e-3,
                    help="angle step of the oscillation estimate's grid; the ledger "
                         "has no step of its own")
    args = ap.parse_args()

    results = [
        stage("bound ledger", run_ledger),
        stage("m=1 sweep", lambda: run_sweep(args)),
        stage("oscillation estimate", lambda: run_mrl(args)),
        stage("counterexample", run_counterexample),
    ]
    print("all stages certified" if all(results) else "FAILURES above")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
