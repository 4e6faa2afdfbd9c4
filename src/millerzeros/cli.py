"""Batch command-line interface.

Subcommands map one-to-one onto the library layers: series expansion,
basis construction, Faber extraction, exact root isolation, certified
arc zeros, the bound ledger, the exhaustive m=1 sweep, the oscillation
estimate check, and zero-distribution statistics.  All output is
deterministic for fixed flags; JSON goes out as newline-delimited
records and CSV always carries a header row.

No option sets a working precision: every numerical command runs at
evalnum.DEFAULT_PREC, which the program alone raises (form_arc_prec for
mrl-check, the precision ladders where a sign is not decided).  --trunc
belongs to the two commands that print series, expand and miller; each
--format offers only the formats its command writes.

Exit status: 0 when every requested check passes, 1 on a failed check
(with the failing entries printed), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack

from . import certify, miller, qseries, zeros


def _delta_inv(trunc: int):
    # 1/Delta to trunc needs Delta to trunc + 2, which starts at 1
    if trunc < -1:
        raise ValueError(f"trunc must be at least -1 for delta-inv, got {trunc}")
    return qseries.delta(trunc + 2) ** -1


_FORMS = {
    "delta": lambda n: qseries.delta(n),
    "j": lambda n: qseries.jfunction(n),
    "delta-inv": _delta_inv,
}


def _series_by_name(name: str, trunc: int):
    key = name.lower()
    if key in _FORMS:
        return _FORMS[key](trunc)
    if key.startswith("e") and key[1:].isdigit():
        return qseries.eisenstein(int(key[1:]), trunc)
    raise ValueError(f"unknown form {name!r}; use E<k>, delta, delta-inv or j")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="millerzeros",
        description="Exact basis forms, certified bounds, and arc zeros.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, k=False, m=False, trunc=False, grid=None, fmt=None):
        """Register only the options the subcommand's handler reads.

        fmt is (choices, default): only the formats the handler writes.
        """
        if k:
            sp.add_argument("--k", type=int, required=True, help="weight")
        if m:
            sp.add_argument("--m", type=int, required=True, help="vanishing order index")
        if trunc:
            sp.add_argument("--trunc", type=int, default=None,
                            help="series truncation override")
        if grid:
            sp.add_argument("--grid-step", type=float, default=1e-3, help=grid)
        if fmt:
            choices, default = fmt
            sp.add_argument("--format", choices=choices, default=default)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    json_text = (("json", "text"), "text")
    sp = common(sub.add_parser("expand", help="print a q-expansion"), trunc=True, fmt=json_text)
    sp.add_argument("--form", required=True, help="E<k>, delta, delta-inv or j")

    common(sub.add_parser("miller", help="the reduced basis for one weight"), k=True, trunc=True)
    common(sub.add_parser("faber", help="Faber polynomial of one form"), k=True, m=True,
           fmt=(("json", "text"), "json"))
    common(sub.add_parser("roots", help="isolated Faber roots"), k=True, m=True)
    common(sub.add_parser("arc-zeros", help="certified arc zero report"), k=True, m=True)
    common(sub.add_parser("verify-bounds", help="full bound ledger"))
    sp = common(sub.add_parser("verify-thm2", help="exhaustive m=1 sweep"), fmt=json_text)
    sp.add_argument("--max-ell", type=int, default=14)
    common(sub.add_parser("mrl-check", help="oscillation estimate on a grid"),
           k=True, m=True, grid="angle step of the oscillation grid")
    sp = common(sub.add_parser("dist", help="zero angle distribution"),
                fmt=(("json", "csv"), "csv"))
    sp.add_argument("--k-list", required=True,
                    help="comma separated weights, e.g. 120,480,1920")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--bins", type=int, default=8)
    return p


# ---------------------------------------------------------------------------
# handlers; each returns the exit status


def _cmd_expand(args, out) -> int:
    trunc = args.trunc if args.trunc is not None else 16
    s = _series_by_name(args.form, trunc)
    if args.format == "json":
        print(json.dumps(s.to_json_dict()), file=out)
    else:
        print(str(s), file=out)
    return 0


def _cmd_miller(args, out) -> int:
    forms = miller.miller_basis(args.k, trunc=args.trunc)
    for f in forms:
        rec = {"k": f.id.k, "m": f.id.m,
               "series": f.series.to_json_dict(),
               "faber": json.loads(miller.faber_json(f))}
        print(json.dumps(rec), file=out)
    return 0


def _cmd_faber(args, out) -> int:
    form = miller.miller_form(args.k, args.m)
    if args.format == "text":
        print(form.faber.as_text(), file=out)
    else:
        print(miller.faber_json(form), file=out)
    return 0


def _cmd_roots(args, out) -> int:
    form = miller.miller_form(args.k, args.m)
    intervals, off = zeros.real_root_census(form.faber)
    for lo, hi in intervals:
        mid = (lo + hi) / 2
        rec = {"k": args.k, "m": args.m,
               "lo": str(lo), "hi": str(hi),
               "approx": float(mid),
               "inside": bool(0 <= lo and hi <= 1728)}
        print(json.dumps(rec), file=out)
    print(json.dumps({"k": args.k, "m": args.m, "summary": off}), file=out)
    return 0


def _cmd_arc_zeros(args, out) -> int:
    rep = zeros.zero_report(miller.miller_form(args.k, args.m))
    print(json.dumps(rep.to_json_dict()), file=out)
    return 0 if rep.valence_ok else 1


def _cmd_verify_bounds(args, out) -> int:
    entries = certify.full_ledger()
    bad = [e for e in entries if not e.satisfied]
    for e in entries:
        print(e.to_json(), file=out)
    if bad:
        for e in bad:
            print(f"FAILED: {e.name} claimed {e.claimed} got {e.computed} "
                  f"(err {e.err})", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_thm2(args, out) -> int:
    try:
        results = zeros.verify_theorem_m1(max_ell=args.max_ell)
    except zeros.TheoremViolationError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    for k, rep in results:
        if args.format == "json":
            print(json.dumps(rep.to_json_dict()), file=out)
        else:
            n_in = len(rep.faber_roots_in)
            print(f"k={k:5d} ell={rep.id.ell:3d} kprime={rep.id.kprime:2d} "
                  f"roots_in={n_in:3d} valence={'ok' if rep.valence_ok else 'BAD'} PASS",
                  file=out)
    return 0


def _cmd_mrl_check(args, out) -> int:
    rep = certify.proposition_mrl_check(args.k, args.m, grid_step=args.grid_step)
    print(json.dumps({"k": rep.k, "m": rep.m,
                      "hypothesis_ok": rep.hypothesis_ok,
                      "grid_max": rep.grid_max, "err_at_max": rep.err_at_max,
                      "theta_at_max": rep.theta_at_max,
                      "passed": rep.passed,
                      "violations": rep.violations,
                      "undecided": rep.undecided}), file=out)
    return 0 if rep.passed else 1


def _cmd_dist(args, out) -> int:
    ks = [int(x) for x in args.k_list.split(",") if x]
    stats = zeros.distribution_stats([(k, args.m) for k in ks], bins=args.bins)
    if args.format == "json":
        for st in stats:
            print(json.dumps(st.to_json_dict()), file=out)
    else:
        header = ["k", "m", "count", "discrepancy"] + \
            [f"bin{i}" for i in range(args.bins)]
        print(",".join(header), file=out)
        for st in stats:
            if st.count is None:            # not sampled: empty fields
                row = [str(st.k), str(st.m)] + [""] * (args.bins + 2)
            else:
                row = [str(st.k), str(st.m), str(st.count), repr(st.discrepancy)] + \
                    [str(c) for c in st.histogram]
            print(",".join(row), file=out)
    return 0


_HANDLERS = {
    "expand": _cmd_expand,
    "miller": _cmd_miller,
    "faber": _cmd_faber,
    "roots": _cmd_roots,
    "arc-zeros": _cmd_arc_zeros,
    "verify-bounds": _cmd_verify_bounds,
    "verify-thm2": _cmd_verify_thm2,
    "mrl-check": _cmd_mrl_check,
    "dist": _cmd_dist,
}

def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with ExitStack() as stack:
        if args.out:
            out = stack.enter_context(open(args.out, "w"))
        else:
            out = sys.stdout
        try:
            return _HANDLERS[args.command](args, out)
        except ValueError as exc:           # UnsupportedWeightError among them
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
