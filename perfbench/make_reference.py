"""Regenerate reference.json, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

It records, for every input any seed can draw (work.py's pools):

  * arc_brackets: the arc_zero_localize brackets of g_{k,1};
  * sweep: a digest of the Faber coefficients and the root counts of
    zero_report(miller_form(k, m), with_arc=False);
  * ledger: every full_ledger entry, with the kind of claim it makes
    (upper, lower, value with its tolerance, exact, flag), which the
    traced run needs to compute each entry's slack.

Run it only when the program's outputs are meant to change; a faster
algorithm must reproduce this file.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
import sys

import work


def _brackets(k: int) -> tuple:
    mz = work.import_program()
    form = mz["miller"].miller_form(k, 1)
    return str(k), [list(b) for b in mz["zeros"].arc_zero_localize(form)]


def _sweep(k: int) -> dict:
    mz = work.import_program()
    out = {}
    for kk, m in work.sweep_pool():
        if kk == k:
            form = mz["miller"].miller_form(k, m)
            rep = mz["zeros"].zero_report(form, with_arc=False)
            out[f"{k},{m}"] = {"digest": work.faber_digest(form.faber.coeffs),
                               "counts": work.report_counts(rep)}
    return out


def _ledger() -> list:
    """full_ledger entries, each tagged with the helper that made it."""
    certify = work.import_program()["certify"]
    kinds = {}

    def tag(helper, kind):
        sig = inspect.signature(helper)

        def wrapped(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            if kind == "exact":         # an exact rational compared one way
                kinds[a["name"]] = ("upper" if a["upper"] else "lower", 0.0)
            else:
                kinds[a["name"]] = (kind, float(a.get("tol", 0.0)))
            return helper(*args, **kwargs)
        return wrapped

    for kind in ("upper", "lower", "value", "flag", "exact"):
        name = f"_entry_{kind}"
        setattr(certify, name, tag(getattr(certify, name), kind))
    entries = []
    for e in certify.full_ledger():
        d = e.to_json_dict()
        d["kind"], d["tol"] = kinds[e.name]
        entries.append(d)
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise SystemExit("ledger entry names are not unique")
    return entries


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        arc = pool.map_async(_brackets, work.arc_pool(), chunksize=1)
        sweep = pool.map_async(_sweep, sorted({k for k, _ in work.sweep_pool()}), chunksize=1)
        ledger = pool.apply_async(_ledger)
        ref = {"arc_brackets": dict(arc.get()),
               "sweep": {key: v for part in sweep.get() for key, v in part.items()},
               "ledger": ledger.get()}
    work.REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {work.REFERENCE}: {len(ref['arc_brackets'])} weights, "
          f"{len(ref['sweep'])} forms, {len(ref['ledger'])} ledger entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
