"""Time the bound ledger section by section, and one oscillation check.

    python3 scripts/bench_ledger.py --repeats 5 --label after

One untimed pass of certify.full_ledger() and of the oscillation check
fills the caches that a verify-bounds or mrl-check run fills once (the
arc corners, the lemniscate constants, the q-series and the Miller
form).  Then each of the six sections of full_ledger, in its order, and
proposition_mrl_check at (340, 2), the CLI's 1e-3 grid, run --repeats
times, and the median of their wall times (time.perf_counter) is
recorded with every run.

The result goes to BENCH_<label>.json in --outdir, together with the
environment (cores, Python, mpmath backend) and the sha256 of the
verify-bounds lines: of all of them, and of all but the four
e*.line.*.grid entries, so that two checkouts can be compared for
identical output.  The package is imported from this checkout's src/.
Standard library only, besides the package itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys

import benchlib  # puts this checkout's src/ first on sys.path
from millerzeros import certify, cli

SECTIONS = ("delta_ledger", "arc_eisenstein_bounds", "eisenstein_line_bounds",
            "j_difference_bounds", "residue_entries", "constants_ledger")
MRL = (340, 2)
LINE_GRIDS = {f"e{k}.line.{h}.grid" for k in (4, 6) for h in ("065", "075")}


def verify_bounds_digests() -> dict:
    """sha256 of the verify-bounds lines, all and all but the line claims' grids."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-bounds"])
    if code != 0:
        raise SystemExit(f"verify-bounds exited {code}")
    lines = out.getvalue().splitlines()
    kept = [line for line in lines if json.loads(line)["name"] not in LINE_GRIDS]

    def digest(rows):
        return hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()
    return {"lines": len(lines), "sha256": digest(lines),
            "sha256_without_line_grids": digest(kept)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args = benchlib.parse(p, argv, repeats=5, label="ledger")

    def mrl():
        return certify.proposition_mrl_check(*MRL)
    certify.full_ledger()
    mrl()
    parts = {name: benchlib.timed(getattr(certify, name), args.repeats) for name in SECTIONS}
    parts["mrl-check (%d, %d)" % MRL] = benchlib.timed(mrl, args.repeats)
    for name, res in parts.items():
        print(f"{name}: {res['median_s']:.4f} s median of {args.repeats}", flush=True)
    benchlib.write(args, parts=parts, verify_bounds=verify_bounds_digests())
    return 0


if __name__ == "__main__":
    sys.exit(main())
