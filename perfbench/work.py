"""One cold repetition of a benchmark workload, in a fresh interpreter.

run.py starts this file once per timed repetition, so every lru_cache in
the program starts empty, exactly as for a command-line user.  The
repetition generates its (k, m) inputs from the seed, runs the items one
at a time (closed loop), checks every output against reference.json and
prints one JSON object as its last line of standard output.

    python3 perfbench/work.py --workload arc-zeros --seed 1 --start <t>

Set-up time is the CPU time this interpreter used up to the first
workload call; --start, the CLOCK_MONOTONIC reading taken by the parent
just before it started the interpreter, gives the raw wall-clock set-up
next to it.  --setup-only stops at that point, --trace wraps the
program's public functions (tracer.py) for the per-layer figures.

Every time it reports (set-up, wall, items, phases) is CPU time of this
process at the reference host speed of hostspeed.py, next to the raw
wall-clock set-up time and the raw wall-clock and CPU times of the run;
the tracer's per-layer times are raw wall-clock times.

Input generation lives here too, importing nothing from the program, so
run.py and make_reference.py draw exactly the same inputs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("arc-zeros", "exact-sweep", "ledger")

# arc-zeros: two m=1 forms with k_a + k_b fixed, so the pair costs the same
# for every seed and has about as many zeros at each weight, then a
# localize-only form near k = 1920.  k_a is never 0 mod 12, so both forms
# carry an E_k' factor (k' = 0 skips that series and makes each arc sample
# about a quarter cheaper), and every large weight is 4 mod 12, so all of
# them carry E_4 and cost about the same.  The pair runs back to back: on a
# shared machine whose speed drifts over tens of seconds, zeros refined in
# two separate windows give two clusters of times and a median that jumps
# between them.
ARC_PAIR = tuple(k for k in range(384, 421, 2) if k % 12)
ARC_PAIR_SUM = 840
ARC_HUGE = (1900, 1912, 1924, 1936)
REFINE_WIDTH = 1e-5

# exact-sweep: every m=1 form with ell <= 14, the counterexample, and
# seed-drawn m >= 2 forms at the same weights.  The extras are one form in
# each of 24 (ell, m) classes spread evenly over the m >= 2 pairs, with a
# seed-drawn weight 12 ell + k': the Faber degree ell - m, and so the cost
# of the extras, is the same for every seed.
SWEEP_MAX_ELL = 14
EXTRA_WEIGHTS = (0, 4, 6, 8, 10, 14)
COUNTEREXAMPLE = (132, 9)
_CLASSES = [(ell, m) for ell in range(2, SWEEP_MAX_ELL + 1) for m in range(2, ell + 1)]
EXTRA_CLASSES = [_CLASSES[round(i * (len(_CLASSES) - 1) / 23)] for i in range(24)]

# ledger: the full bound ledger, then one oscillation-estimate pair.  The
# cost of mrl-check differs by a factor of up to two between the pairs with
# 300 <= k <= 360, so the pair is drawn from neighbouring weights with the
# same m and k mod 12, whose costs agree within a few per cent: the seed
# then moves the workload's cost little.
MRL_WEIGHTS = (328, 340, 352)
MRL_M = 2


def _ell(k: int) -> int:
    r = k % 12
    return (k - 14) // 12 if r == 2 else (k - r) // 12


def arc_pool() -> list:
    """Every weight an arc-zeros input can name (all m = 1)."""
    return sorted(set(ARC_PAIR) | {ARC_PAIR_SUM - k for k in ARC_PAIR} | set(ARC_HUGE))


def sweep_pool() -> list:
    """Every (k, m) an exact-sweep input can name."""
    ks = sorted(12 * ell + kp for ell in range(1, SWEEP_MAX_ELL + 1) for kp in EXTRA_WEIGHTS)
    return [(k, m) for k in ks for m in range(1, _ell(k) + 1)]


def mrl_pool() -> list:
    """Pairs with ell > 4.5 m + 9.5 (the estimate's hypothesis) and k <= 360."""
    return [(k, MRL_M) for k in MRL_WEIGHTS if _ell(k) > 4.5 * MRL_M + 9.5]


def make_inputs(workload: str, seed: int) -> list:
    """The workload's items in run order; the same seed gives the same list.

    Each item is [kind, k, m]: "refine" (localize, then refine every zero),
    "localize" (Miller build plus localization only), "report" (exact
    zero_report), "ledger" (verify-bounds) or "mrl" (mrl-check).
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "arc-zeros":
        k = rng.choice(ARC_PAIR)
        pair = rng.sample([["refine", k, 1], ["refine", ARC_PAIR_SUM - k, 1]], 2)
        return pair + [["localize", rng.choice(ARC_HUGE), 1]]
    if workload == "exact-sweep":
        fixed = [(k, 1) for k, m in sweep_pool() if m == 1] + [COUNTEREXAMPLE]
        extras = [(12 * ell + rng.choice(EXTRA_WEIGHTS), m) for ell, m in EXTRA_CLASSES]
        items = [["report", k, m] for k, m in fixed + extras]
        rng.shuffle(items)
        return items
    if workload == "ledger":
        k, m = rng.choice(mrl_pool())
        return [["ledger", 0, 0], ["mrl", k, m]]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def faber_digest(coeffs) -> str:
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()[:32]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# the workloads; each appends timed items and returns the outputs to check


def _cli(cli, argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_items(mz, inputs: list, clock) -> tuple:
    """Run every input item; return (timed items, outputs, phases).

    A timed item is [label, start, end, error or None]: a refined zero, a
    fixed exact-sweep form, a ledger entry (all entries share the interval
    of their one call) or an mrl pair; a phase maps a name to (start, end).
    An error raised by the program fails that item and the loop goes on.
    """
    zeros, miller, cli = mz["zeros"], mz["miller"], mz["cli"]
    timed, outputs, phases = [], [], {}
    for kind, k, m in inputs:
        out = {"kind": kind, "k": k, "m": m}
        outputs.append(out)
        t0 = clock()
        try:
            if kind == "refine":
                # zeros.zero_angles, split so that each zero is timed
                form = out["form"] = miller.miller_form(k, m)
                out["brackets"] = zeros.arc_zero_localize(form)
                phases[f"localize k={k}"] = (t0, clock())
                out["refined"] = []
                for i, (lo, hi) in enumerate(out["brackets"]):
                    t1 = clock()
                    err = zero = None
                    try:
                        zero = zeros.refine_arc_zero(form, lo, hi, width=REFINE_WIDTH)
                    except Exception as exc:        # counted as a failed item
                        err = f"{type(exc).__name__}: {exc}"
                    out["refined"].append(zero)
                    timed.append([f"zero k={k} #{i}", t1, clock(), err])
            elif kind == "localize":
                form = out["form"] = miller.miller_form(k, m)
                t1 = clock()
                phases[f"miller_form k={k}"] = (t0, t1)
                out["brackets"] = zeros.arc_zero_localize(form)
                phases[f"localize k={k}"] = (t1, clock())
            elif kind == "report":
                out["form"] = miller.miller_form(k, m)
                t1 = clock()
                out["report"] = zeros.zero_report(out["form"], with_arc=False)
                # per-form times leave out the Miller build, which the first
                # form of each weight pays, and the seed-drawn extras, so the
                # timed set and its costs are the same for every seed
                if m == 1 or (k, m) == COUNTEREXAMPLE:
                    timed.append([f"form ({k},{m})", t1, clock(), None])
            elif kind == "ledger":
                out["rc"], out["text"] = _cli(cli, ["verify-bounds"])
                t1 = phases["verify-bounds"] = (t0, clock())
                # one call certifies every entry; they share its time equally
                n = max(1, out["text"].count("\n"))
                timed += [[f"entry #{i}", *t1, None] for i in range(n)]
            elif kind == "mrl":
                out["rc"], out["text"] = _cli(cli, ["mrl-check", "--k", str(k), "--m", str(m)])
                t1 = phases[f"mrl-check ({k},{m})"] = (t0, clock())
                timed.append([f"mrl ({k},{m})", *t1, None])
        except Exception as exc:                    # the whole input item failed
            out["error"] = f"{type(exc).__name__}: {exc}"
            timed.append([f"{kind} ({k},{m})", t0, clock(), out["error"]])
    return timed, outputs, phases


# ---------------------------------------------------------------------------
# correctness; each check returns [label, ok, note] verdicts, one per item


def _check_arc(mz, ref: dict, out: dict) -> list:
    k, form, brackets = out["k"], out["form"], out["brackets"]
    want = ref["arc_brackets"][str(k)]
    got = [list(b) for b in brackets]
    if out["kind"] == "localize":
        verdicts = [[f"bracket k={k} #{i}", i < len(want) and got[i] == want[i], ""]
                    for i in range(len(got))]
        return verdicts + [[f"bracket k={k} missing", False, ""]] * (len(want) - len(got))
    verdicts = []
    same = got == want
    for i, ((lo, hi), zero) in enumerate(zip(brackets, out["refined"])):
        label = f"zero k={k} #{i}"
        if zero is None:
            verdicts.append([label, False, "refinement raised"])
            continue
        a, b = zero
        inside = lo <= a <= b <= hi
        j_lo, j_hi = mz["zeros"].j_of_angle((a, b))
        change = _sign(form.faber(j_lo)) * _sign(form.faber(j_hi)) == -1
        verdicts.append([label, same and inside and change,
                         "" if same else "bracket list differs from reference"])
    return verdicts


def _check_report(ref: dict, out: dict) -> list:
    k, m, form, rep = out["k"], out["m"], out["form"], out["report"]
    want = ref["sweep"][f"{k},{m}"]
    counts = report_counts(rep)
    ok = (faber_digest(form.faber.coeffs) == want["digest"] and counts == want["counts"]
          and rep.valence_ok)
    if rep.squarefree_defect == 0:
        # every isolating interval holds one simple root: an exact sign change
        ok = ok and all(0 <= a < b <= 1728 and _sign(form.faber(a)) * _sign(form.faber(b)) == -1
                        for a, b in rep.faber_roots_in)
    off = counts[1] + counts[2]
    if m == 1:
        ok = ok and off == 0 and counts[5] == 0     # Theorem 2: all roots in (0, 1728)
    if (k, m) == COUNTEREXAMPLE:
        ok = ok and off >= 1
    return [[f"form ({k},{m})", ok, ""]]


def report_counts(rep) -> list:
    """Roots in (0, 1728), real outside, complex pairs, at 0, at 1728, defect."""
    return [len(rep.faber_roots_in), rep.faber_roots_out["real_outside"],
            rep.faber_roots_out["complex_pairs"], rep.boundary_mult[0],
            rep.boundary_mult[1728], rep.squarefree_defect]


def _entries_close(got: dict, want: dict) -> bool:
    """Same name, claim and verdict, and computed +- err overlaps the reference."""
    if (got["name"], got["claimed"], got["satisfied"]) != (want["name"], want["claimed"], True):
        return False
    slop = 1e-15 * max(abs(got["computed"]), abs(want["computed"]))
    return abs(got["computed"] - want["computed"]) <= got["err"] + want["err"] + slop


def _check_ledger(ref: dict, out: dict) -> list:
    want = ref["ledger"]
    got = [json.loads(line) for line in out["text"].splitlines() if line.strip()]
    ok_rc = out["rc"] == 0
    verdicts = [[f"entry {w['name']}", ok_rc and i < len(got) and _entries_close(got[i], w), ""]
                for i, w in enumerate(want)]
    return verdicts + [[f"entry {g['name']} unexpected", False, ""] for g in got[len(want):]]


def _check_mrl(out: dict) -> list:
    k, m, rep = out["k"], out["m"], json.loads(out["text"])
    # passed and the grid maximum; the violations list is not consulted
    ok = (out["rc"] == 0 and rep["passed"] and rep["hypothesis_ok"]
          and rep["grid_max"] + rep["err_at_max"] < 2)
    return [[f"mrl ({k},{m})", ok, f"grid_max={rep['grid_max']!r}"]]


def check_outputs(mz, ref: dict, outputs: list) -> list:
    verdicts = []
    for out in outputs:
        label = f"{out['kind']} ({out['k']},{out['m']})"
        if "error" in out:
            verdicts.append([label, False, out["error"]])
            continue
        try:
            if out["kind"] in ("refine", "localize"):
                verdicts += _check_arc(mz, ref, out)
            elif out["kind"] == "report":
                verdicts += _check_report(ref, out)
            elif out["kind"] == "ledger":
                verdicts += _check_ledger(ref, out)
            else:
                verdicts += _check_mrl(out)
        except Exception as exc:                    # malformed output fails the item
            verdicts.append([label, False, f"check raised {type(exc).__name__}: {exc}"])
    return verdicts


# ---------------------------------------------------------------------------


def import_program() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import millerzeros
    from millerzeros import certify, cli, evalnum, miller, qseries, zeros
    if Path(millerzeros.__file__).resolve().parent != ROOT / "src" / "millerzeros":
        raise ImportError(f"millerzeros imported from {millerzeros.__file__}, not {ROOT / 'src'}")
    return {"package": millerzeros, "qseries": qseries, "miller": miller, "evalnum": evalnum,
            "zeros": zeros, "certify": certify, "cli": cli}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # the process's CPU time: a neighbour that takes the core away does not
    # count, one that slows it down is taken out by HostSpeed
    clock = time.process_time
    mz = import_program()
    inputs = make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(mz)
        tracer.install()
    t_first = clock()           # CPU time since this interpreter started
    setup, setup_raw = t_first, time.monotonic() - args.start
    # a probe that interrupts a traced function is enclosed time, not its self time
    speed = HostSpeed(clock, on_probe=tracer.enclose if tracer else None)
    result = {"setup_s": setup * speed.burst_scale(), "setup_raw_s": setup_raw}
    if not args.setup_only:
        speed.start()
        t0, w0 = clock(), time.monotonic()
        timed, outputs, phases = run_items(mz, inputs, clock)
        t1, w1 = clock(), time.monotonic()
        speed.stop()
        span = speed.work_seconds
        shared = collections.Counter((a, b) for _, a, b, _ in timed)
        timed = [[label, span(a, b) / shared[a, b], err] for label, a, b, err in timed]
        phases = {name: span(a, b) for name, (a, b) in phases.items()}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        ref = json.loads(REFERENCE.read_text())
        verdicts = check_outputs(mz, ref, outputs)
        result.update(wall_s=span(t0, t1), raw_wall_s=w1 - w0, raw_cpu_s=t1 - t0,
                      peak_rss_mb=rss_mb, timed=timed, verdicts=verdicts, phases=phases,
                      inputs=inputs)
        result["host_speed"] = speed.summary()
        if tracer is not None:
            result["trace"] = tracer.report(ref["ledger"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
