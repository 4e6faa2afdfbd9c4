"""Cold-start benchmark of the three verification paths.

    python3 perfbench/run.py --workload arc-zeros --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one item at a time, one process, jobs = 1):

  arc-zeros    zero angles of two m=1 forms (localize, then refine every
               zero) at seed-drawn weights k and 840 - k, 384 < k < 420 and
               k not a multiple of 12, then miller_form plus
               arc_zero_localize alone at a seed-drawn k in 1900, 1912,
               1924, 1936;
               an item is a refined zero or a localize-only bracket;
  exact-sweep  zero_report(miller_form(k, m), with_arc=False) for the 84
               m=1 forms with ell <= 14, the counterexample (132, 9) and
               24 m >= 2 forms at seed-drawn weights (one in each of 24
               fixed (ell, m) classes), in seed-shuffled order; an item
               is a form;
  ledger       cli verify-bounds (all entries, grid 1e-3), then cli
               mrl-check for one seed-drawn pair (k, 2), k in 328, 340,
               352 (ell > 4.5 m + 9.5); an item is an entry or the pair.

item_p50_s and item_tail_s are taken over the refined zeros, over the
zero_report calls of the 85 fixed forms, and over the ledger entries
(each given the mean time of its verify-bounds call, the finest split
visible from outside) plus the mrl pair.  The tail is the highest
percentile with at least ten items beyond it; both are taken in each
repetition and reported as the median over the repetitions.

Every repetition runs in a fresh interpreter (work.py), so lru_caches
start empty as for a command-line user.  The end-to-end times are the
CPU time of that process, given at a reference host speed: time in which
another tenant of a shared host holds the core does not count, and
work.py samples the machine's speed with a fixed probe every 50 ms inside
the process and scales each interval by it (hostspeed.py), so that the
neighbours' load moves the figures little.  The program is single-threaded
and CPU-bound, so on an idle host this is its wall time; the raw wall and
CPU times are printed per repetition.
With --trace 0 repetitions run while the next one is expected to end
within --seconds (at least one), and the end-to-end metrics are medians
over them; set-up time is the median over the repetitions and nine
set-up-only starts.  With --trace 1 one untraced and one traced
repetition run, and the per-layer metrics come from the traced one
(tracer.py); the per-layer times are raw wall-clock times, the tracing
overhead is the difference of the two repetitions at reference speed.

Every output is checked against reference.json (make_reference.py).
A repetition that crashes or overruns the deadline counts as one failed
item; the result line is still printed, without metrics when no
repetition ran to the end.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
environment, each repetition and, when traced, the per-module tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import work

SETUP_PROBES = 9
DEADLINE_S = 170            # the whole run, children included


def _spec() -> dict:
    return json.loads((work.ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = work.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, inputs: list) -> dict:
    import mpmath
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "git_sha": _git_sha(), "workload": workload, "seed": seed, "inputs": inputs}


def child(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """One fresh interpreter running work.py; its result object, or
    {"error": ...} when it overran the deadline or exited without one."""
    cmd = [sys.executable, str(work.HERE / "work.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--start", repr(start)], cwd=work.ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": f"work.py ran past the {DEADLINE_S} s deadline and was killed"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"work.py exited with {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def item_stats(times: list) -> tuple:
    """(p50, tail, tail percentile, count): the tail is the highest
    percentile with at least ten items beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n == 0:
        raise ValueError("no timed items")
    i = max(0, n - 11)
    return statistics.median(xs), xs[i], 100.0 * (i + 1) / n, n


def summarize(reps: list, setups: list) -> tuple:
    """End-to-end metrics (medians over the repetitions that ran to the
    end; None when none did), attempted, failed.  A repetition that
    crashed or overran counts as one failed item."""
    crashed = [[f"repetition {i}", False, r["error"]] for i, r in enumerate(reps) if "error" in r]
    reps = [r for r in reps if "error" not in r]
    verdicts = [v for rep in reps for v in rep["verdicts"]] + crashed
    failed = sum(1 for v in verdicts if not v[1])
    detail = {"repetitions": len(reps) + len(crashed), "crashed": len(crashed),
              "setup_samples": len(setups), "failed_frac": failed / len(verdicts),
              "failures": [v for v in verdicts if not v[1]][:20]}
    if not reps:
        return None, len(verdicts), failed, detail
    # per repetition, so that the tail percentile does not depend on how
    # many repetitions fit in the run
    stats = [item_stats([t for _, t, _ in rep["timed"]]) for rep in reps]
    _, _, pct, n = stats[0]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(len(r["verdicts"]) / r["wall_s"] for r in reps),
        "item_p50_s": statistics.median(st[0] for st in stats),
        "item_tail_s": statistics.median(st[1] for st in stats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail.update(timed_items_per_repetition=n, tail_percentile=round(pct, 2))
    return metrics, len(verdicts), failed, detail


def print_trace_tables(workload: str, seed: int, untraced: dict, traced: dict) -> None:
    tr = traced["trace"]
    wall, twall = untraced["wall_s"], traced["wall_s"]
    raw, probes = traced["raw_wall_s"], traced["host_speed"]["probe_total_s"]
    rows = [(f"workload `{workload}` (seed {seed}), untraced, at reference speed", wall),
            ("same, traced, at reference speed", twall), ("tracing overhead", twall - wall),
            ("traced, raw wall clock (the rows below are raw too)", raw),
            ("host-speed probes", probes)]
    rows += [(f"`{mod}` self", own) for mod, own in tr["modules"].items()]
    rows.append(("outside the six modules (benchmark loop, wrappers, observers)",
                 raw - probes - sum(tr["modules"].values())))
    rows += [(f"`{name}` self, {calls} calls", own)
             for name, calls, total, own in tr["functions"][:15]]
    print("| layer / stage | time |")
    print("|---|---|")
    for label, t in rows:
        print(f"| {label} | {t:.3f} s |")
    if tr["headroom"]:
        print("\n| arc_form weight | calls | prec bits | escalated | headroom min | headroom p50 |")
        print("|---|---|---|---|---|---|")
        for h in tr["headroom"]:
            lo, mid = h["headroom_min_bits"], h["headroom_p50_bits"]
            room = f"{lo:.1f} bits | {mid:.1f} bits" if lo is not None else "no sign samples | -"
            print(f"| {h['k']} | {h['calls']} | {','.join(map(str, h['prec_bits']))} "
                  f"| {h['escalated']} | {room} |")
    if tr["tightest"]:
        print("\nfive tightest ledger entries (slack as a share of the claim or tolerance):")
        for name, slack in tr["tightest"]:
            print(f"  {name}: {slack:.6g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=work.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = _spec()
    package = work.ROOT / "src" / "millerzeros" / "__init__.py"
    if not package.exists() or not work.REFERENCE.exists():
        print(f"error: {package} or {work.REFERENCE} is missing", file=sys.stderr)
        return 2
    inputs = work.make_inputs(args.workload, args.seed)
    print(json.dumps({"environment": environment(args.workload, args.seed, inputs)}))

    if args.trace:
        untraced = child(args.workload, args.seed, deadline)
        traced = child(args.workload, args.seed, deadline, trace=True)
        reps, probes = [untraced, traced], []
    else:
        reps, started = [], time.monotonic()
        while True:
            reps.append(child(args.workload, args.seed, deadline))
            elapsed = time.monotonic() - started
            if "error" in reps[-1] or elapsed + elapsed / len(reps) > args.seconds:
                break
        probes = [] if "error" in reps[-1] else [
            child(args.workload, args.seed, deadline, setup_only=True)
            for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in reps + probes if "setup_s" in r]
    reps += [r for r in probes if "error" in r]

    e2e, attempted, failed, detail = summarize(reps, setups)
    for i, rep in enumerate(reps):
        print(json.dumps({"repetition": i, "traced": bool(args.trace) and i == 1, **{
            key: rep[key] for key in ("error", "wall_s", "raw_wall_s", "raw_cpu_s", "setup_s",
                                     "setup_raw_s", "host_speed", "phases") if key in rep}}))
    print(json.dumps({"summary": detail}))
    if e2e is None or (args.trace and detail["crashed"]):
        # nothing complete to measure: a result that says so, without metrics
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        print_trace_tables(args.workload, args.seed, untraced, traced)
        values = {**traced["trace"]["layers"],
                  "trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
        section = spec["per_layer"]
    else:
        values, section = e2e, spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
