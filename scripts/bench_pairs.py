"""Paired benchmark runs of a parent and a change checkout.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload arc-zeros --seeds 11-20 --seconds 8 --log pairs.jsonl
    python3 scripts/bench_pairs.py --summarize pairs.jsonl

For each seed, perfbench/run.py --trace 0 runs once in each checkout, the
parent first on even pairs and the change first on odd ones, so that a
drift of the host's speed falls on both sides alike.  The last line of
each run (its JSON result) is appended to --log as one line
{"workload", "seed", "side", "result"}, and --summarize reads such a log
again without running anything.

The summary gives, for each end-to-end metric of BENCHMARK.json, both
sides' medians and quartiles (inclusive method), the change's median
relative to the parent's, its wins over the pairs in the direction of
the metric's `better` (a tie is not a win), and whether the medians
differ by more than the parent's interquartile range; then each side's
correct runs and failed items.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(spec_path: Path) -> list:
    """(name, better) for each end-to-end metric of a BENCHMARK.json."""
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in checkout; its result line, or a failed result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "error": done.stderr.strip()[-500:]}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(records: list, metrics: list) -> str:
    """The table of one workload's paired records (see the module docstring)."""
    sides = {"parent": {}, "change": {}}
    for rec in records:
        sides[rec["side"]][rec["seed"]] = rec["result"]
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    out = [f"{len(seeds)} pairs, seeds {', '.join(map(str, seeds))}",
           f"{'metric':<12} {'better':<6} {'parent median [q1, q3]':<36} "
           f"{'change median [q1, q3]':<36} {'change':>8} {'wins':>6}  |d| > IQR"]
    for name, better in metrics:
        pairs = [(sides["parent"][s]["metrics"][name]["value"],
                  sides["change"][s]["metrics"][name]["value"]) for s in seeds
                 if name in sides["parent"][s]["metrics"] and name in sides["change"][s]["metrics"]]
        if not pairs:
            out.append(f"{name:<12} {better:<6} not measured")
            continue
        cols, med = [], {}
        for side, vals in zip(("parent", "change"), zip(*pairs)):
            med[side] = statistics.median(vals)
            q1, q3 = quartiles(list(vals))
            cols.append(f"{med[side]:.6g} [{q1:.6g}, {q3:.6g}]")
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        q1, q3 = quartiles([p for p, _ in pairs])
        rel = (med["change"] / med["parent"] - 1) * 100 if med["parent"] else float("nan")
        out.append(f"{name:<12} {better:<6} {cols[0]:<36} {cols[1]:<36} {rel:>+7.1f}% "
                   f"{wins:>3}/{len(pairs):<2}  "
                   f"{'yes' if abs(med['change'] - med['parent']) > q3 - q1 else 'no'}")
    for side in ("parent", "change"):
        runs = [sides[side][s] for s in seeds]
        out.append(f"{side}: correct {sum(r.get('correct') is True for r in runs)}/{len(runs)}, "
                   f"failed items {sum(r.get('failed', 0) for r in runs)}")
    return "\n".join(out)


def parse_seeds(text: str) -> list:
    """'11-20' or '11,12,15' as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (this one)")
    p.add_argument("--workload", help="perfbench workload, e.g. arc-zeros")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                   help="one pair per seed: 11-20 or 11,12,15 (default 1-10)")
    p.add_argument("--seconds", type=float, default=8, help="perfbench --seconds (default 8)")
    p.add_argument("--log", type=Path, help="append each run's result line here")
    p.add_argument("--summarize", type=Path, metavar="LOG",
                   help="print the summary of a log and run nothing")
    args = p.parse_args(argv)
    metrics = end_to_end(ROOT / "BENCHMARK.json")

    if args.summarize:
        records = [json.loads(line) for line in args.summarize.read_text().splitlines() if line]
        for workload in dict.fromkeys(r["workload"] for r in records):
            print(f"workload {workload}:")
            print(summarize([r for r in records if r["workload"] == workload], metrics))
        return 0
    if args.parent is None or args.workload is None:
        p.error("--parent and --workload are required unless --summarize is given")

    records = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            rec = {"workload": args.workload, "seed": seed, "side": side,
                   "result": run_once(checkout.resolve(), args.workload, seed, args.seconds)}
            records.append(rec)
            if args.log:
                with args.log.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            wall = rec["result"].get("metrics", {}).get("wall_s", {}).get("value")
            print(f"seed {seed} {side}: wall_s {wall}, correct {rec['result'].get('correct')}",
                  file=sys.stderr, flush=True)
    print(f"workload {args.workload}:")
    print(summarize(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
