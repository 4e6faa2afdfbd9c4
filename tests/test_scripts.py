"""Smoke tests for the scripts: each runs as its own process on the source tree."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from millerzeros.cli import main
from millerzeros.miller import miller_form
from millerzeros.zeros import zero_report
from test_cli import VERIFY_BOUNDS_SHA256

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_verification_help():
    done = run_script("run_verification.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--grid-step" in done.stdout


def test_run_verification_reports_a_stage_that_raises():
    # the sweep raises TheoremViolationError: its stage fails with the
    # exception's name and message, the later stages still run, and the
    # script exits 1 after its summary; the traceback goes to stderr
    driver = "\n".join([
        "import runpy, sys",
        "from millerzeros import zeros",
        "from millerzeros.qseries import FormId",
        "def sweep(max_ell):",
        "    raise zeros.TheoremViolationError(FormId.from_k(48, 1), 'planted failure')",
        "zeros.verify_theorem_m1 = sweep",
        "sys.argv = ['run_verification.py', '--grid-step', '0.05']",
        f"runpy.run_path({str(SCRIPTS / 'run_verification.py')!r}, run_name='__main__')",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", driver], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "TheoremViolationError" in done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["[ok]", "[FAIL]", "[ok]", "[ok]"]
    assert "m=1 sweep" in lines[1]
    assert "TheoremViolationError: g_{48,1}: planted failure" in lines[1]
    # the oscillation stage reports the certified grid bound, upper_max
    bound = lines[2].split("grid upper max ")[1].split()
    assert "oscillation estimate" in lines[2] and float(bound[0]) < 2 and bound[1:3] == ["<", "2"]
    assert lines[-1] == "FAILURES above"


def test_export_arc_curves_writes_four_csvs(tmp_path):
    done = run_script("export_arc_curves.py", "--step", "0.05", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    paths = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in paths] == ["delta_arc.csv", "e2.csv", "e4.csv", "e6.csv"]
    for p in paths:
        lines = p.read_text().splitlines()
        assert lines[0] == "theta,value,err" and len(lines) > 2


def test_bench_pairs_help():
    done = run_script("bench_pairs.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--parent" in done.stdout and "--summarize" in done.stdout


def test_bench_pairs_summarizes_a_win_a_tie_and_a_loss(tmp_path):
    # three canned pairs, read back without running the benchmark: wall_s
    # (lower is better) wins at seed 1, ties at 2 and loses at 3;
    # items_per_s (higher is better) wins at 1 and 2; the change's run at
    # seed 3 fails one item
    def result(wall, rate, failed=0):
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "items_per_s": {"value": rate, "unit": "1/s"}}}
    runs = [(1, result(0.20, 100), result(0.18, 110)),
            (2, result(0.21, 100), result(0.21, 101)),
            (3, result(0.22, 100), result(0.23, 99, failed=1))]
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps({"workload": "arc-zeros", "seed": seed, "side": side,
                                       "result": res}) + "\n"
                           for seed, parent, change in runs
                           for side, res in (("parent", parent), ("change", change))))
    done = run_script("bench_pairs.py", "--summarize", str(log))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload arc-zeros:" and lines[1] == "3 pairs, seeds 1, 2, 3"
    rows = {line.split()[0]: line.split() for line in lines[3:]}
    # parent 0.20, 0.21, 0.22: median 0.21, inclusive quartiles 0.205 and 0.215
    assert rows["wall_s"][1:5] == ["lower", "0.21", "[0.205,", "0.215]"]
    assert rows["wall_s"][5] == "0.21" and rows["wall_s"][-2:] == ["1/3", "no"]
    assert rows["items_per_s"][1] == "higher" and rows["items_per_s"][-2:] == ["2/3", "yes"]
    assert rows["setup_s"][2:] == ["not", "measured"]
    assert rows["parent:"][1:] == ["correct", "3/3,", "failed", "items", "0"]
    assert rows["change:"][1:] == ["correct", "2/3,", "failed", "items", "1"]


def test_bench_census_help():
    done = run_script("bench_census.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--repeats" in done.stdout and "--forms" in done.stdout


# sha256 of repr(real_root_census(F)) at the script's ROOTS, as the Sturm
# chain gave them
ROOTS_SHA256 = {
    (480, 1): "771c7c222d0a69b29f85c5202088da56cb6bd251e999eec324416ce4eb46cacb",
    (600, 1): "750f4bf72fc0c4efed4e7a12876efd47749318d7d96dc40df339a05c7e290f13",
}


def test_bench_census_records_paths_and_reports(tmp_path):
    # tiny weights: (48, 1) takes its cells directly, (34, 1) has its root
    # j = 432 on the grid, so its cell fails, and (132, 9) has a root below
    # 0, so its certificate fails; _census decides both.  real_root_census
    # runs at the script's ROOTS, (480, 1) and (600, 1), so one repeat
    done = run_script("bench_census.py", "--forms", "48:1,34:1,132:9", "--repeats", "1",
                      "--label", "smoke", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["label"] == "smoke" and out["repeats"] == 1
    assert set(out["environment"]) >= {"cores", "python", "mpmath_backend"}
    assert [(f["k"], f["m"], f["path"]) for f in out["forms"]] == [
        (48, 1, "direct"), (34, 1, "census"), (132, 9, "census")]
    for f in out["forms"]:
        text = json.dumps(zero_report(miller_form(f["k"], f["m"]), with_arc=False).to_json_dict())
        assert f["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert f["runs_s"] == [f["median_s"]]
    assert [(f["k"], f["m"], f["degree"]) for f in out["roots"]] == [(480, 1, 39), (600, 1, 49)]
    for f in out["roots"]:
        assert f["roots_sha256"] == ROOTS_SHA256[f["k"], f["m"]]
        assert f["runs_s"] == [f["median_s"]]


def test_bench_ledger_help():
    done = run_script("bench_ledger.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--repeats" in done.stdout and "--outdir" in done.stdout


def test_bench_ledger_times_every_section_and_hashes_the_ledger(tmp_path):
    done = run_script("bench_ledger.py", "--repeats", "2", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["label"] == "smoke" and out["repeats"] == 2
    assert set(out["environment"]) >= {"cores", "python", "mpmath_backend"}
    assert list(out["parts"]) == ["delta_ledger", "arc_eisenstein_bounds",
                                  "eisenstein_line_bounds", "j_difference_bounds",
                                  "residue_entries", "constants_ledger", "mrl-check (340, 2)"]
    for part in out["parts"].values():
        runs = part["runs_s"]
        assert len(runs) == 2 and min(runs) <= part["median_s"] <= max(runs)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["verify-bounds"]) == 0
    lines = text.getvalue().splitlines()
    assert out["verify_bounds"]["lines"] == len(lines) == 104
    assert out["verify_bounds"]["sha256"] == hashlib.sha256(text.getvalue().encode()).hexdigest()
    assert out["verify_bounds"]["sha256_without_line_grids"] == VERIFY_BOUNDS_SHA256


def test_bench_arc_help():
    done = run_script("bench_arc.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--repeats" in done.stdout and "--outdir" in done.stdout


# sha256 of repr() of the arc_zero_localize brackets and of their cells
# refined to width 1e-5, as the mpf bisection and mpf sample angles gave them
ARC_BENCH_SHA256 = {
    (388, 1): ("54ac29bedfbcb3934aba5c5803bcd82abdfccaf7f43adad8cabdad996f5f3659",
               "c7703ab710dec2352d084b91d5b3b2e4cdb44bded9b7851777e6befcd2422d2d"),
    (452, 1): ("46573c47e79a8c206856e391c2f95c6087cdb07b5bd066cde4ce023d595e34ce",
               "75e5a4205b7b8fa0feac6d54ec115ca0941f91d8a8d8203ce313eaca0f91508d"),
    (1936, 1): ("333844be238cff33daf5417ad637418fc96b953f8a00ea493d0473df55f59168",
                "0b041d7fd57968d4eff31bc4c7c49326437be0505a17836eb01f1c5756fc557d"),
}


def test_bench_arc_times_each_part_and_hashes_the_cells(tmp_path):
    done = run_script("bench_arc.py", "--repeats", "1", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["label"] == "smoke" and out["repeats"] == 1
    assert set(out["environment"]) >= {"cores", "python", "mpmath_backend"}
    assert [(f["k"], f["m"], f["zeros"]) for f in out["forms"]] == [
        (388, 1, 31), (452, 1, 36), (1936, 1, 160)]
    for f in out["forms"]:
        parts = f["parts"]
        assert list(parts) == ["sample_angles", "arc_zero_localize", "refine_arc_zero"]
        assert all(len(part["runs_s"]) == 1 for part in parts.values())
        refine = parts["refine_arc_zero"]
        assert refine["per_zero_s"] * f["zeros"] == pytest.approx(refine["median_s"])
        assert (f["brackets_sha256"], f["cells_sha256"]) == ARC_BENCH_SHA256[f["k"], f["m"]]
