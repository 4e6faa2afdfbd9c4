"""Smoke tests for the scripts: each runs as its own process on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

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
