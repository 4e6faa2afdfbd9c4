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


def test_export_arc_curves_writes_four_csvs(tmp_path):
    done = run_script("export_arc_curves.py", "--step", "0.05", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    paths = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in paths] == ["delta_arc.csv", "e2.csv", "e4.csv", "e6.csv"]
    for p in paths:
        lines = p.read_text().splitlines()
        assert lines[0] == "theta,value,err" and len(lines) > 2
