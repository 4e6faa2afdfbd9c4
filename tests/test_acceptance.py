"""Top-level acceptance checks, one test per criterion.

Each test prints a single pass/fail line straight to the terminal so the
overall run shows a ten-line scoreboard regardless of capture settings.
"""

import json
import time
from fractions import Fraction

from mpmath import mp, workprec

from millerzeros import certify, evalnum, qseries, zeros
from millerzeros.cli import main
from millerzeros.miller import miller_form
from millerzeros.qseries import eisenstein, delta

from conftest import ramanujan_residuals


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


F48_DESC = ["1", "-2136", "931860", "-24903328"]
F124_DESC = [
    "1", "-6696", "18182340", "-25703594848", "20207360640402",
    "-8750844530401680", "1942806055074346280", "-188671766710386398400",
    "5718177043459037019999", "-21437679033112542661656",
]
F48_ROOTS = (28.5703, 565.1814, 1542.2483)
F124_ROOTS = (4.3445, 44.3322, 153.6441, 350.0448, 628.6821,
              959.1844, 1289.5802, 1557.8272, 1708.3603)

# ell <= 14 forms whose nontrivial zeros all sit on the arc; thirteen
# m = 1 cases and seven higher-m cases with k above the 4 pi m
# monotonicity threshold
CROSS_ORACLE_FORMS = [(k, 1) for k in range(24, 169, 12)] + \
    [(48, 2), (60, 2), (72, 3), (96, 4), (120, 5), (144, 6), (168, 7)]


def _timed_cli(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv)
    dt = time.perf_counter() - t0
    out = capsys.readouterr().out
    return code, out, dt


def test_criterion_01_faber_goldens(capsys):
    code48, out48, t48 = _timed_cli(["faber", "--k", "48", "--m", "1"], capsys)
    code124, out124, t124 = _timed_cli(["faber", "--k", "124", "--m", "1"], capsys)
    ok = (code48 == 0 and code124 == 0
          and json.loads(out48)["coeffs"] == F48_DESC
          and json.loads(out124)["coeffs"] == F124_DESC
          and t48 < 1.0 and t124 < 1.0)
    _line(capsys, 1, ok,
          f"faber coefficient goldens exact ({t48:.2f}s / {t124:.2f}s)")


def test_criterion_02_root_tables(capsys):
    def roots_of(k):
        t0 = time.perf_counter()
        code = main(["roots", "--k", str(k), "--m", "1"])
        dt = time.perf_counter() - t0
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(x) for x in lines[:-1]]
        return code, [r["approx"] for r in rows], dt

    c48, got48, t48 = roots_of(48)
    c124, got124, t124 = roots_of(124)
    ok = (c48 == 0 and c124 == 0
          and len(got48) == 3 and len(got124) == 9
          and all(abs(g - w) < 1e-3 for g, w in zip(got48, F48_ROOTS))
          and all(abs(g - w) < 1e-3 for g, w in zip(got124, F124_ROOTS))
          and t48 < 1.0 and t124 < 1.0)
    _line(capsys, 2, ok,
          f"root tables within 1e-3 ({t48:.2f}s / {t124:.2f}s)")


def test_criterion_03_theorem_sweep(capsys):
    code, out, dt = _timed_cli(["verify-thm2", "--max-ell", "14"], capsys)
    n = len(out.splitlines())
    ok = code == 0 and n == 84 and dt < 120.0
    _line(capsys, 3, ok, f"84-form sweep exit {code} in {dt:.1f}s")


def test_criterion_04_counterexample(capsys):
    t0 = time.perf_counter()
    rep = zeros.zero_report(miller_form(132, 9), with_arc=False)
    dt = time.perf_counter() - t0
    off = rep.faber_roots_out
    n_out = off["real_outside"] + 2 * off["complex_pairs"]
    ok = n_out >= 1 and rep.valence_ok and dt < 5.0
    _line(capsys, 4, ok,
          f"g_132,9 has {n_out} roots off [0,1728] ({dt:.2f}s)")


def test_criterion_05_constant_ledger(capsys, ledger_by_name):
    def near(name, target, tol, absolute=True):
        e = ledger_by_name[name]
        v = abs(e.computed) if absolute else e.computed
        return abs(v - target) + e.err <= tol

    with workprec(120):
        j19 = evalnum.arc_j(mp.mpf("1.9"))
        window = (271 <= float(j19.value - j19.err)
                  and float(j19.value + j19.err) <= 272)
    checks = [
        near("delta.at-i", 0.00178537, 1e-7),
        near("delta.at-rho", 0.00480514, 1e-7),
        near("e4.arc.at-i", 1.455761, 1e-5),
        near("e6.arc.at-rho", 2.881536, 1e-5),
        near("lemniscate.varpi", 2.622057, 1e-5),
        window,
        near("refit.x0", 0.253311, 1e-4),
        near("magfit.value-at-half", 593.543, 1e-2),
        near("jdiff.ref19", 271.09885, 1e-3, absolute=False),
    ]
    _line(capsys, 5, all(checks),
          f"constant ledger {sum(checks)}/9 within stated tolerances")


def test_criterion_06_bound_ledger(capsys, ledger_by_name, tmp_path):
    table_caps = {
        ("075", 0): 51.31, ("075", 4): 21.72, ("075", 6): 19.5,
        ("075", 8): 9.2, ("075", 10): 8.3, ("075", 14): 3.5,
        ("065", 0): 166.7, ("065", 4): 25.1, ("065", 6): 33.78,
        ("065", 8): 3.8, ("065", 10): 5.08, ("065", 14): 1.0,
    }
    ok = True
    for (label, kp), cap in table_caps.items():
        e = ledger_by_name[f"table.{label}.k{kp}"]
        ok &= e.satisfied and e.claimed == cap and e.computed + e.err < cap

    for name, cap in (("growth.b1", 3.94), ("growth.b2", 5.12),
                      ("growth.c1", 4.5), ("growth.c2", 9.5)):
        e = ledger_by_name[name]
        ok &= e.satisfied and e.computed + e.err <= cap
    c2 = ledger_by_name["growth.c2"].computed
    ok &= abs(c2 - 9.11013) <= 1e-3

    for name, floor in (("jdiff.sep-075", 176), ("jdiff.sep-065", 311)):
        e = ledger_by_name[name]
        ok &= e.satisfied and e.computed - e.err >= floor

    for name, cap in (("e4.line.065.assembled", 5.9),
                      ("e4.line.075.assembled", 3.45),
                      ("e6.line.065.assembled", 14.26),
                      ("e6.line.075.assembled", 5.25)):
        e = ledger_by_name[name]
        ok &= e.satisfied and e.claimed == cap

    code = main(["verify-bounds", "--out", str(tmp_path / "ledger.jsonl")])
    capsys.readouterr()
    ok &= code == 0
    _line(capsys, 6, ok, f"bound ledger certified, verify-bounds exit {code}")


def test_criterion_07_series_identities(capsys):
    t0 = time.perf_counter()
    T = 64
    e4, e6 = eisenstein(4, T), eisenstein(6, T)
    checks = [
        (eisenstein(8, T) - e4 * e4).is_zero(),
        (eisenstein(10, T) - e4 * e6).is_zero(),
        (eisenstein(14, T) - e4 * e4 * e6).is_zero(),
        (delta(T) * 1728 - (e4 * e4 * e4 - e6 * e6)).is_zero(),
        (delta(T) - (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)).is_zero(),
    ]
    checks += [r.is_zero() for r in ramanujan_residuals(T)]
    dt = time.perf_counter() - t0
    ok = all(checks) and dt < 10.0
    _line(capsys, 7, ok,
          f"{len(checks)} series identities exact to q^{T} ({dt:.2f}s)")


def test_criterion_08_cross_oracle(capsys):
    ok = True
    for k, m in CROSS_ORACLE_FORMS:
        form = miller_form(k, m)
        rep = zeros.zero_report(form)
        # the Faber side from Descartes isolation alone: zero_report's own
        # census rests on the sample angles, as the arc side does
        roots, off, defect = zeros._census(zeros._deflated(form.faber)[2], 0, 1728,
                                           zeros.ROOT_WIDTH)
        ok &= rep.valence_ok and not any(off.values()) and defect == 0
        ok &= len(rep.arc_angles) == len(roots)
        refined = [zeros.refine_arc_zero(form, lo, hi)
                   for lo, hi in rep.arc_angles]
        images = [zeros.j_of_angle(iv) for iv in refined]
        # j reverses orientation: largest angle lands on the smallest root
        ok &= all(jlo <= shi and slo <= jhi
                  for (jlo, jhi), (slo, shi)
                  in zip(reversed(images), roots))
        ok &= all(b[1] < a[0] for a, b in zip(images, images[1:]))
        if not ok:
            break
    _line(capsys, 8, ok,
          f"arc/Faber zero agreement on {len(CROSS_ORACLE_FORMS)} forms")


def test_criterion_09_oscillation_inequality(capsys):
    worst = 0.0
    ok = True
    for k, m in ((192, 1), (240, 2), (360, 10)):
        rep = certify.proposition_mrl_check(k, m)
        worst = max(worst, rep.upper_max)
        ok &= rep.passed and rep.upper_max < 2
    _line(capsys, 9, ok, f"oscillation grid upper max {worst:.6f} < 2")


def test_criterion_10_equidistribution(capsys):
    stats = zeros.distribution_stats([(120, 1), (480, 1), (1920, 1)])
    d = [s.discrepancy for s in stats]
    decreasing = d[0] > d[1] > d[2]
    last = stats[-1]
    uniform = last.count / len(last.histogram)
    dev = max(abs(c - uniform) for c in last.histogram)
    ok = decreasing and dev < 0.1 * uniform
    _line(capsys, 10, ok,
          f"discrepancy {d[0]:.4f} > {d[1]:.4f} > {d[2]:.4f}, "
          f"worst bin off uniform by {dev / uniform:.3f}")
