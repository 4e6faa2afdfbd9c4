"""End-to-end command line coverage, all in process through main()."""

import json

import pytest

from millerzeros.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text_golden(capsys):
    code, out, _ = run(capsys, "expand", "--form", "E4", "--trunc", "4")
    assert code == 0
    assert out == "1 + 240*q + 2160*q^2 + 6720*q^3 + 17520*q^4 + O(q^5)\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--form", "delta", "--trunc", "3",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["lead"] == 1 and d["coeffs"][:2] == ["1", "-24"]


def test_expand_named_forms(capsys):
    for name in ("E6", "E14", "delta-inv", "j"):
        code, out, _ = run(capsys, "expand", "--form", name, "--trunc", "2")
        assert code == 0 and out.strip()


def test_faber_json_golden(capsys):
    code, out, _ = run(capsys, "faber", "--k", "48", "--m", "1")
    assert code == 0
    d = json.loads(out)
    assert d == {"k": 48, "m": 1,
                 "coeffs": ["1", "-2136", "931860", "-24903328"]}


def test_faber_text(capsys):
    code, out, _ = run(capsys, "faber", "--k", "48", "--m", "1",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "t^3 - 2136*t^2 + 931860*t - 24903328"


def test_miller_lists_basis(capsys):
    code, out, _ = run(capsys, "miller", "--k", "24")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["m"] for r in recs] == [1, 2]
    assert all(r["k"] == 24 for r in recs)
    assert recs[1]["series"]["lead"] == 2
    assert recs[0]["faber"]["coeffs"][0] == "1"


def test_roots_values(capsys):
    code, out, _ = run(capsys, "roots", "--k", "48", "--m", "1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    *rows, summary = lines
    assert summary["summary"] == {"real_outside": 0, "complex_pairs": 0}
    approx = [r["approx"] for r in rows]
    for got, want in zip(approx, (28.5703, 565.1814, 1542.2483)):
        assert got == pytest.approx(want, abs=1e-3)
    assert all(r["inside"] for r in rows)


@pytest.mark.parametrize("k", [12, 16])
def test_roots_degree_zero_faber(capsys, k):
    # m = ell: the Faber polynomial is the constant 1
    code, out, _ = run(capsys, "roots", "--k", str(k), "--m", "1")
    assert code == 0
    assert json.loads(out) == {"k": k, "m": 1,
                               "summary": {"real_outside": 0, "complex_pairs": 0}}


def test_arc_zeros_exit_and_schema(capsys):
    code, out, _ = run(capsys, "arc-zeros", "--k", "48", "--m", "1")
    assert code == 0
    d = json.loads(out)
    assert d["valence_ok"] and len(d["arc_angles"]) == 3
    assert d["boundary_mult"] == {"0": 0, "1728": 0}


def test_verify_thm2_text(capsys):
    code, out, _ = run(capsys, "verify-thm2", "--max-ell", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith("PASS") for line in lines)


def test_mrl_check_json(capsys):
    code, out, _ = run(capsys, "mrl-check", "--k", "192", "--m", "1",
                       "--grid-step", "0.01")
    assert code == 0
    d = json.loads(out)
    assert d["hypothesis_ok"] and d["passed"]
    assert d["grid_max"] + d["err_at_max"] < 2


def test_mrl_check_escalates_at_large_weight(capsys):
    # F(j) near j = 1728 leaves some enclosures straddling 2 at the starting
    # precision; the precision ladder decides every one of them
    code, out, _ = run(capsys, "mrl-check", "--k", "1200", "--m", "3",
                       "--grid-step", "0.02")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] and d["violations"] == [] and d["undecided"] == []


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "--k-list", "120")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m,count,discrepancy," + \
        ",".join(f"bin{i}" for i in range(8))
    row = lines[1].split(",")
    assert row[:3] == ["120", "1", "9"]
    assert sum(int(x) for x in row[4:]) == 9


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, "faber", "--k", "60", "--m", "2")
    path = tmp_path / "f.json"
    code = main(["faber", "--k", "60", "--m", "2", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_text() == stdout_text


def test_determinism(capsys):
    a = run(capsys, "roots", "--k", "72", "--m", "1")
    b = run(capsys, "roots", "--k", "72", "--m", "1")
    assert a == b


@pytest.mark.parametrize("argv", [
    ("faber", "--k", "13", "--m", "1"),       # odd weight
    ("faber", "--k", "48", "--m", "5"),       # m beyond the dimension
    ("expand", "--form", "bogus"),
    ("miller", "--k", "2"),
    ("faber", "--k", "48", "--m", "1", "--trunc", "3"),   # trunc below ell + 1
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_verify_bounds_takes_no_grid_step(capsys):
    # no ledger claim is sampled on an angle grid any more
    with pytest.raises(SystemExit) as exc:
        main(["verify-bounds", "--grid-step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-step" in capsys.readouterr().err


def test_unread_option_is_a_usage_error(capsys):
    # roots isolates exactly and never reads a working precision
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--k", "48", "--m", "1", "--precision-bits", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err
