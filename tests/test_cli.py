"""End-to-end command line coverage, all in process through main()."""

import hashlib
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


def test_miller_custom_trunc_golden(capsys):
    # the q-expansion tail at 190 coefficients past q^ell, from the greedy
    # q-domain reduction
    code, out, _ = run(capsys, "miller", "--k", "120", "--trunc", "200")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "120c1144d3f5cd18c224bdccf4743054d86aa9d6b7c8f5c3e569425b89ffd26d"


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


# exact isolating intervals: a moved bracket is a regression even when
# every root stays inside it
ROOTS_124_1 = [
    ("84014264130768054691033783/19342813113834066795298816",
     "5252231363112572952105965/1208925819614629174706176"),
    ("13398549395695339163535625/302231454903657293676544",
     "857528599003534819008941657/19342813113834066795298816"),
    ("1485952722180195894592754955/9671406556917033397649408",
     "2971926882039424901728171567/19342813113834066795298816"),
    ("3385416835230099624586211783/9671406556917033397649408",
     "6770855108139232361715085223/19342813113834066795298816"),
    ("760030034760938974983725621/1208925819614629174706176",
     "12160501993854056712282271593/19342813113834066795298816"),
    ("18553303632244349384159035621/19342813113834066795298816",
     "9276662534961691248350848639/9671406556917033397649408"),
    ("24944090128805529477025603891/19342813113834066795298816",
     "6236027891621140647392066387/4835703278458516698824704"),
    ("15066379386792461870069877943/9671406556917033397649408",
     "30132780211263956852682417543/19342813113834066795298816"),
    ("33044488652899368622073994597/19342813113834066795298816",
     "16522255045289200867308328127/9671406556917033397649408"),
]
ROOTS_132_9 = [("-150335/131072", "-1201275/1048576"),
               ("1284657535/1048576", "321164735/262144")]


@pytest.mark.parametrize("k, m, want, off", [
    (124, 1, ROOTS_124_1, {"real_outside": 0, "complex_pairs": 0}),
    (132, 9, ROOTS_132_9, {"real_outside": 1, "complex_pairs": 0}),
])
def test_roots_exact_intervals_golden(capsys, k, m, want, off):
    code, out, _ = run(capsys, "roots", "--k", str(k), "--m", str(m))
    assert code == 0
    *rows, summary = [json.loads(line) for line in out.splitlines()]
    assert [(r["lo"], r["hi"]) for r in rows] == want
    assert summary["summary"] == off


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


def test_arc_zeros_at_large_weight(capsys):
    # the exact census of a degree-79 Faber polynomial: the interlacing
    # certificate, where one Sturm chain took seconds
    code, out, _ = run(capsys, "arc-zeros", "--k", "960", "--m", "1")
    assert code == 0
    d = json.loads(out)
    assert d["valence_ok"]
    assert len(d["faber_roots_in"]) == len(d["arc_angles"]) == 79
    assert d["faber_roots_out"] == {"real_outside": 0, "complex_pairs": 0}


def test_arc_zeros_of_a_form_without_sample_angles(capsys):
    # k = 276 <= 4 pi m at m = 22: h is not monotone, so the arc is not
    # sampled; the exact census still finds the one root, near j = 192
    code, out, _ = run(capsys, "arc-zeros", "--k", "276", "--m", "22")
    assert code == 0
    d = json.loads(out)
    assert d["arc_angles"] is None and d["valence_ok"]
    assert len(d["faber_roots_in"]) == 1
    # with no nontrivial zero (F = 1) there is nothing to sample: no brackets
    code, out, _ = run(capsys, "arc-zeros", "--k", "12", "--m", "1")
    assert code == 0 and json.loads(out)["arc_angles"] == []


def test_verify_thm2_text(capsys):
    code, out, _ = run(capsys, "verify-thm2", "--max-ell", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith("PASS") for line in lines)


@pytest.mark.parametrize("max_ell", ["0", "-3"])
def test_verify_thm2_rejects_a_sweep_of_no_form(capsys, max_ell):
    code, out, err = run(capsys, "verify-thm2", "--max-ell", max_ell)
    assert code == 2 and out == ""
    assert "max_ell" in err


def test_mrl_check_json(capsys):
    code, out, _ = run(capsys, "mrl-check", "--k", "192", "--m", "1",
                       "--grid-step", "0.01")
    assert code == 0
    d = json.loads(out)
    assert d["hypothesis_ok"] and d["passed"]
    assert d["grid_max"] + d["err_at_max"] <= d["upper_max"] < 2
    assert d["escalated"] == 0


def test_mrl_check_escalates_at_large_weight(capsys):
    # F(j) near j = 1728 leaves some enclosures straddling 2 at the starting
    # precision; the precision ladder decides every one of them
    code, out, _ = run(capsys, "mrl-check", "--k", "1200", "--m", "3",
                       "--grid-step", "0.02")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] and d["violations"] == [] and d["undecided"] == []
    assert d["escalated"] == 16


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "--k-list", "120")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m,count,discrepancy," + \
        ",".join(f"bin{i}" for i in range(8))
    row = lines[1].split(",")
    assert row[:3] == ["120", "1", "9"]
    assert sum(int(x) for x in row[4:]) == 9


def test_dist_of_a_form_without_sample_angles(capsys):
    # k = 276 <= 4 pi m at m = 22 is valid but not sampled: null fields,
    # exit 0, and the sampled form next to it is unaffected
    code, out, _ = run(capsys, "dist", "--k-list", "276,288", "--m", "22", "--bins", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "276,22,,,,"
    assert lines[2].startswith("288,22,1,")
    code, out, _ = run(capsys, "dist", "--k-list", "276", "--m", "22", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": 276, "m": 22, "count": None, "discrepancy": None,
                               "histogram": None}


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
    ("expand", "--form", "E3"),               # no Eisenstein series of odd weight
    ("faber", "--k", "48", "--m", "5"),       # m beyond the dimension
    ("expand", "--form", "bogus"),
    ("miller", "--k", "2"),
    ("miller", "--k", "48", "--trunc", "3"),             # trunc below ell + 1
    ("expand", "--form", "j", "--trunc", "-3"),          # trunc below j's -1
    ("expand", "--form", "E4", "--trunc", "-1"),         # trunc below 0
    ("expand", "--form", "delta-inv", "--trunc", "-2"),  # trunc below delta-inv's -1
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_delta_inv_names_its_own_lowest_trunc(capsys):
    # not the bound of the Delta(trunc + 2) it is built from
    code, out, err = run(capsys, "expand", "--form", "delta-inv", "--trunc", "-2")
    assert code == 2
    assert "at least -1 for delta-inv" in err


@pytest.mark.parametrize("argv", [
    ("mrl-check", "--k", "192", "--m", "1", "--grid-step", "0"),
    ("mrl-check", "--k", "192", "--m", "1", "--grid-step", "-0.01"),
    ("dist", "--k-list", "120", "--bins", "0"),
    ("dist", "--k-list", "120", "--bins", "-1"),
])
def test_bad_grid_step_or_bins_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_bounds_takes_no_grid_step(capsys):
    # no ledger claim is sampled on an angle grid any more
    with pytest.raises(SystemExit) as exc:
        main(["verify-bounds", "--grid-step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-step" in capsys.readouterr().err


# sha256 of every verify-bounds line, newline included, except the four
# e*.line.*.grid entries, whose enclosures follow the segment evaluations of
# the line claims; every other entry is pinned byte for byte
VERIFY_BOUNDS_SHA256 = "76ce345b4ceb55a139d1af3b467bbd77213ea577e0e93e890fdd6db86b742221"


def test_verify_bounds_golden_outside_the_line_claims(capsys):
    code, out, _ = run(capsys, "verify-bounds")
    assert code == 0
    lines = out.splitlines()
    names = [json.loads(line)["name"] for line in lines]
    moving = {f"e{k}.line.{h}.grid" for k in (4, 6) for h in ("065", "075")}
    assert len(lines) == 104 and moving <= set(names)
    kept = "".join(line + "\n" for line, name in zip(lines, names) if name not in moving)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_BOUNDS_SHA256


# the required options of each command, so that argparse reaches the one under test
REQUIRED = {"arc-zeros": ("--k", "48", "--m", "1"), "verify-bounds": (),
            "mrl-check": ("--k", "192", "--m", "1"), "dist": ("--k-list", "120"),
            "faber": ("--k", "48", "--m", "1"), "roots": ("--k", "48", "--m", "1"),
            "expand": ("--form", "E4"), "verify-thm2": ()}


@pytest.mark.parametrize("command, flag", [
    ("arc-zeros", "--precision-bits"), ("verify-bounds", "--precision-bits"),
    ("mrl-check", "--precision-bits"), ("dist", "--precision-bits"),
    ("faber", "--trunc"), ("roots", "--trunc"), ("arc-zeros", "--trunc"),
    ("roots", "--precision-bits"),
], ids=lambda v: v.lstrip("-"))
def test_unread_option_is_a_usage_error(capsys, command, flag):
    # one working precision for every command, and F_{k,m} does not depend
    # on the truncation, so no command that prints no series reads these
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, "64"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, fmt", [
    ("expand", "csv"), ("verify-thm2", "csv"), ("faber", "csv"), ("dist", "text"),
])
def test_unwritten_format_is_a_usage_error(capsys, command, fmt):
    # each command offers only the formats it writes
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], "--format", fmt])
    assert exc.value.code == 2
    assert f"invalid choice: '{fmt}'" in capsys.readouterr().err
