"""The benchmark's own output checks, run against the current program.

perfbench/work.py refuses a run whose outputs leave its pinned
reference.json; running the same checks here shows a moved ledger value
or a changed exact result before the benchmark does.  work.py is only
imported, never changed.
"""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

from millerzeros import cli, miller, zeros

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROGRAM = {"zeros": zeros, "miller": miller, "cli": cli}


@pytest.fixture(scope="module")
def work():
    sys.path.insert(0, str(PERFBENCH))          # work.py imports its sibling hostspeed
    try:
        return importlib.import_module("work")
    finally:
        sys.path.remove(str(PERFBENCH))


def _failed_verdicts(work, inputs: list) -> list:
    _, outputs, _ = work.run_items(PROGRAM, inputs, time.process_time)
    verdicts = work.check_outputs(PROGRAM, json.loads(work.REFERENCE.read_text()), outputs)
    assert verdicts
    return [v for v in verdicts if not v[1]]


def test_ledger_matches_the_benchmark_reference(work):
    assert _failed_verdicts(work, [["ledger", 0, 0]]) == []


def test_exact_sweep_matches_the_benchmark_reference(work):
    assert _failed_verdicts(work, work.make_inputs("exact-sweep", 1)) == []


def test_arc_zeros_matches_the_benchmark_reference(work):
    # the seed-1 brackets as pinned, and each refined cell a certified sign change of F
    assert _failed_verdicts(work, work.make_inputs("arc-zeros", 1)) == []


def test_every_pinned_localize_bracket_matches_the_benchmark_reference(work, monkeypatch):
    # all 34 weights, the four large ones included: a moved bracket anywhere
    # in the pool fails here before any seed draws it; and the sign-change
    # count certifies every sample, so no sample is certified alone
    alone, inner = [], zeros._certified_arc_sign

    def counted(form, theta):
        alone.append(form.id.k)
        return inner(form, theta)

    monkeypatch.setattr(zeros, "_certified_arc_sign", counted)
    brackets = json.loads(work.REFERENCE.read_text())["arc_brackets"]
    assert len(brackets) == 34
    assert _failed_verdicts(work, [["localize", int(k), 1] for k in brackets]) == []
    assert alone == []
