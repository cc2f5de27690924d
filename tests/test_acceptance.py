"""End-to-end acceptance gauntlet.

Runs every registered criterion once (module scope) and reports a
single PASS/FAIL line per criterion, with the measured figure of merit
and wall time, regardless of pytest's capture settings.
"""

import pytest

import opendecay.acceptance
from opendecay.acceptance import CRITERIA, run_all


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in run_all()}


@pytest.mark.parametrize(
    "index,name", [(i, n) for i, n, _ in CRITERIA], ids=lambda v: str(v)
)
def test_criterion(results, index, name, capsys):
    r = results[index]
    status = "PASS" if r.passed else "FAIL"
    line = f"criterion {index:2d} [{status}] {name}: {r.detail} ({r.elapsed:.2f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert r.passed, line


def test_every_criterion_is_registered(results):
    assert sorted(results) == list(range(1, 11))


def test_a_criterion_that_raises_is_reported_failed(monkeypatch):
    # the exception becomes the detail line, and the run goes on
    monkeypatch.setattr(opendecay.acceptance, "CRITERIA", (
        (1, "raises", lambda: 1 / 0),
        (2, "passes", lambda: (True, "ok")),
    ))
    first, second = run_all()
    assert (first.index, first.passed) == (1, False)
    assert first.detail == "raised ZeroDivisionError: division by zero"
    assert (second.index, second.passed, second.detail) == (2, True, "ok")
