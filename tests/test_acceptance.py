"""Acceptance gate: one test per criterion, each printing a pass/fail
line; run_criterion fails a criterion that overruns its budget.  Run with
-s to see the lines."""

import pytest

from twistconj.experiments import ALL_CRITERIA, run_criterion


@pytest.mark.parametrize("name,fn,budget", ALL_CRITERIA,
                         ids=[c[0].replace(" ", "-") for c in ALL_CRITERIA])
def test_criterion(name, fn, budget):
    res = run_criterion(name, fn, budget)
    print(res.line())
    assert res.passed, f"{name}: {res.detail}"
