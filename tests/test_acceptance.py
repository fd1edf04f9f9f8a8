"""Acceptance gate: one test per criterion, each printing a pass/fail
line; run_criterion fails a criterion that overruns its budget.  Each
criterion's detail at seed 0 is pinned, so a changed count, verdict or
sample shows here.  Run with -s to see the lines."""

import pytest

from twistconj.experiments import ALL_CRITERIA, run_criterion

SEED0_DETAILS = {
    "1 reflection counts": "q=4: 4/2/1 ok (2000+320 elements witnessed); "
                           "q=5: 4/2/1 ok (2637+411 elements witnessed); "
                           "q=8: 4/2/1 ok (4548+684 elements witnessed); "
                           "q=9: 4/2/1 ok (5185+775 elements witnessed)",
    "2 companion blocks": "20 (q, P, a) combinations exact",
    "3 reflection unit boundary": "exists for q in {4,5,7,8,9}, none for q in {2,3}",
    "4 structure suite": "Z(b2(gf(3)))=scalars; Z(b3(gf(4)))=scalars; Z(u3(gf(2)))=corner; "
                         "Z(u4(gf(2)))=corner; Z(w3(gf(4)))=(u1=un, r=0); "
                         "Z(w4(gf(4)))=(u1=un, r=0); "
                         "w3(gf(4)) -> aff(gf(4)) epi with kernel=center",
    "5 oracle equivalence": "20 windows agree; inner twists fixed at 12",
    "6 distinct family": "27 pairs decided distinct; 4500 splits exact",
    "7 laurent distinctness": "80 pairs decided distinct",
    "8 certificates": "unit equation forced for w in {2,6,30}; case search clean for "
                      "t-2/gf(5), t^2+1/gf(3); exception (0, -1, 1, -1) with det(1-M)=3",
    "9 property suites": "relations, round trips, series, catalog, involution, "
                         "half-square, phi0: all clean",
}


@pytest.mark.parametrize("name,fn,budget", ALL_CRITERIA,
                         ids=[c[0].replace(" ", "-") for c in ALL_CRITERIA])
def test_criterion(name, fn, budget):
    res = run_criterion(name, fn, budget)
    print(res.line())
    assert res.passed, f"{name}: {res.detail}"
    assert res.detail == SEED0_DETAILS[name]
