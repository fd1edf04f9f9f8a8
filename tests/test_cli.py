import json
import random
from types import SimpleNamespace

import pytest

from twistconj import cli, experiments
from twistconj.cli import main
from twistconj.poly import parse_ring

PASS, MISMATCH, USAGE, UNDECIDED, INTERNAL = 0, 1, 2, 3, 4


def test_verify_relations(tmp_path):
    out = tmp_path / "rel.json"
    assert main(["verify-relations", "--ring", "gf(5)[t]", "--n", "4",
                 "--samples", "200", "--json", str(out)]) == PASS
    data = json.loads(out.read_text())
    assert data["passed"] and data["ring"] == "gf(5)[t]" and data["seed"] == 0
    assert main(["verify-relations", "--ring", "z[1/6]", "--n", "2",
                 "--samples", "100"]) == PASS
    assert main(["verify-relations", "--ring", "z", "--n", "1"]) == USAGE
    assert main(["verify-relations", "--ring", "bogus", "--n", "3"]) == USAGE


def test_reidemeister_reflection(tmp_path):
    out = tmp_path / "r.json"
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", "b2plus",
                 "--auto", "phiB(w)", "--exp-window", "4", "--diag-window", "2",
                 "--expect", "4", "--json", str(out)]) == PASS
    data = json.loads(out.read_text())
    assert data["count"] == 4 and data["stabilized"] is True
    assert len(data["classes"]) == 4
    assert sum(c["witnessed_members"] for c in data["classes"]) > 0
    assert data["auto"] == "phiB(w)"

    assert main(["reidemeister", "--ring", "gf(5)[t,t^-1]", "--group", "aff-plus",
                 "--auto", "phiA(2)", "--exp-window", "3", "--diag-window", "2",
                 "--expect", "2"]) == PASS
    # wrong expectation
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", "b2plus",
                 "--auto", "phiB(w)", "--exp-window", "2", "--diag-window", "1",
                 "--expect", "3"]) == MISMATCH


_B2_REPORT = """{
  "experiment": "reidemeister",
  "ring": "gf(4)[t,t^-1]",
  "auto": "phiB(w)",
  "universe": "b2plus |k|<=1 |m|<=2 (+40 sampled)",
  "count": 4,
  "classes": [
    {
      "rep": "d(1;t) d(2;t)",
      "witnessed_members": 80
    },
    {
      "rep": "d(1;t)",
      "witnessed_members": 46
    },
    {
      "rep": "d(2;t)",
      "witnessed_members": 36
    },
    {
      "rep": "1",
      "witnessed_members": 21
    }
  ],
  "stabilized": true,
  "seed": 0
}
"""

_AFF_REPORT = """{
  "experiment": "reidemeister",
  "ring": "gf(5)[t,t^-1]",
  "auto": "phiA(2)",
  "universe": "aff-plus |k|<=2 |m|<=3 (+40 sampled)",
  "count": 2,
  "classes": [
    {
      "rep": "aff(1; 0)",
      "witnessed_members": 113
    },
    {
      "rep": "aff(t; 0)",
      "witnessed_members": 72
    }
  ],
  "stabilized": true,
  "seed": 0
}
"""


def test_reidemeister_reflection_keeps_its_bytes(tmp_path, capsys):
    # the exact stdout and report bytes, class representative words included
    out = tmp_path / "r.json"
    for args, stdout, report in (
            (["--ring", "gf(4)[t,t^-1]", "--group", "b2plus", "--auto", "phiB(w)",
              "--exp-window", "2", "--diag-window", "1"],
             "seed=0\ncount=4 (constructive witnesses for 183 elements)\n", _B2_REPORT),
            (["--ring", "gf(5)[t,t^-1]", "--group", "aff-plus", "--auto", "phiA(2)",
              "--exp-window", "3", "--diag-window", "2"],
             "seed=0\ncount=2 (constructive witnesses for 185 elements)\n", _AFF_REPORT)):
        assert main(["reidemeister", *args, "--json", str(out)]) == PASS
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == report.encode()


def _json_bytes(report):
    # the report file's bytes: two-space indent, keys in the order given
    return (json.dumps(report, indent=2) + "\n").encode()


@pytest.mark.parametrize("argv, stdout, report", [
    (["verify-relations", "--ring", "gf(5)[t]", "--n", "3", "--samples", "20"],
     "seed=0\nrelations: 20 samples on gf(5)[t], n=3: pass\n",
     {"experiment": "verify-relations", "ring": "gf(5)[t]", "n": 3,
      "samples": 20, "passed": True, "seed": 0}),
    (["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
      "--auto", "mul(1)*phiP(t^2+t+1)", "--exp-window", "3", "--expect", "1"],
     "seed=0\ncount=1 stabilized=True (dim 4, rank 4, counts [1, 1, 1])\n",
     {"experiment": "reidemeister", "ring": "gf(2)[t]",
      "auto": "mul(1)*phiP(1 + t + t^2)", "universe": "u2 window [0,3]",
      "count": 1, "classes": [], "stabilized": True, "seed": 0}),
    # a word with no certified count: undecided, and no truncation is built
    (["reidemeister", "--ring", "gf(3)[t,t^-1]", "--group", "b2plus",
      "--auto", "ring(t->t^-1)", "--exp-window", "1", "--diag-window", "0",
      "--dense", "2", "--seed", "3"],
     "seed=3\nundecided (no certified count for ring(t->t^-1) on "
     "b2plus(gf(3)[t,t^-1]))\n",
     {"experiment": "reidemeister", "ring": "gf(3)[t,t^-1]",
      "auto": "ring(t->t^-1)", "universe": None, "count": None, "classes": [],
      "stabilized": False, "seed": 3}),
    (["case-analysis", "--ring", "gf(3)", "--f", "t^2+1", "--box", "2"],
     "seed=0\nf = 1 + t^2 over gf(3), box 2:\n"
     "  (a,b,c,d)=(-1,0,-2,1)  det=-1  det(1-M)=0\n"
     "  (a,b,c,d)=(1,0,0,1)  det=1  det(1-M)=0\n"
     "2 solution(s), all with eigenvalue 1\n",
     {"experiment": "case-analysis", "ring": "gf(3)[t]", "f": "1 + t^2",
      "box": 2, "solutions": [[-1, 0, -2, 1, -1, 0], [1, 0, 0, 1, 1, 0]],
      "all_eigenvalue_one": True, "seed": 0}),
    (["distinct-family", "--p", "2", "--alpha", "t->t+1", "--imax", "2"],
     "seed=0\n  t^3 vs t^1: distinct\n  t^5 vs t^1: distinct\n"
     "  t^5 vs t^3: distinct\nall pairs distinct\n",
     {"experiment": "distinct-family", "ring": "gf(2)[t]", "auto": "t->1*t+1",
      "imax": 2, "verdicts": [
          {"pair": [3, 1], "decided": True, "member": False},
          {"pair": [5, 1], "decided": True, "member": False},
          {"pair": [5, 3], "decided": True, "member": False}],
      "seed": 0}),
    (["center", "--ring", "gf(3)", "--group", "b", "--n", "2"],
     "seed=0\n  1\n  d(1;2) d(2;2)\n"
     "center of b2(gf(3)): 2 element(s); matches scalar matrices: True\n",
     {"experiment": "center", "ring": "gf(3)", "group": "b2(gf(3))",
      "size": 2, "matches_structure": True, "seed": 0}),
    (["iso-aff", "--ring", "gf(3)", "--n", "3"],
     "seed=0\nw3(gf(3)) -> aff(gf(3)): homomorphism=True onto=True "
     "kernel==center=True\n",
     {"experiment": "iso-aff", "ring": "gf(3)", "n": 3, "homomorphism": True,
      "onto": True, "kernel_is_center": True, "seed": 0}),
    (["unit-equation", "--w", "6"],
     "seed=0\nring z[1/6], primes [2, 3]\n"
     "exponent matrix ((1, 0), (0, 1)) signs [1, 1]\n"
     "det(1 - M) = 0; identity forced: True\n",
     {"experiment": "unit-equation", "ring": "z[1/6]",
      "matrix": [[1, 0], [0, 1]], "signs": [1, 1], "det_one_minus": 0,
      "identity_forced": True, "seed": 0}),
], ids=["verify-relations", "reidemeister-u2", "reidemeister-partition",
        "case-analysis", "distinct-family", "center", "iso-aff", "unit-equation"])
def test_successful_runs_keep_their_bytes(argv, stdout, report, tmp_path, capsys,
                                          monkeypatch):
    # the exact stdout and --json bytes of one successful run per subcommand
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == PASS
    assert capsys.readouterr().out == stdout
    assert out.read_bytes() == _json_bytes(report)


@pytest.mark.parametrize("group, auto, expect, rep", [
    ("b2plus", "phiB(w)", "4", "1"),
    ("aff-plus", "phiA(w)", "2", "aff(1; 0)"),
], ids=["b2plus", "aff-plus"])
def test_reflection_count_is_open_until_every_parity_is_met(group, auto, expect,
                                                            rep, tmp_path, capsys):
    # diagonal window 0 meets only the trivial parity: R(phi) is 4 (or 2),
    # and the one class seen is not a decided count
    out = tmp_path / "r.json"
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", group,
                 "--auto", auto, "--diag-window", "0", "--exp-window", "1",
                 "--dense", "0", "--expect", expect, "--seed", "0",
                 "--json", str(out)]) == UNDECIDED
    assert capsys.readouterr().out == \
        "seed=0\ncount=1 (constructive witnesses for 10 elements)\n"
    assert out.read_bytes() == _json_bytes({
        "experiment": "reidemeister", "ring": "gf(4)[t,t^-1]", "auto": auto,
        "universe": f"{group} |k|<=0 |m|<=1 (+0 sampled)", "count": 1,
        "classes": [{"rep": rep, "witnessed_members": 10}],
        "stabilized": False, "seed": 0})


def test_reidemeister_additive(capsys):
    assert main(["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
                 "--auto", "mul(1)*phiP(t^2+t+1)", "--expect", "1"]) == PASS
    # id parses on the u2 domain and is the same map as mul(1) and ring(t->t)
    for word in ("id", "mul(1)", "ring(t->t)"):
        capsys.readouterr()
        assert main(["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
                     "--auto", word, "--exp-window", "3"]) == PASS
        assert capsys.readouterr().out.splitlines()[1].startswith("count=16 stabilized=False ")
    # restriction of the reflection to the unipotent part
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", "u2",
                 "--auto", "mul(w)*ring(t->t^-1)", "--exp-window", "4",
                 "--expect", "1"]) == PASS
    # identity on an infinite additive group: count grows, undecided
    assert main(["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
                 "--auto", "mul(1)", "--exp-window", "2",
                 "--expect", "8"]) == UNDECIDED
    # an unstabilised count is undecided, also when it differs from N
    assert main(["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
                 "--auto", "mul(1)", "--expect", "5"]) == UNDECIDED
    # t is monic and irreducible, but phiP(t) is the zero map
    assert main(["reidemeister", "--ring", "gf(2)[t]", "--group", "u2",
                 "--auto", "phiP(t)"]) == USAGE
    # windows live over gf(q)[t] and gf(q)[t,t^-1] only
    assert main(["reidemeister", "--ring", "z", "--group", "u2",
                 "--auto", "mul(1)"]) == USAGE


def test_reidemeister_is_undecided_below_q4(capsys):
    # the small fields have no classification unit, so no certified count
    assert main(["reidemeister", "--ring", "gf(2)[t,t^-1]", "--group", "b2plus",
                 "--auto", "phiB(1)", "--exp-window", "2", "--diag-window", "1",
                 "--dense", "0"]) == PASS
    assert capsys.readouterr().out.splitlines()[1] == \
        "undecided (no certified count for phiB(1) on b2plus(gf(2)[t,t^-1]))"
    assert main(["reidemeister", "--ring", "gf(3)[t,t^-1]", "--group", "b2plus",
                 "--auto", "phiB(2)", "--exp-window", "1", "--diag-window", "1",
                 "--dense", "0", "--expect", "4"]) == UNDECIDED
    assert capsys.readouterr().out.splitlines()[1] == \
        "undecided (no certified count for phiB(2) on b2plus(gf(3)[t,t^-1]))"


def test_case_analysis(tmp_path):
    out = tmp_path / "c.json"
    assert main(["case-analysis", "--ring", "gf(3)", "--f", "t^2+1",
                 "--box", "3", "--expect", "all-eigenvalue-one",
                 "--json", str(out)]) == PASS
    data = json.loads(out.read_text())
    assert data["all_eigenvalue_one"] is True
    assert main(["case-analysis", "--ring", "gf(2)", "--f", "t+1", "--box", "3",
                 "--expect", "exception"]) == PASS
    assert main(["case-analysis", "--ring", "gf(2)", "--f", "t+1", "--box", "3",
                 "--expect", "all-eigenvalue-one"]) == MISMATCH
    assert main(["case-analysis", "--ring", "gf(5)", "--f", "t"]) == USAGE
    # a box over twisted.MAX_CASE_TUPLES is refused before the search
    assert main(["case-analysis", "--ring", "gf(3)", "--f", "t^2+1",
                 "--box", "28"]) == USAGE


def test_distinct_family():
    assert main(["distinct-family", "--p", "2", "--alpha", "t->t+1",
                 "--imax", "2", "--window", "16"]) == PASS
    assert main(["distinct-family", "--p", "3", "--alpha", "t->2*t",
                 "--imax", "2"]) == PASS
    assert main(["distinct-family", "--p", "3", "--alpha", "t->t"]) == USAGE
    assert main(["distinct-family", "--p", "4", "--alpha", "t->t+1"]) == USAGE


@pytest.mark.parametrize("argv, message", [
    (["distinct-family", "--p", "5", "--alpha", "t->t+1", "--imax", "7"],
     "--imax: 7 > MAX_FAMILY_IMAX = 6"),
    (["distinct-family", "--p", "5", "--alpha", "t->t+1", "--window", "257"],
     "solving window [0,257]: 258 > MAX_FAMILY_WINDOW = 257"),
    # imax 2 keeps the top exponent 11*10*2 + 10 = 230 inside, imax 3 does not
    (["distinct-family", "--p", "11", "--alpha", "t->t+1", "--imax", "3"],
     "solving window [0,340]: 341 > MAX_FAMILY_WINDOW = 257"),
    (["reidemeister", "--ring", "gf(5)[t]", "--group", "u2", "--auto", "ring(t->t+1)",
      "--exp-window", "401"],
     "u2 window [0,401]: 402 > MAX_U2_WINDOW = 401"),
    (["reidemeister", "--ring", "gf(5)[t,t^-1]", "--group", "u2", "--auto", "ring(t->2*t)",
      "--exp-window", "201"],
     "u2 window [-201,201]: 403 > MAX_U2_WINDOW = 401"),
    (["reidemeister", "--ring", "gf(9)[t,t^-1]", "--group", "aff-plus", "--auto", "phiA(w)",
      "--diag-window", "100", "--exp-window", "60", "--dense", "44"],
     "size of the affplus(gf(9)[t,t^-1]) truncation: 200093 > MAX_TRUNCATION_SIZE"),
    # an irreducibility test of an f with no root, by trial division
    (["case-analysis", "--ring", "gf(2)", "--f", "t^41+t^3+1"],
     "monic divisors of degree 2..20 over gf(2): 2097148 > MAX_TRIAL_DIVISORS"),
    (["reidemeister", "--ring", "gf(2)[t]", "--group", "u2", "--auto", "phiP(t^41+t^3+1)"],
     "monic divisors of degree 2..20 over gf(2): 2097148 > MAX_TRIAL_DIVISORS"),
], ids=["family-imax", "family-window", "family-top-exponent", "u2", "u2-laurent",
        "reflection", "case-irreducible", "u2-irreducible"])
def test_oversized_inputs_are_refused_before_any_work(argv, message, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("a refused run did work")

    # no window, elimination, truncation, twist or division is built or run
    for target in ("twistconj.cli.LinearWindow", "twistconj.linalg.gf_rref",
                   "twistconj.linalg.gf_reduce", "twistconj.experiments._truncation",
                   "twistconj.twisted.twist", "twistconj.poly.divmod_poly"):
        monkeypatch.setattr(target, ran)
    assert main(argv) == USAGE
    assert message in capsys.readouterr().err


_GF3_B2 = ["--ring", "gf(3)[t,t^-1]", "--group", "b2plus"]


@pytest.mark.parametrize("argv, line", [
    # formerly refused for the element pairs a raw partition would twist
    ([*_GF3_B2, "--auto", "ring(t->t^-1)", "--diag-window", "0", "--exp-window", "353",
      "--dense", "0"], "ring(t->t^-1) on b2plus(gf(3)[t,t^-1])"),
    (["--ring", "gf(9)[t,t^-1]", "--group", "b2plus", "--auto", "ring(t->t^-1)"],
     "ring(t->t^-1) on b2plus(gf(9)[t,t^-1])"),
    # 1 - a^2 = 0 over gf(3): no classification unit
    ([*_GF3_B2, "--auto", "phiB(1)"], "phiB(1) on b2plus(gf(3)[t,t^-1])"),
    ([*_GF3_B2, "--auto", "phiB(2)"], "phiB(2) on b2plus(gf(3)[t,t^-1])"),
    ([*_GF3_B2, "--auto", "inner(d(1;t))"], "inner(d(1;t)) on b2plus(gf(3)[t,t^-1])"),
    # this truncation is a subgroup with 3 classes, but R(id) is infinite:
    # --expect 3 passed on the raw count of its partition
    ([*_GF3_B2, "--auto", "id", "--exp-window", "0", "--diag-window", "0", "--dense", "0"],
     "id on b2plus(gf(3)[t,t^-1])"),
    (["--ring", "gf(3)[t,t^-1]", "--group", "aff-plus", "--auto", "phiA(1)"],
     "phiA(1) on affplus(gf(3)[t,t^-1])"),
], ids=["partition", "partition-defaults", "phiB(1)", "phiB(2)", "inner", "id",
        "phiA(1)"])
def test_words_without_a_certified_count_are_undecided(argv, line, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("an undecided run did work")

    # no truncation is built, no twist or elimination run
    for target in ("twistconj.experiments._truncation", "twistconj.twisted.twist",
                   "twistconj.linalg.gf_rref"):
        monkeypatch.setattr(target, ran)
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    out = f"seed=0\nundecided (no certified count for {line})\n"
    assert main(["reidemeister", *argv]) == PASS
    assert capsys.readouterr().out == out
    assert main(["reidemeister", *argv, "--expect", "3"]) == UNDECIDED
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("group, auto", [
    ("b2plus", "tauAlpha(t->t^-1)"), ("b2plus", "phiA(w)"), ("b2plus", "phiA(1)"),
    ("aff-plus", "phiB(1)"),
], ids=["pair-word", "affine-reflection", "affine-non-reflection", "matrix-word"])
def test_words_of_another_group_are_refused_before_any_work(group, auto, monkeypatch,
                                                            capsys):
    # formerly refused from inside the truncation's partition or classification
    monkeypatch.setattr("twistconj.experiments._truncation", None)
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", group,
                 "--auto", auto]) == USAGE
    assert capsys.readouterr().err == \
        f"error: group {group} needs a matrix or affine automorphism word\n"


def test_a_negative_diagonal_exponent_is_refused_without_a_truncation(monkeypatch, capsys):
    # the builder's refusal of t^-d over gf(q)[t] stays, and nothing is built
    monkeypatch.setattr("twistconj.experiments._truncation", None)
    assert main(["reidemeister", "--ring", "gf(5)[t]", "--group", "b2plus", "--auto", "id",
                 "--exp-window", "0", "--diag-window", "1"]) == USAGE
    assert capsys.readouterr().err == "error: negative exponent in gf(5)[t]\n"


@pytest.mark.parametrize("argv", [
    ["distinct-family", "--p", "10007", "--alpha", "t->t+1"],
    ["reidemeister", "--ring", "gf(10007)[t]", "--group", "u2", "--auto", "mul(1)"],
], ids=["distinct-family", "reidemeister"])
def test_field_order_is_bounded_before_any_table(argv, monkeypatch, capsys):
    def ran(self):
        raise AssertionError("a refused field built its tables")

    monkeypatch.setattr("twistconj.rings.GaloisField._build_tables", ran)
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    assert main(argv) == USAGE
    assert capsys.readouterr() == \
        ("seed=0\n", "error: order of gf(10007): 10007 > MAX_FIELD_ORDER = 251\n")


def test_truncation_size_bounds_what_the_builder_makes(capsys):
    F4L, F9L = (parse_ring(f"gf({q})[t,t^-1]") for q in (4, 9))
    # with no sampled corner the size is the element count
    for rank, build in ((2, experiments.truncated_b2plus), (1, experiments.truncated_affplus)):
        assert len(build(F4L, 1, 2, random.Random(0), 0)) == \
            cli._truncation_size(F4L, rank, 1, 2, 0)
    # the refused run above lies just over its bound
    assert cli._truncation_size(F9L, 1, 100, 60, 43) <= cli.MAX_TRUNCATION_SIZE < \
        cli._truncation_size(F9L, 1, 100, 60, 44)
    # a ring or an exponent that the builder refuses keeps its own message
    for ring, group, flags, err in (
            ("gf(5)[t]", "b2plus", ["--exp-window", "400"], "negative exponents outside"),
            ("z[t,t^-1]", "aff-plus", ["--exp-window", "400"], "windows need gf(q)[t]"),
            ("z", "u2", ["--exp-window", "1000"], "windows need gf(q)[t]")):
        auto = "mul(1)" if group == "u2" else "id"
        assert main(["reidemeister", "--ring", ring, "--group", group, "--auto", auto,
                     *flags]) == USAGE
        assert err in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-relations", "--ring", "gf(5)[t]", "--n", "3", "--samples", "0"],
    ["distinct-family", "--p", "2", "--alpha", "t->t+1", "--imax", "0"],
    ["case-analysis", "--ring", "gf(3)", "--f", "t^2+1", "--box", "-1",
     "--expect", "all-eigenvalue-one"],
    ["case-analysis", "--ring", "gf(3)", "--f", "t^2+1", "--box", "0"],
], ids=["no-samples", "no-pairs", "negative-box", "empty-box"])
def test_vacuous_runs_are_refused(argv, capsys):
    # a run that would check nothing is a usage error, not a pass
    assert main(argv) == USAGE
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["verify-relations", "--ring", "gf(5)[t]", "--n", "9"], "--n must lie in 2..8"),
    (["verify-relations", "--ring", "gf(5)[t]", "--n", "3", "--samples", "0"],
     "--samples must be at least 1"),
    (["reidemeister", "--ring", "gf(5)[t]", "--group", "u2"],
     "--ring/--group/--auto or --config required"),
    (["case-analysis", "--ring", "gf(3)", "--f", "t^2+1", "--box", "0"],
     "--box must be at least 1"),
    (["distinct-family", "--p", "3", "--alpha", "t->t"],
     "the identity substitution is excluded"),
    (["distinct-family", "--p", "2", "--alpha", "t->t+1", "--imax", "0"],
     "--imax must be at least 1"),
    # a negative --window was dropped by the widening to the top exponent
    (["distinct-family", "--p", "2", "--alpha", "t->t+1", "--window", "-7"],
     "--window must be non-negative"),
    (["all"], "use --paper-suite"),
], ids=["n", "samples", "reidemeister-flags", "box", "identity-alpha", "imax",
        "negative-window", "all"])
def test_usage_refusals_keep_their_bytes(argv, err, monkeypatch, capsys):
    # each refusal raises, and main prints its one error line and exits 2
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    assert main(argv) == USAGE
    assert capsys.readouterr() == ("seed=0\n", f"error: {err}\n")


def test_center_and_iso(monkeypatch, capsys):
    assert main(["center", "--ring", "gf(3)", "--group", "b", "--n", "2"]) == PASS
    assert main(["center", "--ring", "gf(2)", "--group", "u", "--n", "3"]) == PASS
    # the printed centers and verdicts, byte for byte
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    capsys.readouterr()
    assert main(["center", "--ring", "gf(4)", "--group", "w", "--n", "3"]) == PASS
    assert capsys.readouterr().out == (
        "seed=0\n  1\n  d(2;w)\n  d(2;w+1)\n"
        "center of w3(gf(4)): 3 element(s); matches matching outer diagonal "
        "entries, zero corner: True\n")
    assert main(["center", "--ring", "gf(4)", "--group", "w", "--n", "4"]) == PASS
    assert capsys.readouterr().out == (
        "seed=0\n  1\n  d(3;w)\n  d(3;w+1)\n  d(2;w)\n  d(2;w) d(3;w)\n"
        "  d(2;w) d(3;w+1)\n  d(2;w+1)\n  d(2;w+1) d(3;w)\n  d(2;w+1) d(3;w+1)\n"
        "center of w4(gf(4)): 9 element(s); matches matching outer diagonal "
        "entries, zero corner: True\n")
    assert main(["iso-aff", "--ring", "gf(4)", "--n", "3"]) == PASS
    assert capsys.readouterr().out == (
        "seed=0\nw3(gf(4)) -> aff(gf(4)): homomorphism=True onto=True "
        "kernel==center=True\n")
    assert main(["center", "--ring", "z", "--group", "b", "--n", "2"]) == USAGE
    # w_1 has no corner: refused like b_1 and u_1, not run as a mismatch
    assert main(["center", "--ring", "gf(2)", "--group", "w", "--n", "1"]) == USAGE
    assert main(["iso-aff", "--ring", "gf(2)", "--n", "1"]) == USAGE
    # 4608^2 = 2.1e7 pairs: refused before any work, not left running
    assert main(["iso-aff", "--ring", "gf(9)", "--n", "4"]) == USAGE


def test_internal_verification_failure(monkeypatch, capsys):
    # a witness that fails its exact re-check is told apart from a mismatch
    monkeypatch.setattr("twistconj.twisted.twist", lambda *args, **kw: None)
    assert main(["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", "b2plus",
                 "--auto", "phiB(w)", "--exp-window", "2", "--diag-window", "1",
                 "--expect", "4"]) == INTERNAL
    assert "internal verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("ring, group, auto, message", [
    # the affine group has no matrix elements to conjugate by
    ("gf(4)[t,t^-1]", "aff-plus", "inner(1)", "inner(...) needs a matrix domain group"),
    ("gf(4)[t,t^-1]", "b2plus", "mul(w)", "needs a matrix or affine automorphism word"),
    ("gf(4)", "b2plus", "id", "windows need gf(q)[t] or gf(q)[t,t^-1]"),
    ("z[t,t^-1]", "aff-plus", "id", "windows need gf(q)[t] or gf(q)[t,t^-1]"),
    ("gf(4)", "b2plus", "augb2plus", "augmentation shifting lives over z[t,t^-1]"),
], ids=["aff-inner", "additive-word", "field", "integer-laurent", "aug-field"])
def test_reidemeister_refuses_words_and_rings_it_cannot_truncate(ring, group, auto,
                                                                 message, capsys):
    # a usage error (2), not a traceback through Python's exit code 1
    assert main(["reidemeister", "--ring", ring, "--group", group, "--auto", auto,
                 "--exp-window", "1", "--diag-window", "1"]) == USAGE
    assert message in capsys.readouterr().err


def test_unexpected_exceptions_are_internal(monkeypatch, capsys):
    # a bug in a subcommand exits 4 with its type and message, not 1
    def broken(args):
        raise KeyError("lost")
    monkeypatch.setattr("twistconj.cli.cmd_unit_equation", broken)
    assert main(["unit-equation", "--w", "6"]) == INTERNAL
    assert capsys.readouterr().err == "internal error: KeyError: 'lost'\n"


def test_unit_equation(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["unit-equation", "--w", "6", "--json", str(out)]) == PASS
    data = json.loads(out.read_text())
    assert data["identity_forced"] and data["det_one_minus"] == 0
    # a report path in a missing directory is a usage error
    capsys.readouterr()
    missing = tmp_path / "missing" / "u.json"
    assert main(["unit-equation", "--w", "6", "--json", str(missing)]) == USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.parent.exists()
    # a report path that names a directory: refused, and no temp file left
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["unit-equation", "--w", "6", "--json", str(taken)]) == USAGE
    assert not list(tmp_path.glob("*.tmp"))
    assert main(["unit-equation", "--w", "6", "--images", "3,2"]) == MISMATCH
    assert main(["unit-equation", "--w", "6", "--images", "5,7"]) == USAGE


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("TWISTCONJ_SEED", "42")
    main(["unit-equation", "--w", "2"])
    assert "seed=42" in capsys.readouterr().out
    main(["unit-equation", "--w", "2", "--seed", "7"])
    assert "seed=7" in capsys.readouterr().out
    # a refused run prints its seed line first too
    monkeypatch.delenv("TWISTCONJ_SEED")
    assert main(["verify-relations", "--ring", "gf(5)[t]", "--n", "1"]) == USAGE
    assert capsys.readouterr().out == "seed=0\n"


def test_all_paper_suite(tmp_path, capsys, monkeypatch):
    # the loop, its lines, exit code and reports, on one real criterion and
    # two stubs; test_acceptance runs every real criterion once
    real = next(c for c in experiments.ALL_CRITERIA if c[0].startswith("3 "))
    # run_criterion's clock, which only the overrunning stub moves
    clock = [0.0]
    monkeypatch.setattr(experiments, "time", SimpleNamespace(time=lambda: clock[0]))

    def failing(seed):
        return False, "stub mismatch"

    def overrun(seed):
        clock[0] += 5.0
        return True, "stub pass"

    monkeypatch.setattr(experiments, "ALL_CRITERIA", (
        real, ("stub failing", failing, 1.0), ("stub overrun", overrun, 1.0)))
    outdir = tmp_path / "reports"
    assert main(["all", "--paper-suite", "--json-dir", str(outdir)]) == MISMATCH
    out = capsys.readouterr().out
    assert "[PASS] 3 reflection unit boundary: " in out
    assert "[FAIL] stub failing: stub mismatch (0.00s)" in out
    assert "[FAIL] stub overrun: stub pass [over budget 1s] (5.00s)" in out
    assert "1/3 criteria passed" in out
    reports = {p.name: json.loads(p.read_text()) for p in outdir.glob("*.json")}
    assert {name: r["passed"] for name, r in reports.items()} == {
        "3-reflection-unit-boundary.json": True,
        "stub-failing.json": False,
        "stub-overrun.json": False,
    }
    assert (outdir / "stub-overrun.json").read_bytes() == _json_bytes({
        "experiment": "stub overrun", "passed": False,
        "detail": "stub pass [over budget 1s]", "elapsed": 5.0, "seed": 0})

    monkeypatch.setattr(experiments, "ALL_CRITERIA", (real,))
    assert main(["all", "--paper-suite"]) == PASS
    assert main(["all"]) == USAGE


def test_reidemeister_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "name": "from-config", "ring": "gf(4)[t,t^-1]", "group": "b2plus",
        "auto": "phiB(w)", "exp_window": 2, "diag_window": 1,
        "dense": 5, "expect": 4}))
    assert main(["reidemeister", "--config", str(cfg)]) == PASS
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ring": "gf(4)[t,t^-1]", "group": "b2plus",
                               "auto": "phiB(w)", "bogus": 1}))
    assert main(["reidemeister", "--config", str(bad)]) == USAGE
    assert main(["reidemeister", "--auto", "phiB(w)"]) == USAGE
    # the name is optional; a missing file, a top-level value that is not
    # an object, a bool where an integer belongs and a ring that is not a
    # string are usage errors
    spec = {"ring": "gf(4)[t,t^-1]", "group": "b2plus", "auto": "phiB(w)",
            "exp_window": 1, "diag_window": 1, "dense": 0, "expect": 4}
    cfg.write_text(json.dumps(spec))
    assert main(["reidemeister", "--config", str(cfg)]) == PASS
    assert main(["reidemeister", "--config", str(tmp_path / "none.json")]) == USAGE
    bad.write_text("5")
    assert main(["reidemeister", "--config", str(bad)]) == USAGE
    for field, value in (("exp_window", True), ("expect", False), ("ring", 5),
                         ("name", 5)):
        bad.write_text(json.dumps({**spec, field: value}))
        assert main(["reidemeister", "--config", str(bad)]) == USAGE
    # the name is the report's experiment field, and nothing else
    reports = []
    for name in ("first", "second"):
        cfg.write_text(json.dumps({**spec, "name": name}))
        out = tmp_path / f"{name}.json"
        assert main(["reidemeister", "--config", str(cfg), "--json", str(out)]) == PASS
        reports.append(json.loads(out.read_text()))
    assert [r.pop("experiment") for r in reports] == ["first", "second"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flag", [
    ["--ring", "gf(4)[t,t^-1]"], ["--group", "b2plus"], ["--auto", "phiB(w)"],
    ["--exp-window", "1"], ["--diag-window", "1"], ["--dense", "0"], ["--expect", "7"],
], ids=lambda flag: flag[0])
def test_config_refuses_other_experiment_flags(flag, tmp_path, monkeypatch, capsys):
    # the spec counts 4: a dropped --expect 7 would pass having checked nothing
    monkeypatch.delenv("TWISTCONJ_SEED", raising=False)
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"ring": "gf(4)[t,t^-1]", "group": "b2plus",
                               "auto": "phiB(w)", "exp_window": 1, "diag_window": 1,
                               "dense": 0}))
    assert main(["reidemeister", "--config", str(cfg), *flag]) == USAGE
    assert capsys.readouterr() == (
        "seed=0\n", f"error: --config takes no other experiment flags: {flag[0]}\n")


def test_reports_reproduce_bit_for_bit(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["reidemeister", "--ring", "gf(4)[t,t^-1]", "--group", "b2plus",
             "--auto", "phiB(w)", "--exp-window", "2", "--diag-window", "1"]
    assert main(flags + ["--json", str(a)]) == PASS
    assert main(flags + ["--json", str(b)]) == PASS
    assert a.read_bytes() == b.read_bytes()
