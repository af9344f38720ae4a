"""Byte-identity goldens: the sha256 of every file that ``shiftlab density``
and ``shiftlab jsets`` write, for fixed seeded inputs, plus one small run of
each other scenario that writes a CSV.

The hashes were recorded with the row-at-a-time writer that preceded the
columnar one; any change to a formatted byte shows here.

The report goldens pin the sha256 of ``repr`` of whole criterion reports,
probe checkpoints and tails included, which the CSVs do not carry.  They
were recorded with the per-checker series closures that preceded
``criterion._shift_series``.  The construct candidate and seven reports
were re-recorded when closed-form prefix products replaced the
cumulative-sum prefix cache, after a comparison with the cache showed
the same verdicts, rules, checkpoint indices and structure.  The ``tmu``
report was re-recorded when ``fhc_check_tmu`` became ``qfhc_check`` of
the ``TMuWeight`` shift: its labels, notes, operator string and T-series
head sums changed, while a comparison with the separate closed form
showed the same overall verdict and S-series verdicts, rules and sums.
Nineteen reports and the ``criterion`` CSV were re-recorded when verdicts
came from the weight families' asymptotic classes, after a per-report
comparison with the scan-decided checkers showed changes of four kinds
only: rule strings; checkpoints past 2^12 (the scan now stops there unless
a sum needs its slow tail); beyond-reach series, now decided instead of
inconclusive; and H(C) sums, now those of the majorant at R = rmax, the
radius the class decides at, instead of R = 1's.
Twenty-one reports (all but ``salas`` and ``select``) were re-recorded
when ``SeriesProbe`` was folded into ``Verdict``, whose ``checkpoints``
field replaced its ``probe``, and ``hc_check`` came to be decided by the
asymptotic class.  A leaf-by-leaf comparison (each entry's label, kind,
rule, checkpoints, sum and tail, plus ``overall`` and ``notes``) showed
the same reports except six orbit rules of ``hc unilateral`` and
``hc bilateral``, now named by the class; their kinds stayed.
The seven ``config.resolved.json`` hashes were re-recorded when the
``tol`` key left the CLI; a diff showed only the ``"tol": 1e-08`` line
gone.  The two ``salas`` reports were re-recorded when ``salas_check``
came to read the asymptotic class: a diff showed the same verdicts
(both True) and running maxima, a class rule in place of the threshold
and record rules, and no ``threshold`` field.
The ``bilateral c0`` and ``bilateral c0 modulus 1`` reports were
re-recorded when ``bilateral_condition`` came to take a space and its c0
limit conditions became c0(Z) term-decay series: a diff with the
checkpoints masked showed the same reports, and the checkpoints moved
from log-products sampled at 2^i to the dyadic partial sums of the c0
terms, ending at the scan length like every other c0 report.
Ten reports and the ``criterion`` CSV were re-recorded when the 2^22
series reach gave way to the 2^53 exact-index limit and one scan length
of 2^12 terms.  A leaf-by-leaf comparison showed the same labels, kinds,
rules, notes and overall verdicts, and changes of three kinds only: q = 2
series now scan 4096 terms instead of 2047, so their checkpoints run on
to 4096 and their sums and tails move; the six "beyond reach" reports at q =
22 and 23 now read their 4 or 5 terms within 2^53, and report
checkpoints, sums and tails; and the worst tails of ``select l2 bergman
q=2`` move in their last digits, with the same thresholds.  The
``qfhc l2 bergman q=2`` report and the ``criterion`` CSV were re-recorded
once more when a series decided at the log n level came to take its tail
from the class's power law, with a fitted shift, instead of a secant fit
in n: a diff showed only the Bergman S-series sums and tails moved (the
CSV's five sums come within 5.6e-12 to 2.6e-11 of the closed form
(j+1)(pi sqrt(j+1) coth(pi sqrt(j+1)) - 1)/(2(j+1)), against 1.0e-9 to
4.6e-9 at the 2^22 reach).
The ``weakstar`` case was recorded when every config object came to be
read through one declared table of fields, with the program before that
change, so that every scenario's ``config.resolved.json`` is pinned.
Eight reports and the ``criterion`` CSV were re-recorded when every
criterion series, the unilateral T-series heads and T-orbits included,
came to take one path through ``_classify_weighted``.  A leaf-by-leaf
comparison showed changes of three kinds only: the T-series checkpoints
and sums of ``qfhc beyond reach``, ``qfhc c0 constant``, ``qfhc
entire(4)``, ``qfhc l2 bergman q=1 head``, ``qfhc l2 bergman q=2``,
``qfhc tmu`` and ``tmu`` (a head now sums the p-th powers of its terms on
l^p and their majorants at R = rmax on H(C), at dyadic checkpoints, and
reports no sum on c0); the T-orbit rule and checkpoints of ``hc
unilateral``; and the T-series sum cells of the ``criterion`` CSV.
The ``select l2 bergman q=2`` report was re-recorded when the tail past
the tail certificates' window came from the class's power law
(``_class_tail``) instead of a two-point power-law fit: a diff showed the
same thresholds (3, 9) and the two worst tails moved by 7e-11 and 5e-11
relative.  The S-series tail past n = 4096 at j = 1 is now within 2e-8 of
the closed form, against 4.4e-7 before.
The ``orbit`` case's ``orbit_events.jsonl`` was re-recorded when a
``modulus_exceeds`` event's value became the modulus its hit compares,
|y_index|, instead of the largest modulus: a leaf-by-leaf comparison
showed the same ``hits.csv`` and the same n, exponent and hit at every
event, and every value equal to |y_1| of the unrotated orbit.
The ``construct`` case's ``config.resolved.json`` was re-recorded when
the ``n_max`` key left the CLI; a line diff of the echo showed only the
``"n_max": 4096`` line gone, and the candidate and return-bound files
kept their digests.
The ``jsets`` case's ``config.resolved.json`` was re-recorded when the
``k`` key left the CLI (the class count is ``len(nseq)``); a line diff of
the echo showed only the ``"k": null`` line gone, and ``jsets.csv`` and
``jsets_densities.csv`` kept their digests.
The eleven reports of ``bilateral_condition``, ``weakstar_condition``,
``hc_check`` and ``salas_check`` left with those checkers, the
``bilateral`` six when ``qfhc_check`` on a bilateral space came to answer
their question.  Before they left, its verdicts and rules matched theirs
on every side of eight bilateral tables, on l^1(Z), l^2(Z) and c0(Z), at
q = 1, 2, 3, 22 and 54, with S-series sums e^(p P(j)) times the
unanchored forward ones.  The ``qfhc c0 bilateral``, ``qfhc l1
bilateral``, ``qfhc c0 bilateral modulus 1``, ``qfhc l2 bilateral modulus
1``, ``qfhc c0 bilateral beyond reach`` and ``unilateral l1`` (the weak*
criterion) reports were recorded then, with the program that still had the
old checkers, so they are new pins, not re-records.

Running this file as a script, ``python tests/test_goldens.py [CASE ...]``,
prints ``case<TAB>repr(report)`` per report case, so that a re-record
can be reviewed with a plain diff of two trees' outputs.
"""

import hashlib
import json

import numpy as np
import pytest

from shiftlab.cli import main
from shiftlab.constructor import canonical_targets, select_Nk
from shiftlab.criterion import fhc_check_tmu, qfhc_check, unilateral_condition
from shiftlab.seqspace import BILATERAL, c0, entire, lp
from shiftlab.shiftops import (
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    RootRatioWeight,
    TMuWeight,
)

DENSITY_HORIZON = 200_000


def density_times(seed: int = 20140) -> list[int]:
    """Bernoulli(0.3) hit times on 1..horizon with a sparse stretch."""
    rng = np.random.default_rng(seed)
    mask = rng.random(DENSITY_HORIZON) < 0.3
    lo = DENSITY_HORIZON // 4
    span = DENSITY_HORIZON // 20
    mask[lo : lo + span] &= rng.random(span) < 0.2
    return (np.flatnonzero(mask) + 1).tolist()


GOLDENS = {
    "density q=1": (
        "density",
        {"times": density_times(), "q": 1, "horizon": DENSITY_HORIZON},
        {
            "config.resolved.json":
                "800943a95f7c218e7b2553076f8fc155e7fe7846680531bd3927b2951f297d80",
            "density_profile.csv":
                "b664e4fb122a099ece6d0a209ca2ab96e14c77aec601bd52913377966343798f",
        },
    ),
    "density q=2": (
        "density",
        {"times": density_times(), "q": 2, "horizon": DENSITY_HORIZON},
        {
            "config.resolved.json":
                "986dcd4f9ad5c278fa8f2d122079b845505a1a3e18b06f1ef6ade214610fa108",
            "density_profile.csv":
                "593cfea3e8cd1f41636e0a6392f40bd6318a1df61cc43646f47f2c4ef0510331",
        },
    ),
    "jsets": (
        "jsets",
        {"nseq": [1, 2, 3, 4, 5], "horizon": 100_000},
        {
            "config.resolved.json":
                "21cf8ebc9d07d45678b26df770d644c5e9f3c07a7784d4511f4d4afa9b392b89",
            "jsets.csv":
                "f80dacba3f0b25a9506427964b3202931fde71420b87ff26eb108b56cebd9d5c",
            "jsets_densities.csv":
                "2240a401621cf1caa8665b661b3bc859b2033b428784aed84ceeb94dce2a19e9",
        },
    ),
    "criterion": (
        "criterion",
        {"weights": {"family": "Bergman"}, "q": 2},
        {
            "config.resolved.json":
                "44de3ceb8e04ca4cbf32d5b709dcf35036b74b89937961ab85b91ab8176c3da8",
            "criterion.csv":
                "4d0846eacd57fe71c607d20fde147961277da35bb94f06465fe0602bb954a413",
        },
    ),
    "construct": (
        "construct",
        {"weights": {"family": "Constant", "value": 2}, "k": 2, "horizon": 300},
        {
            "candidate.csv":
                "d81b1a6033cd9106e76fa083d892f93500cf10e95041bd8b81259840c40b9071",
            "config.resolved.json":
                "1469bfe29835fe1b72e7ce4e7a9a3d272c6ce31e15e65ba46453eb827843be31",
            "eq33.csv":
                "49303f707949820b008a41c8edf2a3606b92e8bb71a33ed5b47330a518723665",
        },
    ),
    "orbit": (
        "orbit",
        {
            "weights": {"family": "Constant", "value": 2},
            "vector": {"entries": {"3": 0.125, "6": [0.0, -0.015625]}},
            "target": {"kind": "modulus_exceeds", "index": 1, "threshold": 0.1},
            "horizon": 50,
        },
        {
            "config.resolved.json":
                "19afd395abff30f2db742e347a385eccf4372d595e4540cd6314a84c62c1796c",
            "hits.csv":
                "15f2d63c16512064f608becfc147d458217a46b248d6b7d606c3be3ea9284f8f",
            "orbit_events.jsonl":
                "bfaf52aa9ed7e669bcecc8ea7beab7691703efabd9af9715a796d53e92caa220",
        },
    ),
    "weakstar": (
        "weakstar",
        {
            "weights": {"family": "Constant", "value": 2},
            "vector": {"entries": {"4": 0.125, "7": [0.015625, 0.001]}},
            "center": {"basis": 1},
            "functionals": 2,
            "horizon": 300,
        },
        {
            "config.resolved.json":
                "31df468a902732e44cc082e9f4c937ab22347c60fd415d37d5b2216e18f74e46",
            "hits.csv":
                "1ab01c339c445daf084b61d93150bc89b1852100ad02d798dd1bf9af49337d30",
            "weakstar_events.jsonl":
                "319c1faccc049032000a9a60c4949f95d271336e3c98e21b67397e2e550dd20d",
        },
    ),
    "sweep": (
        "sweep",
        {
            "grid": [{"family": "RootWeight", "p": 1}, {"family": "Constant", "value": 2}],
            "q_values": [1, 2],
        },
        {
            "config.resolved.json":
                "1ca002bc554ec013cd3eb47cc35d6b57703fa8f33a9ff3f182c3d40fda392473",
            "sweep.csv":
                "82f695293064fe869b0d5a004e141ed3bd55a18e4fe1e9f4b008448c4f647f22",
        },
    ),
}


def run_case(scenario: str, config: dict, tmp_path, monkeypatch) -> dict:
    """Run one scenario in-process under ``tmp_path``; sha256 per output file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        json.dumps(dict(config, scenario=scenario)), encoding="utf-8"
    )
    assert main([scenario, "--config", "config.json", "--out", "out"]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "out").iterdir())
    }


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_output_bytes_unchanged(case, tmp_path, monkeypatch):
    scenario, config, want = GOLDENS[case]
    assert run_case(scenario, config, tmp_path, monkeypatch) == want


def _table():
    return BilateralTableWeight({-3: 3.0, 0: 0.5j, 2: -2.0}, default_pos=2.0,
                                default_nonpos=0.5)


REPORT_CALLS = {
    "qfhc l2 bergman q=2": lambda: qfhc_check(lp(2), BergmanWeight(), 2, [1, 3, 40]),
    "qfhc l2 bergman q=1 head": lambda: qfhc_check(lp(2), BergmanWeight(), 1, [2, 3000]),
    "qfhc c0 constant": lambda: qfhc_check(c0(), ConstantWeight(2), 1, [1, 2]),
    "qfhc entire(4)": lambda: qfhc_check(entire(4), ConstantWeight(8), 1, [1, 2], max_exp=12),
    "qfhc bilateral table": lambda: qfhc_check(lp(2, BILATERAL), _table(), 1, [-2, 0, 3]),
    "qfhc tmu": lambda: qfhc_check(entire(3), TMuWeight(2), 1, [1, 3], max_exp=10),
    "qfhc beyond reach": lambda: qfhc_check(lp(2), ConstantWeight(2), 22, [1, 2]),
    "qfhc bilateral beyond reach": lambda: qfhc_check(lp(2, BILATERAL), _table(), 22, [0, 1]),
    "qfhc c0 bilateral": lambda: qfhc_check(c0(BILATERAL), _table(), 2, [-1, 0, 2]),
    "qfhc l1 bilateral": lambda: qfhc_check(lp(1, BILATERAL), _table(), 1, [-1, 0, 2]),
    "qfhc c0 bilateral modulus 1": lambda: qfhc_check(
        c0(BILATERAL), BilateralTableWeight(), 1, [0, 1]),
    "qfhc l2 bilateral modulus 1": lambda: qfhc_check(
        lp(2, BILATERAL), BilateralTableWeight(), 1, [0, 1]),
    "qfhc c0 bilateral beyond reach": lambda: qfhc_check(c0(BILATERAL), _table(), 23, [0]),
    "unilateral l2": lambda: unilateral_condition(RootRatioWeight(2), lp(2), 1, [0, 1, 5]),
    "unilateral c0": lambda: unilateral_condition(BergmanWeight(), c0(), 2, [1, 4]),
    "unilateral beyond reach": lambda: unilateral_condition(
        ConstantWeight(2), lp(2), 23, [0, 1]),
    "unilateral l1": lambda: unilateral_condition(ConstantWeight(2), lp(1), 2, [1, 2]),
    "tmu": lambda: fhc_check_tmu(2, degrees=range(0, 3), rmax=3, max_exp=10),
    "select l2 constant": lambda: select_Nk(lp(2), ConstantWeight(2), 1, canonical_targets(3)),
    "select c0 constant": lambda: select_Nk(c0(), ConstantWeight(2), 1, canonical_targets(3)),
    "select l2 bergman q=2": lambda: select_Nk(lp(2), BergmanWeight(), 2, canonical_targets(2)),
}

REPORT_GOLDENS = {
    "qfhc beyond reach":
        "a128acbef646da89831d091d63ac64639bef6971acc4afd952aa2174f1ca3f5c",
    "qfhc bilateral beyond reach":
        "a059a98437dfbdaeef2f00258773f65558c0d4f7aca273b7eef6b18f97a3d150",
    "qfhc bilateral table":
        "db98161c7a95017681c4bbcb0c4fe69621b73c23096a8f6034c88f06d27b16e1",
    "qfhc c0 bilateral":
        "3cc9c4034fe3fd8214342c44f5d26dfd9725b82b5b67199e8a9ed78e39a0ee01",
    "qfhc c0 bilateral beyond reach":
        "8e17c8c8fac1bd7cde79f4bc1fea07c0de317f64740547e473ffc40ea7ee2075",
    "qfhc c0 bilateral modulus 1":
        "8afd5bf08a3d5f8abf6f838085e6ee5efb5f9e7dcb84da283cafd66743cca053",
    "qfhc c0 constant":
        "6d74e6ef24811ec0ce46e4cd24e4219fb297a8ab6d30e91ccc02c7b25a475fb1",
    "qfhc entire(4)":
        "0d18791c8d4f32cad5fbb18a48d4cf3bba4285b24350ca342ff28c3400f93b13",
    "qfhc l1 bilateral":
        "462074331230d2c290fb83ba815d2167850115a4a840294e1c9475a3d7190f41",
    "qfhc l2 bilateral modulus 1":
        "05d819fb3fc5f782f93ac0b44b739634964230e3cfcdd8103f7f784b9801b0d1",
    "qfhc l2 bergman q=1 head":
        "3f30e21f62ce89d8d44988a5bf6f4769d2ff60fdf9230d2f1ab4248c0843c602",
    # re-pinned when _class_tail's power-law tail became a float, not an
    # np.float64: its reprs lost "np.float64(...)" and kept every digit
    "qfhc l2 bergman q=2":
        "aea710505d727da90ab2b44f2c874bd60e93d97ad124f914c6d310452280757d",
    "qfhc tmu":
        "9083f9d481cc2b44b9f18e22951aa4dcd895c2214e470b9d1b916bbdc290f969",
    "select c0 constant":
        "1e95a4d1bc5d030d072c50196ae74fea5ac1e2aeed3d90621fcb93e276693e66",
    "select l2 bergman q=2":
        "c5a53e362c240e01bd1f95f14ed88f651e02819d49b11aa6a4a10870d7f33ead",
    "select l2 constant":
        "2209cff39aa57a8839ff30cf09c6e806df4efffbff4a950d10a6f292b80f2f71",
    "tmu":
        "5ee5063444e4f6ced6d8f06b9d8bd179d77935e0658fe2b82df45d69db4c1d68",
    "unilateral beyond reach":
        "68a756e10cfcabf85338cf702aa6e21f2a20e62ef8fe8d820ab42a8bd0dc823f",
    "unilateral c0":
        "34011c9ea9788cee74dee579d01f7e722c7f9f6933380ab6908cdb52964acfe6",
    "unilateral l1":
        "6b0b24ffb9f3c1952a10e27f7b0232be16018aa888814ac28bb009ca1b38b7ec",
    "unilateral l2":
        "6719e0f075f20d4e3c6b998c53a3dd8b74b318584d2c81becf464d1c10207043",
}


def report_digest(case: str) -> str:
    return hashlib.sha256(repr(REPORT_CALLS[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORT_CALLS))
def test_report_repr_unchanged(case):
    assert report_digest(case) == REPORT_GOLDENS[case]


if __name__ == "__main__":
    # python tests/test_goldens.py [CASE ...] prints case<TAB>repr(report) for
    # each report case (all by default), so that a re-record can be reviewed
    # with a plain diff of two trees' outputs
    import sys

    for case in sys.argv[1:] or sorted(REPORT_CALLS):
        print(f"{case}\t{REPORT_CALLS[case]()!r}")
