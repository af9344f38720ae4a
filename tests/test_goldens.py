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
from shiftlab.criterion import (
    bilateral_condition,
    fhc_check_tmu,
    hc_check,
    qfhc_check,
    salas_check,
    unilateral_condition,
    weakstar_condition,
)
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
                "daa63170dc03dec520c77467eeb67be38c2104ad60a1254f8002416697287323",
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
                "cb76a682dbe5d9a2bbb24ec8c14131e488cfc60dce6fd3fe8aee9b0e88eddb22",
        },
    ),
    "construct": (
        "construct",
        {"weights": {"family": "Constant", "value": 2}, "k": 2, "horizon": 300},
        {
            "candidate.csv":
                "d81b1a6033cd9106e76fa083d892f93500cf10e95041bd8b81259840c40b9071",
            "config.resolved.json":
                "2647bd81c10ddb46ae907c84db7762c8fe32e164ffa9009ba975a1ba7715e3e8",
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
                "e9ee1f5914dfe3c51eba64d2a15dc5ee8b6d5b6a34c0214c5d9097657b009aa6",
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
    "unilateral l2": lambda: unilateral_condition(RootRatioWeight(2), lp(2), 1, [0, 1, 5]),
    "unilateral c0": lambda: unilateral_condition(BergmanWeight(), c0(), 2, [1, 4]),
    "unilateral beyond reach": lambda: unilateral_condition(
        ConstantWeight(2), lp(2), 23, [0, 1]),
    "bilateral l2": lambda: bilateral_condition(_table(), 1, [-1, 0, 2], p=2),
    "bilateral c0": lambda: bilateral_condition(_table(), 2, [-1, 0, 2], on_c0=True),
    "bilateral c0 modulus 1": lambda: bilateral_condition(
        BilateralTableWeight(), 1, [0, 1], on_c0=True),
    "bilateral l2 modulus 1": lambda: bilateral_condition(
        BilateralTableWeight(), 1, [0, 1], p=2),
    "bilateral beyond reach": lambda: bilateral_condition(_table(), 22, [0, 1], p=2),
    "bilateral c0 beyond reach": lambda: bilateral_condition(_table(), 23, [0], on_c0=True),
    "weakstar": lambda: weakstar_condition(ConstantWeight(2), 2, [1, 2]),
    "hc unilateral": lambda: hc_check(lp(2), ConstantWeight(2), [1, 3], horizon=500),
    "hc bilateral": lambda: hc_check(lp(2, BILATERAL), _table(), [-1, 2], horizon=500),
    "salas rootratio": lambda: salas_check(RootRatioWeight(2), horizon=1000),
    "salas constant": lambda: salas_check(ConstantWeight(1.01), horizon=5000),
    "tmu": lambda: fhc_check_tmu(2, degrees=range(0, 3), rmax=3, max_exp=10),
    "select l2 constant": lambda: select_Nk(lp(2), ConstantWeight(2), 1, canonical_targets(3)),
    "select c0 constant": lambda: select_Nk(c0(), ConstantWeight(2), 1, canonical_targets(3)),
    "select l2 bergman q=2": lambda: select_Nk(lp(2), BergmanWeight(), 2, canonical_targets(2)),
}

REPORT_GOLDENS = {
    "bilateral beyond reach":
        "f5fdc5b3dfbec7744dc835a0ecd06571a78233bfa0a84c42d9a89f209446aed4",
    "bilateral c0":
        "f38a7fcd217e1445f2e02e2d39b8812cb5ed0681d859e2b1f90460afcc0c3b68",
    "bilateral c0 beyond reach":
        "8b5e1a4386dca9198f5380742e332698b6665f7ca296b52bcf675c742e7e5a7a",
    "bilateral c0 modulus 1":
        "f9689bc77c9b51cda129b2064f6279220ad4b1eab4c394418ed96e58afab5687",
    "bilateral l2":
        "1b8e9b2865831d4f4bd69da156bb3d180abfad2dbc5b611b1401c35c221e70d6",
    "bilateral l2 modulus 1":
        "ddbe7d148b4e608e7be766246b9fa2c35c8106d82fe6c64767ef444e2f46dfd3",
    "hc bilateral":
        "8693f4ed4758df1eedfc48a6257c179c4ff80da9fb34c11c23fa9d78726fa990",
    "hc unilateral":
        "4be070305d4c6494fffd7bffa0b546a159bd85418268d4585b8cb0d854af0303",
    "qfhc beyond reach":
        "f9de65216b6cf176bce2720a196bb1eaba82f55fe18d3e107cd42ea418556472",
    "qfhc bilateral beyond reach":
        "ce57fa81e9ac85127f3b4f1bff33b39e1c0fe765323705d16dca2a645c506e2d",
    "qfhc bilateral table":
        "db98161c7a95017681c4bbcb0c4fe69621b73c23096a8f6034c88f06d27b16e1",
    "qfhc c0 constant":
        "f558e303d2603406913bc40917dd100f5368d02f7ea586a83fd6c2f5b145cb78",
    "qfhc entire(4)":
        "7841e8eea35f5f11d43c2e4c369eb55fbf9914572f0074fa2bec99db07829c7a",
    "qfhc l2 bergman q=1 head":
        "6c4ccce2d10903091a5db8f2f68539aa124550d409372f010701b210584432e6",
    "qfhc l2 bergman q=2":
        "d601d0329023af3b0dc87f08a33e6d521d0ba435a246f02a500560d4afab8972",
    "qfhc tmu":
        "ed4971bb22e449568e41e5c23017d33874805184eaa942bd2977b5c5f437cdf4",
    "salas constant":
        "70ec52279a70ace02f2b83565afd1ea5b4573c4e5519d8f7c91a3cdd03ae63ca",
    "salas rootratio":
        "c2bb756711b7a1b237ce7351b3409ca6c2f0493a62dd3147a56e4d152cb62138",
    "select c0 constant":
        "1e95a4d1bc5d030d072c50196ae74fea5ac1e2aeed3d90621fcb93e276693e66",
    "select l2 bergman q=2":
        "7f702b9d6911e5a3a064adaa432d9c6dd5de5ab8c16f0914c3541809a2fa4d45",
    "select l2 constant":
        "2209cff39aa57a8839ff30cf09c6e806df4efffbff4a950d10a6f292b80f2f71",
    "tmu":
        "2a64c881317e1c70aaef570e39b113193ae97fadca351a43bb18c8e88e2e6803",
    "unilateral beyond reach":
        "d9f8f6ac81f6417254ab9dec0bace127be803c0a192a1e945f42a2181834da52",
    "unilateral c0":
        "b468999473436c2bd0bb2f62f1fd0ad8bfda9381f18d641a35f96a80877b6616",
    "unilateral l2":
        "6719e0f075f20d4e3c6b998c53a3dd8b74b318584d2c81becf464d1c10207043",
    "weakstar":
        "09a13f62b169277861f2ca78252c72028c8f31ca5561788853c567ed64e27e38",
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
