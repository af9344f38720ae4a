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
                "741fc357580d16e5ee4f1b310be1fb3ea2053996795900986297b2682d6c5d7f",
            "density_profile.csv":
                "b664e4fb122a099ece6d0a209ca2ab96e14c77aec601bd52913377966343798f",
        },
    ),
    "density q=2": (
        "density",
        {"times": density_times(), "q": 2, "horizon": DENSITY_HORIZON},
        {
            "config.resolved.json":
                "04b3a6f63d0af31f5d352c3dd4fdc0beece7113251074650ee62f121846ca426",
            "density_profile.csv":
                "593cfea3e8cd1f41636e0a6392f40bd6318a1df61cc43646f47f2c4ef0510331",
        },
    ),
    "jsets": (
        "jsets",
        {"nseq": [1, 2, 3, 4, 5], "horizon": 100_000},
        {
            "config.resolved.json":
                "3a709afed85e590af1dd03e15d0d6254ca8b60b337e0704613fd2744a50099d8",
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
                "d28f5d9cf2cbdcfdc8cf8c02c854ddf7cde4c85915c61d64a43f452ba8356bca",
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
                "adf010f7ea6e315e96029d7f970a0ff9dfe397845b51aeb2b696573ccafacb1d",
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
                "8272b1cc6598644186439ccb8b33d8df074fcd9adfcb8c3e009118dcc48b4100",
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
                "9c8723e7cab2c9c088f8ec08f785a6ab99c20ba5afa9288812f23c88a2d42d8d",
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
        "350e60f1a108f131ea7331b2e767c605f2de02bb5f570be8c593dbccb26d75a2",
    "bilateral c0":
        "b8e58f6427174308d32a0f18a091dfc03098d5613785fc2202a981dd224584d7",
    "bilateral c0 beyond reach":
        "85583ed8a9e4838e441e851494cb8c216960d527c9a77232826b553d038c5762",
    "bilateral c0 modulus 1":
        "abc859eba1223b1170a71bb4955b75cce3167a845c153a93c62158a3d1f335b3",
    "bilateral l2":
        "37e189ad6e170653933c8e4e0cf0aa0ff9ab6324968cb9c0cb027a643af97ac5",
    "bilateral l2 modulus 1":
        "6d85f408666492475f6db39f9d67aaaa37fda89ba187e6839bac0be72f5015c5",
    "hc bilateral":
        "6110d1dec70c602bdd9820c7fde0cb8992bc9890ae6117fa4bd1f7526c0565a7",
    "hc unilateral":
        "1f5e1ad3f83cb1497eacd880da7da07c9d5dd4eed3374ae790d378395c878cfa",
    "qfhc beyond reach":
        "3ea06a64e40f749ac75851367976201f714e337e88e1ff800b79f2a65708abf5",
    "qfhc bilateral beyond reach":
        "28164f465afa3a0bc4fca492dcfa95744d169ba8135772c1aa3d2cfd6fbb15fc",
    "qfhc bilateral table":
        "2095aa7fa8a8264c8af94801eb5e7719cd64da86f6045c4d74eb337408f02bc8",
    "qfhc c0 constant":
        "3997335caa6da7bacc05d899e3d4bc5eb7e1ca12d33d2875ae015c68f9f29ba0",
    "qfhc entire(4)":
        "703fa54e2b3836bae6cfe0db92105dc2ac72243804a9bef2e8512372050ee805",
    "qfhc l2 bergman q=1 head":
        "1ac48bc2dd00da1d5a15c8ad7174b7543cc7707d0c03952d2c683ee5fc1d66bb",
    "qfhc l2 bergman q=2":
        "b4cfbbed98c1e2b648e9d706b6e40a4bc7fb93ebb34c57d28fb5ef87d4dcf7f8",
    "qfhc tmu":
        "9872afe7828ceb0f6c547664dedb8ce603a0b316d619ba3ab0c731033692fd7c",
    "salas constant":
        "ad93fd14a529d46affb2564ae8f8b7f5152a9dd94f4d04b16d23412d9958214f",
    "salas rootratio":
        "4776a0e693ccb68b79bd0babdb305a8ee6887863d87f531f27b26baeed81e37e",
    "select c0 constant":
        "1e95a4d1bc5d030d072c50196ae74fea5ac1e2aeed3d90621fcb93e276693e66",
    "select l2 bergman q=2":
        "7f702b9d6911e5a3a064adaa432d9c6dd5de5ab8c16f0914c3541809a2fa4d45",
    "select l2 constant":
        "2209cff39aa57a8839ff30cf09c6e806df4efffbff4a950d10a6f292b80f2f71",
    "tmu":
        "081a352e4dce3507cb07bff7300faf227a31c80bc76f79c08c803f5e946d0654",
    "unilateral beyond reach":
        "1f083e6f8daf4137a08aa65eb22c8bb145490b4d880f53a5d7891ca77596364d",
    "unilateral c0":
        "422d8806070c1ed7ae20f8c23155c4612bcd9e8f1a9d731d97bdee7c319074bb",
    "unilateral l2":
        "31e407ff41bf3b30e0f508e158520e8a59a65e275c0f3781e1991fe2e3f9d2ce",
    "weakstar":
        "051f6063190684b09f919eff117bf73b88655aa7abdc4f47cf8ca8471efa3102",
}


def report_digest(case: str) -> str:
    return hashlib.sha256(repr(REPORT_CALLS[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORT_CALLS))
def test_report_repr_unchanged(case):
    assert report_digest(case) == REPORT_GOLDENS[case]
