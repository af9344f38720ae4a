"""Byte-identity goldens: the sha256 of every file that ``shiftlab density``
and ``shiftlab jsets`` write, for fixed seeded inputs, plus one small run of
each other scenario that writes a CSV.

The hashes were recorded with the row-at-a-time writer that preceded the
columnar one; any change to a formatted byte shows here.

The report goldens pin the sha256 of ``repr`` of whole criterion reports,
probe checkpoints and tails included, which the CSVs do not carry.  They
were recorded with the per-checker series closures that preceded
``criterion._shift_series``.
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
                "73cc30bce58e155cf0030fa578206acbd0c9d0571999a0e8c672c9348d3db998",
        },
    ),
    "construct": (
        "construct",
        {"weights": {"family": "Constant", "value": 2}, "k": 2, "horizon": 300},
        {
            "candidate.csv":
                "5541016368858edcdf308f8c2617ad679a839ab72a565c9e4c49680f400705b3",
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


# Each call builds its weights afresh: prefix bits depend on cache growth.
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
        "aab936e93c04db7a9e771a89f3b95c220bd1c90bbcee5f8201e162cab864e03f",
    "bilateral c0":
        "9bbc062d9305bd8fe9c4fa9e6dce89d8a5827feaefd30c7d0f9ab938701ddded",
    "bilateral c0 beyond reach":
        "5b56e145869a29d22edf67bece99fb6355048b455d949b87aee021a5c1ebdb30",
    "bilateral c0 modulus 1":
        "b61423b0ba64925f88a89addd857cec18a49140d834e7d48426c3c56553a7f03",
    "bilateral l2":
        "22dd68d72334fdfffd69e2ffdc715f5a5374c4c76447a14fa0ce6cdbad82450e",
    "bilateral l2 modulus 1":
        "5851ae4ee47189e43813fcc38c55adb8ee785218bd339a7b3795cc2babb1cc70",
    "hc bilateral":
        "1f1acef87970932319c474f50c014537acf191dee9fcb2363c6d409da10894fb",
    "hc unilateral":
        "d7ef01d3f36b1c8a7898105cb56969506422548c2087e47dab46b852ac73243e",
    "qfhc beyond reach":
        "a271db99258b76b64525e534f8d6efb8004019b7cb8e636ace1244d6875f4fc4",
    "qfhc bilateral beyond reach":
        "ff27587735455b1c721c27be32a7ae5f5aa1eca72f0e086b69448fb3baa1d232",
    "qfhc bilateral table":
        "478dc3916ca2f1309b10fb1c93daebf718a5d5a0ba4d3903c0b38e037dce1bc7",
    "qfhc c0 constant":
        "ebf99b2600b7ea60c6d0a22544c6585f01c1fe9667867c4c47de7135309a163c",
    "qfhc entire(4)":
        "af4c862520656ad9986a3bc9bcfbbf0940dc07b0c648ab631d5ced6983179639",
    "qfhc l2 bergman q=1 head":
        "f304f959dfc01adb4f8c6ce1a9f28509438c7b9b44f8f25acc01ed878a8f7aa4",
    "qfhc l2 bergman q=2":
        "d1f829163e256d4671cf285a3f2e734ab3ac45ee3a45a783165f148ad688f9ca",
    "qfhc tmu":
        "731c60a2d3002ba9068222f9fa675854fa41697a8e21f9752fc847fb8ab39087",
    "salas constant":
        "4100c4b555efb68de952cd9b53447d6e34f43f95129166cf2cbc10c7a7fc7b53",
    "salas rootratio":
        "4776a0e693ccb68b79bd0babdb305a8ee6887863d87f531f27b26baeed81e37e",
    "select c0 constant":
        "1e95a4d1bc5d030d072c50196ae74fea5ac1e2aeed3d90621fcb93e276693e66",
    "select l2 bergman q=2":
        "7f702b9d6911e5a3a064adaa432d9c6dd5de5ab8c16f0914c3541809a2fa4d45",
    "select l2 constant":
        "2209cff39aa57a8839ff30cf09c6e806df4efffbff4a950d10a6f292b80f2f71",
    "tmu":
        "a6d388fc3269be1894c1e7eeda8b7de2db541e6756b15537870c78dda261ef04",
    "unilateral beyond reach":
        "d28a299bd702e450d2bee2405b924f056fbe769fb2294c23d5bcf4963b1067d9",
    "unilateral c0":
        "0c9803417487ad8c78725dec90e6b53ddd8d41102c7f851e82be74216d6628a4",
    "unilateral l2":
        "cec71a595e0800728087f9e5c81d404f930070ffa637ffd9e76a6c01a992100c",
    "weakstar":
        "0934129d86717053050edf3d55d29a2eaac4e01d4327725968c77f4392f3a2fc",
}


def report_digest(case: str) -> str:
    return hashlib.sha256(repr(REPORT_CALLS[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORT_CALLS))
def test_report_repr_unchanged(case):
    assert report_digest(case) == REPORT_GOLDENS[case]
