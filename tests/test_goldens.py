"""Byte-identity goldens: the sha256 of every file that ``shiftlab density``
and ``shiftlab jsets`` write, for fixed seeded inputs, plus one small run of
each other scenario that writes a CSV.

The hashes were recorded with the row-at-a-time writer that preceded the
columnar one; any change to a formatted byte shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from shiftlab.cli import main

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
