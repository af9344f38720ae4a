#!/usr/bin/env python3
"""Verdict-matrix sweep for the root-ratio weight family on l^2.

Rows are the family parameter p, columns the density exponent q; the
expected pattern is 'fails' for q <= p and 'satisfies' for q >= p+1.
Writes sweep.csv into --out via the batch runner.
"""

import argparse
import json
import os
import sys
import tempfile

from shiftlab.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep_out")
    parser.add_argument("--pmax", type=int, default=3)
    parser.add_argument("--qmax", type=int, default=5)
    args = parser.parse_args()

    config = {
        "scenario": "sweep",
        "space": {"kind": "lp", "p": 2},
        "grid": [{"family": "RootWeight", "p": p} for p in range(1, args.pmax + 1)],
        "q_values": list(range(1, args.qmax + 1)),
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(config, fh)
        path = fh.name
    try:
        return cli_main(["sweep", "--config", path, "--out", args.out])
    finally:
        os.remove(path)


if __name__ == "__main__":
    sys.exit(main())
