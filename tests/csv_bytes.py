"""Check, at full size, that ``cli.write_csv`` writes the bytes csv.writer
writes for the same cells as ``.tolist()`` Python scalars.

    PYTHONPATH=src python tests/csv_bytes.py

It runs the ``density`` scenario on every third time up to 10^6 (a
10^6-row ``density_profile.csv``) and the ``jsets`` scenario on
N = (1, ..., 5) at horizon 10^6 (a 258,065-row ``jsets.csv``), keeping the
columns each passes to ``write_csv``, and writes a 10^6-cell column of
random float64 bit patterns.  Each file is compared byte for byte with
csv.writer's text; the script prints one line per file and exits 1 on
any difference.

This is a script, not a test module: pytest does not collect it.
"""

import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from shiftlab import cli

CONFIGS = {
    "density": {"scenario": "density", "times": list(range(1, 10**6 + 1, 3)),
                "horizon": 10**6},
    "jsets": {"scenario": "jsets", "nseq": [1, 2, 3, 4, 5], "horizon": 10**6},
}
CHECKED = ("density_profile.csv", "jsets.csv", "bit_patterns.csv")


def csv_writer_bytes(header, columns) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return buf.getvalue().encode("utf-8")


def main() -> int:
    cells = {}
    write_csv = cli.write_csv

    def keep(path, header, columns):
        cells[path] = (header, columns)
        write_csv(path, header, columns)

    cli.write_csv = keep
    with tempfile.TemporaryDirectory() as out:
        for scenario, config in CONFIGS.items():
            path = os.path.join(out, f"{scenario}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            cli.main([scenario, "--config", path, "--out", out])
        bits = np.random.default_rng(0).integers(0, 2**64, 10**6, dtype=np.uint64)
        keep(os.path.join(out, "bit_patterns.csv"), ["x"], [bits.view(np.float64)])
        status = 0
        for path, (header, columns) in sorted(cells.items()):
            name = os.path.basename(path)
            if name not in CHECKED:
                continue
            with open(path, "rb") as fh:
                same = fh.read() == csv_writer_bytes(header, columns)
            print(f"{name}: {len(columns[0])} rows, {'same' if same else 'DIFFERENT'} bytes")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
