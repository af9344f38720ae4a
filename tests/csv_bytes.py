"""Check, at full size, that ``cli.write_csv`` writes the bytes csv.writer
writes for the same cells as ``.tolist()`` Python scalars, and that
``cli.write_jsonl`` writes json.dumps(record, sort_keys=True) per record.

    PYTHONPATH=src python tests/csv_bytes.py

It runs the ``density`` scenario on every third time up to 10^6 (a
10^6-row ``density_profile.csv``) and the ``jsets`` scenario on
N = (1, ..., 5) at horizon 10^6 (a 258,065-row ``jsets.csv``), keeping the
columns each passes to ``write_csv``, and writes a 10^6-cell column of
random float64 bit patterns.  It also runs the benchmark's ``orbit ball``
job (the Constant(2) k=3 candidate against the ball of radius 3 alpha_3
around e_1, horizon 10^4: a 10^4-event ``orbit_events.jsonl``) and writes
a 10^6-event log whose values are random float64 bit patterns.  Each file
is compared byte for byte with csv.writer's or json.dumps's text; the
script prints one line per file and exits 1 on any difference.  It also
prints the ``tracemalloc`` peak of the 10^6-event ``write_jsonl`` and of
``write_csv`` on the same columns, and exits 1 when the first is more
than twice the second: the log streams, chunk by chunk, as the CSV does.

This is a script, not a test module: pytest does not collect it.
"""

import csv
import io
import json
import os
import sys
import tempfile
import tracemalloc

import numpy as np

from shiftlab import ConstantWeight, build_vector, canonical_targets, cli, lp

CONFIGS = {
    "density": {"scenario": "density", "times": list(range(1, 10**6 + 1, 3)),
                "horizon": 10**6},
    "jsets": {"scenario": "jsets", "nseq": [1, 2, 3, 4, 5], "horizon": 10**6},
}
CHECKED = ("density_profile.csv", "jsets.csv", "bit_patterns.csv")
JSONL_CHECKED = ("orbit_events.jsonl", "bit_patterns.jsonl")
ROWS = 1 << 16


def orbit_ball_config() -> dict:
    """The benchmark's orbit ball job."""
    plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**4)
    entries = {str(i): [c.real, c.imag] for i, c in plan.candidate.entries.items()}
    return {"scenario": "orbit", "space": {"kind": "lp", "p": 2},
            "weights": {"family": "Constant", "value": 2.0}, "vector": {"entries": entries},
            "target": {"kind": "ball", "center": {"basis": 1}, "radius": 3.0 * plan.alpha(3)},
            "exponents": "linear", "horizon": 10**4}


def csv_writer_bytes(header, columns) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return buf.getvalue().encode("utf-8")


def same_as_json_dumps(path, keys, columns) -> bool:
    """The file holds json.dumps of each record, compared ROWS records at a
    time."""
    with open(path, "rb") as fh:
        for lo in range(0, len(columns[0]), ROWS):
            rows = zip(*(c[lo : lo + ROWS].tolist() for c in columns))
            want = "".join(json.dumps(dict(zip(keys, row)), sort_keys=True) + "\n"
                           for row in rows).encode("utf-8")
            if fh.read(len(want)) != want:
                return False
        return fh.read() == b""


def traced_peak(write, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of the call write(*args)."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    cells, records = {}, {}
    write_csv, write_jsonl = cli.write_csv, cli.write_jsonl

    def keep(path, header, columns):
        cells[path] = (header, columns)
        write_csv(path, header, columns)

    def keep_records(path, keys, columns):
        records[path] = (keys, columns)
        write_jsonl(path, keys, columns)

    cli.write_csv, cli.write_jsonl = keep, keep_records
    with tempfile.TemporaryDirectory() as out:
        for scenario, config in dict(CONFIGS, orbit=orbit_ball_config()).items():
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
        n = np.arange(1, 10**6 + 1)
        values = np.random.default_rng(1).integers(0, 2**64, 10**6, dtype=np.uint64)
        keys = ("n", "exponent", "value", "hit")
        columns = [n, 3 * n, values.view(np.float64), n % 3 == 0]
        jsonl_peak = traced_peak(keep_records, os.path.join(out, "bit_patterns.jsonl"), keys,
                                 columns)
        csv_peak = traced_peak(write_csv, os.path.join(out, "bit_columns.csv"), keys, columns)
        streams = jsonl_peak <= 2 * csv_peak
        print(f"bit_patterns.jsonl: write_jsonl peaks at {jsonl_peak / 1e6:.1f} MB, write_csv "
              f"at {csv_peak / 1e6:.1f} MB on the same columns, "
              f"{'within' if streams else 'PAST'} twice its peak")
        status |= not streams
        for path, (keys, columns) in sorted(records.items()):
            name = os.path.basename(path)
            if name not in JSONL_CHECKED:
                continue
            same = same_as_json_dumps(path, keys, columns)
            print(f"{name}: {len(columns[0])} records, {'same' if same else 'DIFFERENT'} bytes")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
