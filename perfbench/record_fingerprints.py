#!/usr/bin/env python3
"""Record the correctness fingerprints that run.py compares each run with.

    python3 perfbench/record_fingerprints.py

Runs one full-size pass of every workload for each of SEEDS and rewrites
perfbench/fingerprints.json.  Entries equal for every recorded seed are
stored once under "common" and checked for any seed; the rest are kept
per seed.  The construct-verify counts, and the hit count of the rotated
modulus orbit, must be common: they may not depend on the seed's phase.
Re-record only when a change to the program is meant to change a result,
and say why in CHANGES.md.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SEEDS = range(0, 11)

# fingerprint entries that must be the same for every seed
PHASE_FREE = {
    "construct-verify": ("Nseq", "support", "checks", "violations", "edges", "vacuous"),
    "orbit-density": ("orbit modulus hits",),
}


def main():
    out = {}
    for name, cls in wl.WORKLOADS.items():
        per_seed = {}
        for seed in SEEDS:
            os.makedirs(WORK, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                work = cls(seed, tmp)
                res = work.check(work.run_pass())
            if res.failed or res.check_errors:
                raise SystemExit(f"{name} seed {seed}: {res.failed} {res.check_errors}")
            per_seed[str(seed)] = res.fingerprint
            print(f"{name} seed {seed}: {len(res.fingerprint)} entries", flush=True)
        first = next(iter(per_seed.values()))
        common = {k: v for k, v in first.items()
                  if all(fp.get(k) == v for fp in per_seed.values())}
        for key in first:
            if key.endswith(PHASE_FREE.get(name, ())) and key not in common:
                raise SystemExit(f"{name}: {key!r} differs between seeds")
        out[name] = {
            "common": common,
            "seeds": {s: {k: v for k, v in fp.items() if k not in common}
                      for s, fp in per_seed.items()},
        }
    with open(os.path.join(HERE, "fingerprints.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
