#!/usr/bin/env python3
"""shiftlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload criterion-grid --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Work runs in this one process with numpy/BLAS pinned to one thread.
The set-up (importing the package in a fresh interpreter, generating the
inputs, and the candidate build of orbit-density) is repeated
SETUP_REPEATS times and the median is reported.
Passes of program work repeat while 3/4 of another still fits in
``--seconds`` (at least one pass); each pass's outputs are checked after
its timers stop.  Each operation is timed, and ``pass_s`` is the sum of
the operations' median scaled times across passes.

The shared host's speed drifts by tens of percent over seconds to
minutes, so every timing is scaled to a reference host speed: a fixed
kernel of interpreter and numpy work (``reference_s``) runs before and
after each set-up and each operation, and a timing is multiplied by
REF_NOMINAL_S over the mean of the two kernel times around it.  Reported
times are seconds on a host where the kernel takes REF_NOMINAL_S.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, and prints the per-layer metrics of the
traced passes plus the tracing overhead; the wrappers are loaded only
then.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 9
REF_NOMINAL_S = 0.08
_REF_DATA = np.random.default_rng(0).random(1 << 20)


def reference_s() -> float:
    """Wall time of a fixed kernel of interpreter and numpy work: the
    yardstick of the host's current speed."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    x = _REF_DATA
    for _ in range(4):
        x = np.sqrt(np.abs(np.sin(x) * 3.0 + 1.0))
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A timing scaled to the host speed at which the kernel takes REF_NOMINAL_S."""
    return seconds * 2.0 * REF_NOMINAL_S / (ref_before + ref_after)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes, for the benchmark's smoke test")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compare_fingerprint(workload: str, seed: int, fp: dict, tiny: bool) -> list[str]:
    """Names whose values differ from the stored fingerprint of this seed
    (seed-independent entries are checked for every seed)."""
    if tiny:
        return []
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as fh:
        stored = json.load(fh).get(workload, {})
    want = dict(stored.get("common", {}))
    want.update(stored.get("seeds", {}).get(str(seed), {}))
    return sorted(k for k, v in want.items() if fp.get(k) != v)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import shiftlab; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        check=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    return float(proc.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    sizes = wl.TINY if args.tiny else wl.FULL
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()
            ref_before = reference_s()
            t0 = time.perf_counter()
            work = wl.WORKLOADS[args.workload](args.seed, workdir, sizes)
            took = time.perf_counter() - t0 + import_seconds()
            raw_setups.append(took)
            setups.append(scaled(took, ref_before, reference_s()))
        print(f"set-up: median {statistics.median(raw_setups):.4f} s, "
              f"scaled {statistics.median(setups):.4f} s")
        return measure(args, wl, work, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def one_pass(work, tracer=None):
    """Run and check one pass; returns (op -> scaled seconds, raw pass
    seconds, check result)."""
    work.clear_outputs()
    gc.collect()
    refs = []

    def before_op(op):
        refs.append(reference_s())
        if tracer is not None:
            tracer.set_request(op)

    if tracer is None:
        outcomes = work.run_pass(on_op=before_op)
    else:
        with tracer.active():
            outcomes = work.run_pass(on_op=before_op)
    refs.append(reference_s())
    times = {o.name: scaled(o.seconds, refs[i], refs[i + 1]) for i, o in enumerate(outcomes)}
    return times, sum(o.seconds for o in outcomes), work.check(outcomes)


def typical_pass_s(op_times: list[dict]) -> float:
    """Sum over operations of each one's median time across passes: a
    median pass that a slow spell in one op of one pass does not move."""
    return sum(statistics.median(t[op] for t in op_times) for op in op_times[0])


def measure(args, wl, work, setup_s) -> int:
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
    deadline = time.perf_counter() + args.seconds
    op_times = {False: [], True: []}
    raw_pass_s = []
    checks = []
    traced_metrics = []
    while True:
        # trace runs alternate: untraced, traced, untraced, ...
        traced = bool(tracer) and len(op_times[False]) > len(op_times[True])
        t_start = time.perf_counter()
        times, raw, res = one_pass(work, tracer if traced else None)
        op_times[traced].append(times)
        raw_pass_s.append(raw)
        checks.append(res)
        if traced:
            traced_metrics.append(tracer.pass_metrics())
        took = time.perf_counter() - t_start
        # a trace run needs one traced pass; otherwise start another pass
        # while at least 3/4 of one still fits
        if tracer and not op_times[True]:
            continue
        if deadline - time.perf_counter() < 0.75 * took:
            break

    attempted = sum(c.attempted for c in checks)
    failed = sum(len(c.failed) for c in checks)
    wrong = sorted({w for c in checks for w in c.wrong})
    bad = sorted({b for c in checks for b in c.bad_sums})
    viol = {op: max(c.eq33_violations.get(op, 0) for c in checks)
            for op in {op for c in checks for op in c.eq33_violations}}
    counters = {
        "wrong_verdicts": statistics.median(len(c.wrong) for c in checks),
        "bad_sums": statistics.median(len(c.bad_sums) for c in checks),
        "eq33_violations": statistics.median(sum(c.eq33_violations.values()) for c in checks),
        "ops_failed_frac": failed / max(1, attempted),
    }
    new_wrong = [w for w in wrong if w not in wl.orc.KNOWN_WRONG_VERDICTS]
    new_bad = [b for b in bad if b not in wl.orc.KNOWN_BAD_SUMS]
    new_viol = [op for op, n in viol.items() if n > wl.orc.KNOWN_EQ33_VIOLATIONS.get(op, 0)]
    check_errors = [e for c in checks for e in c.check_errors]
    drift = [k for c in checks[1:] for k in c.fingerprint
             if c.fingerprint.get(k) != checks[0].fingerprint.get(k)]
    correct = not (failed or new_wrong or new_bad or new_viol or check_errors or drift)

    for c in checks:
        for op, reason in c.failed:
            print(f"failed: {op}: {reason}")
    for e in check_errors:
        print(f"check error: {e}")
    print(f"oracle: wrong verdicts {wrong}; bad sums {bad}; return-bound violations {viol}")
    if new_wrong or new_bad or new_viol:
        print(f"oracle: not in the known-defect list: {new_wrong + new_bad + new_viol}")
    if drift:
        print(f"fingerprint changed between passes: {sorted(set(drift))}")
    mismatches = compare_fingerprint(args.workload, args.seed, checks[0].fingerprint, args.tiny)
    print(f"fingerprint: {len(mismatches)} mismatches with the stored seed {args.seed}"
          + (f": {mismatches}" if mismatches else ""))
    print("counters: " + json.dumps(counters))

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (typical_pass_s(op_times[False]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print("ops: median scaled s " + json.dumps(
            {op: round(statistics.median(t[op] for t in op_times[False]), 4)
             for op in op_times[False][0]}))
        print(f"passes: {len(op_times[False])}; pass wall times "
              f"{[round(t, 3) for t in raw_pass_s]} s, scaled "
              f"{[round(sum(t.values()), 3) for t in op_times[False]]} s")
    else:
        untraced = typical_pass_s(op_times[False])
        metrics = tracer.summarize(traced_metrics)
        metrics["trace.overhead_frac"] = (
            (typical_pass_s(op_times[True]) - untraced) / untraced, "1")
        metrics.update({f"oracle.{k}": (v, "1" if k == "ops_failed_frac" else "count")
                        for k, v in counters.items()})
        path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"passes: {len(op_times[False])} untraced, {len(op_times[True])} traced; "
              f"spans in {path}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
