#!/usr/bin/env python3
"""Cross-check of the three single-call baselines listed in ROADMAP.md.

    python3 perfbench/probes.py

Times, each with fresh weight objects so the prefix cache starts cold:
the bilateral-table criterion check (q=1, j=-2..2), ``hit_experiment``
on the Constant(2) k=3 candidate (support 307, horizon 1e4, powers
exponents, ball of radius 3*alpha_3 around x_1), and ``verify_eq33`` on
that candidate (2857 checks).  Prints the median and range of REPEATS
calls per probe and the process's peak RSS after each probe.
"""

import os
import resource
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from shiftlab import (  # noqa: E402
    BACKWARD,
    BallTarget,
    BilateralTableWeight,
    ConstantWeight,
    OperatorSpec,
    build_vector,
    canonical_targets,
    hit_experiment,
    lp,
    qfhc_check,
    verify_eq33,
)


def bilateral(_):
    w = BilateralTableWeight({3: 1.5, -4: 0.75}, 2.0, 0.5)
    return qfhc_check(lp(2, "bilateral"), w, 1, range(-2, 3)).overall


def plan_k3():
    return build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**4)


def hits(plan):
    r = hit_experiment(lp(2), OperatorSpec(plan.weights, BACKWARD), plan.candidate,
                       BallTarget(plan.targets[0], 3 * plan.alpha(3)),
                       exponents="powers", q=1, horizon=10**4)
    return f"{len(r.hits)} hits"


def eq33(plan):
    return f"{len(verify_eq33(plan).checks)} checks"


REPEATS = 3


# (name, untimed set-up, timed call)
PROBES = [
    ("qfhc_check BilateralTable q=1 j=-2..2", lambda: None, bilateral),
    ("hit_experiment Constant(2) support 307 horizon 1e4", plan_k3, hits),
    ("verify_eq33 Constant(2) k=3 horizon 1e4", plan_k3, eq33),
]


def main():
    for name, setup, call in PROBES:
        times = []
        for _ in range(REPEATS):
            state = setup()
            t0 = time.perf_counter()
            out = call(state)
            times.append(time.perf_counter() - t0)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name}: median {statistics.median(times):.3f} s "
              f"(range {min(times):.3f}-{max(times):.3f}, n={len(times)}), "
              f"{out}, peak RSS so far {rss:.0f} MB")


if __name__ == "__main__":
    main()
