"""End-to-end acceptance suite: ten checks, one per numbered criterion.

Each test prints a single PASS line on success (pytest -v also shows one
verdict line per criterion via the test name).
"""

import cmath
import math
import random

import numpy as np

from shiftlab.constructor import (
    BallTarget,
    build_vector,
    canonical_targets,
    coordinate_functionals,
    hit_experiment,
    modulus_exceeds,
    transfer_weakstar,
    verify_eq33,
)
from shiftlab.criterion import (
    CONVERGES,
    DIVERGES,
    FAILS,
    SATISFIES,
    qfhc_check,
    series_probe,
    unilateral_condition,
)
from shiftlab.density import (
    HitSet,
    check_growth_bound,
    generate_jsets,
    q_density_via_ranks,
    q_lower_density,
    shifted_union,
    verify_jsets,
)
from shiftlab.seqspace import CoeffVector, UNILATERAL, c0, lp
from shiftlab.shiftops import (
    BACKWARD,
    BergmanWeight,
    ConstantWeight,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TMuWeight,
    apply,
    iterate,
    smu_power_basis,
    tmu_apply,
)

EULER_GAMMA = 0.5772156649015329


def report(n, msg):
    print(f"ACCEPTANCE {n}: PASS — {msg}")


def test_01_density_exactness():
    squares = HitSet.from_iterable([k * k for k in range(1, 101)], 100**2)
    assert q_lower_density(squares, 2).value == 1.0

    sparse = HitSet.from_iterable(
        [k * k for k in range(1, 100) if k * k <= 3000], 3000
    )
    assert q_lower_density(sparse, 1, burn_in=100).value <= 0.02

    rng = random.Random(42)
    for _ in range(100):
        horizon = rng.randint(2000, 20000)
        frac = rng.uniform(0.05, 0.9)
        times = rng.sample(range(1, horizon + 1), int(frac * horizon))
        hs = HitSet.from_iterable(times, horizon)
        burn = 30
        c = q_lower_density(hs, 1, burn_in=burn).value
        r = q_density_via_ranks(hs, 1, burn_in=burn).value
        assert abs(c - r) <= 1.0 / burn
    report(1, "q-lower density exact on squares; rank and count forms agree")


def test_02_growth_dichotomy():
    quad = HitSet.from_iterable([5 * k * k for k in range(1, 201)], 5 * 200**2)
    g = check_growth_bound(quad, 2)
    assert g.bounded and abs(g.constant - 5.0) <= 1e-12

    expo = HitSet.from_iterable([2**k for k in range(1, 41)], 2**40)
    for q in range(1, 6):
        assert not check_growth_bound(expo, q).bounded
    report(2, "n_k = 5k^2 bounded with C = 5; n_k = 2^k unbounded for q <= 5")


def test_03_separated_classes():
    fam = generate_jsets(tuple(range(10, 81, 10)), horizon=10**5)
    rep = verify_jsets(fam)
    assert rep.disjoint
    assert not rep.gap_violations
    assert not rep.min_bound_violations
    assert all(d > 0 for d in rep.class_densities)

    single = verify_jsets(generate_jsets((10,), horizon=10**5))
    assert abs(single.class_densities[0] - 1.0 / 20.0) <= 1.0 / 10**5
    report(3, "class family verified; K=1 density 1/(2 N_1) within 1/horizon")


def test_04_criterion_calibration():
    geom = series_probe(lp(2), magnitudes=lambda ns: 0.5**ns)
    assert geom.kind == CONVERGES
    assert abs(geom.sum_estimate - 1.0 / 3.0) <= 1e-8

    harm = series_probe(lp(1), magnitudes=lambda ns: 1.0 / ns, max_exp=24)
    assert harm.kind == DIVERGES

    rep2 = qfhc_check(lp(2), BergmanWeight(), 2, [1, 2, 3, 4, 5])
    assert rep2.overall == SATISFIES
    ns = np.arange(1, 10**7 + 1, dtype=np.float64)
    for j in range(1, 6):
        oracle = ((j + 1) / (ns**2 + j + 1)).sum() + (j + 1) / (10**7 + 0.5)
        got = rep2.entry(f"S-series j={j}").verdict.sum_estimate
        assert abs(got - oracle) <= 1e-6, j
    off = unilateral_condition(BergmanWeight(), lp(2), 2, [0])
    oracle0 = (1.0 / (ns**2 + 1)).sum() + 1.0 / (10**7 + 0.5)
    assert abs(oracle0 - 1.0767) < 1e-3
    assert abs(off.entries[0].verdict.sum_estimate - oracle0) <= 1e-6

    rep1 = qfhc_check(lp(2), BergmanWeight(), 1, [1, 2, 3, 4, 5])
    assert rep1.overall == FAILS
    report(4, "geometric/harmonic calibrated; Bergman converges at q=2, diverges at q=1")


def test_05_root_weight_matrix():
    for p in (1, 2, 3):
        w = RootRatioWeight(p)
        for q in range(1, 6):
            rep = unilateral_condition(w, lp(2), q, range(0, 5))
            expect = FAILS if q <= p else SATISFIES
            assert rep.overall == expect, (p, q, rep.overall)
            kinds = {e.verdict.kind for e in rep.entries}
            assert kinds == ({DIVERGES} if q <= p else {CONVERGES})
    report(5, "root-ratio weights: fails for q <= p, satisfies for q >= p+1, all j")


def test_06_reciprocal_sqrt_mechanics():
    # harmonic comparison: sum over k <= K of 1/sqrt(k^2) = H_K > 10 at K = 1e5
    K = 10**5
    ks = np.arange(1, K + 1, dtype=np.float64)
    total = (1.0 / np.sqrt(ks**2)).sum()
    assert total > 10
    assert abs(total - (math.log(K) + EULER_GAMMA)) < 1e-4

    # hit inequality: if sqrt(n_k+1)|x_{n_k+1}| > 1 then
    # sum 1/sqrt(n_k+1) <= l1 norm of x
    rng = random.Random(1)
    for _ in range(100):
        count = rng.randint(1, 30)
        picks = sorted(rng.sample(range(1, 4000), count))
        entries = {
            n + 1: (1.0 + rng.uniform(0.01, 2.0)) / math.sqrt(n + 1) for n in picks
        }
        x = CoeffVector(UNILATERAL, entries)
        assert all(
            math.sqrt(n + 1) * abs(x[n + 1]) > 1 for n in picks
        )
        lhs = sum(1.0 / math.sqrt(n + 1) for n in picks)
        l1 = sum(abs(c) for c in x.entries.values())
        assert lhs <= l1 + 1e-12

    for q in range(1, 5):
        rep = unilateral_condition(LogRatioWeight(), lp(1), q, range(0, 5))
        assert rep.overall == FAILS, q
    report(6, "harmonic lower bound, l1 hit inequality, log-weight divergence for q <= 4")


def test_07_construction_bound():
    targets = canonical_targets(3)
    for w, q in ((ConstantWeight(2), 1), (BergmanWeight(), 2)):
        plan = build_vector(lp(2), w, q, targets, horizon=10**4)
        rep = verify_eq33(plan)
        assert rep.checks, (w.describe(), q)
        for chk in rep.checks:
            assert chk.error <= 3 * plan.alpha(chk.k), chk
        r = hit_experiment(
            lp(2),
            OperatorSpec(w, BACKWARD),
            plan.candidate,
            BallTarget(targets[0], 3 * plan.alpha(3)),
            exponents="powers",
            q=q,
            horizon=10**4,
        )
        assert r.density.positive
        assert r.growth is not None and r.growth.bounded
    report(7, "return bound holds at every interior class time; hit set dense and bounded")


def test_07_construction_bound_past_q3():
    # the tail certificates read their 64 to 4096 terms at every q <= 8
    targets = canonical_targets(3)
    for w, q in ((BergmanWeight(), 4), (BergmanWeight(), 5), (ConstantWeight(2), 4)):
        plan = build_vector(lp(2), w, q, targets, horizon=10**6)
        assert not plan.warnings, (w.describe(), q)
        rep = verify_eq33(plan)
        assert rep.checks, (w.describe(), q)
        assert not rep.violations, (w.describe(), q)
    report(7, "return bound holds at q = 4 and q = 5 too")


def test_08_differentiation_operator():
    rng = random.Random(0)
    for _ in range(100):
        mu = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        deg = rng.randint(0, 8)
        poly = CoeffVector(
            UNILATERAL,
            {
                k + 1: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(deg + 1)
            },
        )
        a = tmu_apply(mu, poly)
        b = apply(OperatorSpec(TMuWeight(mu), BACKWARD), poly)
        assert dict(a.entries) == dict(b.entries)

    for mu in (1.0, 1.5, 2.0, 1 + 1j):
        for k in range(0, 5):
            coeff, deg = 1.0 + 0j, k
            for n in range(1, 11):
                coeff = coeff / ((deg + 1) * complex(mu) ** deg)
                deg += 1
                v = smu_power_basis(mu, k, n)
                assert v.support == (deg + 1,)
                assert abs(v[deg + 1] - coeff) <= 1e-10 * abs(coeff)

    from shiftlab.criterion import fhc_check_tmu

    assert fhc_check_tmu(1.5).overall == SATISFIES
    assert fhc_check_tmu(1.0).overall == SATISFIES

    for mu in (1.5, 1 + 1j):
        w = TMuWeight(mu)
        for n in range(1, 201):
            got = w.prefix(n + 1)
            want_lm = math.lgamma(n + 1) + (n * (n - 1) / 2) * math.log(abs(mu))
            want_ph = (n * (n - 1) / 2) * cmath.phase(mu)
            assert abs(got.logmag - want_lm) <= 1e-9 * max(1.0, abs(want_lm))
            assert abs(got.phase - want_ph) <= 1e-9 * max(1.0, abs(want_ph))
    report(8, "differentiation-operator shift equivalence, inverse powers, prefix identity")


def test_09_symmetry_invariances():
    rng = random.Random(3)
    for trial in range(20):
        lam = (1j, cmath.exp(1j * math.pi / 7))[trial % 2]
        w = ConstantWeight(rng.uniform(1.2, 2.5))
        depth = rng.randint(6, 14)
        x = CoeffVector(
            UNILATERAL,
            {k: rng.uniform(0.1, 1.0) / 1.5**k for k in range(1, depth)},
        )
        tgt = modulus_exceeds(rng.randint(1, 3), rng.uniform(0.05, 0.5))
        base = hit_experiment(
            lp(2), OperatorSpec(w, BACKWARD), x, tgt, horizon=120
        )
        rot = hit_experiment(
            lp(2), OperatorSpec(w, BACKWARD, rotation=lam), x, tgt, horizon=120
        )
        assert rot.hits.times == base.hits.times, trial

    w = ConstantWeight(2)
    v = CoeffVector(UNILATERAL, {k: 1.0 / 2**k for k in range(1, 12)})
    for p in (2, 3):
        a = iterate(OperatorSpec(w, BACKWARD, power=p), v, 3)
        b = iterate(OperatorSpec(w, BACKWARD), v, 3 * p)
        assert dict(a.entries) == dict(b.entries)

    horizon = 2500
    a = HitSet.from_iterable([k * k for k in range(1, 51)], horizon)
    for _ in range(3):
        shifts = [rng.randint(0, 5) for _ in range(3)]
        blocks = [(lambda n, r=r: n % 3 == r, shifts[r]) for r in range(3)]
        out = shifted_union(a, blocks, horizon)
        brute = {
            t + shifts[t % 3]
            for t in a.times
            if t >= 1 and t + shifts[t % 3] <= horizon
        }
        assert set(out.times) == brute
        assert q_lower_density(out, 2).value > 0
    report(9, "rotation and power invariances exact; shifted unions keep positive density")


def test_10_weakstar_transfer():
    targets = canonical_targets(3)
    w = ConstantWeight(2)
    plan = build_vector(c0(), w, 1, targets, horizon=10**4)
    fns = coordinate_functionals(3)
    ws = transfer_weakstar(
        w, plan.candidate, fns, targets[0], eps=0.5, horizon=10**4
    )
    assert ws.density.positive
    ball = hit_experiment(
        c0(),
        OperatorSpec(w, BACKWARD),
        plan.candidate,
        BallTarget(targets[0], 0.5),
        horizon=10**4,
    )
    assert set(ball.hits.times) <= set(ws.hits.times)
    report(10, "weak* hit set has positive density and contains the sup-norm hit set")
