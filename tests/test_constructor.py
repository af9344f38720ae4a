import cmath
import dataclasses
import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import constructor
from shiftlab.cli import main
from shiftlab.constructor import (
    BallTarget,
    EpsilonSchedule,
    WeakStarTarget,
    build_vector,
    canonical_targets,
    coordinate_functionals,
    hit_experiment,
    modulus_ball,
    modulus_exceeds,
    select_Nk,
    transfer_weakstar,
    verify_eq33,
)
from shiftlab.errors import ConstructionRefusedError, InvalidArgumentError, ResourceLimitError
from shiftlab.density import iroot
from shiftlab.seqspace import (
    BILATERAL,
    UNILATERAL,
    CoeffVector,
    c0,
    entire,
    fnorm,
    linf_weakstar,
    lp,
    scale,
    weakstar_gap,
)
from shiftlab import shiftops
from shiftlab.shiftops import (
    BACKWARD,
    FORWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    iterate,
    orbit_batch,
)

E1 = CoeffVector.basis(1)


def event_records(result):
    """A hit experiment's event columns as the records of its JSON-lines log."""
    return [dict(zip(constructor.EVENT_KEYS, row)) for row in result.events]


class TestEpsilonSchedule:
    def test_default_closed_form(self):
        s = EpsilonSchedule()
        for k in range(1, 10):
            assert s.eps(k) == 2.0 ** (-k)
            assert s.alpha(k) == pytest.approx((k + 1) * 2.0 ** (-k))

    def test_alpha_decreasing(self):
        s = EpsilonSchedule()
        alphas = [s.alpha(k) for k in range(1, 21)]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_index_starts_at_one(self):
        with pytest.raises(InvalidArgumentError):
            EpsilonSchedule().eps(0)


class TestCanonicalTargets:
    def test_deterministic(self):
        a = canonical_targets(10)
        b = canonical_targets(10)
        assert a == b

    def test_finitely_supported_nonzero(self):
        for t in canonical_targets(25):
            assert t.entries
            assert max(t.support) <= 3

    def test_ordered_by_support_then_radius(self):
        ts = canonical_targets(60)
        sizes = [max(t.support) for t in ts]
        assert sizes == sorted(sizes)

    def test_first_700_pinned(self):
        # sha256 of the repr of the recursive enumeration that preceded
        # ``itertools.product``: 24 of support 1, 600 of support 2, 76 of support 3
        digest = hashlib.sha256(repr(canonical_targets(700)).encode()).hexdigest()
        assert digest == "9ab9b9d35875eed8643de9a6a0e74b2d371a1eb366079f93546e3ae8c4d94ba1"


class TestThresholdSelection:
    def test_rolewicz_single_target(self):
        # l2 tail of the forward series of e_1 from N: sqrt(sum 4^-n),
        # which first drops below eps_1 = 1/2 at N = 2
        nseq, details = select_Nk(lp(2), ConstantWeight(2), 1, [E1])
        assert nseq == (2,)
        assert details[0].worst_tail == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-6)

    def test_strictly_increasing(self):
        nseq, _ = select_Nk(lp(2), ConstantWeight(2), 1, canonical_targets(4))
        assert all(b > a for a, b in zip(nseq, nseq[1:]))

    def test_bergman_q2_finite(self):
        nseq, _ = select_Nk(lp(2), BergmanWeight(), 2, canonical_targets(4))
        assert len(nseq) == 4

    def test_refusal_carries_report(self):
        with pytest.raises(ConstructionRefusedError) as exc:
            select_Nk(lp(2), BergmanWeight(), 1, [E1])
        assert exc.value.report is not None
        assert exc.value.report.overall == "fails"

    def test_needs_targets(self):
        with pytest.raises(InvalidArgumentError):
            select_Nk(lp(2), ConstantWeight(2), 1, [])

    # the thresholds, which the tail past the window (``_class_tail`` of the
    # family's class) must leave as they were under the two-point power-law fit
    @pytest.mark.parametrize("space, weights, q, k, want", [
        (lp(2), lambda: ConstantWeight(2), 1, 5, (1, 2, 3, 4, 5)),
        (c0(), lambda: ConstantWeight(2), 1, 3, (1, 2, 3)),
        (lp(2), BergmanWeight, 2, 3, (3, 9, 33)),
        (lp(2), BergmanWeight, 3, 4, (2, 3, 5, 9)),
        (lp(1), BergmanWeight, 4, 3, (2, 4, 7)),
        (lp(2), lambda: RootRatioWeight(1), 3, 3, (2, 3, 6)),
        (lp(2), lambda: ConstantWeight(1.01), 1, 4, (198, 267, 337, 407)),
    ], ids=["constant2-l2", "constant2-c0", "bergman-q2", "bergman-q3", "bergman-l1-q4",
            "rootratio1-q3", "constant1.01"])
    def test_thresholds_pinned(self, space, weights, q, k, want):
        assert select_Nk(space, weights(), q, canonical_targets(k))[0] == want

    def test_the_tail_past_the_window_is_the_class_tail(self):
        # Bergman on l^2 at q = 2, j = 1: the squared tail from N = 4096 is
        # sum over n >= 4096 of 2/(n^2 + 2) = (pi a coth(pi a) - 1)/2 - head, a^2 = 2
        tails = constructor._certified_s_tails(lp(2), BergmanWeight(), 2, 1, 4096)
        with mpmath.workdps(30):
            a = mpmath.sqrt(2)
            full = (mpmath.pi * a * mpmath.coth(mpmath.pi * a) - 1) / 2
            want = full - mpmath.fsum(2 / (mpmath.mpf(n) ** 2 + 2) for n in range(1, 4096))
        assert tails[-1] ** 2 == pytest.approx(float(want), rel=1e-7)

    def test_a_window_inside_a_table_head_bounds_nothing_past_it(self):
        # 300 weights 1.05, then 2: the class (log 2) says nothing of the
        # mass past a 64-term window, which is still inside the head
        w = TableWeight([1.05] * 300, 2.0)
        assert np.isinf(constructor._certified_s_tails(lp(2), w, 1, 1, 64)).all()
        # past the head it is exactly geometric: at j = 1 the squared tail
        # from N = 400 is 1.05^-598 4^-101 (4/3)
        tails = constructor._certified_s_tails(lp(2), w, 1, 1, 400)
        assert tails[-1] ** 2 == pytest.approx(1.05**-598 * 4.0**-101 * 4 / 3, rel=1e-12)
        # the 4096-term window of the selection ends past a 300-term head,
        # but inside a 5000-term one
        assert select_Nk(lp(2), w, 1, canonical_targets(4))[0] == (25, 39, 53, 67)
        with pytest.raises(ConstructionRefusedError):
            select_Nk(lp(2), TableWeight([1.05] * 5000, 2.0), 1, canonical_targets(4))

    def test_the_backward_tail_past_the_window_is_certified(self):
        # weights 0.999 on the nonpositive side: ||T^n e_1|| = 2 * 0.999^(n-1),
        # so the T-series mass past the 4096-term window is 2 * 0.999^4096 / 0.001
        w = BilateralTableWeight({}, 2.0, 0.999)
        assert constructor._beyond(w, 1, 1, -1, 1, 4096) == pytest.approx(
            2 * 0.999**4096 / 0.001, rel=1e-12)
        # that mass is above eps_1 = 1/2, so no N in the window certifies
        with pytest.raises(ConstructionRefusedError, match="no N <= 4096"):
            select_Nk(lp(2, BILATERAL), w, 1, canonical_targets(2, BILATERAL))
        # weights 0.5 leave a mass past the window far below every eps_k
        w = BilateralTableWeight({}, 2.0, 0.5)
        assert select_Nk(lp(2, BILATERAL), w, 1, canonical_targets(3, BILATERAL))[0] == (4, 5, 6)

    @pytest.mark.parametrize("j, q, want", [
        (65, 1, 0.0), (66, 1, math.inf), (4097, 2, 0.0), (4225, 2, 0.0), (4226, 2, math.inf)])
    def test_a_unilateral_backward_head_inside_the_window_leaves_no_mass(self, j, q, want):
        # T^(n^q) e_j is 0 once n^q >= j: its head is the iroot(j - 1, q)
        # terms n^q < j, so in a 64-term window j = 64^q + 1 leaves nothing
        # past it and j = 65^q + 1 a term
        assert constructor._beyond(ConstantWeight(2), j, q, -1, 1, 64) == want

    def test_a_mass_the_class_does_not_sum_is_unbounded(self):
        # Bergman on c0 at q = 1: the terms (n + 2)^(-1/2) decay, so the
        # criterion holds, but their mass past the window is not finite
        assert np.isinf(constructor._certified_s_tails(c0(), BergmanWeight(), 1, 1, 64)).all()


class TestBuildVector:
    def test_block_norms_below_schedule(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        for k, bn in enumerate(plan.block_norms, start=1):
            assert bn <= EpsilonSchedule().eps(k) * (1 + 1e-9)
        assert not plan.warnings

    def test_single_target_assembly(self):
        # x = sum over J_1 of 2^-n e_{n+1}
        plan = build_vector(lp(2), ConstantWeight(2), 1, [E1], horizon=200)
        for n in plan.jsets.classes[0]:
            assert plan.candidate[n + 1] == pytest.approx(2.0 ** (-n))

    def test_tiny_horizon_warns(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=8)
        assert any("no elements" in w for w in plan.warnings)

    def test_refusal_propagates(self):
        with pytest.raises(ConstructionRefusedError):
            build_vector(lp(2), BergmanWeight(), 1, [E1])

    @pytest.mark.parametrize("q, reach", [(9, 59), (11, 28)])
    def test_q_past_the_certificate_reach_refused_before_any_read(self, q, reach):
        # a 64-term window passes the exact-index limit at q = 9
        # (64^9 = 2^54), and 64^11 wraps int64
        w = ConstantWeight(2)
        reads = []
        at = w._at
        w._at = lambda points, phase=True: reads.append(points) or at(points, phase)
        match = f"q={q} leaves {reach} terms within the exact-index limit 2\\^53"
        with pytest.raises(InvalidArgumentError, match=match):
            build_vector(lp(2), w, q, canonical_targets(2), horizon=10**4)
        with pytest.raises(InvalidArgumentError, match=match):
            select_Nk(lp(2), w, q, canonical_targets(2))
        assert reads == []

    def test_the_64_term_floor_is_inclusive(self):
        # at j = 2^53 - 64 the window holds exactly 64 terms: selection goes
        # on to the criterion, which Bergman at q = 1 fails; one more is 63
        with pytest.raises(ConstructionRefusedError, match="criterion not satisfied"):
            select_Nk(lp(2), BergmanWeight(), 1, [CoeffVector.basis(2**53 - 64)])
        with pytest.raises(InvalidArgumentError, match="leaves 63 terms"):
            select_Nk(lp(2), BergmanWeight(), 1, [CoeffVector.basis(2**53 - 63)])

    def test_criterion_runs_once_per_build(self, monkeypatch):
        calls = {"qfhc_check": 0, "select_Nk": 0}

        def counting(name, real):
            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return count

        for name in calls:
            monkeypatch.setattr(constructor, name, counting(name, getattr(constructor, name)))
        build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(2), horizon=100)
        assert calls == {"qfhc_check": 1, "select_Nk": 1}

    # Constant(1.1)'s candidate reaches index 7797, past the 4096 entries
    # that the old prefix cache filled on a first small read
    @pytest.mark.parametrize("make,q", [(lambda: ConstantWeight(1.1), 1), (BergmanWeight, 2)])
    @pytest.mark.parametrize("first", [10, 10**6])
    def test_candidate_bytes_do_not_depend_on_earlier_reads(self, make, q, first):
        # prefix products are closed forms: a read before the build, inside
        # or far past the candidate's indices, changes no candidate bit
        fresh = build_vector(lp(2), make(), q, canonical_targets(2), horizon=10**4)
        w = make()
        w.prefix(first)
        after = build_vector(lp(2), w, q, canonical_targets(2), horizon=10**4)
        assert repr(after.selection) == repr(fresh.selection)  # the certified tails
        assert repr(after.candidate.entries) == repr(fresh.candidate.entries)

    def test_steep_power_law_tail_does_not_overflow(self):
        # the certified tails' power-law fit has n_max^s past double range
        plan = build_vector(lp(2), ConstantWeight(1.05), 1, canonical_targets(2), horizon=10**4)
        assert plan.nseq == (25, 39)
        assert len(plan.candidate.entries) == 156
        assert all(math.isfinite(d.worst_tail) for d in plan.selection)


class TestReturnBound:
    def test_rolewicz_interior_times_pass(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(2), horizon=10**3)
        rep = verify_eq33(plan)
        assert rep.checks and rep.ok

    def test_bergman_interior_times_pass(self):
        plan = build_vector(lp(2), BergmanWeight(), 2, canonical_targets(3), horizon=10**4)
        rep = verify_eq33(plan)
        assert rep.checks and rep.ok

    def test_corrupted_candidate_violates(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(2), horizon=10**3)
        bad = dataclasses.replace(plan, candidate=scale(20.0, plan.candidate))
        rep = verify_eq33(bad)
        assert not rep.ok
        assert rep.violations


class TestBatchedOrbitsMatchOneTimeEvaluation:
    """The constructor's batched orbits against one-time ``iterate`` and
    ``orbit_batch`` calls, value for value (``repr``-equal)."""

    @pytest.mark.parametrize("space,w,q,k,horizon", [
        (lp(2), ConstantWeight(2), 1, 3, 10**3),
        (c0(), ConstantWeight(cmath.rect(2.0, 0.9)), 1, 2, 2000),
        (lp(2), BergmanWeight(), 2, 3, 10**4),
    ])
    def test_every_return_bound_error(self, space, w, q, k, horizon):
        plan = build_vector(space, w, q, canonical_targets(k), horizon=horizon)
        rep = verify_eq33(plan)
        op = OperatorSpec(w, BACKWARD)
        assert rep.checks
        for c in rep.checks:
            want = fnorm(space, iterate(op, plan.candidate, c.m**q) - plan.targets[c.k - 1])
            assert repr(c.error) == repr(want)

    def test_candidate_blocks_accumulate_n_then_j(self):
        targets = canonical_targets(4)
        plan = build_vector(lp(2), ConstantWeight(1.5j), 1, targets, horizon=600)
        fwd = OperatorSpec(plan.weights, FORWARD)
        entries = {}
        for x_k, cls in zip(targets, plan.jsets.classes):
            block = {}
            for n in cls:
                idxs, lms, phs, _ = orbit_batch(fwd, x_k, [n])
                for idx, lm, ph in zip(idxs.tolist(), lms.tolist(), phs.tolist()):
                    block[idx] = block.get(idx, 0j) + cmath.rect(math.exp(lm), ph)
            for idx, val in block.items():
                entries[idx] = entries.get(idx, 0j) + val
        want = CoeffVector(UNILATERAL, entries)
        assert [(i, repr(c)) for i, c in plan.candidate.entries.items()] == [
            (i, repr(c)) for i, c in want.entries.items()]

    @pytest.mark.parametrize("kind", ["ball", "modulus", "weakstar"])
    @pytest.mark.parametrize("exponents,q,power", [("linear", 1, 1), ("powers", 2, 2)])
    def test_hit_events(self, kind, exponents, q, power):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        x, horizon = plan.candidate, 1200
        op = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=cmath.exp(0.3j), power=power)
        if kind == "ball":
            # a ball that excludes 0, so that misses happen too
            target = BallTarget(plan.targets[0], 0.9 * fnorm(lp(2), plan.targets[0]))
        elif kind == "modulus":
            target = modulus_exceeds(2, 0.2)
        else:
            target = WeakStarTarget(plan.targets[0], coordinate_functionals(3), 0.5)
        got = hit_experiment(lp(2), op, x, target, exponents=exponents, q=q, horizon=horizon)
        want = []
        for n in range(1, iroot(horizon, q) + 1):
            steps = n**q
            if kind == "ball":
                value = fnorm(lp(2), iterate(op, x, steps) - target.center)
                hit = value < target.radius
            elif kind == "modulus":
                # the modulus at the index, of the orbit with the rotation dropped
                value = abs(iterate(dataclasses.replace(op, rotation=1.0), x, steps)[target.index])
                hit = value > target.threshold
            else:
                value = weakstar_gap(iterate(op, x, steps), target.center, target.functionals)
                hit = value < target.eps
            want.append({"n": n, "exponent": steps * power, "value": value, "hit": hit})
        assert [repr(e) for e in event_records(got)] == [repr(e) for e in want]
        assert any(e["hit"] for e in want) and not all(e["hit"] for e in want)

    @pytest.mark.parametrize("kind", ["ball", "weakstar", "modulus_ball", "modulus_exceeds"])
    def test_every_hit_is_its_values_comparison(self, kind):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        op = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=cmath.exp(0.3j), power=2)
        center = plan.targets[0]
        target, bound = {
            "ball": (BallTarget(center, 0.5), 0.5),
            "weakstar": (WeakStarTarget(center, coordinate_functionals(3), 0.5), 0.5),
            "modulus_ball": (modulus_ball(0.3), 0.3),
            "modulus_exceeds": (modulus_exceeds(1, 0.1), 0.1),
        }[kind]
        r = hit_experiment(lp(2), op, plan.candidate, target, horizon=600)
        events = event_records(r)
        assert any(e["hit"] for e in events) and not all(e["hit"] for e in events)
        if kind == "modulus_exceeds":
            assert all(e["hit"] == (e["value"] > bound) for e in events)
        else:
            assert all(e["hit"] == (e["value"] < bound) for e in events)


class TestOrbitValuesFromEntryMaps:
    """Orbit values computed from coefficient maps, with no vector per time."""

    @pytest.mark.parametrize("space,w,x", [
        (lp(2, BILATERAL), BilateralTableWeight({-2: 3.0, 0: 0.5j, 4: -2.0}, 1.5, 0.75j),
         CoeffVector(BILATERAL, {-3: 1.5, 0: complex(-2.0, -0.0), 5: 1 - 1j, 40: 0.25j})),
        (entire(3), ConstantWeight(cmath.rect(0.5, 0.7)),
         CoeffVector(UNILATERAL, {1: 1.0, 3: -0.5j, 9: 2 + 1j, 30: 1e-3})),
    ])
    def test_t_norms_match_fnorm_of_iterate(self, space, w, x):
        q, n_max = 2, 8
        op = OperatorSpec(w, BACKWARD)
        got = constructor._orbit_distances(space, op, x, [n**q for n in range(1, n_max + 1)],
                                           CoeffVector.zero(x.domain))
        want = [fnorm(space, iterate(op, x, n**q)) for n in range(1, n_max + 1)]
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]
        # the unilateral orbit dies once n^q passes its support
        assert (got[-1] == 0.0) == (space.domain == UNILATERAL)

    def test_no_vector_per_checked_time(self, monkeypatch):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        ball = BallTarget(plan.targets[0], 3 * plan.alpha(3))
        built = []
        init = CoeffVector.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoeffVector, "__init__", counting)
        assert verify_eq33(plan).checks
        assert hit_experiment(lp(2), op, plan.candidate, ball, horizon=1000).events
        assert built == []


def _exact_distance(space, op, x, n, center, functionals):
    """The distance at time n in mpmath (50 digits), of the orbit's
    log-polar terms from ``orbit_batch`` taken as exact, and a bound on the
    error of a float evaluation: 4 m eps mass, where m is the time's term
    count (orbit and center merged) and mass the same expression on the
    terms' moduli added without cancellation (Higham's gamma_m times the
    sum of |terms|, section 4.2); plus the underflow floor of m products,
    2^-1074 each (through the p-th root on l^p), and on l^p the skew of a
    root taken at the double nearest 1/p."""
    idx, lm, ph, _ = orbit_batch(op, x, [n * op.power])
    mpf = mpmath.mpf
    with mpmath.workdps(50):
        orbit = {i: mpmath.exp(mpf(a)) * mpmath.expj(mpf(b))
                 for i, a, b in zip(idx.tolist(), lm.tolist(), ph.tolist())}
        keys = sorted(set(orbit) | set(center.entries))
        diff = {i: orbit.get(i, 0) - mpmath.mpc(center[i]) for i in keys}
        mods = {i: abs(orbit.get(i, 0)) + abs(center[i]) for i in keys}
        m, root, skew = max(1, len(keys)), 1, 0
        if functionals is not None:
            exact, mass = (max(abs(mpmath.fsum(d.get(i, 0) * (c if d is diff else abs(c))
                                               for i, c in g.entries.items()))
                               for g in functionals) for d in (diff, mods))
        elif space.kind == "lp":
            root = space.p
            s, s_mass = (mpmath.fsum(abs(v) ** root for v in d.values()) for d in (diff, mods))
            exact, mass = s ** (1 / mpf(root)), s_mass ** (1 / mpf(root))
            skew = abs(exact - s ** mpf(1.0 / root))
        elif space.kind == "c0":
            exact, mass = (max((abs(v) for v in d.values()), default=mpf(0))
                           for d in (diff, mods))
        else:
            exact, mass = (mpmath.fsum(mpf(2) ** -r * cap(mpmath.fsum(
                abs(v) * r ** (i - 1) for i, v in d.items())) for r in range(1, space.rmax + 1))
                for d, cap in ((diff, lambda t: min(1, t)), (mods, lambda t: t)))
        bound = 4 * m * mpf(2) ** -52 * mass + (m * mpf(2) ** -1074) ** (1 / mpf(root)) + skew
        return exact, bound


coefficients = st.builds(
    complex,
    st.floats(-2, 2, allow_subnormal=False),
    st.floats(-2, 2, allow_subnormal=False),
).filter(bool)


@st.composite
def distance_cases(draw):
    """A space, an operator, a vector and a center with overlapping or
    disjoint support, times with and without survivors, and (for the
    weak* gap) functionals."""
    domain = draw(st.sampled_from([UNILATERAL, BILATERAL]))
    kinds = ["l1", "l2", "l3", "c0", "weak*"] + (["entire"] if domain == UNILATERAL else [])
    kind = draw(st.sampled_from(kinds))
    space = {"l1": lp(1, domain), "l2": lp(2, domain), "l3": lp(3, domain),
             "c0": c0(domain), "entire": entire(3), "weak*": linf_weakstar()}[kind]
    lam = cmath.rect(draw(st.floats(0.5, 2.5)), draw(st.floats(-3.1, 3.1)))
    if domain == BILATERAL:
        w = BilateralTableWeight({draw(st.integers(-5, 5)): draw(coefficients)}, lam,
                                 cmath.rect(draw(st.floats(0.5, 2.0)), 0.4))
        low = -12
    else:
        w = draw(st.sampled_from([ConstantWeight(lam), TableWeight([draw(coefficients)], lam)]))
        low = 1
    rotation = draw(st.sampled_from([1.0, cmath.exp(0.7j), cmath.exp(-2.9j)]))
    op = OperatorSpec(w, draw(st.sampled_from([BACKWARD, FORWARD])), rotation=rotation,
                      power=draw(st.sampled_from([1, 2])))
    indices = st.integers(low, 24)
    x = CoeffVector(domain, draw(st.dictionaries(indices, coefficients, min_size=1,
                                                 max_size=6)))
    ns = draw(st.lists(st.integers(1, 30), min_size=1, max_size=10))
    if draw(st.booleans()):
        # a center on the support of the orbit at some drawn time
        n = draw(st.sampled_from(ns)) * op.power
        moved = [j - n if op.direction == BACKWARD else j + n for j in x.support]
        picks = [i for i in moved if i >= low]
        center = {i: draw(coefficients) for i in draw(st.lists(st.sampled_from(picks), max_size=3))
                  } if picks else {}
    else:
        center = draw(st.dictionaries(st.integers(low + 40, low + 60), coefficients, max_size=3))
    functionals = None
    if kind == "weak*":
        functionals = tuple(CoeffVector(domain, g) for g in draw(st.lists(
            st.dictionaries(st.integers(low, 12), coefficients, max_size=3), min_size=1,
            max_size=3)))
    return space, op, x, ns, CoeffVector(domain, center), functionals


class TestOrbitDistances:
    """``_orbit_distances`` against mpmath, and the one kernel behind it
    and ``fnorm``/``weakstar_gap``."""

    @settings(max_examples=300, deadline=None)
    @given(distance_cases())
    def test_within_the_error_bound_of_mpmath(self, case):
        space, op, x, ns, center, functionals = case
        got = constructor._orbit_distances(space, op, x, [n * op.power for n in ns], center,
                                           functionals)
        for n, value in zip(ns, got.tolist()):
            exact, bound = _exact_distance(space, op, x, n, center, functionals)
            assert abs(value - exact) <= bound, (n, value, exact, bound)

    @settings(max_examples=200, deadline=None)
    @given(distance_cases())
    def test_fnorm_of_iterate_is_the_orbit_distance(self, case):
        # one kernel: each time's distance has the bits of ``fnorm`` (the
        # weak* gap) of that time's vector
        space, op, x, ns, center, functionals = case
        got = constructor._orbit_distances(space, op, x, [n * op.power for n in ns], center,
                                           functionals)
        for n, value in zip(ns, got.tolist()):
            y = iterate(op, x, n)
            want = (fnorm(space, y - center) if functionals is None
                    else weakstar_gap(y, center, functionals))
            assert value.hex() == want.hex()

    def test_a_dead_tail_reads_the_center_once(self, monkeypatch):
        # the backward orbit of e_1 + ... + e_5 has no term from time 5 on:
        # 10^5 times read a 300-entry center once, and no kernel call merges
        # more than ORBIT_CHUNK_TERMS terms (the center counts at every
        # time with a term)
        monkeypatch.setattr(shiftops, "ORBIT_CHUNK_TERMS", 1000)
        x = CoeffVector(UNILATERAL, {j: 1.0 for j in range(1, 6)})
        center = CoeffVector(UNILATERAL, {j: 0.5 for j in range(1, 301)})
        merged = []
        real = constructor._distances
        monkeypatch.setattr(constructor, "_distances",
                            lambda *a: merged.append(sum(a[4]) + 300 * len(a[4])) or real(*a))
        got = constructor._orbit_distances(lp(2), OperatorSpec(ConstantWeight(2), BACKWARD), x,
                                           np.arange(1, 10**5 + 1), center)
        assert merged == [4 + 3 + 2 + 3 * 300, 1 + 2 * 300]
        assert len(got) == 10**5 and (got[4:] == fnorm(lp(2), -center)).all()

    # each part below 2^1023, the modulus past double range
    HUGE = complex(7e307, 7e307)
    OVERFLOWS = {
        # forward Constant(0.5) coefficients grow as 2^n: their square
        # leaves double range at n = 513, the terms themselves at n = 1025
        "exp": (OperatorSpec(ConstantWeight(0.5), FORWARD), {1: 1.0}, {1: 1.0}, range(1, 1100)),
        # at n = 1 the difference at index 1 has a modulus past double range;
        # at n = 2 the orbit is 0 and the distance is the center's norm,
        # whose square overflows
        "abs": (OperatorSpec(ConstantWeight(1.0), BACKWARD), {2: HUGE}, {1: -HUGE}, [1, 2]),
        "dead time first": (OperatorSpec(ConstantWeight(1.0), BACKWARD), {2: HUGE},
                            {1: -HUGE}, [2, 1]),
        # the square at index 1 overflows before the modulus at index 3,
        # and the other way round: either way one error names time 1
        "pow then abs": (OperatorSpec(ConstantWeight(1.0), BACKWARD), {2: 1e200, 4: HUGE},
                         {3: -HUGE}, [1]),
        "abs then pow": (OperatorSpec(ConstantWeight(1.0), BACKWARD), {2: HUGE, 4: 1e200},
                         {1: -HUGE}, [1]),
    }
    TERM = "time 1025: a term of log-magnitude 710.476 is past double range"
    RAISED = {
        ("exp", "l1"): TERM,
        ("exp", "l2"): "time 513: the distance inf is past double range",
        ("exp", "c0"): TERM,
        ("exp", "entire"): TERM,
        ("exp", "weak*"): TERM,
        ("abs", "l1"): "time 1: the distance inf is past double range",
        ("abs", "l2"): "time 1: the distance inf is past double range",
        ("abs", "c0"): "time 1: the distance inf is past double range",
        ("abs", "weak*"): "time 1: the distance inf is past double range",
        ("dead time first", "l1"): "time 1: the distance inf is past double range",
        ("dead time first", "l2"): "time 2: the distance inf is past double range",
        ("dead time first", "c0"): "time 1: the distance inf is past double range",
        ("dead time first", "weak*"): "time 1: the distance inf is past double range",
        **{(case, space): "time 1: the distance inf is past double range"
           for case in ("pow then abs", "abs then pow") for space in ("l1", "l2", "c0", "weak*")},
    }

    @pytest.mark.parametrize("case", OVERFLOWS)
    @pytest.mark.parametrize("name,space", [("l1", lp(1)), ("l2", lp(2)), ("c0", c0()),
                                            ("entire", entire(2)), ("weak*", linf_weakstar())],
                             ids=["l1", "l2", "c0", "entire", "weak*"])
    def test_overflow_raises_one_error_naming_the_first_time(self, name, space, case):
        op, x, center, ns = self.OVERFLOWS[case]
        x, center = CoeffVector(UNILATERAL, x), CoeffVector(UNILATERAL, center)
        functionals = coordinate_functionals(2000) if space.kind == "linf_weakstar" else None
        want = self.RAISED.get((case, name))
        if want is None:
            # an H(C) distance is at most 1 whatever its moduli
            got = constructor._orbit_distances(space, op, x, ns, center, functionals)
            assert ((0 < got) & (got <= 1)).all()
            return
        with pytest.raises(ResourceLimitError, match=f"^{want}$"):
            constructor._orbit_distances(space, op, x, ns, center, functionals)

    def test_overflow_names_the_time_of_the_power(self):
        # forward Constant(0.5) at power 3: time 342 is step 1026, the first
        # whose coefficient 2^1026 leaves double range
        op = OperatorSpec(ConstantWeight(0.5), FORWARD, power=3)
        with pytest.raises(ResourceLimitError, match="^time 342: a term of log-magnitude "
                                                     "711.169 is past double range$"):
            constructor._orbit_distances(c0(), op, E1, [3 * n for n in range(1, 400)], E1)

    def test_orbits_are_checked_once_per_call(self, monkeypatch):
        # chunks of 4 terms: each call runs several batches
        monkeypatch.setattr(shiftops, "ORBIT_CHUNK_TERMS", 4)
        calls = []
        for name in ("_survivors", "_check_anchors", "_check_domains", "_step_array"):
            real = getattr(shiftops, name)
            monkeypatch.setattr(shiftops, name,
                                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        x = CoeffVector(UNILATERAL, {1: 1.0, 3: 0.5j, 7: 2.0, 40: -1.0})
        steps = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        once = ["_check_domains", "_step_array", "_survivors", "_check_anchors"]
        iterate(op, x, 3)
        assert calls == once
        calls.clear()
        constructor._orbit_distances(lp(2), op, x, steps, E1)
        assert calls == once

    def test_the_kernel_runs_once_per_batch(self, monkeypatch):
        # no time builds a vector or map, or calls the kernel of its own
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        calls = []
        real = constructor._distances
        monkeypatch.setattr(constructor, "_distances",
                            lambda *a: calls.append(len(a[4])) or real(*a))
        rep = verify_eq33(plan)
        assert len(calls) == 3 and sum(calls) == len(rep.checks)
        calls.clear()
        weak = WeakStarTarget(plan.targets[0], coordinate_functionals(3), 0.5)
        hit_experiment(linf_weakstar(), op, plan.candidate, weak, horizon=1000)
        assert calls == [1000]


class TestEq33ReportColumns:
    def test_checks_are_the_columns(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        bad = dataclasses.replace(plan, candidate=scale(20.0, plan.candidate))
        rep = verify_eq33(bad)
        assert [(c.k, c.m, c.error, c.bound) for c in rep.checks] == list(zip(
            rep.k.tolist(), rep.m.tolist(), rep.error.tolist(), rep.bound.tolist()))
        assert rep.passed.tolist() == [c.ok for c in rep.checks]
        assert rep.violations == tuple(c for c in rep.checks if not c.ok)
        assert rep.violations and not rep.ok
        assert rep.checks is rep.checks  # built once

    def test_no_interior_time(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(2), horizon=1)
        rep = verify_eq33(plan)
        assert rep.checks == () and rep.ok and rep.violations == ()
        assert rep.error.dtype == float and rep.m.dtype == rep.k.dtype


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestBenchmarkScale:
    """The construct-verify and orbit-density results at the benchmark's
    sizes, pinned when every distance still went through a coefficient
    map per time.  The goldens elsewhere use horizon 300 and k = 2, where
    every return-bound check is vacuous."""

    LAM = 2.0 * complex(math.cos(0.7), math.sin(0.7))

    @pytest.mark.parametrize("space,k,checks,violations,edges,support,errors", [
        (lp(2), 5, 25807, 1595, 0, 278,
         "2f34be839b98bd389d9c9cacb864c7dcdea3a773747d6df8b294fb078ef8f12d"),
        (c0(), 3, 28571, 0, 1, 307,
         "619588f989ec061522febd3dbed35715df4f20254791cbe723fd66ccca4385fc"),
    ], ids=["l2-k5", "c0-k3"])
    def test_construction(self, space, k, checks, violations, edges, support, errors):
        plan = build_vector(space, ConstantWeight(self.LAM), 1, canonical_targets(k),
                            horizon=10**5)
        rep = verify_eq33(plan)
        assert len(plan.candidate.entries) == support
        assert (len(rep.checks), len(rep.violations), len(rep.edge_times)) == (
            checks, violations, edges)
        assert _sha(repr(c.error) for c in rep.checks) == errors

    CONSTANT = {"family": "Constant", "value": repr(LAM)}

    @pytest.mark.parametrize("scenario,config,name,code,rows,digest", [
        ("construct", {"space": {"kind": "lp", "p": 2}, "weights": CONSTANT, "k": 5,
                       "horizon": 10**5}, "eq33.csv", 2, 25807,
         "765eb3a498a8c6df459259d08114635e36673e88c81e0bbb26e20994b8a3a29e"),
        ("construct", {"space": {"kind": "c0"}, "weights": CONSTANT, "k": 3,
                       "horizon": 10**5}, "eq33.csv", 0, 28571,
         "f00c64e6dff21556126a808febc69d99e159a4b8827843055837912b79a2f0d6"),
        ("jsets", {"nseq": [1, 2, 3, 4, 5], "horizon": 10**6}, "jsets.csv", 0, 258065,
         "a6799e6ae488e4d0bda14339d440737f56833efaa2e68f7c4643592bdf543207"),
    ], ids=["eq33-l2-k5", "eq33-c0-k3", "jsets-1e6"])
    def test_cli_csv_bytes(self, tmp_path, scenario, config, name, code, rows, digest):
        # the bytes write_csv writes for the benchmark's largest CSVs,
        # recorded when every numeric chunk was a single %-format
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": scenario, **config}), encoding="utf-8")
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        data = (tmp_path / "out" / name).read_bytes()
        assert data.count(b"\n") == rows + 1
        assert hashlib.sha256(data).hexdigest() == digest

    def test_orbit_ball(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**4)
        ball = BallTarget(E1, 3 * plan.alpha(3))
        r = hit_experiment(lp(2), OperatorSpec(ConstantWeight(2), BACKWARD), plan.candidate,
                           ball, horizon=10**4)
        assert len(r.hits) == 9846
        assert _sha(json.dumps(e, sort_keys=True) for e in event_records(r)) == (
            "8e485bcf835cd07357fb4b1a363c89456b3d576588b5625da0c325ecfce54980")
        # the exact distance at n = 1072 is the radius 1.5; rounding puts it
        # just outside
        assert event_records(r)[1071] == {"n": 1072, "exponent": 1072,
                                         "value": 1.5000000000000275, "hit": False}


class TestHitExperiments:
    def test_dead_orbit_has_empty_hit_set(self):
        r = hit_experiment(
            lp(2),
            OperatorSpec(ConstantWeight(2), BACKWARD),
            E1,
            BallTarget(E1, 0.1),
            horizon=100,
        )
        assert len(r.hits) == 0
        assert r.growth is None
        assert r.density.value == 0.0

    def test_class_times_are_hits(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        r = hit_experiment(
            lp(2),
            OperatorSpec(ConstantWeight(2), BACKWARD),
            plan.candidate,
            BallTarget(plan.targets[0], 3 * plan.alpha(3)),
            horizon=10**3,
        )
        interior = [m for m in plan.jsets.classes[0] if m <= 10**3 - 1]
        assert set(interior) <= set(r.hits.times)
        assert r.density.positive

    def test_rotation_leaves_modulus_hits_unchanged(self):
        w = ConstantWeight(2)
        x = CoeffVector(UNILATERAL, {k: 1.0 / 2**k for k in range(1, 12)})
        tgt = modulus_exceeds(1, 0.3)
        base = hit_experiment(lp(2), OperatorSpec(w, BACKWARD), x, tgt, horizon=200)
        for lam in (1j, cmath.exp(1j * math.pi / 7)):
            rot = hit_experiment(
                lp(2), OperatorSpec(w, BACKWARD, rotation=lam), x, tgt, horizon=200
            )
            assert rot.hits.times == base.hits.times

    def test_modulus_targets_carry_their_data(self):
        assert modulus_ball(0.5) == constructor.ModulusTarget(None, 0.5)
        assert modulus_ball(0.5).describe() == "max|y_n| < 0.5"
        assert modulus_exceeds(3, 0.25) == constructor.ModulusTarget(3, 0.25)
        assert modulus_exceeds(3, 0.25).describe() == "|y_3| > 0.25"

    def test_modulus_ball_hits(self):
        x = CoeffVector(UNILATERAL, {1: 0.2, 3: 0.7})
        r = hit_experiment(lp(2), OperatorSpec(ConstantWeight(1), BACKWARD), x,
                           modulus_ball(0.5), horizon=4)
        # times 1 and 2 move 0.7 to indices 2 and 1 (a modulus by libm's exp
        # of its log); from time 3 the orbit is zero, whose largest modulus is 0
        top = math.exp(math.log(0.7))
        assert [(e["value"], e["hit"]) for e in event_records(r)] == [
            (top, False), (top, False), (0.0, True), (0.0, True)]

    def test_modulus_at_an_index_the_orbit_lacks_is_zero(self):
        # a unilateral orbit has no index 0: |y_0| reads 0.0, as at any
        # index past the orbit's support, so it exceeds no threshold >= 0
        x = CoeffVector(UNILATERAL, {1: 0.2, 3: 0.7})
        op = OperatorSpec(ConstantWeight(1), BACKWARD)
        for index in (0, -3, 9):
            r = hit_experiment(lp(2), op, x, modulus_exceeds(index, 0.0), horizon=4)
            assert len(r.hits) == 0
        r = hit_experiment(lp(2), op, x, modulus_exceeds(1, 0.5), horizon=4)
        assert r.hits.times == (2,)

    def test_event_log_shape(self):
        r = hit_experiment(
            lp(2),
            OperatorSpec(ConstantWeight(2), BACKWARD),
            E1,
            BallTarget(E1, 0.1),
            horizon=5,
        )
        assert len(r.events) == 5
        assert set(event_records(r)[0]) == {"n", "exponent", "value", "hit"}

    def test_powers_mode_density_q(self):
        x = CoeffVector(UNILATERAL, {k: 1.0 for k in range(1, 5)})
        r = hit_experiment(
            lp(2),
            OperatorSpec(ConstantWeight(2), BACKWARD),
            x,
            modulus_ball(1e9),
            exponents="powers",
            q=2,
            horizon=400,
        )
        # every probed time n^2 hits the huge ball
        assert r.hits.times == tuple(n * n for n in range(1, 21))
        assert r.density.q == 2

    # orbits have no step limit of their own; only prefix indices are limited
    STEP_TARGETS = [
        modulus_exceeds(1, 0.5),
        BallTarget(E1, 0.5),
        WeakStarTarget(E1, coordinate_functionals(1), 0.5),
    ]

    @pytest.mark.parametrize("target", STEP_TARGETS, ids=["modulus", "ball", "weakstar"])
    def test_backward_orbit_past_support_is_zero_at_any_step(self, target):
        # 3 * 2^60 shift steps pass the exact-index limit, but every term
        # has fallen off the edge, so no prefix index is touched
        op = OperatorSpec(ConstantWeight(2), BACKWARD, power=2**60)
        r = hit_experiment(lp(2), op, E1, target, horizon=3)
        assert len(r.events) == 3
        assert len(r.hits) == 0
        if isinstance(target, BallTarget):
            # the distance of the zero orbit to e_1
            assert [e["value"] for e in event_records(r)] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("target", STEP_TARGETS, ids=["modulus", "ball", "weakstar"])
    def test_forward_orbit_past_the_exact_index_limit_raises(self, target):
        # 2^53 steps from e_1 read P(2^53 + 1)
        op = OperatorSpec(ConstantWeight(2), FORWARD, power=2**53)
        with pytest.raises(ResourceLimitError, match="past the exact-index limit"):
            hit_experiment(lp(2), op, E1, target, horizon=3)
        # 2^23 steps read through: the terms 2^-(2^23) underflow to zero
        r = hit_experiment(lp(2), OperatorSpec(ConstantWeight(2), FORWARD, power=2**23),
                           E1, target, horizon=3)
        assert len(r.events) == 3 and len(r.hits) == 0


    @pytest.mark.parametrize("target", STEP_TARGETS, ids=["modulus", "ball", "weakstar"])
    def test_term_past_double_range_is_refused_by_name(self, target):
        # forward Constant(0.5) from e_1: time 1025 is the first whose
        # coefficient 2^1025 leaves double range, whichever target reads it
        # (on c0, where no norm overflows before it)
        op = OperatorSpec(ConstantWeight(0.5), FORWARD)
        with pytest.raises(ResourceLimitError, match="^time 1025: a term of log-magnitude "
                                                     "710.476 is past double range$"):
            hit_experiment(c0(), op, E1, target, horizon=1100)


class TestWeakStarTransfer:
    def test_norm_hits_included_in_weakstar_hits(self):
        targets = canonical_targets(3)
        w = ConstantWeight(2)
        plan = build_vector(c0(), w, 1, targets, horizon=2000)
        fns = coordinate_functionals(3)
        ws = transfer_weakstar(w, plan.candidate, fns, targets[0], eps=0.5, horizon=2000)
        ball = hit_experiment(
            c0(),
            OperatorSpec(w, BACKWARD),
            plan.candidate,
            BallTarget(targets[0], 0.5),
            horizon=2000,
        )
        assert set(ball.hits.times) <= set(ws.hits.times)
        assert ws.density.positive

    def test_empty_functionals_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeakStarTarget(E1, (), 0.5)
        with pytest.raises(InvalidArgumentError):
            coordinate_functionals(0)
