import cmath
import dataclasses
import hashlib
import math

import pytest

from shiftlab import constructor
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
from shiftlab.criterion import qfhc_check
from shiftlab.errors import ConstructionRefusedError, InvalidArgumentError, ResourceLimitError
from shiftlab.density import iroot
from shiftlab.seqspace import (
    BILATERAL,
    UNILATERAL,
    CoeffVector,
    c0,
    entire,
    fnorm,
    lp,
    scale,
    weakstar_gap,
)
from shiftlab.shiftops import (
    BACKWARD,
    FORWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    OperatorSpec,
    iterate,
    orbit_batch,
)

E1 = CoeffVector.basis(1)


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


class TestBuildVector:
    def test_block_norms_below_schedule(self):
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3), horizon=10**3)
        for k, bn in enumerate(plan.block_norms, start=1):
            assert bn <= plan.schedule.eps(k) * (1 + 1e-9)
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

    @pytest.mark.parametrize("q, reach", [(4, 53), (11, 4)])
    def test_q_past_the_certificate_reach_refused_before_any_read(self, q, reach):
        # a 64-term window passes the 2^23 prefix cap at q = 4 (64^4 = 2^24),
        # and 64^11 wraps int64
        w = ConstantWeight(2)
        reads = []
        at = w._at
        w._at = lambda points, phase=True: reads.append(points) or at(points, phase)
        match = f"q={q} leaves {reach} terms within the 2\\^23 prefix reach"
        with pytest.raises(InvalidArgumentError, match=match):
            build_vector(lp(2), w, q, canonical_targets(2), horizon=10**4)
        with pytest.raises(InvalidArgumentError, match=match):
            select_Nk(lp(2), w, q, canonical_targets(2))
        assert reads == []

    def test_supplied_nseq_needs_no_certificate_window(self):
        plan = build_vector(lp(2), ConstantWeight(2), 4, canonical_targets(2),
                            horizon=10**4, nseq=(1, 2))
        assert plan.nseq == (1, 2) and plan.candidate

    @pytest.mark.parametrize("supplied", [False, True])
    def test_criterion_runs_once_per_build(self, monkeypatch, supplied):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return qfhc_check(*args, **kwargs)

        monkeypatch.setattr(constructor, "qfhc_check", counting)
        nseq = (2, 5) if supplied else None
        build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(2), horizon=100, nseq=nseq)
        assert len(calls) == 1

    def test_supplied_nseq_matches_selected(self):
        targets = canonical_targets(3)
        auto = build_vector(lp(2), ConstantWeight(2), 1, targets, horizon=10**3)
        given = build_vector(
            lp(2), ConstantWeight(2), 1, targets, horizon=10**3, nseq=list(auto.nseq)
        )
        assert given.nseq == auto.nseq
        assert given.selection == ()
        assert given.candidate == auto.candidate
        assert given.criterion.satisfied

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

    def test_supplied_nseq_refused_when_criterion_fails(self):
        with pytest.raises(ConstructionRefusedError) as exc:
            build_vector(lp(2), BergmanWeight(), 1, [E1], nseq=(2,))
        assert exc.value.report.overall == "fails"

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
                idxs, lms, _, _ = orbit_batch(op, x, [steps * power])
                mags = {i: math.exp(lm) for i, lm in zip(idxs.tolist(), lms.tolist())}
                hit = bool(target.predicate(mags))
                value = max(mags.values(), default=0.0)
            else:
                value = weakstar_gap(iterate(op, x, steps), target.center, target.functionals)
                hit = value < target.eps
            want.append({"n": n, "exponent": steps * power, "value": value, "hit": hit})
        assert [repr(e) for e in got.events] == [repr(e) for e in want]
        assert any(e["hit"] for e in want) and not all(e["hit"] for e in want)


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
        got = constructor._t_norms(space, w, q, x, n_max)
        op = OperatorSpec(w, BACKWARD)
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

    def test_modulus_ball_target(self):
        tgt = modulus_ball(0.5)
        assert tgt.predicate({1: 0.2, 5: 0.4})
        assert not tgt.predicate({1: 0.7})

    def test_event_log_shape(self):
        r = hit_experiment(
            lp(2),
            OperatorSpec(ConstantWeight(2), BACKWARD),
            E1,
            BallTarget(E1, 0.1),
            horizon=5,
        )
        assert len(r.events) == 5
        assert set(r.events[0]) == {"n", "exponent", "value", "hit"}

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

    # orbits have no step limit of their own; only prefix indices are capped
    STEP_TARGETS = [
        modulus_exceeds(1, 0.5),
        BallTarget(E1, 0.5),
        WeakStarTarget(E1, coordinate_functionals(1), 0.5),
    ]

    @pytest.mark.parametrize("target", STEP_TARGETS, ids=["modulus", "ball", "weakstar"])
    def test_backward_orbit_past_support_is_zero_at_any_step(self, target):
        # 3 * 2^22 shift steps exceed the prefix cap, but every term has
        # fallen off the edge, so no prefix index is touched
        op = OperatorSpec(ConstantWeight(2), BACKWARD, power=2**22)
        r = hit_experiment(lp(2), op, E1, target, horizon=3)
        assert len(r.events) == 3
        assert len(r.hits) == 0
        if isinstance(target, BallTarget):
            # the distance of the zero orbit to e_1
            assert [e["value"] for e in r.events] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("target", STEP_TARGETS, ids=["modulus", "ball", "weakstar"])
    def test_forward_orbit_past_prefix_cap_raises(self, target):
        op = OperatorSpec(ConstantWeight(2), FORWARD, power=2**23)
        with pytest.raises(ResourceLimitError):
            hit_experiment(lp(2), op, E1, target, horizon=3)


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
