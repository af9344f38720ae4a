import cmath
import hashlib
import math
import pickle
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab import criterion
from shiftlab.criterion import (
    CONVERGES,
    DIVERGES,
    FAILS,
    INCONCLUSIVE,
    SATISFIES,
    SCAN_TERMS,
    _classify_weighted,
    _scan,
    _shift_series,
    classify_magnitudes,
    classify_sup_decay,
    fhc_check_tmu,
    qfhc_check,
    series_probe,
    unilateral_condition,
)
from shiftlab.errors import DomainMismatchError, InvalidArgumentError, ResourceLimitError
from shiftlab.seqspace import BILATERAL, CoeffVector, c0, entire, linf_weakstar, lp
from shiftlab.shiftops import (
    BACKWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
    iterate,
)


class TestScalarClassifier:
    def test_geometric_converges_with_exact_sum(self):
        v = series_probe(lp(2), magnitudes=lambda ns: 0.5**ns)
        assert v.kind == CONVERGES
        # sum of squared magnitudes: 1/3
        assert abs(v.sum_estimate - 1.0 / 3.0) <= 1e-8

    def test_harmonic_diverges_at_deep_probe(self):
        v = series_probe(lp(1), magnitudes=lambda ns: 1.0 / ns, max_exp=24)
        assert v.kind == DIVERGES

    def test_power_two_converges(self):
        v = series_probe(lp(1), magnitudes=lambda ns: 1.0 / ns.astype(float) ** 2)
        assert v.kind == CONVERGES
        assert abs(v.sum_estimate - math.pi**2 / 6) <= 1e-6

    def test_threshold_divergence(self):
        # terms of 100 diverge as constant terms of 1 do: no size threshold
        v = classify_magnitudes(lambda ns: np.full(len(ns), 100.0), 2**16)
        assert v.kind == DIVERGES
        assert v.rule == "fitted asymptotic class at log n: coefficient 0 > -1"

    def test_condensation_divergence(self):
        v = classify_magnitudes(lambda ns: np.ones(len(ns)), 2**16)
        assert v.kind == DIVERGES
        assert v.rule == "fitted asymptotic class at log n: coefficient 0 > -1"

    def test_harmonic_divergence_on_the_boundary(self):
        # D = -1 within the fit's band reads as exactly -1, so log log n decides
        v = classify_magnitudes(lambda ns: 1.0 / ns, 2**16)
        assert v.kind == DIVERGES
        assert v.rule == "fitted asymptotic class at log log n: coefficient 0 > -1"

    def test_overflowing_terms_diverge(self):
        v = classify_magnitudes(lambda ns: np.exp(ns.astype(float)), 2**12)
        assert v.kind == DIVERGES

    @pytest.mark.parametrize("max_exp", [8, 12])
    def test_c0_overflowing_terms_diverge(self, max_exp):
        # e^4096 overflows to inf in the scan at max_exp 12; at 8 the class's
        # samples from e^(2^30) on do
        v = series_probe(c0(), magnitudes=lambda ns: np.exp(ns.astype(float)), max_exp=max_exp)
        assert v.kind == DIVERGES
        assert v.rule == "term magnitudes do not decay (term overflow)"

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.8))
    def test_geometric_family_converges(self, r):
        v = series_probe(lp(2), magnitudes=lambda ns, _r=r: _r**ns)
        assert v.kind == CONVERGES
        truth = r * r / (1 - r * r)
        assert abs(v.sum_estimate - truth) <= 1e-6 * max(1, truth)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.3, max_value=30.0))
    def test_power_family_converges(self, s):
        # past s = 17 the far samples underflow and the class is fitted nearer
        v = series_probe(
            lp(1), magnitudes=lambda ns, _s=s: ns.astype(float) ** (-_s)
        )
        assert v.kind == CONVERGES
        assert v.sum_estimate == pytest.approx(float(mpmath.zeta(s)), rel=1e-10)

    def test_c0_route_checks_term_decay(self):
        good = series_probe(c0(), magnitudes=lambda ns: 1.0 / ns)
        bad = series_probe(c0(), magnitudes=lambda ns: np.ones(len(ns)))
        assert good.kind == CONVERGES
        assert bad.kind == DIVERGES

    def test_large_terms_of_a_convergent_series_converge(self):
        v = series_probe(lp(1), magnitudes=lambda ns: 1e7 / ns**2)
        assert v.kind == CONVERGES
        assert v.sum_estimate == pytest.approx(1e7 * math.pi**2 / 6, rel=1e-12)

    def test_small_harmonic_terms_diverge(self):
        v = series_probe(lp(1), magnitudes=lambda ns: 1e-10 / ns)
        assert v.kind == DIVERGES

    def test_small_constant_terms_do_not_vanish_in_c0(self):
        v = series_probe(c0(), magnitudes=lambda ns: np.full(len(ns), 1e-9))
        assert v.kind == DIVERGES

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    def test_nan_terms_diverge_as_overflow(self, space):
        v = series_probe(space, magnitudes=lambda ns: np.where(ns > 5, np.nan, 1.0 / ns))
        assert v.kind == DIVERGES
        assert v.rule.endswith(" (term overflow)")
        assert v.checkpoints[-1][1] == math.inf

    def test_finite_terms_past_double_range_diverge(self):
        v = series_probe(lp(1), magnitudes=lambda ns: np.full(len(ns), 1e305), max_exp=12)
        assert v.kind == DIVERGES
        assert v.rule == "partial sum past double range"

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    @pytest.mark.parametrize("max_exp", [0, -1, 2.5, "8"])
    def test_max_exp_must_be_a_positive_integer(self, space, max_exp):
        with pytest.raises(InvalidArgumentError, match="max_exp"):
            series_probe(space, magnitudes=lambda ns: 1.0 / ns, max_exp=max_exp)

    def test_sup_decay_needs_two_terms(self):
        with pytest.raises(InvalidArgumentError):
            classify_sup_decay(lambda ns: 1.0 / ns, 1)

    # n^-18.625 times 10^12 reaches normal range through a subnormal n^-18.625
    @example(lp(1), ("power", 18.625), 12)
    @example(c0(), ("power", 18.625), 12)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([lp(1), lp(2), c0()]),
        st.one_of(
            st.tuples(st.just("geometric"), st.floats(min_value=0.05, max_value=0.8)),
            st.tuples(st.just("power"), st.floats(min_value=1.3, max_value=30.0)),
            st.tuples(st.just("harmonic"), st.just(1.0)),
            st.tuples(st.just("constant"), st.just(1.0)),
        ),
        st.integers(min_value=-12, max_value=12),
    )
    def test_verdict_is_invariant_under_scaling(self, space, family, e):
        name, x = family
        terms = {
            "geometric": lambda ns: x ** ns.astype(float),
            "power": lambda ns: ns.astype(float) ** -x,
            "harmonic": lambda ns: 1.0 / ns,
            "constant": lambda ns: np.ones(len(ns)),
        }[name]
        scale = 10.0**e
        base = series_probe(space, magnitudes=terms, max_exp=16)
        scaled = series_probe(space, magnitudes=lambda ns: scale * terms(ns), max_exp=16)
        assert scaled.kind == base.kind


class TestShiftCriterion:
    def test_rolewicz_satisfies(self):
        rep = qfhc_check(lp(2), ConstantWeight(2), 1, [1, 2, 3])
        assert rep.overall == SATISFIES
        assert rep.satisfied

    def test_unweighted_shift_fails(self):
        rep = qfhc_check(lp(2), ConstantWeight(1), 1, [1, 2, 3])
        assert rep.overall == FAILS

    def test_contractive_weights_fail(self):
        rep = qfhc_check(lp(2), ConstantWeight(0.5), 1, [1, 2])
        assert rep.overall == FAILS

    def test_bergman_dichotomy(self):
        assert qfhc_check(lp(2), BergmanWeight(), 2, [1, 2, 3, 4, 5]).overall == SATISFIES
        assert qfhc_check(lp(2), BergmanWeight(), 1, [1, 2, 3, 4, 5]).overall == FAILS

    def test_bergman_sums_match_oracle(self):
        # S-series squared-norm sums: sum over n of (j+1)/(n^2+j+1)
        rep = qfhc_check(lp(2), BergmanWeight(), 2, [1, 2, 3])
        ns = np.arange(1, 10**7 + 1, dtype=np.float64)
        for j in (1, 2, 3):
            oracle = ((j + 1) / (ns**2 + j + 1)).sum() + (j + 1) / (10**7 + 0.5)
            got = rep.entry(f"S-series j={j}").verdict.sum_estimate
            assert abs(got - oracle) <= 1e-6

    def test_offset_form_matches_quoted_oracle(self):
        rep = unilateral_condition(BergmanWeight(), lp(2), 2, [0])
        got = rep.entries[0].verdict.sum_estimate
        ns = np.arange(1, 10**7 + 1, dtype=np.float64)
        oracle = (1.0 / (ns**2 + 1)).sum() + 1.0 / (10**7 + 0.5)
        assert abs(oracle - 1.0767) < 1e-3  # sanity on the oracle itself
        assert abs(got - oracle) <= 1e-6

    def test_root_weight_pattern(self):
        for p in (1, 2, 3):
            w = RootRatioWeight(p)
            for q in range(1, 6):
                rep = unilateral_condition(w, lp(2), q, range(0, 5))
                expect = FAILS if q <= p else SATISFIES
                assert rep.overall == expect, (p, q, rep.overall)

    def test_log_weight_diverges_every_q(self):
        for q in range(1, 5):
            rep = unilateral_condition(LogRatioWeight(), lp(1), q, range(0, 5))
            assert rep.overall == FAILS, q

    def test_entire_space_route(self):
        # sum of z^n / 2^n has radius of convergence 2, so it is not an
        # entire function: the majorant diverges at radius 2 and up
        rep = qfhc_check(entire(4), ConstantWeight(2), 1, [1])
        v = rep.entry("S-series j=1").verdict
        assert v.kind == DIVERGES
        assert "R=" in v.rule

    @pytest.mark.parametrize("lam, overall, rule", [
        # S^n e_1 = z^n / lam^n has sup (8/|lam|)^n on |z| <= 8
        (2, FAILS, "asymptotic class at n: coefficient 1.38629 > 0 at R=8"),
        (16, SATISFIES, "asymptotic class at n: coefficient -0.693147 < 0 at R=8"),
    ])
    def test_entire_space_decides_the_s_series_at_rmax(self, lam, overall, rule):
        rep = qfhc_check(entire(8), ConstantWeight(lam), 1, [1])
        assert rep.overall == overall
        assert rep.entry("S-series j=1").verdict.rule == rule


def record_reads(w):
    """[reads, largest |index| read] of the prefix reads of ``w`` from now on."""
    seen = [0, 0]
    at = w._at

    def recording(points, phase=True):
        seen[0] += 1
        seen[1] = max(seen[1], int(np.abs(np.asarray(points, dtype=np.int64)).max(initial=0)))
        return at(points, phase)

    w._at = recording
    return seen


class TestExactIndexLimit:
    """Every term's prefix index j +/- n^q stays within 2^53, where an int64
    index converts to float exactly.  A series with fewer than two terms
    inside that limit reads no term: its asymptotic class decides it."""

    @pytest.mark.parametrize("q", [53, 54, 80])
    def test_unilateral_condition_stays_inside_the_limit(self, q):
        w = RootRatioWeight(1)
        seen = record_reads(w)
        rep = unilateral_condition(w, lp(2), q, range(0, 5))
        assert rep.overall == SATISFIES
        assert {e.verdict.rule for e in rep.entries} == {
            f"asymptotic class at log n: coefficient -{q} < -1"}
        assert {e.verdict.checkpoints for e in rep.entries} == {()}
        assert seen == [0, 0]

    @pytest.mark.parametrize("q", [53, 54])
    def test_qfhc_check_stays_inside_the_limit(self, q):
        w = BergmanWeight()
        seen = record_reads(w)
        rep = qfhc_check(lp(2), w, q, [1, 2, 3])
        assert rep.overall == SATISFIES
        assert rep.entry("S-series j=1").verdict.rule == (
            f"asymptotic class at log n: coefficient -{q} < -1")
        assert rep.entry("S-series j=1").verdict.checkpoints == ()
        # the unilateral T-series stays trivially convergent
        assert rep.entry("T-series j=1").verdict.kind == CONVERGES
        assert seen[1] <= 3  # the anchors and the T-series heads only

    @pytest.mark.parametrize("space, coefficient", [
        (lp(2, BILATERAL), "-1.38629"),
        (lp(1, BILATERAL), "-0.693147"),
        (c0(BILATERAL), "-0.693147"),
    ], ids=["l2", "l1", "c0"])
    def test_qfhc_check_on_a_bilateral_space_stays_inside_the_limit(self, space, coefficient):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        seen = record_reads(w)
        rep = qfhc_check(space, w, 54, range(-2, 3))
        assert rep.overall == SATISFIES
        assert len(rep.entries) == 10
        assert {e.verdict.rule for e in rep.entries} == {
            f"asymptotic class at n^54: coefficient {coefficient} < 0"}
        assert {e.verdict.checkpoints for e in rep.entries} == {()}
        assert seen[1] <= 2  # the anchors only

    @pytest.mark.parametrize("j", [2**53 + 1, 2**60, -(2**53) - 1, 2**70])
    @pytest.mark.parametrize("check", ["qfhc", "unilateral", "weakstar", "bilateral", "c0"])
    def test_offsets_past_the_limit_refused_before_any_read(self, check, j):
        w = (BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
             if check in ("bilateral", "c0") else BergmanWeight())
        seen = record_reads(w)
        calls = {
            "qfhc": lambda: qfhc_check(lp(2), w, 1, [1, j]),
            "unilateral": lambda: unilateral_condition(w, lp(2), 1, [j]),
            "weakstar": lambda: unilateral_condition(w, lp(1), 1, [0, j]),
            "bilateral": lambda: qfhc_check(lp(2, BILATERAL), w, 1, [j]),
            "c0": lambda: qfhc_check(c0(BILATERAL), w, 1, [0, j]),
        }
        with pytest.raises(InvalidArgumentError,
                           match=f"^index {j} is past the exact-index limit 2\\^53$"):
            calls[check]()
        assert seen == [0, 0]

    def test_an_offset_at_the_limit_is_accepted(self):
        # j = 2^53 itself is inside: the T-series is a head, the S-series
        # reads no term and its class decides it
        rep = qfhc_check(lp(2), BergmanWeight(), 1, [2**53])
        assert rep.entry(f"T-series j={2**53}").verdict.kind == CONVERGES
        assert rep.entry(f"S-series j={2**53}").verdict.kind == DIVERGES

    def test_q52_still_decides(self):
        # 2^52 <= 2^53: two terms fit, so the scan reports them
        rep = unilateral_condition(RootRatioWeight(1), lp(2), 52, [0])
        assert rep.entries[0].verdict.kind == CONVERGES
        assert [m for m, _ in rep.entries[0].verdict.checkpoints] == [1, 2, 2]

    def test_offset_near_the_limit_cuts_the_scan(self):
        # 2^53 - 100 + n^2 stays within 2^53 up to n = 10
        w = BergmanWeight()
        seen = record_reads(w)
        rep = unilateral_condition(w, lp(2), 2, [2**53 - 100])
        assert [m for m, _ in rep.entries[0].verdict.checkpoints][-1] == 10
        assert seen[1] == 2**53


class TestDeferredReads:
    """A checker's verdict reads only its anchor: its scan and tail run on
    the first read of its checkpoints or sums, once, with the bits an eager
    scan gave."""

    # sha256 of repr(report.entries) over the grid below, pinned from the
    # eager scan, which read every series at the checker call; re-pinned
    # when _class_tail's power-law tail became a float (the same digits)
    SWEEP_GRID_DIGEST = "ea0811b65ec24836b7a3214c8adc1c1427999cd57fd9560e088bbc0787aa8b08"

    def test_benchmark_sweep_grid_reads_terms_only_for_checkpoints_and_sums(self):
        reports, seen = [], {}
        for p in range(1, 11):
            w = RootRatioWeight(p)
            seen[p] = record_reads(w)
            reports += [unilateral_condition(w, lp(2), q, range(0, 5), max_exp=20)
                        for q in range(1, 12)]
        assert [r.overall for r in reports] == [
            FAILS if q <= p else SATISFIES for p in range(1, 11) for q in range(1, 12)]
        assert all(reads == [0, 0] for reads in seen.values())
        verdicts = [e.verdict for r in reports for e in r.entries]
        for v in verdicts:
            v.checkpoints
        scanned = {p: list(reads) for p, reads in seen.items()}
        # 55 series per weight: one scan each, and one tail read at most
        assert all(55 <= reads[0] <= 110 for reads in scanned.values())
        for v in verdicts:
            v.sum_estimate, v.tail_estimate, v.checkpoints
        assert seen == scanned
        digest = hashlib.sha256()
        for r in reports:
            digest.update(repr(r.entries).encode())
        assert digest.hexdigest() == self.SWEEP_GRID_DIGEST

    def test_qfhc_check_overall_reads_only_the_anchors(self):
        w = BergmanWeight()
        seen = record_reads(w)
        assert qfhc_check(lp(2), w, 1, [1, 2, 3, 4, 5]).overall == FAILS
        assert seen == [10, 5]  # P(j), once per series

    def test_sums_are_python_floats_from_every_tail(self):
        # Bergman on l^3 takes the power-law tail, Constant(1.001) on l^2
        # the geometric one
        for w, space in [(BergmanWeight(), lp(3)), (ConstantWeight(1.001), lp(2))]:
            v = unilateral_condition(w, space, 1, [0]).entries[0].verdict
            assert type(v.sum_estimate) is float and type(v.tail_estimate) is float

    def test_a_report_pickles_what_its_verdicts_read(self):
        rep = unilateral_condition(BergmanWeight(), lp(3), 1, [0, 1])
        again = pickle.loads(pickle.dumps(rep))
        assert again == rep and repr(again) == repr(rep)
        assert again.entries[0].verdict.sum_estimate == pytest.approx(2.612375348685488 - 1)

    def test_each_checker_call_decides_each_direction_once(self):
        w = BilateralTableWeight({-3: 3.0, 0: 0.5j}, default_pos=2.0, default_nonpos=0.5)
        sides = []
        asymptotics = w.asymptotics
        w.asymptotics = lambda side=1: sides.append(side) or asymptotics(side)
        assert qfhc_check(lp(2, BILATERAL), w, 1, range(-2, 3)).overall == SATISFIES
        assert sorted(sides) == [-1, 1]
        assert qfhc_check(c0(BILATERAL), w, 1, range(-2, 3)).overall == SATISFIES
        assert sorted(sides) == [-1, -1, 1, 1]

    @pytest.mark.parametrize("space, w, j, direction, far", [
        (c0(), BergmanWeight(), 2**53 - 2, 1, 2**53 + 8),
        (entire(4), BergmanWeight(), 2**53 - 2, 1, 2**53 + 8),
        (c0(BILATERAL), BilateralTableWeight({}, 1.0, 1.0), -(2**53) + 2, -1, -(2**53) - 8),
    ], ids=["c0", "entire", "bilateral"])
    def test_a_scan_past_the_limit_is_refused_by_the_call(self, space, w, j, direction, far):
        # a checker's ``_offsets`` keeps every scan inside 2^53; a verdict
        # asked for a longer one, here P(j +/- 10), checks its range when made
        verdict = _classify_weighted(space, w, 1, 10)
        with pytest.raises(ResourceLimitError,
                           match=f"^prefix index {far} is past the exact-index limit 2\\^53$"):
            verdict(j, direction, j)


class TestAnchorPrecision:
    """An anchored log term P(j) - P(m) is refused before any of its terms
    is read when |P(j)| >= 2^27, where it could lose more than 2^-24."""

    def test_constant_anchor_refused(self):
        # |P(2^40)| = 2^40 log 2, about 7.6e11
        message = (r"^anchor 1099511627776: \|P\(1099511627776\)\| = 7\.62123e\+11 >= 2\^27, "
                   r"so each log term P\(1099511627776\) - P\(m\) may be off by 2 ulp = "
                   r"0\.000244$")
        j = 2**40
        for w, space in ((ConstantWeight(2), lp(2)),
                         (BilateralTableWeight({}, 2.0, 0.5), lp(2, BILATERAL))):
            sizes = []
            at = w._at
            w._at = lambda points, phase=True: sizes.append(np.size(points)) or at(points, phase)
            with pytest.raises(ResourceLimitError, match=message):
                qfhc_check(space, w, 1, [j])
            assert sizes == [1]  # the anchor alone

    def test_unanchored_series_are_not_checked(self):
        # -P(2^40 + n) does not cancel: the offset is read, not refused
        v = unilateral_condition(ConstantWeight(2), lp(2), 1, [2**40]).entries[0].verdict
        assert v.kind == CONVERGES and v.checkpoints

    def test_limit_admits_every_anchor_up_to_2_23_of_slow_families(self):
        # lgamma(2^23) is about 1.25e8 < 2^27
        for w in (ConstantWeight(math.exp(15.99)), ConstantWeight(-math.exp(-15.99)),
                  BergmanWeight(), LogRatioWeight(), RootRatioWeight(1), TMuWeight(1),
                  TMuWeight(-1j)):
            assert qfhc_check(c0(), w, 1, [2**23]).overall in (SATISFIES, FAILS), w.describe()

    def test_bergman_far_anchor_is_decided_from_short_reads(self):
        w = BergmanWeight()
        sizes = []
        at = w._at
        w._at = lambda points, phase=True: sizes.append(np.size(points)) or at(points, phase)
        rep = qfhc_check(lp(2), w, 1, [2**40])
        t = rep.entry("T-series j=1099511627776").verdict
        assert rep.entry("S-series j=1099511627776").verdict.kind == DIVERGES
        assert t.kind == CONVERGES and t.sum_estimate is None and t.tail_estimate is None
        # the 2^40 - 1 term head is read up to SCAN_TERMS
        assert t.checkpoints[-1][0] == SCAN_TERMS
        assert max(sizes) <= SCAN_TERMS

    @pytest.mark.parametrize("j", [2, 5, 40])
    def test_a_whole_t_series_head_keeps_its_sum(self, j):
        w = BergmanWeight()
        t = qfhc_check(lp(2), w, 2, [j]).entry(f"T-series j={j}").verdict
        _, want = reference_t_head(lp(2), w, 2, j)
        assert t.sum_estimate == pytest.approx(want, rel=1e-14)
        assert t.tail_estimate == 0.0


def _hurwitz_sum(q, s, c, scale=1.0, head=64):
    """scale * sum over n >= 1 of (n^q + c)^(-s): the head to N exactly, then
    sum_k binom(-s, k) c^k zeta(qs + qk, N + 1)."""
    with mpmath.workdps(40):
        s, c = mpmath.mpf(s), mpmath.mpf(c)
        total = mpmath.fsum((mpmath.mpf(n) ** q + c) ** -s for n in range(1, head + 1))
        total += mpmath.fsum(mpmath.binomial(-s, k) * c**k * mpmath.zeta(q * s + q * k, head + 1)
                             for k in range(12))
        return float(scale * total)


class TestWeightedSumsAgainstHurwitzZeta:
    @pytest.mark.parametrize("w, p, q, j, want", [
        # Bergman: -P(n^q + j) = -log(n^q + j + 1)/2, terms (n^q + j + 1)^(-1/2) on l^1
        (BergmanWeight(), 1, 3, 0, lambda: _hurwitz_sum(3, 0.5, 1)),
        (BergmanWeight(), 1, 4, 0, lambda: _hurwitz_sum(4, 0.5, 1)),
        (BergmanWeight(), 1, 5, 0, lambda: _hurwitz_sum(5, 0.5, 1)),
        # at q = 1 the offset shifts the power law by j + 1, which a fit in n
        # alone reads as a wrong exponent
        (BergmanWeight(), 3, 1, 0, lambda: _hurwitz_sum(1, 1.5, 1)),
        (BergmanWeight(), 3, 1, 5, lambda: _hurwitz_sum(1, 1.5, 6)),
        # RootRatio(2): -2 P(n^3) = -log((n^3 + 2)/2)/2, terms sqrt(2) (n^3 + 2)^(-1/2)
        (RootRatioWeight(2), 2, 3, 0, lambda: _hurwitz_sum(3, 0.5, 2, math.sqrt(2))),
    ], ids=["bergman l1 q=3", "bergman l1 q=4", "bergman l1 q=5", "bergman l3 q=1",
            "bergman l3 q=1 j=5", "rootratio(2) l2 q=3"])
    def test_unilateral_sum_within_1e_10(self, w, p, q, j, want):
        v = unilateral_condition(w, lp(p), q, [j]).entries[0].verdict
        assert v.kind == CONVERGES
        assert abs(v.sum_estimate / want() - 1) <= 1e-10

    @pytest.mark.parametrize("max_exp", [1, 2, 4, 11, 12, 20])
    def test_a_scan_max_exp_cuts_short_gets_no_power_law_tail(self, max_exp):
        # the power-law tail past n terms misses zeta(1.5) - 1 by a relative
        # 3.4e-5 at n = 2 and 2.5e-8 at n = 16: only a full scan is summed
        rep = unilateral_condition(BergmanWeight(), lp(3), 1, [0], max_exp=max_exp)
        v = rep.entries[0].verdict
        assert v.kind == CONVERGES
        assert v.checkpoints[-1][0] == min(2**max_exp, SCAN_TERMS)
        if 2**max_exp < SCAN_TERMS:
            assert v.sum_estimate is None and v.tail_estimate is None
        else:
            assert abs(v.sum_estimate / _hurwitz_sum(1, 1.5, 1) - 1) <= 1e-14

    @pytest.mark.parametrize("max_exp, summed", [(10, False), (11, True), (20, True)])
    def test_a_scan_the_exact_index_limit_cuts_keeps_its_sum(self, max_exp, summed):
        # at q = 5, 1552 terms fit within 2^53: max_exp 10 asks for fewer
        rep = unilateral_condition(BergmanWeight(), lp(1), 5, [0], max_exp=max_exp)
        v = rep.entries[0].verdict
        assert v.checkpoints[-1][0] == min(2**max_exp, 1552)
        if summed:
            assert abs(v.sum_estimate / _hurwitz_sum(5, 0.5, 1) - 1) <= 1e-10
        else:
            assert v.sum_estimate is None


class TestBilateral:
    """``qfhc_check`` on l^p(Z) and c0(Z): the S-series of reciprocal
    products forward and the T-series of products backward, both anchored
    at P(j)."""

    def test_expanding_both_sides_satisfies(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = qfhc_check(lp(2, BILATERAL), w, 1, range(-2, 3))
        assert rep.overall == SATISFIES

    def test_symmetric_weights_fail(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=2.0)
        rep = qfhc_check(lp(2, BILATERAL), w, 1, range(-2, 3))
        assert rep.overall == FAILS

    def test_c0_limit_route(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = qfhc_check(c0(BILATERAL), w, 1, range(-1, 2))
        assert rep.overall == SATISFIES

    def test_contracting_table_fails_on_both_sides(self):
        # weights 0.5 on the positive side and 2 on the rest: B^n e_0 grows
        w = BilateralTableWeight({}, default_pos=0.5, default_nonpos=2.0)
        orbit = iterate(OperatorSpec(w, BACKWARD), CoeffVector.basis(0, BILATERAL), 5)
        assert orbit.support == (-5,) and abs(orbit[-5]) == 32.0
        for space in (lp(2, BILATERAL), c0(BILATERAL)):
            rep = qfhc_check(space, w, 1, [0, 1])
            assert rep.overall == FAILS
            assert {e.verdict.kind for e in rep.entries} == {DIVERGES}

    @pytest.mark.parametrize("space", [lp(2), c0(), entire(4), linf_weakstar()],
                             ids=["l2", "c0", "entire", "weakstar"])
    def test_needs_a_bilateral_lp_or_c0_space(self, space):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        seen = record_reads(w)
        with pytest.raises(DomainMismatchError, match="bilateral weights on a unilateral space"):
            qfhc_check(space, w, 1, [0])
        assert seen == [0, 0]


class TestDomainRule:
    """Every checker compares the space's domain with the weight family's
    in one place, before any prefix is read."""

    @pytest.mark.parametrize("check", [
        lambda w: unilateral_condition(w, lp(2), 1, [0, 1]),
        lambda w: unilateral_condition(w, lp(1), 1, [0, 1]),  # the weak* criterion
        lambda w: unilateral_condition(w, c0(), 1, [0, 1]),
        lambda w: qfhc_check(lp(2), w, 1, [1, 2]),
        lambda w: qfhc_check(c0(), w, 1, [1, 2]),
        lambda w: qfhc_check(entire(4), w, 1, [1, 2]),
    ], ids=["unilateral", "unilateral l1", "unilateral c0", "qfhc", "qfhc c0", "qfhc entire"])
    def test_unilateral_checkers_refuse_a_bilateral_family(self, check):
        # 2 times a unitary shift: not hypercyclic on any space
        w = BilateralTableWeight({}, 2.0, 2.0)
        seen = record_reads(w)
        with pytest.raises(DomainMismatchError, match="bilateral weights on a unilateral space"):
            check(w)
        assert seen == [0, 0]

    @pytest.mark.parametrize("check", [
        # qfhc: the S-series is classified before the unilateral T head reads
        lambda w: qfhc_check(lp(2, BILATERAL), w, 1, [1, 2]),
        lambda w: qfhc_check(lp(1, BILATERAL), w, 1, [1, 2]),
        lambda w: qfhc_check(c0(BILATERAL), w, 1, [1, 2]),
    ], ids=["qfhc", "qfhc l1", "qfhc c0"])
    def test_bilateral_spaces_refuse_a_unilateral_family(self, check):
        w = ConstantWeight(2)
        seen = record_reads(w)
        with pytest.raises(DomainMismatchError, match="unilateral weights on a bilateral space"):
            check(w)
        assert seen == [0, 0]

    @pytest.mark.parametrize("space", [lp(2, BILATERAL), c0(BILATERAL)], ids=["l2", "c0"])
    def test_unilateral_condition_needs_a_unilateral_space(self, space):
        w = BergmanWeight()
        seen = record_reads(w)
        with pytest.raises(InvalidArgumentError, match="unilateral lp or c0"):
            unilateral_condition(w, space, 1, [0])
        assert seen == [0, 0]

    @pytest.mark.parametrize("offsets, named", [([-5], -5), ([-1, 0], -1), ([3, -2, -7], -7)])
    def test_negative_offset_on_a_unilateral_family_refused_before_any_read(
            self, offsets, named):
        w = BergmanWeight()
        seen = record_reads(w)
        for space in (lp(2), lp(1)):
            with pytest.raises(InvalidArgumentError, match=f"offset {named} is negative"):
                unilateral_condition(w, space, 1, offsets)
        assert seen == [0, 0]

    def test_c0_limits_are_term_decay_series(self, monkeypatch):
        import shiftlab.criterion as criterion

        def refuse(values):
            raise AssertionError("classify_limit_infinite called")

        monkeypatch.setattr(criterion, "classify_limit_infinite", refuse)
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = qfhc_check(c0(BILATERAL), w, 1, range(-1, 2))
        assert rep.overall == SATISFIES
        assert rep.space == "c0 (bilateral)"
        assert [e.label for e in rep.entries][:2] == ["T-series j=-1", "S-series j=-1"]
        for e in rep.entries:
            # the terms 0.5^n tend to 0 on each side: the bound is 0, not -1
            assert e.verdict.kind == CONVERGES
            assert e.verdict.rule == "asymptotic class at n: coefficient -0.693147 < 0"
            assert e.verdict.sum_estimate is None and e.verdict.tail_estimate is None


def test_empty_index_list_rejected():
    w2 = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
    checks = (
        lambda: qfhc_check(lp(2), ConstantWeight(2), 1, []),
        lambda: unilateral_condition(ConstantWeight(2), lp(2), 1, []),
        lambda: qfhc_check(lp(2, BILATERAL), w2, 1, []),
        lambda: qfhc_check(c0(BILATERAL), w2, 1, []),
    )
    for check in checks:
        with pytest.raises(InvalidArgumentError):
            check()


def reference_t_head(space, w, q, j):
    """(dyadic checkpoints, sum) of the unilateral T-series head n^q < j,
    from scalar prefix calls, one n at a time.  Term n is |w_(j-n^q+1)...w_j|,
    times R^(j - n^q - 1) at R = rmax on H(C), to the p-th power on l^p.
    On c0, or past double range, there is no sum."""
    p = space.p if space.kind == "lp" else 1
    log_r = math.log(space.rmax) if space.kind == "entire" else 0.0
    partials, n, total = [], 1, 0.0
    while n**q < j:
        x = p * (w.prefix(j).logmag - w.prefix(j - n**q).logmag + (j - n**q - 1) * log_r)
        try:
            total += math.exp(x)
        except OverflowError:
            total = math.inf
        partials.append(total)
        n += 1
    dyadic = [2**i for i in range(len(partials).bit_length())]
    checkpoints = [(m, partials[m - 1]) for m in dyadic]
    checkpoints += [(len(partials), total)] if partials else []
    summed = space.kind != "c0" and math.isfinite(total)
    return checkpoints, total if summed else None


@pytest.mark.parametrize("space", [lp(2), c0(), entire(3)], ids=["l2", "c0", "entire(3)"])
@pytest.mark.parametrize("q, j", [(1, 1), (1, 2), (1, 700), (2, 50), (3, 1000), (2, 0)])
@pytest.mark.parametrize("weights", [BergmanWeight, lambda: ConstantWeight(1.5 - 0.5j)])
def test_unilateral_t_head_matches_scalar_prefixes(weights, q, j, space):
    v = qfhc_check(space, weights(), q, [j]).entry(f"T-series j={j}").verdict
    want_checkpoints, want_sum = reference_t_head(space, weights(), q, j)
    assert v.kind == CONVERGES
    assert v.rule == "terms eventually zero (backward shift falls off the edge)"
    assert [m for m, _ in v.checkpoints] == [m for m, _ in want_checkpoints]
    assert [s for _, s in v.checkpoints] == pytest.approx([s for _, s in want_checkpoints],
                                                          rel=1e-13)
    if want_sum is None:
        assert v.sum_estimate is None and v.tail_estimate is None
    else:
        assert v.sum_estimate == pytest.approx(want_sum, rel=1e-13)
        assert v.tail_estimate == 0.0


def test_an_overflowing_t_head_converges_without_a_sum():
    # term n of the head is 4^n up to n = 1999, past double range
    rep = qfhc_check(lp(2), ConstantWeight(2), 1, [2000])
    t = rep.entry("T-series j=2000").verdict
    assert t.kind == CONVERGES and t.sum_estimate is None and t.tail_estimate is None
    assert t.checkpoints[-1] == (1999, math.inf)
    assert rep.entry("S-series j=2000").verdict.sum_estimate == pytest.approx(1 / 3, abs=1e-12)
    assert rep.overall == SATISFIES


class TestWeakStarCondition:
    """The weak* criterion is ``unilateral_condition`` on l^1."""

    def test_rolewicz_satisfies(self):
        rep = unilateral_condition(ConstantWeight(2), lp(1), 1, range(0, 4))
        assert rep.overall == SATISFIES

    def test_unweighted_fails(self):
        rep = unilateral_condition(ConstantWeight(1), lp(1), 1, range(0, 4))
        assert rep.overall == FAILS

    def test_reports_the_l1_space(self):
        assert unilateral_condition(ConstantWeight(2), lp(1), 1, [1]).space == "l^1 (unilateral)"


class TestDifferentiationCriterion:
    def test_expanding_argument_satisfies(self):
        assert fhc_check_tmu(1.5).overall == SATISFIES

    def test_plain_derivative_satisfies(self):
        assert fhc_check_tmu(1.0).overall == SATISFIES

    def test_contracting_argument_fails(self):
        assert fhc_check_tmu(0.5).overall == FAILS


class TestTMuShift:
    """f(z) -> f'(mu z) is the backward TMuWeight(mu) shift; its S-series
    is checked against an mpmath oracle, not against a second closed form."""

    @pytest.mark.parametrize("mu, k, ns", [
        (1.5, 0, [1, 2, 10, 4095, 4096]),
        (1.0, 4, [1, 3, 1000, 4096]),
        (2.0, 3, [1, 7, 4090, 4096]),
        (0.5, 5, [1, 2, 2048, 4096]),
        (1 + 1j, 2, [1, 5, 4000, 4096]),
        (complex(0.3, -1.7), 7, [1, 64, 4093, 4096]),
    ])
    def test_s_series_logmags_match_mpmath(self, mu, k, ns):
        # log(k! / ((k+n)! |mu|^(nk + n(n-1)/2))) to 50 digits
        got = _shift_series(TMuWeight(mu), k + 1, 1, 1, k + 1)(np.array(ns))
        with mpmath.workdps(50):
            for n, g in zip(ns, got.tolist()):
                want = float(
                    mpmath.loggamma(k + 1) - mpmath.loggamma(k + n + 1)
                    - (n * k + n * (n - 1) // 2) * mpmath.log(abs(mpmath.mpc(mu)))
                )
                assert abs(g - want) <= 1e-12 * max(1.0, abs(want))

    def test_fhc_check_tmu_is_qfhc_check_of_the_shift(self):
        got = fhc_check_tmu(1 + 1j, degrees=[0, 2], rmax=3, max_exp=8)
        want = qfhc_check(entire(3), TMuWeight(1 + 1j), 1, [1, 3], max_exp=8)
        assert got == want

    @pytest.mark.parametrize("kwargs", [
        {"mu": 1.5, "degrees": []},
        {"mu": 1.5, "degrees": [2, -1]},
        {"mu": 0},
    ])
    def test_fhc_check_tmu_refusals(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            fhc_check_tmu(**kwargs)


def test_entire_space_reads_each_series_once():
    # the class decides at R = rmax = 8, where the terms 8^-n 8^n do not
    # decay; the verdicts read only their anchors, and the first read of
    # the checkpoints scans SCAN_TERMS terms once
    w = ConstantWeight(8)
    sizes = []
    at = w._at

    def recording(points, phase=True):
        sizes.append(np.size(points))
        return at(points, phase)

    w._at = recording
    rep = qfhc_check(entire(8), w, 1, [1])
    verdict = rep.entry("S-series j=1").verdict
    assert verdict.kind == DIVERGES
    assert verdict.rule == "asymptotic class at log n: coefficient 0 > -1 at R=8"
    assert sizes == [1, 1]
    assert verdict.checkpoints[-1][0] == verdict.checkpoints[-1][0] == SCAN_TERMS
    assert sizes.count(SCAN_TERMS) == 1
    assert sum(sizes) <= SCAN_TERMS + 2


def _bilateral(pos, nonpos, entries=None):
    return lambda: BilateralTableWeight(entries or {}, default_pos=pos, default_nonpos=nonpos)


class TestAsymptoticClass:
    """Verdicts read off each family's asymptotic class (``WeightSeq.asymptotics``)."""

    def test_benchmark_grid_follows_the_root_weight_dichotomy(self):
        # RootRatio(p) on l^2: the terms behave like n^(-q/p), so the series
        # converges iff q >= p + 1; the 2^20 scan called 9 of these cells wrong
        wrong = []
        for p in range(1, 11):
            w = RootRatioWeight(p)
            for q in list(range(1, 12)) + [23, 40]:
                rep = unilateral_condition(w, lp(2), q, range(0, 5))
                if rep.overall != (FAILS if q <= p else SATISFIES):
                    wrong.append((p, q, rep.overall))
        assert wrong == []

    # (weights, q, p, verdict): the series sum |w_1...w_(n^q + j)|^(-p), whose
    # convergence does not depend on j, by its written-out closed form
    @pytest.mark.parametrize("weights, q, p, want", [
        # 2^(-2n): geometric, |lam| > 1
        (lambda: ConstantWeight(2), 1, 2, CONVERGES),
        # 0.5^(-2n) = 4^n: the terms grow
        (lambda: ConstantWeight(0.5), 1, 2, DIVERGES),
        # 1^(-n) = 1: the terms do not tend to 0
        (lambda: ConstantWeight(1), 1, 1, DIVERGES),
        # tail weight 2 past a finite head: geometric 2^(-2n) times a constant
        (lambda: TableWeight([0.5, 3.0, 0.1], 2.0), 1, 2, CONVERGES),
        # Bergman prefix sqrt(m + 1): terms 1/(n^2 + j + 1)
        (BergmanWeight, 2, 2, CONVERGES),
        # terms (n + j + 1)^(-1/2)
        (BergmanWeight, 1, 1, DIVERGES),
        # RootRatio(r) on l^2: terms like n^(-q/r), summable iff q >= r + 1
        (lambda: RootRatioWeight(1), 3, 2, CONVERGES),
        (lambda: RootRatioWeight(3), 1, 2, DIVERGES),
        # LogRatio prefix ln(m + 2)/ln 2: terms (ln 2/ln(n^q + j + 2))^p, not summable
        (LogRatioWeight, 1, 1, DIVERGES),
        (LogRatioWeight, 2, 2, DIVERGES),
        # TMu(mu) prefix (m - 1)! mu^((m-1)(m-2)/2): superexponential decay for |mu| >= 1
        (lambda: TMuWeight(1.5), 1, 1, CONVERGES),
        (lambda: TMuWeight(1), 1, 2, CONVERGES),
        # log|mu| < 0: the mu^(m^2/2) factor makes the terms grow
        (lambda: TMuWeight(0.5j), 1, 1, DIVERGES),
    ])
    def test_unilateral_class_matches_the_theorem(self, weights, q, p, want):
        for j in (0, 3):
            got = unilateral_condition(weights(), lp(p), q, [j]).entries[0].verdict.kind
            assert got == want, j
        got = qfhc_check(lp(p), weights(), q, [3]).entry("S-series j=3").verdict.kind
        assert got == want

    # (weights, forward, backward) on l^p(Z) and c0(Z): forward terms
    # |w_1...w_(n+j)|^-p follow the positive default, backward terms
    # |w_(j-n+1)...w_j|^p the nonpositive one; finitely many changed entries
    # change neither
    @pytest.mark.parametrize("weights, forward, backward", [
        # 2^(-2n) forward, 0.5^(2n) backward: both geometric
        (_bilateral(2.0, 0.5, {-3: 3.0, 0: 0.5j, 2: -2.0}), CONVERGES, CONVERGES),
        # 0.5^(-2n) forward and 2^(2n) backward grow
        (_bilateral(0.5, 2.0), DIVERGES, DIVERGES),
        # 3^(-2n) forward is geometric; 1.5^(2n) backward grows
        (_bilateral(3.0, 1.5), CONVERGES, DIVERGES),
    ])
    @pytest.mark.parametrize("space", [lp(2, BILATERAL), lp(1, BILATERAL), c0(BILATERAL)],
                             ids=["l2", "l1", "c0"])
    def test_bilateral_classes_match_the_theorem(self, weights, forward, backward, space):
        rep = qfhc_check(space, weights(), 1, [-1, 2])
        for j in (-1, 2):
            assert rep.entry(f"S-series j={j}").verdict.kind == forward, j
            assert rep.entry(f"T-series j={j}").verdict.kind == backward, j

    @pytest.mark.parametrize("weights", [
        lambda: ConstantWeight(2),
        lambda: ConstantWeight(1),
        BergmanWeight,
        lambda: RootRatioWeight(2),
        LogRatioWeight,
        lambda: TableWeight([0.5, 3.0, 0.1], 2.0),
    ])
    @pytest.mark.parametrize("space", [c0(), lp(1), lp(2)], ids=["c0", "l1", "l2"])
    def test_s_series_is_the_unilateral_condition(self, weights, space):
        # the anchor P(j) is a constant factor: it leaves the verdict and
        # rule, and multiplies an l^p sum by e^(p P(j))
        rep = qfhc_check(space, weights(), 1, [1, 3])
        p = space.p if space.kind == "lp" else 1.0
        for j in (1, 3):
            want = unilateral_condition(weights(), space, 1, [j]).entries[0].verdict
            got = rep.entry(f"S-series j={j}").verdict
            assert (got.kind, got.rule) == (want.kind, want.rule), j
            if want.sum_estimate is None:
                assert got.sum_estimate is None, j
            else:
                scale = math.exp(p * weights().prefix(j).logmag)
                assert got.sum_estimate == pytest.approx(want.sum_estimate * scale, rel=1e-12), j

    @pytest.mark.parametrize("weights, want", [
        # products tending to 0, one after a large first weight: a running
        # max of the products would read past 1e6 or end on a record
        (lambda: TMuWeight(0.9999), DIVERGES),
        (lambda: TableWeight([1e7], 0.5), DIVERGES),
        (BergmanWeight, CONVERGES),
        (lambda: RootRatioWeight(2), CONVERGES),
        (LogRatioWeight, CONVERGES),
        (lambda: ConstantWeight(1.01), CONVERGES),
        (lambda: ConstantWeight(1), DIVERGES),
        (lambda: ConstantWeight(1 + 1e-13), INCONCLUSIVE),
    ])
    def test_c0_condition_at_offset_0_is_the_class_of_the_products(self, weights, want):
        # the reciprocal products tend to 0 exactly when |w_1...w_n| tends to
        # infinity, which the class decides without a scan
        w = weights()
        seen = record_reads(w)
        v = unilateral_condition(w, c0(), 1, [0]).entries[0].verdict
        assert v.kind == want
        assert seen == [0, 0]

    def test_slowly_growing_products_decay_on_c0(self):
        # |w_1...w_n| = ((n+2)/2)^(1/6) tends to infinity, too slowly for a
        # scan of 4096 terms to see its reciprocal decay
        v = unilateral_condition(RootRatioWeight(3), c0(), 1, [1]).entries[0].verdict
        assert v.kind == CONVERGES
        assert v.rule == "asymptotic class at log n: coefficient -1/6 < 0"

    def test_sums_match_mpmath(self):
        with mpmath.workdps(30):
            # Bergman, q = 2: sum (j+1)/(n^2 + j+1) = (pi a coth(pi a) - 1)/2, a^2 = j+1
            rep = qfhc_check(lp(2), BergmanWeight(), 2, [1, 2, 3])
            for j in (1, 2, 3):
                a = mpmath.sqrt(j + 1)
                want = (mpmath.pi * a * mpmath.coth(mpmath.pi * a) - 1) / 2
                got = rep.entry(f"S-series j={j}").verdict.sum_estimate
                assert abs(got - float(want)) <= 1e-6, j

            # RootRatio(1), q = 3: sum 2/(n^3 + j + 2), by Euler-Maclaurin at N = 200
            def euler_maclaurin(f, big_n=200, k_max=6):
                total = mpmath.fsum(f(n) for n in range(1, big_n))
                total += mpmath.quad(f, [big_n, mpmath.inf]) + f(big_n) / 2
                for k in range(1, k_max + 1):
                    total -= (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                              * mpmath.diff(f, big_n, 2 * k - 1))
                return total

            rep = unilateral_condition(RootRatioWeight(1), lp(2), 3, [0, 1, 2])
            for j, entry in zip((0, 1, 2), rep.entries):
                want = euler_maclaurin(lambda x, _j=j: 2 / (x**3 + _j + 2))
                assert abs(entry.verdict.sum_estimate - float(want)) <= 1e-6, j

            # Constant(2): the geometric sums of 4^-n and 4^-(j+n)
            rep = qfhc_check(lp(2), ConstantWeight(2), 1, [1, 2])
            for j in (1, 2):
                got = rep.entry(f"S-series j={j}").verdict.sum_estimate
                assert abs(got - float(mpmath.mpf(1) / 3)) <= 1e-6
            rep = unilateral_condition(ConstantWeight(2), lp(2), 1, [0, 2])
            for j, entry in zip((0, 2), rep.entries):
                assert abs(entry.verdict.sum_estimate - float(mpmath.mpf(4) ** -j / 3)) <= 1e-6

    @pytest.mark.parametrize("check, level", [
        (lambda: unilateral_condition(ConstantWeight(1 + 1e-13), lp(2), 1, [0, 1]), "n"),
        (lambda: qfhc_check(lp(2), ConstantWeight(1 - 1e-13j + 1e-13), 1, [1]), "n"),
        (lambda: qfhc_check(entire(3), ConstantWeight(3 * (1 + 1e-14)), 1, [1]), "n"),
        (lambda: fhc_check_tmu(1 + 1e-13, degrees=[0, 1]), "n^2"),
    ])
    def test_rounding_band_is_inconclusive(self, check, level):
        rep = check()
        assert rep.overall == INCONCLUSIVE
        for e in rep.entries:
            if e.label.startswith("T-series"):
                continue  # unilateral T-series are trivially convergent
            assert e.verdict.kind == INCONCLUSIVE
            assert e.verdict.rule.startswith(f"asymptotic class at {level}: coefficient ")
            assert "within rounding of 0" in e.verdict.rule

    @pytest.mark.parametrize("check, level", [
        (lambda z: unilateral_condition(ConstantWeight(z), lp(2), 1, [0]), "n"),
        (lambda z: qfhc_check(lp(2, BILATERAL), _bilateral(z, z)(), 1, [0]), "n"),
        (lambda z: fhc_check_tmu(z, degrees=[0, 1]), "n^2"),
    ])
    def test_modulus_within_an_ulp_of_one_is_inconclusive(self, check, level):
        # abs(exp(1j)) rounds to 1.0, but its exact squared modulus is 1 + 4.8e-17
        rep = check(cmath.exp(1j))
        assert rep.overall == INCONCLUSIVE
        for e in rep.entries:
            if e.label.startswith("T-series") and level == "n^2":
                continue  # unilateral T-series are trivially convergent
            assert e.verdict.rule.startswith(f"asymptotic class at {level}: coefficient ")
            assert "within rounding of 0" in e.verdict.rule

    @pytest.mark.parametrize("lam", [1, -1, 1j])
    def test_exact_unit_moduli_are_decided(self, lam):
        rep = unilateral_condition(ConstantWeight(lam), lp(2), 1, [0])
        assert rep.overall == FAILS
        assert rep.entries[0].verdict.rule == "asymptotic class at log n: coefficient 0 > -1"
        rep = fhc_check_tmu(lam, degrees=[0, 1])
        assert rep.overall == SATISFIES
        assert rep.entry("S-series j=1").verdict.rule.startswith(
            "asymptotic class at n log n: coefficient -1 < 0")

    def test_just_outside_the_band_is_decided(self):
        assert unilateral_condition(ConstantWeight(1 + 1e-9), lp(2), 1, [0]).overall == SATISFIES
        assert unilateral_condition(ConstantWeight(1 - 1e-9), lp(2), 1, [0]).overall == FAILS

    def test_a_family_without_a_class_is_refused(self):
        class Doubling(ConstantWeight):
            def _logmag_at(self, ns):
                return ns * math.log(2.0)

        w = Doubling(2)
        with pytest.raises(NotImplementedError, match="Doubling"):
            w.asymptotics()
        with pytest.raises(NotImplementedError, match="Doubling"):
            qfhc_check(lp(2), w, 1, [1])

    @pytest.mark.parametrize("weights", [
        lambda: ConstantWeight(2), lambda: TableWeight([3.0], 2.0), BergmanWeight,
        LogRatioWeight, lambda: RootRatioWeight(2), lambda: TMuWeight(1.5),
    ])
    def test_unilateral_families_have_no_nonpositive_side(self, weights):
        with pytest.raises(DomainMismatchError, match="no nonpositive side"):
            weights().asymptotics(-1)


class TestTMuTheorem:
    """The paper's theorem for T_mu: f -> f'(mu z) is frequently hypercyclic
    on H(C) iff |mu| >= 1.  The class of P has a = log|mu|/2 and b = 1."""

    @pytest.mark.parametrize("max_exp", [12, 20])
    @pytest.mark.parametrize("mu, overall, level", [
        (1, SATISFIES, "n log n"),
        (-1, SATISFIES, "n log n"),
        # |exp(1j)| exceeds 1 by 2.4e-17, so a = 1.2e-17 lies within the
        # rounding band: the same verdict as mu = 1 + 1e-13
        (cmath.exp(1j), INCONCLUSIVE, "n^2"),
        (1.5, SATISFIES, "n^2"),
        (1 + 1j, SATISFIES, "n^2"),
        (0.5, FAILS, "n^2"),
        (0.9 * cmath.exp(0.3j), FAILS, "n^2"),
    ])
    def test_verdict_and_deciding_level(self, mu, overall, level, max_exp):
        rep = fhc_check_tmu(mu, rmax=8, max_exp=max_exp)
        assert rep.overall == overall
        for k in range(6):
            assert rep.entry(f"S-series j={k + 1}").verdict.rule.startswith(
                f"asymptotic class at {level}: coefficient ")


# ---------------------------------------------------------------------------
# the scan and the fitted class of series_probe
# ---------------------------------------------------------------------------


def _bits(scan):
    """A scan's fields with every float as its exact hex string."""
    checkpoints, total, any_inf = scan
    return [(m, float(s).hex()) for m, s in checkpoints], total.hex(), any_inf


def _p_series(s):
    return lambda ns: np.asarray(ns, dtype=float) ** -s


def _bertrand(b):
    # term n is f(n + 1), f(x) = 1 / (x ln^b x), as in the benchmark's probes
    def mags(ns):
        x = np.asarray(ns, dtype=float) + 1.0
        return 1.0 / (x * np.log(x) ** b)

    return mags


class TestScan:
    """``_scan`` reads at most SCAN_TERMS terms in one call and sums them
    strictly left to right with one cumsum."""

    @pytest.mark.parametrize("n_max", [1, 2, 3, 1000, SCAN_TERMS])
    def test_one_left_to_right_sum(self, n_max):
        mags = _bertrand(1.5)
        cum = np.cumsum(mags(np.arange(1, n_max + 1, dtype=np.int64)))
        dyadic = [2**i for i in range(n_max.bit_length())]
        want = (tuple((m, float(cum[m - 1])) for m in dyadic) + ((n_max, float(cum[-1])),),
                float(cum[-1]), False)
        assert _bits(_scan(mags, n_max)) == _bits(want)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("pos", [1, 700, SCAN_TERMS])
    def test_non_finite_terms_read_inf(self, bad, pos):
        def mags(ns):
            t = 1.0 / np.asarray(ns, dtype=float) ** 2
            t[ns == pos] = bad
            return t

        checkpoints, total, any_inf = _scan(mags, SCAN_TERMS)
        assert any_inf and total == math.inf
        assert all((s == math.inf) == (m >= pos) for m, s in checkpoints)

    def test_reads_each_index_once_in_order_and_never_writes(self):
        cache = 1.0 / np.arange(1, SCAN_TERMS + 1, dtype=float) ** 2
        cache.flags.writeable = False
        before = cache.copy()
        calls = []

        def mags(ns):
            calls.append(ns.copy())
            return cache[ns[0] - 1 : ns[-1]]  # a read-only view

        _scan(mags, SCAN_TERMS)
        assert len(calls) == 1 and calls[0].dtype == np.int64
        assert calls[0].tolist() == list(range(1, SCAN_TERMS + 1))
        assert np.array_equal(cache, before)

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    def test_a_full_size_probe_stays_within_a_few_mib(self, space):
        def mags(ns):
            return 1.0 / np.asarray(ns, dtype=float) ** 2

        series_probe(space, magnitudes=mags, max_exp=4)  # first-call set-up
        tracemalloc.start()
        try:
            series_probe(space, magnitudes=mags, max_exp=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    def test_reads_the_head_and_the_class_samples_only(self, space):
        sizes = []

        def mags(ns):
            sizes.append((len(ns), ns.dtype))
            return 1.0 / np.asarray(ns, dtype=float) ** 2

        series_probe(space, magnitudes=mags, max_exp=20)
        samples = len(criterion._LADDER)  # n = 2^12, ..., 2^62
        assert sizes[:2] == [(SCAN_TERMS, np.int64), (samples, np.float64)]
        assert sum(n for n, _ in sizes) <= SCAN_TERMS + samples + 2

    def test_benchmark_probe_verdicts_are_pinned(self):
        # the nine criterion-grid probes at full size (max_exp = 20): rules,
        # checkpoints and sums; re-recorded for the fitted class, and when
        # _class_tail's power-law tail became a float (the same digits)
        maps = ([_p_series(s) for s in (0.9, 1.05, 1.1, 1.5, 2.0, 3.0)]
                + [_bertrand(b) for b in (1.0, 1.5, 2.0)])
        reprs = [repr(series_probe(lp(1), magnitudes=m, max_exp=20)) for m in maps]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == (
            "8c986ad7130f038bf67f20e8df32185ea6d1230437e1bc9c842fb900236e433d")


@pytest.mark.parametrize("d, kind", [(1e-7, CONVERGES), (1e-9, CONVERGES), (-1e-7, DIVERGES)])
def test_a_rule_shows_the_digits_that_decide(d, kind):
    # each fitted coefficient reads -1, its bound, at 6 significant digits
    verdict = series_probe(lp(1), magnitudes=lambda n: n ** -(1 + d))
    assert verdict.kind == kind
    m = re.fullmatch(r"fitted asymptotic class at log n: coefficient (\S+) ([<>]) -1",
                     verdict.rule)
    assert m[2] == ("<" if kind == CONVERGES else ">")
    assert (float(m[1]) < -1) == (kind == CONVERGES) and float(m[1]) != -1


def _bertrand_reference(b):
    """sum over x >= 2 of 1/(x ln^b x), b > 1: Euler-Maclaurin at N = 1000
    with six Bernoulli corrections, in 30 digits."""
    with mpmath.workdps(30):
        def f(x):
            return 1 / (x * mpmath.log(x) ** b)

        n0 = 1000
        total = (mpmath.fsum(f(n) for n in range(2, n0))
                 + mpmath.log(n0) ** (1 - b) / (b - 1) + f(n0) / 2)
        for k in range(1, 7):
            total -= (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                      * mpmath.diff(f, n0, 2 * k - 1))
        return float(total)


def _probe_oracles():
    """(name, map, l^1 verdict, l^1 sum or None, c0 verdict)."""
    out = []
    for s in (0.5, 0.9, 1.001, 1.01, 1.05, 1.1, 1.5, 2, 3):
        ref = float(mpmath.zeta(s)) if s > 1 else None
        out.append((f"n^-{s}", _p_series(s), CONVERGES if s > 1 else DIVERGES, ref, CONVERGES))
    for c in (1, 10, 1000):
        out.append((f"1/(n+{c})", lambda ns, _c=c: 1.0 / (np.asarray(ns, dtype=float) + _c),
                    DIVERGES, None, CONVERGES))
    for b in (1, 1.01, 1.5, 2, 3):
        ref = _bertrand_reference(b) if b > 1 else None
        out.append((f"bertrand {b}", _bertrand(b), CONVERGES if b > 1 else DIVERGES, ref,
                    CONVERGES))
    for r in (0.5, 0.9999):
        out.append((f"{r}^n", lambda ns, _r=r: _r ** np.asarray(ns, dtype=float), CONVERGES,
                    r / (1 - r), CONVERGES))
    return out


_UNDERFLOW = ("fewer than 10 samples, or one below normal double range, among the last 33 "
              "before underflow")


class TestProbeOracle:
    """``series_probe`` against closed-form verdicts and sums: no wrong
    verdict, and every ``converges`` on l^1 carries a sum within 1e-10 of
    its reference (zeta, Euler-Maclaurin, r/(1 - r))."""

    ORACLES = _probe_oracles()

    @pytest.mark.parametrize("max_exp", [12, 20])
    def test_no_wrong_verdict_and_no_bad_sum(self, max_exp):
        inconclusive = 0
        for name, mags, want, ref, want_c0 in self.ORACLES:
            v = series_probe(lp(1), magnitudes=mags, max_exp=max_exp)
            vc = series_probe(c0(), magnitudes=mags, max_exp=max_exp)
            inconclusive += (v.kind == INCONCLUSIVE) + (vc.kind == INCONCLUSIVE)
            assert v.kind in (want, INCONCLUSIVE), name
            assert vc.kind in (want_c0, INCONCLUSIVE), name
            if v.kind == CONVERGES:
                assert v.sum_estimate == pytest.approx(ref, rel=1e-10), name
        print(f"max_exp {max_exp}: {inconclusive} inconclusive of {2 * len(self.ORACLES)}")

    @pytest.mark.parametrize("mags, want", [
        (_p_series(1.05), lambda: mpmath.zeta(1.05)), (_p_series(1.5), lambda: mpmath.zeta(1.5)),
        (_p_series(3), lambda: mpmath.zeta(3)), (_bertrand(1.5), lambda: _bertrand_reference(1.5)),
        (_bertrand(2), lambda: _bertrand_reference(2)), (_bertrand(3), lambda: _bertrand_reference(3)),
    ], ids=["zeta 1.05", "zeta 1.5", "zeta 3", "bertrand 1.5", "bertrand 2", "bertrand 3"])
    def test_sums_within_1e_12(self, mags, want):
        # the tail's first Euler-Maclaurin correction is about 2e-11 of the
        # Bertrand b = 1.5 sum
        v = series_probe(lp(1), magnitudes=mags)
        assert v.sum_estimate == pytest.approx(float(want()), rel=1e-12)

    def test_slow_geometric_sum_is_within_6e_13(self):
        v = series_probe(lp(1), magnitudes=lambda ns: 0.9999 ** np.asarray(ns, dtype=float))
        assert v.sum_estimate == pytest.approx(9999.0, rel=6e-13)

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    @pytest.mark.parametrize("max_exp", [12, 20])
    def test_a_map_past_the_class_scale_is_inconclusive(self, space, max_exp):
        # 1/(x log x log log x), x = n + 2: its log log log x has no column,
        # so the fit residual (1.4e-4) is past the limit
        def mags(ns):
            x = np.asarray(ns, dtype=float) + 2.0
            return 1.0 / (x * np.log(x) * np.log(np.log(x)))

        v = series_probe(space, magnitudes=mags, max_exp=max_exp)
        assert v.kind == INCONCLUSIVE
        assert v.rule.startswith("fitted class: residual ")

    @pytest.mark.parametrize("bad, rule", [
        (math.nan, "a sample is NaN or negative"), (-1.0, "a sample is NaN or negative"),
        (0.0, _UNDERFLOW), (1e-310, _UNDERFLOW),
    ], ids=["nan", "negative", "zero", "subnormal"])
    @pytest.mark.parametrize("at", [2.0**40, 2.0**62], ids=["inside", "last"])
    def test_a_bad_sample_is_inconclusive(self, bad, rule, at):
        # terms 1/n^2 in the scan, and one bad sample among the class's; a
        # last one below normal range is underflow, and is not read
        def mags(ns):
            t = 1.0 / np.asarray(ns, dtype=float) ** 2
            return np.where(ns == at, bad, t)

        v = series_probe(lp(1), magnitudes=mags)
        if at == 2.0**62 and bad in (0.0, 1e-310):
            assert v.kind == CONVERGES and v.sum_estimate == pytest.approx(math.pi**2 / 6)
        else:
            assert v.kind == INCONCLUSIVE
            assert v.rule == "fitted class: " + rule

    @pytest.mark.parametrize("space, mags, want", [
        (lp(1), _p_series(20), lambda: mpmath.zeta(20)),
        (lp(1), _p_series(35), lambda: mpmath.zeta(35)),
        (lp(2), _p_series(9), lambda: mpmath.zeta(18)),
        (lp(1), lambda ns: 1e-290 / np.asarray(ns, dtype=float) ** 2,
         lambda: 1e-290 * mpmath.zeta(2)),
        (c0(), _p_series(20), None),
        (c0(), lambda ns: 1e-290 / np.asarray(ns, dtype=float) ** 2, None),
    ], ids=["n^-20 l1", "n^-35 l1", "n^-9 l2", "1e-290/n^2 l1", "n^-20 c0", "1e-290/n^2 c0"])
    def test_samples_that_underflow_are_fitted_nearer(self, space, mags, want):
        # the far samples fall to 0 or below normal double range; the fit
        # reads the last 33 (n^-20, n^-9 on l^2) or all (n^-35, 1e-290/n^2)
        # samples above it, down to n = 2^12
        v = series_probe(space, magnitudes=mags)
        assert v.kind == CONVERGES and v.rule.startswith("fitted asymptotic class at log n")
        if want is not None:
            assert v.sum_estimate == pytest.approx(float(want()), rel=1e-13)

    def test_a_tiny_harmonic_series_still_diverges(self):
        # 1e-300/n is below normal double range from n = 2^26 on
        v = series_probe(lp(1), magnitudes=lambda ns: 1e-300 / np.asarray(ns, dtype=float))
        assert v.kind == DIVERGES
        assert v.rule == "fitted asymptotic class at log log n: coefficient 0 > -1"

    def test_too_few_samples_above_underflow_are_inconclusive(self):
        # 1e-300/n^2 is in normal double range at n = 2^12 only of the samples
        v = series_probe(lp(1), magnitudes=lambda ns: 1e-300 / np.asarray(ns, dtype=float) ** 2)
        assert v.kind == INCONCLUSIVE
        assert v.rule == "fitted class: " + _UNDERFLOW

    @pytest.mark.parametrize("space", [lp(1), c0()], ids=["l1", "c0"])
    @pytest.mark.parametrize("scale", [1e12, 1e18], ids=["1e12", "1e18"])
    def test_a_scaled_subnormal_is_refitted_above_the_floor(self, space, scale):
        # scale * n^-18.625 is normal up to n = 2^57 (1e12) or 2^58 (1e18), but
        # its far samples carry the lost digits of a subnormal n^-18.625: the
        # fit on them is past the limit, and the refit from 2^-969 up decides
        v = series_probe(space, magnitudes=lambda ns: scale * np.asarray(ns, dtype=float) ** -18.625)
        assert v.kind == CONVERGES
        assert v.rule.startswith("fitted asymptotic class at log n: coefficient -18.625 < ")
        if space.kind == "lp":
            assert v.sum_estimate == pytest.approx(scale * float(mpmath.zeta(18.625)), rel=1e-13)

    def test_a_failed_refit_keeps_the_first_rule(self):
        # 1/(x log x log log x)^17.5, x = n + 2, fails the fit on the samples
        # down to normal range and again on those above the floor
        def mags(ns):
            x = np.asarray(ns, dtype=float) + 2.0
            return (1.0 / (x * np.log(x) * np.log(np.log(x)))) ** 17.5

        v = series_probe(lp(1), magnitudes=mags)
        assert v.kind == INCONCLUSIVE
        assert v.rule == "fitted class: residual 0.00672 is not below 1e-06"

    @pytest.mark.parametrize("max_exp", [1, 4, 11, 12])
    @pytest.mark.parametrize("mags", [_p_series(3), lambda ns: 0.5 ** np.asarray(ns, dtype=float)],
                             ids=["n^-3", "2^-n"])
    def test_a_scan_shorter_than_scan_terms_reports_no_sum(self, max_exp, mags):
        # the tail past n terms is within the sum's rounding only at
        # n = SCAN_TERMS: the power law's is off by 2.1e-4 of zeta(3) at n = 2
        v = series_probe(lp(1), magnitudes=mags, max_exp=max_exp)
        assert v.kind == CONVERGES
        assert (v.sum_estimate is None) == (2**max_exp < SCAN_TERMS)


class TestGeometricTail:
    """A summable series that converges at the n level, with c the class's
    only nonzero coefficient: the sum is the scan total plus the exact
    geometric tail."""

    @pytest.mark.parametrize("lam", [1.01, 1.001, 1.0001])
    def test_slowly_decaying_constant_weights_get_their_sum(self, lam):
        v = unilateral_condition(ConstantWeight(lam), lp(2), 1, [0]).entries[0].verdict
        assert v.kind == CONVERGES
        with mpmath.workdps(30):
            want = float(1 / (mpmath.mpf(lam) ** 2 - 1))  # sum of lam^(-2n), n >= 1
        assert v.sum_estimate == pytest.approx(want, rel=1e-12)
        assert v.sum_estimate == v.checkpoints[-1][1] + v.tail_estimate

    def test_bilateral_tails_take_each_side_s_ratio(self):
        # forward ratio 1/1.001, backward 0.999, past heads at -3 and 0
        w = BilateralTableWeight({-3: 3.0, 0: 0.5j}, default_pos=1.001, default_nonpos=0.999)
        rep = qfhc_check(lp(1, BILATERAL), w, 1, [-1, 2])
        ns = np.arange(1, 200_001)  # the terms past 2 * 10^5 are below e^-200
        for j in (-1, 2):
            for series, direction in (("S", 1), ("T", -1)):
                want = math.fsum(np.exp(_shift_series(w, j, 1, direction, j)(ns)))
                got = rep.entry(f"{series}-series j={j}").verdict.sum_estimate
                assert got == pytest.approx(want, rel=1e-12), (series, j)

    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_a_sum_the_scan_gives_is_kept(self, lam):
        # lam^(-2n) underflows to 0 well before n = SCAN_TERMS: the tail is 0
        # and the scan total is the geometric sum 1/(lam^2 - 1)
        v = unilateral_condition(ConstantWeight(lam), lp(2), 1, [0]).entries[0].verdict
        assert v.tail_estimate == 0.0
        assert v.sum_estimate == v.checkpoints[-1][1]
        assert v.sum_estimate == pytest.approx(1 / (lam**2 - 1), rel=4e-16)

    def test_a_scan_inside_a_table_head_gets_no_sum(self):
        # 10^4 weights 1.0001 (0.9999 on the nonpositive side) run past the
        # 2^12-term scan, so the default weight's geometric tail is not
        # theirs: the true l^2 sum is 4323.08, the default's tail gives 2796
        w = TableWeight([1.0001] * 10**4, 2.0)
        for v in (unilateral_condition(w, lp(2), 1, [0]).entries[0].verdict,
                  qfhc_check(lp(2), w, 1, [1]).entry("S-series j=1").verdict):
            assert v.kind == CONVERGES and v.sum_estimate is None
        wb = BilateralTableWeight({k: 0.9999 for k in range(-9000, 1)}, 2.0, 0.5)
        v = qfhc_check(lp(2, BILATERAL), wb, 1, [0]).entry("T-series j=0").verdict
        assert v.kind == CONVERGES and v.sum_estimate is None
        # past the head the tail is the default's again
        w = TableWeight([1.0001] * 4000, 2.0)
        v = unilateral_condition(w, lp(2), 1, [0]).entries[0].verdict
        r = 1.0001**-2
        want = r * (1 - r**4000) / (1 - r) + r**4000 / 3
        assert v.sum_estimate == pytest.approx(want, rel=1e-12)

    def test_a_head_ending_at_the_last_scanned_term_gets_its_sum(self):
        # head weights 1.05 up to L, the default 2.0 past it: at L = 4096 the
        # scan's last two terms, n - 1 and n = 4096, read P at L and past it,
        # where the class is exact, so the default's geometric tail is the
        # series' own; at L = 4097 term n - 1 is still inside the head
        rep = qfhc_check(lp(2), TableWeight([1.05] * 4096, 2.0), 1, [1])
        assert rep.entry("S-series j=1").verdict.sum_estimate == 9.7560975609756
        rep = qfhc_check(lp(2), TableWeight([1.05] * 4097, 2.0), 1, [1])
        assert rep.entry("S-series j=1").verdict.sum_estimate is None

    def test_a_sum_past_double_range_is_not_reported(self):
        # 1/1e-305 then ratios e^-5e-4: the scan total 1.742450277903698e308
        # and the geometric tail are each finite, but their sum overflows
        w = TableWeight([1e-305], math.exp(5e-4))
        v = unilateral_condition(w, lp(1), 1, [0]).entries[0].verdict
        assert v.kind == CONVERGES
        assert v.checkpoints[-1] == (SCAN_TERMS, 1.742450277903698e308)
        assert v.sum_estimate is None and v.tail_estimate is None

    def test_decay_conditions_get_no_sum(self):
        v = unilateral_condition(ConstantWeight(1.0001), c0(), 1, [0]).entries[0].verdict
        assert v.kind == CONVERGES and v.sum_estimate is None

    @pytest.mark.parametrize("lam", [1e155, 1e160, 1e300])
    def test_a_ratio_past_double_range_gets_its_sum(self, lam):
        # at lam = 1e160 the log ratio 2 log lam = 736.8 is past 709.78,
        # where expm1 overflows; the terms lam^(-2n) are 0 from n = 2 on
        rep = qfhc_check(lp(2), ConstantWeight(lam), 1, [1])
        v = rep.entry("S-series j=1").verdict
        assert rep.overall == SATISFIES
        assert v.tail_estimate == 0.0
        assert v.sum_estimate == v.checkpoints[0][1] == pytest.approx(lam**-2, rel=1e-2, abs=0)


class TestRatioBoundTail:
    """``_class_tail`` at an exponential level other than the geometric
    one, on terms lam^(-2 n^2): the ratio bound of the tail, kept only
    within the scan's rounding."""

    @pytest.mark.parametrize("lam", [1.000001, 1.00001, 1.0001])
    def test_gaussian_sums_within_1e_14(self, lam):
        # by Poisson summation, the sum over n >= 1 of exp(-a n^2) is
        # (sqrt(pi/a) - 1)/2 plus sqrt(pi/a) sum_k exp(-pi^2 k^2/a), which
        # is below exp(-49000) at a = 2 log lam <= 2e-4
        v = unilateral_condition(ConstantWeight(lam), lp(2), 2, [0]).entries[0].verdict
        with mpmath.workdps(30):
            a = 2 * mpmath.log(mpmath.mpf(lam))
            want = float((mpmath.sqrt(mpmath.pi / a) - 1) / 2)
        assert v.kind == CONVERGES
        assert v.sum_estimate == pytest.approx(want, rel=1e-14)

    def test_a_tail_past_the_scan_rounding_gives_no_sum(self):
        # at a = 2e-8 the term at n = 4096 is still 0.71, so the ratio bound
        # (about 4300) is far past rounding; the true sum is 6266.07
        v = unilateral_condition(ConstantWeight(1 + 1e-8), lp(2), 2, [0]).entries[0].verdict
        assert v.kind == CONVERGES
        assert v.sum_estimate is None and v.tail_estimate is None
        assert v.checkpoints[-1][0] == SCAN_TERMS


def test_checkers_never_call_the_probe_routes(monkeypatch):
    # every checker's series goes magnitude map -> class verdict -> _scan ->
    # _class_tail with the family's class; only series_probe fits one
    def refuse(*args):
        raise AssertionError("probe route called")

    for name in ("classify_magnitudes", "classify_sup_decay", "_fitted_class"):
        monkeypatch.setattr(criterion, name, refuse)
    table = BilateralTableWeight({-3: 3.0, 0: 0.5j}, default_pos=1.001, default_nonpos=0.999)
    reports = [
        qfhc_check(lp(2), BergmanWeight(), 2, [1, 40]),  # log n
        qfhc_check(lp(2), ConstantWeight(2), 1, [3]),  # n, geometric
        qfhc_check(entire(4), ConstantWeight(8), 1, [1, 2]),
        qfhc_check(lp(2, BILATERAL), table, 1, [-1, 2]),
        unilateral_condition(ConstantWeight(1.0001), lp(2), 2, [0]),  # n^2, ratio bound
        unilateral_condition(RootRatioWeight(1), c0(), 3, [0, 2]),
        unilateral_condition(ConstantWeight(2), lp(1), 2, [1]),  # the weak* criterion
        qfhc_check(lp(1, BILATERAL), table, 1, [-1, 2]),
        qfhc_check(c0(BILATERAL), table, 1, [0]),
        fhc_check_tmu(1.5),  # n^2 log n and above, ratio bound
    ]
    assert [r.overall for r in reports] == [SATISFIES] * 10
    summed = [e.verdict.sum_estimate for r in reports for e in r.entries]
    assert sum(s is not None for s in summed) >= 20
    for space in (lp(1), c0()):
        with pytest.raises(AssertionError, match="probe route called"):
            series_probe(space, magnitudes=lambda ns: 1.0 / ns**2)
