import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.criterion import (
    CONVERGES,
    DIVERGES,
    FAILS,
    INCONCLUSIVE,
    SATISFIES,
    bilateral_condition,
    classify_magnitudes,
    fhc_check,
    fhc_check_tmu,
    hc_check,
    qfhc_check,
    salas_check,
    series_probe,
    unilateral_condition,
    weakstar_condition,
)
from shiftlab.errors import InvalidArgumentError
from shiftlab.seqspace import CoeffVector, UNILATERAL, c0, entire, lp
from shiftlab.shiftops import (
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogRatioWeight,
    RootRatioWeight,
    smu_power_basis,
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
        v = classify_magnitudes(
            lambda ns: np.ones(len(ns)), 2**16, divergence_threshold=100.0
        )
        assert v.kind == DIVERGES
        assert "threshold" in v.rule

    def test_condensation_divergence(self):
        v = classify_magnitudes(lambda ns: np.ones(len(ns)), 2**16)
        assert v.kind == DIVERGES
        assert "condensation" in v.rule

    def test_overflowing_terms_diverge(self):
        v = classify_magnitudes(lambda ns: np.exp(ns.astype(float)), 2**12)
        assert v.kind == DIVERGES

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.8))
    def test_geometric_family_converges(self, r):
        v = series_probe(lp(2), magnitudes=lambda ns, _r=r: _r**ns)
        assert v.kind == CONVERGES
        truth = r * r / (1 - r * r)
        assert abs(v.sum_estimate - truth) <= 1e-6 * max(1, truth)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.3, max_value=3.0))
    def test_power_family_converges(self, s):
        v = series_probe(
            lp(1), magnitudes=lambda ns, _s=s: ns.astype(float) ** (-_s)
        )
        assert v.kind == CONVERGES

    def test_c0_route_checks_term_decay(self):
        good = series_probe(c0(), magnitudes=lambda ns: 1.0 / ns)
        bad = series_probe(c0(), magnitudes=lambda ns: np.ones(len(ns)))
        assert good.kind == CONVERGES
        assert bad.kind == DIVERGES

    def test_requires_exactly_one_input(self):
        with pytest.raises(InvalidArgumentError):
            series_probe(lp(2))

    def test_generator_route_distinct_indices(self):
        v = series_probe(
            lp(2), lambda n: CoeffVector(UNILATERAL, {n + 1: 0.5**n}), max_exp=12
        )
        assert v.kind == CONVERGES
        assert abs(v.sum_estimate - 1.0 / 3.0) <= 1e-8

    def test_generator_route_colliding_indices(self):
        # all terms land on index 1 with constant size: diverges
        v = series_probe(
            lp(2), lambda n: CoeffVector(UNILATERAL, {1: 1.0}), max_exp=10
        )
        assert v.kind == DIVERGES


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


class TestPrefixReach:
    """A series with fewer than two terms inside the 2^22 reach
    (n^q + j past DEFAULT_EXP_CAP from n = 2 on) is inconclusive."""

    RULE = "fewer than two terms within the 2^22 prefix reach"

    @pytest.mark.parametrize("q", [22, 23, 40])
    def test_unilateral_condition_stays_inside_the_reach(self, q):
        w = RootRatioWeight(1)
        rep = unilateral_condition(w, lp(2), q, range(0, 5))
        assert rep.overall == INCONCLUSIVE
        assert {e.verdict.rule for e in rep.entries} == {self.RULE}
        assert len(w._lm) <= 2**22 + 1

    @pytest.mark.parametrize("q", [22, 23])
    def test_qfhc_check_stays_inside_the_reach(self, q):
        w = BergmanWeight()
        rep = qfhc_check(lp(2), w, q, [1, 2, 3])
        assert rep.overall == INCONCLUSIVE
        assert rep.entry("S-series j=1").verdict.rule == self.RULE
        # the unilateral T-series stays trivially convergent
        assert rep.entry("T-series j=1").verdict.kind == CONVERGES
        assert len(w._lm) <= 2**22 + 1

    @pytest.mark.parametrize("on_c0", [False, True])
    def test_bilateral_condition_stays_inside_the_reach(self, on_c0):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, 23, range(-2, 3), p=None if on_c0 else 2, on_c0=on_c0)
        assert rep.overall == INCONCLUSIVE
        assert len(rep.entries) == 10
        assert {e.verdict.rule for e in rep.entries} == {self.RULE}
        assert max(len(w._lm), len(w._lm_neg)) <= 2**22 + 1

    @pytest.mark.parametrize("j", [5_000_000, 2**23 + 5, -(2**22) - 1])
    @pytest.mark.parametrize("check", ["qfhc", "unilateral", "weakstar", "bilateral", "c0"])
    def test_offsets_past_the_reach_refused_before_any_read(self, check, j):
        w = (BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
             if check in ("bilateral", "c0") else BergmanWeight())
        calls = {
            "qfhc": lambda: qfhc_check(lp(2), w, 1, [1, j]),
            "unilateral": lambda: unilateral_condition(w, lp(2), 1, [j]),
            "weakstar": lambda: weakstar_condition(w, 1, [0, j]),
            "bilateral": lambda: bilateral_condition(w, 1, [j], p=2),
            "c0": lambda: bilateral_condition(w, 1, [0, j], on_c0=True),
        }
        with pytest.raises(InvalidArgumentError, match="past the 2\\^22 prefix reach"):
            calls[check]()
        assert len(w._lm) == 1
        assert len(getattr(w, "_lm_neg", ())) <= 1

    def test_q21_still_decides(self):
        # 2^21 + 4 <= 2^22: two terms fit, so the scan runs as before
        rep = unilateral_condition(RootRatioWeight(1), lp(2), 21, [0])
        assert rep.entries[0].verdict.rule != self.RULE


class TestBilateral:
    def test_expanding_both_sides_satisfies(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, 1, range(-2, 3), p=2)
        assert rep.overall == SATISFIES

    def test_symmetric_weights_fail(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=2.0)
        rep = bilateral_condition(w, 1, range(-2, 3), p=2)
        assert rep.overall == FAILS

    def test_c0_limit_route(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, 1, range(-1, 2), on_c0=True)
        assert rep.overall == SATISFIES

    def test_needs_p_or_c0(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        with pytest.raises(InvalidArgumentError):
            bilateral_condition(w, 1, [0])

    def test_rejects_unilateral_weights(self):
        with pytest.raises(InvalidArgumentError):
            bilateral_condition(ConstantWeight(2), 1, [0], p=2)


def test_empty_index_list_rejected():
    w2 = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
    checks = (
        lambda: qfhc_check(lp(2), ConstantWeight(2), 1, []),
        lambda: unilateral_condition(ConstantWeight(2), lp(2), 1, []),
        lambda: bilateral_condition(w2, 1, [], p=2),
        lambda: bilateral_condition(w2, 1, [], on_c0=True),
        lambda: weakstar_condition(ConstantWeight(2), 1, []),
        lambda: hc_check(lp(2), ConstantWeight(2), []),
    )
    for check in checks:
        with pytest.raises(InvalidArgumentError):
            check()


def reference_t_head(w, q, j):
    """The unilateral T-series head as scalar prefix calls, one n at a time."""
    head, n, total = [], 1, 0.0
    while n**q < j:
        total += math.exp(w.prefix(j).logmag - w.prefix(j - n**q).logmag)
        head.append((n, total))
        n += 1
    return tuple(head) or ((1, 0.0),), total


@pytest.mark.parametrize("q, j", [(1, 1), (1, 2), (1, 700), (2, 50), (3, 1000), (2, 0)])
@pytest.mark.parametrize("weights", [BergmanWeight, lambda: ConstantWeight(1.5 - 0.5j)])
def test_unilateral_t_head_matches_scalar_prefixes(weights, q, j):
    rep = qfhc_check(lp(2), weights(), q, [j])
    v = rep.entry(f"T-series j={j}").verdict
    want_checkpoints, want_total = reference_t_head(weights(), q, j)
    assert repr(v.probe.checkpoints) == repr(want_checkpoints)
    assert repr(v.sum_estimate) == repr(want_total)


@pytest.mark.parametrize("horizon", [0, -3])
def test_horizon_below_one_rejected(horizon):
    with pytest.raises(InvalidArgumentError, match="horizon"):
        hc_check(lp(2), ConstantWeight(2), [1], horizon=horizon)
    with pytest.raises(InvalidArgumentError, match="horizon"):
        salas_check(ConstantWeight(2), horizon=horizon)


class TestWeakStarCondition:
    def test_rolewicz_satisfies(self):
        rep = weakstar_condition(ConstantWeight(2), 1, range(0, 4))
        assert rep.overall == SATISFIES

    def test_unweighted_fails(self):
        rep = weakstar_condition(ConstantWeight(1), 1, range(0, 4))
        assert rep.overall == FAILS

    def test_reports_weakstar_space(self):
        assert weakstar_condition(ConstantWeight(2), 1, [1]).space == "l^inf (weak*)"


class TestPlainHypercyclicity:
    def test_bergman_satisfies(self):
        assert hc_check(lp(2), BergmanWeight(), [1, 2, 3]).overall == SATISFIES

    def test_unweighted_fails(self):
        assert hc_check(lp(2), ConstantWeight(1), [1, 2, 3]).overall == FAILS


class TestRunningMaxEvidence:
    def test_bergman_records_persist(self):
        ev = salas_check(BergmanWeight())
        assert ev.limsup_infinite

    def test_rolewicz_crosses_threshold(self):
        ev = salas_check(ConstantWeight(2), horizon=10**3)
        assert ev.limsup_infinite
        assert ev.rule == "threshold crossed"

    def test_unweighted_stalls(self):
        assert not salas_check(ConstantWeight(1)).limsup_infinite


class TestDifferentiationCriterion:
    def test_expanding_argument_satisfies(self):
        assert fhc_check_tmu(1.5).overall == SATISFIES

    def test_plain_derivative_satisfies(self):
        assert fhc_check_tmu(1.0).overall == SATISFIES

    def test_contracting_argument_fails(self):
        assert fhc_check_tmu(0.5).overall == FAILS

    def test_generic_generator_probe(self):
        gens = [
            (
                "antiderivatives of 1",
                lambda n: smu_power_basis(1.5, 0, n),
            )
        ]
        rep = fhc_check(entire(6), gens)
        assert rep.overall == SATISFIES
