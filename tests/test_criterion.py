import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.criterion import (
    CONVERGES,
    DEFAULT_EXP_CAP,
    DIVERGES,
    FAILS,
    INCONCLUSIVE,
    SATISFIES,
    SCAN_TERMS,
    _extrapolate_tail,
    _shift_series,
    bilateral_condition,
    classify_magnitudes,
    fhc_check_tmu,
    hc_check,
    qfhc_check,
    salas_check,
    series_probe,
    unilateral_condition,
    weakstar_condition,
)
from shiftlab.density import iroot
from shiftlab.errors import DomainMismatchError, InvalidArgumentError
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
        # terms of 100 pass the default threshold 1e6 after 10^4 terms
        v = classify_magnitudes(lambda ns: np.full(len(ns), 100.0), 2**16)
        assert v.kind == DIVERGES
        assert "threshold" in v.rule

    def test_condensation_divergence(self):
        v = classify_magnitudes(lambda ns: np.ones(len(ns)), 2**16)
        assert v.kind == DIVERGES
        assert "condensation" in v.rule

    def test_overflowing_terms_diverge(self):
        v = classify_magnitudes(lambda ns: np.exp(ns.astype(float)), 2**12)
        assert v.kind == DIVERGES

    @pytest.mark.parametrize("max_exp", [8, 12])
    def test_c0_overflowing_terms_diverge(self, max_exp):
        # e^4096 overflows to inf, which must not read as decay (inf <= 0.2 * inf)
        v = series_probe(c0(), magnitudes=lambda ns: np.exp(ns.astype(float)), max_exp=max_exp)
        assert v.kind == DIVERGES
        assert v.rule.endswith(" (term overflow)") == (max_exp == 12)

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


class TestPrefixReach:
    """A series with fewer than two terms inside the 2^22 reach (n^q + j
    past DEFAULT_EXP_CAP from n = 2 on) reads no term: its asymptotic
    class decides it."""

    @pytest.mark.parametrize("q", [22, 23, 40])
    def test_unilateral_condition_stays_inside_the_reach(self, q):
        w = RootRatioWeight(1)
        seen = record_reads(w)
        rep = unilateral_condition(w, lp(2), q, range(0, 5))
        assert rep.overall == SATISFIES
        assert {e.verdict.rule for e in rep.entries} == {
            f"asymptotic class at log n: coefficient -{q} < -1"}
        assert {e.verdict.checkpoints for e in rep.entries} == {()}
        assert seen[1] <= 2**22

    @pytest.mark.parametrize("q", [22, 23])
    def test_qfhc_check_stays_inside_the_reach(self, q):
        w = BergmanWeight()
        seen = record_reads(w)
        rep = qfhc_check(lp(2), w, q, [1, 2, 3])
        assert rep.overall == SATISFIES
        assert rep.entry("S-series j=1").verdict.rule == (
            f"asymptotic class at log n: coefficient -{q} < -1")
        # the unilateral T-series stays trivially convergent
        assert rep.entry("T-series j=1").verdict.kind == CONVERGES
        assert seen[1] <= 2**22

    @pytest.mark.parametrize("space", [lp(2, BILATERAL), c0(BILATERAL)], ids=["l2", "c0"])
    def test_bilateral_condition_stays_inside_the_reach(self, space):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        seen = record_reads(w)
        rep = bilateral_condition(w, space, 23, range(-2, 3))
        assert rep.overall == SATISFIES
        assert len(rep.entries) == 10
        coefficient = "-0.693147" if space.kind == "c0" else "-1.38629"
        assert {e.verdict.rule for e in rep.entries} == {
            f"asymptotic class at n^23: coefficient {coefficient} < 0"}
        assert seen[1] <= 2**22

    @pytest.mark.parametrize("j", [5_000_000, 2**23 + 5, -(2**22) - 1])
    @pytest.mark.parametrize("check", ["qfhc", "unilateral", "weakstar", "bilateral", "c0"])
    def test_offsets_past_the_reach_refused_before_any_read(self, check, j):
        w = (BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
             if check in ("bilateral", "c0") else BergmanWeight())
        seen = record_reads(w)
        calls = {
            "qfhc": lambda: qfhc_check(lp(2), w, 1, [1, j]),
            "unilateral": lambda: unilateral_condition(w, lp(2), 1, [j]),
            "weakstar": lambda: weakstar_condition(w, 1, [0, j]),
            "bilateral": lambda: bilateral_condition(w, lp(2, BILATERAL), 1, [j]),
            "c0": lambda: bilateral_condition(w, c0(BILATERAL), 1, [0, j]),
        }
        with pytest.raises(InvalidArgumentError, match="past the 2\\^22 prefix reach"):
            calls[check]()
        assert seen == [0, 0]

    def test_q21_still_decides(self):
        # 2^21 + 4 <= 2^22: two terms fit, so the scan reports them
        rep = unilateral_condition(RootRatioWeight(1), lp(2), 21, [0])
        assert rep.entries[0].verdict.kind == CONVERGES
        assert [m for m, _ in rep.entries[0].verdict.checkpoints] == [1, 2, 2]


class TestBilateral:
    def test_expanding_both_sides_satisfies(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, lp(2, BILATERAL), 1, range(-2, 3))
        assert rep.overall == SATISFIES

    def test_symmetric_weights_fail(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=2.0)
        rep = bilateral_condition(w, lp(2, BILATERAL), 1, range(-2, 3))
        assert rep.overall == FAILS

    def test_c0_limit_route(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, c0(BILATERAL), 1, range(-1, 2))
        assert rep.overall == SATISFIES

    @pytest.mark.parametrize("space", [lp(2), c0(), entire(4), linf_weakstar()],
                             ids=["l2", "c0", "entire", "weakstar"])
    def test_needs_a_bilateral_lp_or_c0_space(self, space):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        seen = record_reads(w)
        with pytest.raises(InvalidArgumentError, match="lp or c0 bilateral space"):
            bilateral_condition(w, space, 1, [0])
        assert seen == [0, 0]

    def test_rejects_unilateral_weights(self):
        w = ConstantWeight(2)
        seen = record_reads(w)
        with pytest.raises(DomainMismatchError):
            bilateral_condition(w, lp(2, BILATERAL), 1, [0])
        assert seen == [0, 0]


class TestDomainRule:
    """Every checker compares the space's domain with the weight family's
    in one place, before any prefix is read."""

    @pytest.mark.parametrize("check", [
        lambda w: unilateral_condition(w, lp(2), 1, [0, 1]),
        lambda w: weakstar_condition(w, 1, [0, 1]),
        lambda w: salas_check(w),
        lambda w: qfhc_check(lp(2), w, 1, [1, 2]),
        lambda w: hc_check(c0(), w, [1, 2]),
    ], ids=["unilateral", "weakstar", "salas", "qfhc", "hc"])
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
        lambda w: hc_check(lp(2, BILATERAL), w, [1, 2]),
    ], ids=["qfhc", "hc"])
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
        with pytest.raises(InvalidArgumentError, match=f"offset {named} is negative"):
            unilateral_condition(w, lp(2), 1, offsets)
        with pytest.raises(InvalidArgumentError, match=f"offset {named} is negative"):
            weakstar_condition(w, 1, offsets)
        assert seen == [0, 0]

    def test_c0_limits_are_term_decay_series(self, monkeypatch):
        import shiftlab.criterion as criterion

        def refuse(values):
            raise AssertionError("classify_limit_infinite called")

        monkeypatch.setattr(criterion, "classify_limit_infinite", refuse)
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        rep = bilateral_condition(w, c0(BILATERAL), 1, range(-1, 2))
        assert rep.overall == SATISFIES
        assert rep.space == "c0(Z)"
        assert [e.label for e in rep.entries][:2] == [
            "forward products j=-1", "backward products j=-1"]


def test_empty_index_list_rejected():
    w2 = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
    checks = (
        lambda: qfhc_check(lp(2), ConstantWeight(2), 1, []),
        lambda: unilateral_condition(ConstantWeight(2), lp(2), 1, []),
        lambda: bilateral_condition(w2, lp(2, BILATERAL), 1, []),
        lambda: bilateral_condition(w2, c0(BILATERAL), 1, []),
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
    assert repr(v.checkpoints) == repr(want_checkpoints)
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

    def test_contracting_bilateral_table_fails(self):
        # weights 0.5 on the positive side and 2 on the rest: B^n e_0 grows
        w = BilateralTableWeight({}, default_pos=0.5, default_nonpos=2.0)
        orbit = iterate(OperatorSpec(w, BACKWARD), CoeffVector.basis(0, BILATERAL), 5)
        assert orbit.support == (-5,) and abs(orbit[-5]) == 32.0
        rep = hc_check(lp(2, BILATERAL), w, [0, 1])
        assert rep.overall == FAILS
        for j in (0, 1):
            assert rep.entry(f"T-orbit j={j}").verdict.kind == DIVERGES
            assert rep.entry(f"S-orbit j={j}").verdict.kind == DIVERGES

    @pytest.mark.parametrize("lam, overall, rule", [
        # S^n e_1 = z^n / lam^n has sup (8/|lam|)^n on |z| <= 8
        (2, FAILS, "asymptotic class at n: coefficient 1.38629 > 0 at R=8"),
        (16, SATISFIES, "asymptotic class at n: coefficient -0.693147 < 0 at R=8"),
    ])
    def test_entire_space_decides_orbit_decay_at_rmax(self, lam, overall, rule):
        rep = hc_check(entire(8), ConstantWeight(lam), [1])
        assert rep.overall == overall
        assert rep.entry("S-orbit j=1").verdict.rule == rule

    def test_slowly_growing_products_satisfy(self):
        # |w_1...w_n| = ((n+2)/2)^(1/6) tends to infinity, too slowly for a
        # scan of 10^4 terms to see the S-orbit decay
        rep = hc_check(lp(2), RootRatioWeight(3), [1])
        assert rep.overall == SATISFIES
        assert rep.entry("S-orbit j=1").verdict.rule == (
            "asymptotic class at log n: coefficient -1/6 < 0")

    @pytest.mark.parametrize("weights", [
        lambda: ConstantWeight(2),
        lambda: ConstantWeight(1),
        BergmanWeight,
        lambda: RootRatioWeight(2),
        LogRatioWeight,
        lambda: TableWeight([0.5, 3.0, 0.1], 2.0),
    ])
    def test_s_orbit_is_the_c0_unilateral_condition(self, weights):
        rep = hc_check(lp(2), weights(), [1, 3])
        for j in (1, 3):
            want = unilateral_condition(weights(), c0(), 1, [j]).entries[0].verdict.kind
            assert rep.entry(f"S-orbit j={j}").verdict.kind == want, j


class TestRunningMaxEvidence:
    """``salas_check``: sup |w_1...w_n| = infinity, read off the class."""

    def test_bergman_records_persist(self):
        ev = salas_check(BergmanWeight())
        assert ev.limsup_infinite

    def test_rolewicz_crosses_threshold(self):
        ev = salas_check(ConstantWeight(2), horizon=10**3)
        assert ev.limsup_infinite
        assert ev.rule == "asymptotic class at n: coefficient -0.693147 < 0"

    def test_unweighted_stalls(self):
        assert not salas_check(ConstantWeight(1)).limsup_infinite

    @pytest.mark.parametrize("weights, want", [
        # products tending to 0: a running max past 1e6, or a record at the
        # horizon's end, once read as limsup = infinity
        (lambda: TMuWeight(0.9999), False),
        (lambda: TableWeight([1e7], 0.5), False),
        (BergmanWeight, True),
        (lambda: RootRatioWeight(2), True),
        (LogRatioWeight, True),
        (lambda: ConstantWeight(1.01), True),
        (lambda: ConstantWeight(1), False),
        (lambda: ConstantWeight(1 + 1e-13), None),
    ])
    def test_verdict_is_the_class_reading(self, weights, want):
        ev = salas_check(weights())
        assert ev.limsup_infinite is want
        # the c0 condition of the reciprocal products at offset 0
        v = unilateral_condition(weights(), c0(), 1, [0]).entries[0].verdict
        assert ev.rule.split(" (")[0] == v.rule.split(" (")[0]


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
    # decay; the report's scan reads SCAN_TERMS terms once
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
    assert sizes.count(SCAN_TERMS) == 1
    assert sum(sizes) <= SCAN_TERMS + 2


def test_power_law_tail_past_double_range():
    # terms 1e-10 (n/4096)^-90: the tail fit's 4096^90 overflows a double
    got = _extrapolate_tail(lambda ns: 1e-10 * (ns / 4096.0) ** -90.0, 4096)
    with mpmath.workdps(30):
        # the midpoint integral of t_n (x/n_max)^-s from n_max + 1/2
        want = 1e-10 * 4096 ** mpmath.mpf(90) * mpmath.mpf(4096.5) ** -89 / 89
    assert got == pytest.approx(float(want), rel=1e-12)


def _scan_verdict(w, j, q, direction, anchor, p):
    """``classify_magnitudes`` of the same series over every term inside the
    2^22 reach, at most 2^20: the scan the class replaces."""
    series = _shift_series(w, j, q, direction, anchor)

    def mags(ns):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(p * series(ns))

    return classify_magnitudes(mags, min(2**20, iroot(DEFAULT_EXP_CAP - abs(j), q))).kind


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

    @pytest.mark.parametrize("weights, q, p", [
        (lambda: ConstantWeight(2), 1, 2),
        (lambda: ConstantWeight(0.5), 1, 2),
        (lambda: ConstantWeight(1), 1, 1),
        (lambda: TableWeight([0.5, 3.0, 0.1], 2.0), 1, 2),
        (BergmanWeight, 2, 2),
        (BergmanWeight, 1, 1),
        (lambda: RootRatioWeight(1), 3, 2),
        (lambda: RootRatioWeight(3), 1, 2),
        (LogRatioWeight, 1, 1),
        (LogRatioWeight, 2, 2),
        (lambda: TMuWeight(1.5), 1, 1),
        (lambda: TMuWeight(1), 1, 2),
        (lambda: TMuWeight(0.5j), 1, 1),
    ])
    def test_unilateral_class_matches_the_full_scan(self, weights, q, p):
        # every case here is decided far from the boundary: |p d q - 1| >= 0.5,
        # or the deciding level is n^q or higher
        for j in (0, 3):
            got = unilateral_condition(weights(), lp(p), q, [j]).entries[0].verdict.kind
            assert got == _scan_verdict(weights(), j, q, 1, None, p), j
        got = qfhc_check(lp(p), weights(), q, [3]).entry("S-series j=3").verdict.kind
        assert got == _scan_verdict(weights(), 3, q, 1, 3, p)

    @pytest.mark.parametrize("weights", [
        _bilateral(2.0, 0.5, {-3: 3.0, 0: 0.5j, 2: -2.0}),
        _bilateral(0.5, 2.0),
        _bilateral(3.0, 1.5),
    ])
    def test_bilateral_classes_match_the_full_scan(self, weights):
        rep = bilateral_condition(weights(), lp(2, BILATERAL), 1, [-1, 2])
        for j in (-1, 2):
            forward = rep.entry(f"forward series j={j}").verdict.kind
            backward = rep.entry(f"backward series j={j}").verdict.kind
            assert forward == _scan_verdict(weights(), j, 1, 1, None, 2), j
            assert backward == _scan_verdict(weights(), j, 1, -1, j, 2), j

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
        with pytest.raises(NotImplementedError, match="Doubling"):
            hc_check(lp(2), w, [1])

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
