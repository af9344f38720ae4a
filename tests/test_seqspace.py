import pytest
from hypothesis import given, strategies as st

from shiftlab.errors import (
    DomainMismatchError,
    InvalidArgumentError,
    UnsupportedOperationError,
)
from shiftlab.seqspace import (
    BILATERAL,
    UNILATERAL,
    CoeffVector,
    coeff_majorant,
    c0,
    entire,
    fnorm,
    linf_weakstar,
    lp,
    weakstar_gap,
)


def vec(entries, domain=UNILATERAL):
    return CoeffVector(domain, entries)


finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
unilateral_entries = st.dictionaries(
    st.integers(min_value=1, max_value=50), finite_complex, max_size=8
)


class TestCanonicalForm:
    def test_zeros_dropped(self):
        v = vec({1: 0, 2: 1.0, 3: 0.0})
        assert v.support == (2,)

    def test_sorted_support(self):
        v = vec({5: 1, 2: 1, 9: 1})
        assert v.support == (2, 5, 9)

    def test_unilateral_rejects_nonpositive_index(self):
        with pytest.raises(InvalidArgumentError):
            vec({0: 1.0})
        with pytest.raises(InvalidArgumentError):
            vec({-3: 1.0})

    def test_bilateral_allows_any_index(self):
        v = vec({-4: 1.0, 0: 2.0}, BILATERAL)
        assert v.support == (-4, 0)

    def test_missing_index_is_zero(self):
        assert vec({2: 1.0})[7] == 0

    @given(unilateral_entries)
    def test_equality_iff_same_entries(self, entries):
        v = vec(entries)
        w = vec(dict(entries))
        assert v == w
        assert not any(c == 0 for c in v.entries.values())


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        v = vec({1: 1.0})
        assert (v - v) == CoeffVector.zero()
        assert not (v - v)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            vec({1: 1}) + vec({1: 1}, BILATERAL)

    @given(unilateral_entries, unilateral_entries)
    def test_add_commutes(self, a, b):
        assert vec(a) + vec(b) == vec(b) + vec(a)

    @given(unilateral_entries, finite_complex)
    def test_scale_distributes(self, a, lam):
        v = vec(a)
        left = lam * (v + v)
        right = lam * v + lam * v
        for i in set(left.support) | set(right.support):
            assert left[i] == pytest.approx(right[i])


class TestFNorms:
    def test_lp_norm(self):
        v = vec({1: 3.0, 2: 4.0})
        assert fnorm(lp(2), v) == pytest.approx(5.0)
        assert fnorm(lp(1), v) == pytest.approx(7.0)

    def test_c0_norm_is_sup(self):
        assert fnorm(c0(), vec({1: -3.0, 9: 2.0})) == pytest.approx(3.0)

    def test_entire_norm_truncated(self):
        # f(z) = z: coefficient of z^1 at index 2; M_R = R
        v = vec({2: 1.0})
        expect = sum(2.0 ** (-r) * min(1.0, float(r)) for r in range(1, 9))
        assert fnorm(entire(8), v) == pytest.approx(expect)

    def test_entire_norm_bounded_by_one(self):
        v = vec({3: 1e9})
        assert fnorm(entire(8), v) < 1.0

    def test_coeff_majorant_indexing(self):
        # 2 z^0 + 3 z^2 at radius 2 -> 2 + 12
        v = vec({1: 2.0, 3: 3.0})
        assert coeff_majorant(v, 2.0) == pytest.approx(14.0)

    def test_entire_norm_survives_overflowing_powers(self):
        # R^399 overflows for R >= 6, where M_R >= 1 saturates
        assert fnorm(entire(8), vec({400: 1e-300})) == 0.02734375

    def test_entire_norm_keeps_small_terms_past_overflow(self):
        # 8^342 overflows but M_8 = 1e-310 * 8^342 is about 0.072, so
        # "overflow means 1" would be wrong.  The mpmath value is
        # 0.000280889552322237; the subnormal 1e-310 carries only about
        # 14 digits and log space loses about one more.
        got = fnorm(entire(8), vec({343: 1e-310}))
        assert got == pytest.approx(0.000280889552322237, rel=1e-13)

    def test_majorant_terms_in_range_keep_their_bits(self):
        v = vec({1: 0.3 - 0.1j, 7: 2.5, 40: 1e-20j, 300: 1e-250})
        for r in range(1, 9):
            want = sum(abs(c) * float(r) ** (i - 1) for i, c in v.entries.items())
            assert coeff_majorant(v, float(r)).hex() == want.hex()

    def test_weakstar_space_has_no_norm(self):
        with pytest.raises(UnsupportedOperationError):
            fnorm(linf_weakstar(), vec({1: 1.0}))

    def test_space_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            fnorm(lp(2), vec({0: 1.0}, BILATERAL))

    @given(unilateral_entries, unilateral_entries)
    def test_lp_triangle_inequality(self, a, b):
        space = lp(2)
        va, vb = vec(a), vec(b)
        assert fnorm(space, va + vb) <= fnorm(space, va) + fnorm(space, vb) + 1e-9

    @given(unilateral_entries)
    def test_c0_dominated_by_l1(self, a):
        v = vec(a)
        assert fnorm(c0(), v) <= fnorm(lp(1), v) + 1e-9


class TestWeakStarGap:
    def test_gap_is_max_functional_difference(self):
        v = vec({1: 1.0, 2: 5.0})
        t = vec({1: 0.25})
        fns = [CoeffVector.basis(1), CoeffVector.basis(2)]
        assert weakstar_gap(v, t, fns) == pytest.approx(5.0)

    def test_empty_functionals_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weakstar_gap(vec({1: 1.0}), vec({1: 1.0}), [])

    @given(unilateral_entries, unilateral_entries)
    def test_gap_bounded_by_sup_norm(self, a, b):
        # coordinate functionals never see more than the sup norm
        v, t = vec(a), vec(b)
        fns = [CoeffVector.basis(i) for i in range(1, 6)]
        assert weakstar_gap(v, t, fns) <= fnorm(c0(), v - t) + 1e-9


class TestSpaceSpec:
    def test_invalid_kind(self):
        import shiftlab.seqspace as sq

        with pytest.raises(InvalidArgumentError):
            sq.SpaceSpec("banach")

    @pytest.mark.parametrize("domain", ["bilaterl", "Unilateral", ""])
    def test_invalid_domain(self, domain):
        import shiftlab.seqspace as sq

        with pytest.raises(InvalidArgumentError, match="unknown domain"):
            sq.SpaceSpec("lp", domain=domain, p=2.0)
        with pytest.raises(InvalidArgumentError, match="unknown domain"):
            c0(domain)

    def test_criterion_refuses_a_space_of_the_other_domain(self):
        from shiftlab.criterion import qfhc_check
        from shiftlab.shiftops import BilateralTableWeight, ConstantWeight

        with pytest.raises(DomainMismatchError):
            qfhc_check(lp(2, BILATERAL), ConstantWeight(2), 1, [1])
        with pytest.raises(DomainMismatchError):
            qfhc_check(lp(2), BilateralTableWeight({}, 2.0, 0.5), 1, [0])

    def test_hc_check_refuses_a_space_of_the_other_domain(self):
        from shiftlab.criterion import hc_check
        from shiftlab.shiftops import BilateralTableWeight, ConstantWeight

        with pytest.raises(DomainMismatchError):
            hc_check(lp(2, BILATERAL), ConstantWeight(2), [1])
        with pytest.raises(DomainMismatchError):
            hc_check(lp(2), BilateralTableWeight({}, 2.0, 0.5), [0])

    def test_lp_requires_p(self):
        with pytest.raises(InvalidArgumentError):
            lp(0.5)

    def test_describe(self):
        assert "l^2" in lp(2).describe()
        assert "c0" in c0().describe()
