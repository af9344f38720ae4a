import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab.errors import DomainMismatchError, InvalidArgumentError, ResourceLimitError
from shiftlab.seqspace import BILATERAL, UNILATERAL, CoeffVector
from shiftlab import shiftops
from shiftlab.shiftops import (
    BACKWARD,
    FORWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
    apply,
    iterate,
    orbit_batch,
    smu_power_basis,
    tmu_apply,
)


def close(a: complex, b: complex, tol=1e-10):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= tol * scale


class TestLogPolar:
    def test_log_polar_form(self):
        assert shiftops._log_polar(3.0 - 4.0j) == (math.log(5.0), math.atan2(-4.0, 3.0))

    @pytest.mark.parametrize("z", [2 + 5e-324j, 1e300 + 1e-300j])
    def test_underflowing_phase_is_zero(self, z):
        assert shiftops._log_polar(z)[1] == 0.0
        assert CoeffVector(UNILATERAL, {1: z}).log_polar[2].tolist() == [0.0]

    def test_phase_has_the_bits_of_cmath_phase(self):
        rng = random.Random(5)
        zs = [complex(a, b) for a in (0.0, -0.0, 1.0, -1.0) for b in (0.0, -0.0, 2.0, -2.0)]
        zs += [complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300),
                       rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300))
               for _ in range(5000)]
        for z in filter(None, zs):
            try:
                want = cmath.phase(z)
            except OverflowError:
                continue
            assert shiftops._log_polar(z)[1] == want
            assert CoeffVector(UNILATERAL, {1: z}).log_polar[2][0] == want


class TestPrefixProducts:
    def test_constant(self):
        w = ConstantWeight(2)
        for n in (1, 5, 40):
            assert math.isclose(w.prefix(n).logmag, n * math.log(2.0), rel_tol=1e-12)
            assert w.prefix(n).phase == 0.0

    def test_bergman_prefix_is_sqrt(self):
        w = BergmanWeight()
        for n in (1, 2, 10, 500):
            assert math.isclose(
                w.prefix(n).logmag, 0.5 * math.log(n + 1), rel_tol=1e-12
            )

    def test_log_ratio_prefix(self):
        w = LogRatioWeight()
        for k in (1, 7, 300):
            expect = math.log(math.log(k + 2) / math.log(2))
            assert math.isclose(w.prefix(k).logmag, expect, rel_tol=1e-10)

    def test_root_ratio_prefix(self):
        for p in (1, 2, 3):
            w = RootRatioWeight(p)
            for k in (1, 9, 100):
                expect = math.log((k + 2) / 2.0) / (2.0 * p)
                assert math.isclose(w.prefix(k).logmag, expect, rel_tol=1e-10)

    def test_prefix_zero_is_identity(self):
        assert ConstantWeight(3).prefix(0).logmag == 0.0

    def test_bilateral_negative_prefix(self):
        w = BilateralTableWeight({}, default_pos=2.0, default_nonpos=0.5)
        # product over (−m, 0] of w is 0.5^m, so P(−m) = −m·log(0.5)
        assert math.isclose(w.prefix(-3).logmag, -3 * math.log(0.5), rel_tol=1e-12)

    def test_table_weight(self):
        w = TableWeight((2.0, 3.0), default=1.0)
        assert math.isclose(w.prefix(3).logmag, math.log(6.0), rel_tol=1e-12)
        assert w.prefix(3).phase == 0.0

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TableWeight((0.0,), default=1.0).prefix(1)


class TestOperators:
    def test_backward_drops_edge(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        v = CoeffVector(UNILATERAL, {1: 1.0, 3: 1.0})
        out = apply(op, v)
        assert out.support == (2,)
        assert close(out[2], 2.0)

    def test_forward_divides(self):
        op = OperatorSpec(ConstantWeight(2), FORWARD)
        out = apply(op, CoeffVector.basis(1))
        assert out.support == (2,)
        assert close(out[2], 0.5)

    def test_backward_right_inverse_of_forward(self):
        w = BergmanWeight()
        v = CoeffVector(UNILATERAL, {2: 1.5 - 1.0j, 5: 0.25})
        fwd = apply(OperatorSpec(w, FORWARD), v)
        back = apply(OperatorSpec(w, BACKWARD), fwd)
        for i in v.support:
            assert close(back[i], v[i], 1e-12)

    def test_rotation_validated(self):
        with pytest.raises(InvalidArgumentError):
            OperatorSpec(ConstantWeight(2), BACKWARD, rotation=2.0)

    def test_rotation_applied_per_power(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=1j, power=2)
        out = apply(op, CoeffVector.basis(3))
        assert close(out[1], (1j) ** 2 * 4.0, 1e-12)

    def test_iterate_matches_repeated_apply(self):
        w = BergmanWeight()
        op = OperatorSpec(w, BACKWARD, rotation=cmath.exp(0.3j))
        v = CoeffVector(UNILATERAL, {1: 1.0, 4: -2.0j, 9: 0.5})
        direct = v
        for _ in range(6):
            direct = apply(op, direct)
        fast = iterate(op, v, 6)
        for i in set(direct.support) | set(fast.support):
            assert close(direct[i], fast[i], 1e-10)

    def test_power_consistency_exact(self):
        w = ConstantWeight(2)
        v = CoeffVector(UNILATERAL, {k: 1.0 / 2**k for k in range(1, 12)})
        a = iterate(OperatorSpec(w, BACKWARD, power=3), v, 2)
        b = iterate(OperatorSpec(w, BACKWARD), v, 6)
        assert dict(a.entries) == dict(b.entries)

    def test_iterate_zero_steps_is_identity(self):
        v = CoeffVector(UNILATERAL, {2: 1.0})
        assert iterate(OperatorSpec(ConstantWeight(2), BACKWARD), v, 0) == v

    def test_overflow_names_the_time_and_log_magnitude(self):
        # P(0) - P(-10^9) = 10^9 log 2: no coefficient dict can hold e^that
        v = CoeffVector(BILATERAL, {0: 1.0})
        op = OperatorSpec(ConstantWeight(2, domain=BILATERAL), BACKWARD)
        with pytest.raises(ResourceLimitError, match=(
                r"^time 1000000000: a term of log-magnitude 6\.93147e\+08 is past double range$")):
            iterate(op, v, 10**9)

    def test_orbit_entries_keep_phase_separate(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=1j)
        rot_idx, rot_lm, _, _ = orbit_batch(op, CoeffVector.basis(5), [2])
        idx, lm, _, _ = orbit_batch(
            OperatorSpec(ConstantWeight(2), BACKWARD), CoeffVector.basis(5), [2]
        )
        # same magnitudes, phases differ by the rotation only
        assert list(zip(rot_idx.tolist(), rot_lm.tolist())) == list(
            zip(idx.tolist(), lm.tolist()))

    def test_forward_iterate(self):
        w = ConstantWeight(2)
        out = iterate(OperatorSpec(w, FORWARD), CoeffVector.basis(1, w.domain), 3)
        assert out.support == (4,)
        assert close(out[4], 2.0 ** (-3), 1e-12)


bergman_vectors = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=10),
    min_size=1,
    max_size=6,
)


class TestSemigroupProperty:
    @settings(max_examples=40, deadline=None)
    @given(bergman_vectors, st.integers(1, 8), st.integers(1, 8))
    @example({1: 2 + 5e-324j}, 1, 1)  # arg c underflows: cmath.phase raises
    def test_iterate_composes(self, entries, m, n):
        w = BergmanWeight()
        op = OperatorSpec(w, BACKWARD)
        v = CoeffVector(UNILATERAL, entries)
        once = iterate(op, v, m + n)
        twice = iterate(op, iterate(op, v, m), n)
        for i in set(once.support) | set(twice.support):
            assert close(once[i], twice[i], 1e-9)


class TestDifferentiationOperator:
    def test_weight_values(self):
        w = TMuWeight(1.5)
        assert w.weight(1) == 1.0
        assert close(w.weight(4), 3 * 1.5**2, 1e-14)

    def test_apply_equals_family_shift_exactly(self):
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

    def test_constant_term_dies(self):
        assert tmu_apply(2.0, CoeffVector.basis(1)) == CoeffVector.zero()

    def test_derivative_of_square(self):
        # d/dz z^2 evaluated at mu z: 2 mu z
        out = tmu_apply(1.5, CoeffVector.basis(3))
        assert out.support == (2,)
        assert close(out[2], 2 * 1.5)

    def test_right_inverse_power_basis(self):
        # n-fold right inverse of z^k, checked against sequentially
        # inverting the shift: S(z^d) = z^(d+1) / ((d+1) mu^d)
        for mu in (1.0, 1.5, 2.0, 1 + 1j):
            for k in range(0, 5):
                coeff, deg = 1.0 + 0j, k
                for n in range(1, 11):
                    coeff = coeff / ((deg + 1) * complex(mu) ** deg)
                    deg += 1
                    v = smu_power_basis(mu, k, n)
                    assert v.support == (deg + 1,)
                    assert close(v[deg + 1], coeff, 1e-10)

    def test_degree_product_identity(self):
        # product of derivative factors over degrees 1..n is n! mu^(n(n-1)/2)
        for mu in (1.5, 1 + 1j):
            w = TMuWeight(mu)
            for n in range(1, 201):
                got = w.prefix(n + 1)
                want_lm = math.lgamma(n + 1) + (n * (n - 1) / 2) * math.log(abs(mu))
                want_ph = (n * (n - 1) / 2) * cmath.phase(mu)
                assert abs(got.logmag - want_lm) <= 1e-9 * max(1, abs(want_lm))
                assert abs(got.phase - want_ph) <= 1e-9 * max(1, abs(want_ph))

    def test_backward_then_inverse_restores_monomial(self):
        mu = 1.5
        v = smu_power_basis(mu, 3, 4)
        w = TMuWeight(mu)
        out = iterate(OperatorSpec(w, BACKWARD), v, 4)
        assert out.support == (4,)
        assert close(out[4], 1.0, 1e-10)


def test_power_basis_past_the_exact_index_limit():
    # 2^23 steps read P(2^23 + 1) and underflow to the zero vector
    assert smu_power_basis(1.5, 0, 2**23).entries == {}
    with pytest.raises(ResourceLimitError, match="prefix index 9007199254740993 is past "
                                                 "the exact-index limit 2\\^53"):
        smu_power_basis(1.5, 0, 2**53)


def test_orbit_anchor_past_the_precision_limit_is_refused():
    # |P(2^22)| of TMu(1.5) is about 3.56e12: each log term anchored there
    # could be off by 2 ulp = 9.8e-4
    w = TMuWeight(1.5)
    reads = []
    at = w._at
    w._at = lambda points, phase=True: reads.append(np.size(points)) or at(points, phase)
    v = CoeffVector(UNILATERAL, {2: 1.0, 2**22: 1.0})
    with pytest.raises(ResourceLimitError, match=(
            r"^anchor 4194304: \|P\(4194304\)\| = 3\.56657e\+12 >= 2\^27, so each log "
            r"term P\(4194304\) - P\(m\) may be off by 2 ulp = 0\.000977$")):
        iterate(OperatorSpec(w, FORWARD), v, 1)
    assert reads == [2]  # the anchors only, before any term's target
    # a backward orbit that has dropped the anchor's term never reads it
    op = OperatorSpec(w, BACKWARD)
    assert iterate(op, v, 2**22).entries == {}
    # at time 0 no term moves, so no anchor is read
    assert iterate(op, v, 0) == v
    # |P(2^23)| of TMu(1) is lgamma(2^23), about 1.25e8 < 2^27
    big = CoeffVector(UNILATERAL, {2**23: 1.0})
    assert iterate(OperatorSpec(TMuWeight(1), BACKWARD), big, 1).support == (2**23 - 1,)


def scalar_orbit_entries(op, v, steps):
    """Reference orbit: one pass over the support per time, with two
    scalar ``prefix`` lookups per surviving entry."""
    w = op.base
    rot_phase = steps * cmath.phase(complex(op.rotation))
    out = []
    for j, c in v.entries.items():
        if op.direction == BACKWARD:
            tgt = j - steps
            if v.domain == UNILATERAL and tgt < 1 and steps > 0:
                continue
        else:
            tgt = j + steps
        if steps == 0:
            dlm = dph = 0.0
        else:
            pj, pt = w.prefix(j), w.prefix(tgt)
            dlm, dph = pj.logmag - pt.logmag, pj.phase - pt.phase
        out.append((tgt, math.log(abs(c)) + dlm, cmath.phase(c) + dph + rot_phase))
    return out


def scalar_iterate(op, v, n):
    if n == 0:
        return v
    entries = {}
    for idx, lm, ph in scalar_orbit_entries(op, v, n * op.power):
        entries[idx] = entries.get(idx, 0j) + cmath.rect(math.exp(lm), ph)
    return CoeffVector(v.domain, entries)


def term_bits(terms):
    return [(i, lm.hex(), ph.hex()) for i, lm, ph in terms]


def batch_terms(op, v, steps):
    """``orbit_batch``'s terms, per time as (index, logmag, phase) lists."""
    idx, lm, ph, counts = orbit_batch(op, v, steps)
    ends = np.cumsum(counts).tolist()
    return [list(zip(idx[a:b].tolist(), lm[a:b].tolist(), ph[a:b].tolist()))
            for a, b in zip([0] + ends[:-1], ends)]


def vector_bits(v):
    return [(i, c.real.hex(), c.imag.hex()) for i, c in v.entries.items()]


# Supports reach past the table heads and past 4096, and the times hit
# the edge j == steps; -0.0 parts exercise signed-zero phases.
UNI_VECTOR = {1: 1.0, 2: complex(1.0, -0.0), 3: -0.5j, 7: 2 + 1j, 4100: 1e-3, 6000: -3.0}
BI_VECTOR = {-4000: 0.25j, -3: 1.5, 0: complex(-2.0, -0.0), 5: 1 - 1j, 4500: 0.75}
ENGINE_CASES = [
    ("constant", lambda: ConstantWeight(2), UNILATERAL),
    ("rotated constant", lambda: ConstantWeight(cmath.rect(1.5, 0.7)), UNILATERAL),
    ("bergman", BergmanWeight, UNILATERAL),
    ("tmu", lambda: TMuWeight(0.8 + 0.3j), UNILATERAL),
    ("table", lambda: TableWeight((2.0, -1.5j, 0.3 + 0.4j), default=1.25 - 0.5j), UNILATERAL),
    ("bilateral", lambda: BilateralTableWeight(
        {-2: 3.0, 0: 0.5j, 4: -2.0}, default_pos=1.5, default_nonpos=0.75j), BILATERAL),
]
STEPS = [0, 1, 3, 7, 6, 6000, 2, 5000, 4101, 9000]


class TestBatchedOrbitEngine:
    @pytest.mark.parametrize("name,make,domain", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    @pytest.mark.parametrize("direction", [BACKWARD, FORWARD])
    @pytest.mark.parametrize("rotation,power", [(1.0, 1), (cmath.exp(-2.1j), 1), (1j, 3)])
    def test_matches_scalar_loop_bitwise(self, name, make, domain, direction, rotation, power):
        v = CoeffVector(domain, UNI_VECTOR if domain == UNILATERAL else BI_VECTOR)
        ref_w, w = make(), make()
        ref_op = OperatorSpec(ref_w, direction, rotation=rotation, power=power)
        op = OperatorSpec(w, direction, rotation=rotation, power=power)
        want = [scalar_orbit_entries(ref_op, v, s) for s in STEPS]
        idx, lm, ph, counts = orbit_batch(op, v, STEPS)
        assert counts.tolist() == [len(t) for t in want]
        flat = list(zip(idx.tolist(), lm.tolist(), ph.tolist()))
        assert term_bits(flat) == term_bits([t for ts in want for t in ts])

    @pytest.mark.parametrize("name,make,domain", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    def test_one_time_views_match_scalar_bitwise(self, name, make, domain):
        v = CoeffVector(domain, UNI_VECTOR if domain == UNILATERAL else BI_VECTOR)
        ref_w, w = make(), make()
        for direction in (BACKWARD, FORWARD):
            ref_op = OperatorSpec(ref_w, direction, rotation=cmath.exp(0.4j), power=2)
            op = OperatorSpec(w, direction, rotation=cmath.exp(0.4j), power=2)
            for n in (0, 1, 3, 3000, 2):
                idx, lm, ph, _ = orbit_batch(op, v, [n * 2])
                assert term_bits(zip(idx.tolist(), lm.tolist(), ph.tolist())) == term_bits(
                    scalar_orbit_entries(ref_op, v, n * 2))
                try:
                    want = vector_bits(scalar_iterate(ref_op, v, n))
                except OverflowError:  # TMu's forward products outgrow floats
                    with pytest.raises(ResourceLimitError, match=f"^time {n}: a term of "):
                        iterate(op, v, n)
                    continue
                assert vector_bits(iterate(op, v, n)) == want

    def test_chunks_match_one_batch(self, monkeypatch):
        v = CoeffVector(UNILATERAL, UNI_VECTOR)
        op = OperatorSpec(ConstantWeight(1.5), BACKWARD)
        idx, lm, ph, counts = orbit_batch(op, v, STEPS)
        monkeypatch.setattr(shiftops, "ORBIT_CHUNK_TERMS", 4)
        runs = []
        # time 5000 moves 1.5^5000 e_1000 past double range: the times
        # before it are yielded, then it is refused by name
        with pytest.raises(ResourceLimitError,
                           match="^time 5000: a term of log-magnitude 2028.42 "):
            runs.extend(shiftops._orbit_chunks(op, v, STEPS))
        n = STEPS.index(5000)
        m = int(counts[:n].sum())
        assert len(runs) > 1
        assert np.concatenate([r[0] for r in runs]).tolist() == STEPS[:n]
        assert np.concatenate([r[3] for r in runs]).tolist() == counts[:n].tolist()
        assert np.concatenate([r[1] for r in runs]).tolist() == idx[:m].tolist()
        # the coefficients are libm's rect(exp) of the batch's terms
        z = [cmath.rect(math.exp(a), b) for a, b in zip(lm[:m].tolist(), ph[:m].tolist())]
        got = np.concatenate([r[2] for r in runs]).tolist()
        assert [(c.real.hex(), c.imag.hex()) for c in got] == [
            (c.real.hex(), c.imag.hex()) for c in z]

    def test_batch_yields_every_time(self):
        v = CoeffVector(UNILATERAL, UNI_VECTOR)
        op = OperatorSpec(BergmanWeight(), BACKWARD)
        ns = [0, 5, 4100, 6001, 1]
        got = [term_bits(t) for t in batch_terms(op, v, ns)]
        assert iterate(op, v, 0) is v
        assert got == [term_bits(scalar_orbit_entries(op, v, n)) for n in ns]
        assert got[3] == [] and iterate(op, v, 6001) == CoeffVector.zero()

    def test_iterate_keeps_the_zero_signs_of_a_sum_of_terms(self):
        # phase -0.0 at index 35; at index 40 a phase of -pi whose imaginary
        # part underflows to -0.0 in rect, where a sum of terms gives +0.0
        v = CoeffVector(UNILATERAL, {35: complex(2.0, -0.0), 40: complex(-1e-300, -0.0)})
        op = OperatorSpec(ConstantWeight(0.5), BACKWARD)
        idx, lm, ph, _ = orbit_batch(op, v, [30])
        summed = {}
        for i, l, p in zip(idx.tolist(), lm.tolist(), ph.tolist()):
            summed[i] = summed.get(i, 0j) + cmath.rect(math.exp(l), p)
        assert cmath.rect(math.exp(lm[1]), ph[1]).imag.hex() == "-0x0.0p+0"
        got = vector_bits(iterate(op, v, 30))
        assert got == vector_bits(CoeffVector(UNILATERAL, summed))
        assert [imag for _, _, imag in got] == ["0x0.0p+0", "0x0.0p+0"]

    def test_memory_follows_surviving_terms(self):
        # a unilateral backward orbit past the support keeps nothing
        v = CoeffVector(UNILATERAL, {i: 1.0 for i in range(1, 2001)})
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        idx, _, _, counts = orbit_batch(op, v, np.arange(1990, 12000))
        assert len(idx) == counts.sum() == sum(range(1, 11))

    def test_rejects_negative_steps_and_domain_mismatch(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        with pytest.raises(InvalidArgumentError):
            orbit_batch(op, CoeffVector.basis(3), [1, -1])
        with pytest.raises(InvalidArgumentError):
            iterate(op, CoeffVector.basis(3), -2)
        with pytest.raises(InvalidArgumentError):
            list(shiftops._orbit_chunks(op, CoeffVector.basis(3), [2, -2]))
        with pytest.raises(DomainMismatchError):
            orbit_batch(op, CoeffVector.basis(3, BILATERAL), [1])


class TestStepCountsPastInt64:
    @pytest.mark.parametrize("n", [2**60, 2**63, 2**70, 10**30])
    def test_unilateral_backward_orbit_is_zero(self, n):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        assert iterate(op, CoeffVector.basis(1), n).entries == {}
        powered = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=1j, power=n)
        assert iterate(powered, CoeffVector.basis(5), 3).entries == {}

    def test_earlier_times_of_a_batch_are_unchanged(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        v = CoeffVector(UNILATERAL, UNI_VECTOR)
        got = [term_bits(t) for t in batch_terms(op, v, [0, 3, 7, 2**70, 5])]
        want = [term_bits(scalar_orbit_entries(op, v, n)) for n in (0, 3, 7)]
        assert got[:3] == want
        assert got[3] == [] and got[4] == term_bits(scalar_orbit_entries(op, v, 5))
        assert vector_bits(iterate(op, v, 2**70)) == []

    def test_negative_counts_still_rejected(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        with pytest.raises(InvalidArgumentError):
            orbit_batch(op, CoeffVector.basis(3), [1, -2**70])

    @pytest.mark.parametrize("domain,direction", [
        (UNILATERAL, FORWARD), (BILATERAL, BACKWARD), (BILATERAL, FORWARD),
    ])
    def test_other_orbits_hit_the_exact_index_limit(self, domain, direction):
        op = OperatorSpec(ConstantWeight(2, domain), direction)
        for n in (2**63, 2**70):
            with pytest.raises(ResourceLimitError, match="past the exact-index limit 2\\^53"):
                iterate(op, CoeffVector.basis(1, domain), n)


# Every family configuration the prefix tests cover: real, -0j, negative
# and complex constants, a bilateral constant, the log-ratio families,
# TMu and both tables.  Bilateral families are also read at -n.
FAMILIES = [
    ("constant", lambda: ConstantWeight(2)),
    ("constant -0j", lambda: ConstantWeight(complex(2, -0.0))),
    ("negative constant", lambda: ConstantWeight(-0.5)),
    ("complex constant", lambda: ConstantWeight(cmath.rect(1.5, 0.7))),
    ("bilateral constant", lambda: ConstantWeight(0.5, BILATERAL)),
    ("bergman", BergmanWeight),
    ("logratio", LogRatioWeight),
    ("rootratio p=1", lambda: RootRatioWeight(1)),
    ("rootratio p=7", lambda: RootRatioWeight(7)),
    ("tmu", lambda: TMuWeight(0.8 + 0.3j)),
    ("table", lambda: TableWeight((2.0, -1.5j, 0.3 + 0.4j), default=1.25 - 0.5j)),
    ("bilateral table", lambda: BilateralTableWeight(
        {-2: 3.0, 0: 0.5j, 4: -2.0}, default_pos=1.5, default_nonpos=0.75j)),
]
FAMILY_IDS = [f[0] for f in FAMILIES]
FSUM_POINTS = sorted({*range(0, 65), *range(65, 4098, 97), 4096, 4097})
FAR_POINTS = [2**20 + 4, 4_190_213, 2**23, 3_100_000_000, 2**40, 2**53]


def signed(w, points):
    """``points``, and their mirrors -n on a bilateral family."""
    return [s * n for n in points for s in ((1, -1) if w.domain == BILATERAL else (1,))]


def log_weight(w, k):
    """(log|w_k|, arg w_k) from the definition of w_k.  TMu's factor
    (k-1) mu^(k-2) is taken in log-polar form, its phase unwrapped, as
    the family accumulates it."""
    if isinstance(w, TMuWeight) and k >= 2:
        return (math.log(k - 1) + (k - 2) * math.log(abs(w.mu)),
                (k - 2) * cmath.phase(w.mu))
    z = complex(w.weight(k))
    return math.log(abs(z)), cmath.phase(z)


def fsum_prefix(logs, n):
    """P(n) by math.fsum: logs[k] for k in 1..n, or minus those in -n+1..0."""
    ks = range(1, n + 1) if n >= 0 else range(n + 1, 1)
    sign = 1 if n >= 0 else -1
    return tuple(sign * math.fsum(logs[k][i] for k in ks) for i in (0, 1))


def mp_prefix(w, n):
    """P(n) to 50 digits from the family's definition."""
    mp = mpmath
    if isinstance(w, BergmanWeight):
        return mp.log(n + 1) / 2, 0
    if isinstance(w, LogRatioWeight):
        return mp.log(mp.log(n + 2) / mp.log(2)), 0
    if isinstance(w, RootRatioWeight):
        return mp.log(mp.mpf(n + 2) / 2) / (2 * w.p), 0
    if isinstance(w, TMuWeight):
        tri = (n - 1) * (n - 2) // 2
        mu = mp.mpc(w.mu)
        return mp.loggamma(n) + tri * mp.log(abs(mu)), tri * mp.arg(mu)
    # piecewise constant: explicit weights, then the side's default
    if isinstance(w, ConstantWeight):
        explicit, default = {}, w.lam
    elif isinstance(w, TableWeight):
        explicit, default = dict(enumerate(w.values, start=1)), w.default
    else:
        explicit = w.entries
        default = w.default_pos if n >= 0 else w.default_nonpos
    ks = range(1, n + 1) if n >= 0 else range(n + 1, 1)
    inside = [mp.mpc(v) for k, v in explicit.items() if k in ks]
    rest = len(ks) - len(inside)
    sign = 1 if n >= 0 else -1
    lm = sum(mp.log(abs(z)) for z in inside) + rest * mp.log(abs(mp.mpc(default)))
    ph = sum(mp.arg(z) for z in inside) + rest * mp.arg(mp.mpc(default))
    return sign * lm, sign * ph


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


class TestClosedFormPrefixes:
    @pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
    def test_matches_fsum_of_log_weights(self, name, make):
        w = make()
        lo = -4097 if w.domain == BILATERAL else 1
        logs = {k: log_weight(w, k) for k in range(lo, 4098) if k}
        if w.domain == BILATERAL:
            logs[0] = log_weight(w, 0)
        points = signed(w, FSUM_POINTS)
        lm, ph = w._at(np.array(points))
        for n, got_lm, got_ph in zip(points, lm.tolist(), ph.tolist()):
            want_lm, want_ph = fsum_prefix(logs, n)
            assert_close(got_lm, want_lm)
            assert_close(got_ph, want_ph)

    @pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
    def test_matches_mpmath_far_out(self, name, make):
        w = make()
        points = signed(w, FAR_POINTS)
        lm, ph = w._at(np.array(points))
        with mpmath.workdps(50):
            for n, got_lm, got_ph in zip(points, lm.tolist(), ph.tolist()):
                want_lm, want_ph = mp_prefix(w, n)
                assert_close(got_lm, float(want_lm))
                assert_close(got_ph, float(want_ph))

    @pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
    def test_scalar_and_batched_bits_agree(self, name, make):
        w = make()
        points = signed(w, [0, 1, 2, 3, 4, 5, 9, 4097, 123_457, 2**23, 2**53])
        lm, ph = w._at(np.array(points))
        for n, got_lm, got_ph in zip(points, lm.tolist(), ph.tolist()):
            one = w.prefix(n)
            assert one.logmag.hex() == got_lm.hex() == w.prefix_logmag([n])[0].hex()
            assert one.phase.hex() == got_ph.hex()
        assert w.prefix_logmag(np.array(points)).tobytes() == lm.tobytes()

    def test_domain_limits(self):
        with pytest.raises(DomainMismatchError):
            BergmanWeight().prefix(-1)
        for w in (BergmanWeight(), BilateralTableWeight({}, 2.0, 0.5)):
            w.prefix(2**53)
            for n in (2**53 + 1, 2**70):
                with pytest.raises(ResourceLimitError, match=(
                        f"^prefix index {n} is past the exact-index limit 2\\^53$")):
                    w.prefix(n)
        BilateralTableWeight({}, 2.0, 0.5).prefix(-(2**53))
        with pytest.raises(ResourceLimitError, match="past the exact-index limit"):
            BilateralTableWeight({}, 2.0, 0.5).prefix(-(2**53) - 1)

    def test_warm_only_checks_indices(self):
        w = BilateralTableWeight({-2: 3.0}, 2.0, 0.5)
        heads = [len(w._lm), len(w._lm_neg)]
        w.warm(2**53, nmin=-(2**53))
        assert [len(w._lm), len(w._lm_neg)] == heads
        with pytest.raises(ResourceLimitError):
            w.warm(2**53 + 1)
        with pytest.raises(ResourceLimitError):
            w.warm(4, nmin=-(2**53) - 1)
        BergmanWeight().warm(5, nmin=-3)  # nmin counts on bilateral families only

    @pytest.mark.parametrize("entries, k", [({2**23 + 1: 2.0}, 2**23 + 1),
                                            ({3: 2.0, -(2**23) - 1: 0.5}, -(2**23) - 1)])
    def test_table_entry_past_2_23_refused(self, entries, k):
        with pytest.raises(InvalidArgumentError, match=f"^entry index {k} is past 2\\^23"):
            BilateralTableWeight(entries, 2.0, 0.5)

    def test_table_heads_reach_the_farthest_entry(self):
        w = BilateralTableWeight({2**16: 3.0, -(2**16): 0.25}, 2.0, 0.5)
        assert (len(w._lm), len(w._lm_neg)) == (2**16 + 1, 2**16 + 2)
        # past the heads each index adds its side's default
        n = 2**30
        assert w.prefix(n).logmag == pytest.approx(
            math.log(3.0) + (n - 1) * math.log(2.0), rel=1e-12)
        assert w.prefix(-n).logmag == pytest.approx(
            -(math.log(0.25) + (n - 1) * math.log(0.5)), rel=1e-12)


class TestTMuTriangleNumbers:
    """(m-1)(m-2)/2 of ``TMuWeight._triangle``, which int64 would wrap past
    m = 3.04e9."""

    @pytest.mark.parametrize("m", [3_100_000_000, 2**40, 2**53])
    def test_within_an_ulp_of_the_exact_integer(self, m):
        got = float(TMuWeight._triangle(np.array([m]))[1][0])
        assert abs(int(got) - (m - 1) * (m - 2) // 2) <= math.ulp(got)

    def test_bits_of_the_int64_formula_up_to_2_26(self):
        # every index read before the exact-index limit replaced the 2^23 cap
        step = 2**21
        for lo in range(0, 2**26 + 1, step):
            ns = np.arange(lo, min(lo + step, 2**26 + 1), dtype=np.int64)
            m = np.maximum(ns, 1)
            want = ((m - 1) * (m - 2) // 2).astype(float)
            assert TMuWeight._triangle(ns)[1].tobytes() == want.tobytes(), lo

    def test_heads_hold_only_the_tables(self):
        assert len(BergmanWeight()._lm) == len(ConstantWeight(2)._lm) == 1
        assert len(TableWeight((2.0, 3.0), default=1.0)._lm) == 3
        w = BilateralTableWeight({-3: 2.0, 5: 1.5}, 2.0, 0.5)
        assert (len(w._lm), len(w._lm_neg)) == (6, 5)


class TestPrefixLogmagGathers:
    def scalar_logmags(self, w, points):
        return np.array([w.prefix(int(n)).logmag for n in points]).tobytes()

    @pytest.mark.parametrize("make,points", [
        (BergmanWeight, [5, 0, 4097, 3, 9000, 9000]),
        (lambda: BilateralTableWeight({-2: 3.0, 4: -2.0}, 1.5, 0.75j), [-1, -5000, -3, -4097]),
        (lambda: BilateralTableWeight({-2: 3.0, 4: -2.0}, 1.5, 0.75j), [-3, 0, 7, -4097, 5000]),
    ], ids=["positive", "negative", "mixed"])
    def test_matches_scalar_prefix(self, make, points):
        w = make()
        got = w.prefix_logmag(np.array(points))
        assert got.dtype == np.float64
        assert got.tobytes() == self.scalar_logmags(w, points)

    def test_empty_points_read_and_grow_nothing(self):
        for w in (BergmanWeight(), BilateralTableWeight({}, 2.0, 0.5)):
            got = w.prefix_logmag(np.array([], dtype=np.int64))
            assert got.shape == (0,) and got.dtype == np.float64
            assert len(w._lm) == 1 and len(getattr(w, "_lm_neg", ())) <= 1

    @pytest.mark.parametrize("points", [[-1], [-3, -7], [4, -1]])
    def test_negative_point_on_unilateral_family(self, points):
        with pytest.raises(DomainMismatchError):
            BergmanWeight().prefix_logmag(np.array(points))

    @pytest.mark.parametrize("make,points", [
        (BergmanWeight, [1, 2**53 + 1]),
        (lambda: BilateralTableWeight({}, 2.0, 0.5), [-(2**53 + 1), -4]),
        (lambda: BilateralTableWeight({}, 2.0, 0.5), [3, -(2**53 + 1)]),
    ])
    def test_point_past_the_exact_index_limit(self, make, points):
        with pytest.raises(ResourceLimitError, match="past the exact-index limit 2\\^53"):
            make().prefix_logmag(np.array(points))
