import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.errors import DomainMismatchError, InvalidArgumentError, ResourceLimitError
from shiftlab.seqspace import BILATERAL, UNILATERAL, CoeffVector
from shiftlab import shiftops
from shiftlab.shiftops import (
    BACKWARD,
    FORWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogPolar,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
    WeightSeq,
    apply,
    iterate,
    iterates,
    orbit_batch,
    orbit_entries,
    orbit_slices,
    smu_power_basis,
    tmu_apply,
)


def close(a: complex, b: complex, tol=1e-10):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= tol * scale


class TestLogPolar:
    def test_round_trip(self):
        z = 3.0 - 4.0j
        lp_ = LogPolar.from_complex(z)
        assert close(lp_.to_complex(), z, 1e-14)

    def test_product_adds(self):
        a = LogPolar.from_complex(2.0 + 1.0j)
        b = LogPolar.from_complex(-0.5 + 0.25j)
        assert close((a * b).to_complex(), (2.0 + 1.0j) * (-0.5 + 0.25j), 1e-12)

    def test_inverse(self):
        a = LogPolar.from_complex(5.0j)
        assert close((a * a.inverse()).to_complex(), 1.0, 1e-14)


class TestPrefixProducts:
    def test_constant(self):
        w = ConstantWeight(2)
        for n in (1, 5, 40):
            assert close(w.prefix(n).to_complex(), 2.0**n, 1e-12)

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
        assert close(w.prefix(3).to_complex(), 6.0, 1e-12)

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

    def test_step_cap(self):
        v = CoeffVector(BILATERAL, {0: 1.0})
        op = OperatorSpec(ConstantWeight(2, domain=BILATERAL), BACKWARD)
        with pytest.raises(ResourceLimitError):
            iterate(op, v, 10**9)

    def test_orbit_entries_keep_phase_separate(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD, rotation=1j)
        rot = orbit_entries(op, CoeffVector.basis(5), 2)
        plain = orbit_entries(
            OperatorSpec(ConstantWeight(2), BACKWARD), CoeffVector.basis(5), 2
        )
        # same magnitudes, phases differ by the rotation only
        assert [(i, lm) for i, lm, _ in rot] == [(i, lm) for i, lm, _ in plain]

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
                got = w.degree_product(n)
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
            delta = LogPolar(0.0, 0.0)
        else:
            delta = w.prefix(j) * w.prefix(tgt).inverse()
        out.append(
            (tgt, math.log(abs(c)) + delta.logmag, cmath.phase(c) + delta.phase + rot_phase)
        )
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


def vector_bits(v):
    return [(i, c.real.hex(), c.imag.hex()) for i, c in v.entries.items()]


def cache_bytes(w):
    arrays = [w._lm, w._ph]
    if w.domain == BILATERAL:
        arrays += [w._lm_neg, w._ph_neg]
    return [a.tobytes() for a in arrays]


# Each case builds a fresh (cold-cache) weight.  Unilateral supports sit
# on both sides of the first cache block (4096) and the times hit the
# edge j == steps; -0.0 parts exercise signed-zero phases.
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
        # the cold cache grew through the same blocks
        assert cache_bytes(w) == cache_bytes(ref_w)

    @pytest.mark.parametrize("name,make,domain", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    def test_one_time_views_match_scalar_bitwise(self, name, make, domain):
        v = CoeffVector(domain, UNI_VECTOR if domain == UNILATERAL else BI_VECTOR)
        ref_w, w = make(), make()
        for direction in (BACKWARD, FORWARD):
            ref_op = OperatorSpec(ref_w, direction, rotation=cmath.exp(0.4j), power=2)
            op = OperatorSpec(w, direction, rotation=cmath.exp(0.4j), power=2)
            for n in (0, 1, 3, 3000, 2):
                assert term_bits(orbit_entries(op, v, n * 2)) == term_bits(
                    scalar_orbit_entries(ref_op, v, n * 2))
                try:
                    want = vector_bits(scalar_iterate(ref_op, v, n))
                except OverflowError:  # TMu's forward products outgrow floats
                    with pytest.raises(OverflowError):
                        iterate(op, v, n)
                    continue
                assert vector_bits(iterate(op, v, n)) == want
        assert cache_bytes(w) == cache_bytes(ref_w)

    def test_chunked_slices_match_one_batch(self, monkeypatch):
        v = CoeffVector(UNILATERAL, UNI_VECTOR)
        op = OperatorSpec(ConstantWeight(1.5), BACKWARD)
        idx, lm, ph, counts = orbit_batch(op, v, STEPS)
        monkeypatch.setattr(shiftops, "ORBIT_CHUNK_TERMS", 4)
        slices = list(orbit_slices(op, v, STEPS))
        assert [len(s[0]) for s in slices] == counts.tolist()
        assert sum((s[0] for s in slices), []) == idx.tolist()
        assert sum((s[1] for s in slices), []) == lm.tolist()
        assert sum((s[2] for s in slices), []) == ph.tolist()

    def test_iterates_yields_every_time(self):
        v = CoeffVector(UNILATERAL, UNI_VECTOR)
        op = OperatorSpec(BergmanWeight(), BACKWARD)
        ns = [0, 5, 4100, 6001, 1]
        got = list(iterates(op, v, ns))
        assert got[0] is v
        assert [vector_bits(o) for o in got] == [vector_bits(iterate(op, v, n)) for n in ns]
        assert got[3] == CoeffVector.zero()

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
            list(iterates(op, CoeffVector.basis(3), [2, -2]))
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
        got = [vector_bits(x) for x in iterates(op, v, [0, 3, 7, 2**70, 5])]
        want = [vector_bits(scalar_iterate(op, v, n)) for n in (0, 3, 7)]
        assert got[:3] == want
        assert got[3] == [] and got[4] == vector_bits(scalar_iterate(op, v, 5))

    def test_negative_counts_still_rejected(self):
        op = OperatorSpec(ConstantWeight(2), BACKWARD)
        with pytest.raises(InvalidArgumentError):
            orbit_batch(op, CoeffVector.basis(3), [1, -2**70])

    @pytest.mark.parametrize("domain,direction", [
        (UNILATERAL, FORWARD), (BILATERAL, BACKWARD), (BILATERAL, FORWARD),
    ])
    def test_other_orbits_hit_the_prefix_cap(self, domain, direction):
        op = OperatorSpec(ConstantWeight(2, domain), direction)
        for n in (2**63, 2**70):
            with pytest.raises(ResourceLimitError, match="exceeds the cap"):
                iterate(op, CoeffVector.basis(1, domain), n)


class TestTableLogWeightBlocks:
    def test_table_block_equals_scalar_fallback(self):
        w = TableWeight((2.0, -1.5j, 0.3 + 0.4j, -0.7), default=1.25 - 0.5j)
        ns = np.arange(-3, 12)
        for got, want in zip(w._log_weight_block(ns), WeightSeq._log_weight_block(w, ns)):
            assert got.tobytes() == want.tobytes()

    def test_bilateral_block_equals_scalar_fallback(self):
        w = BilateralTableWeight({-5: 3.0, -1: 0.2 - 0.1j, 0: 0.5j, 2: -2.0, 7: 1.1},
                                 default_pos=1.5 + 0.5j, default_nonpos=0.75j)
        ns = np.arange(-9, 11)
        for got, want in zip(w._log_weight_block(ns), WeightSeq._log_weight_block(w, ns)):
            assert got.tobytes() == want.tobytes()
        empty = BilateralTableWeight({}, default_pos=2.0, default_nonpos=-0.5)
        for got, want in zip(empty._log_weight_block(ns), WeightSeq._log_weight_block(empty, ns)):
            assert got.tobytes() == want.tobytes()


# -- prefix-cache growth against the concatenating reference ----------------
# Verbatim copies of the growth code and of each family's vectorized block
# as they were before the cache grew in place.  The cumulative sums depend
# on the block boundaries, so a growth that changes bits shows here even
# where two instances of the current class would agree with each other.


def _ref_constant_block(self, ns):
    lm = np.full(len(ns), math.log(abs(self.lam)))
    ph = np.full(len(ns), cmath.phase(self.lam))
    return lm, ph


def _ref_bergman_block(self, ns):
    ns = ns.astype(float)
    return 0.5 * (np.log(ns + 1) - np.log(ns)), np.zeros(len(ns))


def _ref_log_ratio_block(self, ns):
    ns = ns.astype(float)
    return np.log(np.log(ns + 2)) - np.log(np.log(ns + 1)), np.zeros(len(ns))


def _ref_root_ratio_block(self, ns):
    ns = ns.astype(float)
    lm = (np.log(ns + 2) - np.log(ns + 1)) / (2.0 * self.p)
    return lm, np.zeros(len(ns))


def _ref_tmu_block(self, ns):
    lm = np.empty(len(ns))
    ph = np.empty(len(ns))
    one = ns == 1
    rest = ~one
    lm[one] = 0.0
    ph[one] = 0.0
    nf = ns[rest].astype(float)
    lm[rest] = np.log(nf - 1) + (nf - 2) * math.log(abs(self.mu))
    ph[rest] = (nf - 2) * cmath.phase(self.mu)
    return lm, ph


def _ref_table_block(self, ns):
    # scalar log-polar forms of the table, then the default, by index
    table = np.array([shiftops._log_polar(z) for z in (*self.values, self.default)])
    size = len(self.values)
    at = np.where((ns >= 1) & (ns <= size), ns - 1, size)
    return table[at, 0], table[at, 1]


def _ref_bilateral_table_block(self, ns):
    # scalar log-polar forms of the sorted entries, then both defaults
    keys, values = zip(*sorted(self.entries.items())) if self.entries else ((), ())
    table = np.array([shiftops._log_polar(z) for z in (*values, self.default_pos,
                                                       self.default_nonpos)])
    size = len(keys)
    at = np.where(ns >= 1, size, size + 1)
    if size:
        keys = np.array(keys, dtype=np.int64)
        near = np.minimum(np.searchsorted(keys, ns), size - 1)
        hit = keys[near] == ns
        at[hit] = near[hit]
    return table[at, 0], table[at, 1]


REFERENCE_BLOCKS = {
    ConstantWeight: _ref_constant_block,
    BergmanWeight: _ref_bergman_block,
    LogRatioWeight: _ref_log_ratio_block,
    RootRatioWeight: _ref_root_ratio_block,
    TMuWeight: _ref_tmu_block,
    TableWeight: _ref_table_block,
    BilateralTableWeight: _ref_bilateral_table_block,
}
DEFAULT_STEP_CAP = shiftops.DEFAULT_STEP_CAP


class ReferenceCache:
    """The prefix cache of ``family``, grown by the concatenating code."""

    def __init__(self, family):
        self.family = family
        self._lm = np.zeros(1)
        self._ph = np.zeros(1)
        if family.domain == BILATERAL:
            self._lm_neg = np.zeros(1)
            self._ph_neg = np.zeros(1)

    def __getattr__(self, name):  # family parameters: lam, p, mu, ...
        return getattr(self.family, name)

    def _log_weight_block(self, ns):
        return REFERENCE_BLOCKS[type(self.family)](self, ns)

    def _grow_pos(self, n: int):
        cur = len(self._lm) - 1
        if n <= cur:
            return
        if n > DEFAULT_STEP_CAP:
            raise ResourceLimitError(
                f"prefix index {n} exceeds the cap {DEFAULT_STEP_CAP}"
            )
        target = min(DEFAULT_STEP_CAP, max(n, 2 * cur, 4096))
        ns = np.arange(cur + 1, target + 1)
        lm, ph = self._log_weight_block(ns)
        self._lm = np.concatenate([self._lm, self._lm[-1] + np.cumsum(lm)])
        self._ph = np.concatenate([self._ph, self._ph[-1] + np.cumsum(ph)])

    def _grow_neg(self, m: int):
        # P(-m) = -sum_{i=-m+1}^{0} log w(i)
        cur = len(self._lm_neg) - 1
        if m <= cur:
            return
        if m > DEFAULT_STEP_CAP:
            raise ResourceLimitError(
                f"prefix index -{m} exceeds the cap {DEFAULT_STEP_CAP}"
            )
        target = min(DEFAULT_STEP_CAP, max(m, 2 * cur, 4096))
        ns = -np.arange(cur, target)  # weights at 0, -1, ..., -(target-1)
        lm, ph = self._log_weight_block(ns)
        self._lm_neg = np.concatenate([self._lm_neg, self._lm_neg[-1] - np.cumsum(lm)])
        self._ph_neg = np.concatenate([self._ph_neg, self._ph_neg[-1] - np.cumsum(ph)])

    def warm(self, n: int, nmin: int = 0):
        self._grow_pos(max(0, n))
        if self.domain == BILATERAL and nmin < 0:
            self._grow_neg(-nmin)

    def prefix(self, n: int):
        if n >= 0:
            self._grow_pos(n)
        else:
            self._grow_neg(-n)


GROWTH_FAMILIES = [
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


def _scalar_doubling(w):
    # each call passes the cache end: 4096, then doublings
    for n in (1, 4097, 8193, 16385, 32769):
        w.prefix(n)
        if w.domain == BILATERAL:
            w.prefix(-n)


def _sweep_warm(w):
    w.warm(2**20 + 4)
    w.warm(4_190_213)


def _bilateral_warm(w):
    w.warm(2**20 + 2, nmin=-(2**20 + 2))


GROWTH_CASES = [
    (fam, make, seq)
    for fam, make in GROWTH_FAMILIES
    for seq in (_scalar_doubling, _sweep_warm, _bilateral_warm)
    if seq is not _bilateral_warm or make().domain == BILATERAL
]


class TestPrefixCacheGrowthBitwise:
    @pytest.mark.parametrize("name,make,grow", GROWTH_CASES,
                             ids=[f"{c[0]}-{c[2].__name__.lstrip('_')}" for c in GROWTH_CASES])
    def test_cache_bytes_match_reference(self, name, make, grow):
        w = make()
        grow(w)
        got = cache_bytes(w)
        del w
        ref = ReferenceCache(make())
        grow(ref)
        assert got == cache_bytes(ref)


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
        (BergmanWeight, [1, 2**23 + 1]),
        (lambda: BilateralTableWeight({}, 2.0, 0.5), [-(2**23 + 1), -4]),
        (lambda: BilateralTableWeight({}, 2.0, 0.5), [3, -(2**23 + 1)]),
    ])
    def test_point_past_the_cap(self, make, points):
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            make().prefix_logmag(np.array(points))
