import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab.density import (
    Columns,
    HitSet,
    JSetFamily,
    check_growth_bound,
    generate_jsets,
    iroot,
    q_density_via_ranks,
    q_lower_density,
    shifted_union,
    verify_jsets,
)
from shiftlab.errors import InvalidArgumentError


class TestIroot:
    @given(st.integers(0, 10**12), st.integers(1, 6))
    def test_definition(self, x, q):
        r = iroot(x, q)
        assert r**q <= x < (r + 1) ** q


class TestHitSet:
    def test_sorted_dedup(self):
        hs = HitSet.from_iterable([5, 1, 5, 3], 10)
        assert hs.times == (1, 3, 5)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError):
            HitSet((3, 1), 10)

    def test_rejects_beyond_horizon(self):
        with pytest.raises(InvalidArgumentError):
            HitSet((11,), 10)

    @pytest.mark.parametrize("times", [(1.5, 2.9), (1, 2.5), (float("nan"),), ("3",), (None,)])
    def test_rejects_non_integral_times(self, times):
        with pytest.raises(InvalidArgumentError, match="integers"):
            HitSet(times, 10)
        with pytest.raises(InvalidArgumentError, match="integers"):
            HitSet.from_iterable(iter(times), 10)

    def test_integral_floats_accepted(self):
        assert HitSet((1.0, 2.0), 10).times == (1, 2)
        assert HitSet.from_iterable([3.0, 1, 3], 10).times == (1, 3)

    def test_membership(self):
        hs = HitSet((2, 4), 10)
        assert 4 in hs and 3 not in hs


@st.composite
def profile_cases(draw):
    """(times, horizon, q, burn_in): up to 40 times, with repeats, among
    them 0, 1, the horizon and n_max^q and its neighbours, or none; q in
    1..4; the default burn-in or an explicit one."""
    q = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 2000 if q == 1 else 10**6))
    n_max = iroot(horizon, q)
    edges = [t for t in (0, 1, horizon, n_max**q - 1, n_max**q, n_max**q + 1) if t <= horizon]
    times = draw(st.lists(st.sampled_from(edges) | st.integers(0, horizon), max_size=40))
    burn_in = draw(st.none() | st.integers(1, n_max))
    return times, horizon, q, burn_in


class TestLowerDensity:
    def test_squares_full_density(self):
        hs = HitSet.from_iterable([k * k for k in range(1, 101)], 100**2)
        assert q_lower_density(hs, 2).value == 1.0

    def test_squares_sparse_at_q1(self):
        hs = HitSet.from_iterable(
            [k * k for k in range(1, 100) if k * k <= 3000], 3000
        )
        assert q_lower_density(hs, 1, burn_in=100).value <= 0.02

    def test_profile_count_form(self):
        hs = HitSet.from_iterable([1, 2, 3, 4], 16)
        est = q_lower_density(hs, 2, burn_in=1)
        # p_N = card{n <= N^2}/N: N=1 -> 1, N=2 -> 4/2, N=3 -> 4/3, N=4 -> 1
        assert [p for _, _, p in est.profile] == [1.0, 2.0, 4 / 3, 1.0]
        assert est.value == 1.0

    def test_can_exceed_one_for_higher_q(self):
        hs = HitSet.from_iterable(range(1, 101), 100)
        assert q_lower_density(hs, 2, burn_in=2).value > 1.0

    def test_rank_and_count_agree(self):
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

    def test_empty_set_has_zero_density(self):
        hs = HitSet((), 100)
        assert q_lower_density(hs, 1).value == 0.0

    def test_burn_in_too_large(self):
        with pytest.raises(InvalidArgumentError):
            q_lower_density(HitSet((1,), 100), 1, burn_in=200)

    # from N = 79 on, N^10 passes int64
    @example(([1, 2, 3, 2**62, 2**63 - 1], 10**30, 10, None))
    @settings(max_examples=200, deadline=None)
    @given(profile_cases())
    def test_counts_match_a_brute_force_count(self, case):
        times, horizon, q, burn_in = case
        est = q_lower_density(HitSet.from_iterable(times, horizon), q, burn_in=burn_in)
        n_max = iroot(horizon, q)
        want = []
        for n in range(1, n_max + 1):
            count = sum(1 for t in set(times) if t <= n**q)
            want.append((n, count, count / n))
        assert list(est.profile) == want
        burn_in = max(1, math.ceil(math.sqrt(n_max))) if burn_in is None else burn_in
        assert est.burn_in == burn_in
        assert est.value == min(p for n, _, p in want if n >= burn_in)

    def test_memory_is_the_profile_whatever_the_horizon(self):
        # q = 2 at horizon 10^12: 10^6 profile rows, and nothing of the
        # horizon's size; past the profile's own 24 MB the count peaks
        # under 1 MB
        hs = HitSet.from_iterable([0, 1, 3, 7, 10**6, 10**9, 10**11, 999_999_999_999,
                                   10**12 - 1, 10**12], 10**12)
        tracemalloc.start()
        try:
            est = q_lower_density(hs, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(est.profile) == 10**6
        assert peak - sum(c.nbytes for c in est.profile.columns) < 2**20


class TestGrowthBound:
    def test_quadratic_ranks_bounded(self):
        hs = HitSet.from_iterable([5 * k * k for k in range(1, 201)], 5 * 200**2)
        g = check_growth_bound(hs, 2)
        assert g.bounded
        assert abs(g.constant - 5.0) <= 1e-12

    def test_exponential_ranks_unbounded(self):
        hs = HitSet.from_iterable([2**k for k in range(1, 41)], 2**40)
        for q in range(1, 6):
            assert not check_growth_bound(hs, q).bounded

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_growth_bound(HitSet((), 10), 1)


class TestShiftedUnion:
    def test_against_brute_force(self):
        rng = random.Random(7)
        horizon = 2500
        a = HitSet.from_iterable([k * k for k in range(1, 51)], horizon)
        for _ in range(10):
            shifts = [rng.randint(0, 5) for _ in range(3)]
            blocks = [
                (lambda n, r=r: n % 3 == r, shifts[r]) for r in range(3)
            ]
            out = shifted_union(a, blocks, horizon)
            brute = {
                t + shifts[t % 3]
                for t in a.times
                if t >= 1 and t + shifts[t % 3] <= horizon
            }
            assert set(out.times) == brute

    def test_coverage_required(self):
        a = HitSet.from_iterable([1, 2], 10)
        with pytest.raises(InvalidArgumentError):
            shifted_union(a, [(lambda n: n % 2 == 0, 0)], 10)

    def test_negative_shift_rejected(self):
        a = HitSet.from_iterable([1], 10)
        with pytest.raises(InvalidArgumentError):
            shifted_union(a, [(lambda n: True, -1)], 10)


def dyadic_class(n: int, k_cap: int) -> int:
    """1 + the 2-adic valuation of n, capped at k_cap: the scalar
    reference for generate_jsets' bulk class labels."""
    k = 1
    while n % 2 == 0 and k < k_cap:
        n //= 2
        k += 1
    return k


class TestDyadicClass:
    def test_values(self):
        assert [dyadic_class(n, 8) for n in (1, 2, 3, 4, 6, 8)] == [1, 2, 1, 3, 2, 4]

    def test_cap(self):
        assert dyadic_class(1024, 3) == 3


class TestSeparatedClasses:
    def test_acceptance_family_passes(self):
        fam = generate_jsets(tuple(range(10, 81, 10)), horizon=10**5)
        rep = verify_jsets(fam)
        assert rep.ok
        assert all(d > 0 for d in rep.class_densities)

    def test_single_class_density(self):
        n1 = 10
        fam = generate_jsets((n1,), horizon=10**5)
        rep = verify_jsets(fam)
        assert abs(rep.class_densities[0] - 1.0 / (2 * n1)) <= 1.0 / 10**5

    def test_min_element_bound(self):
        fam = generate_jsets((5, 11, 23), horizon=5000)
        for k, cls in enumerate(fam.classes, start=1):
            assert all(v >= fam.nseq[k - 1] for v in cls)

    def test_pairwise_gaps_brute_force(self):
        fam = generate_jsets((4, 9, 17), horizon=3000)
        elems = [
            (v, k) for k, cls in enumerate(fam.classes, start=1) for v in cls
        ]
        for v1, k1 in elems:
            for v2, k2 in elems:
                if v1 != v2:
                    assert abs(v1 - v2) >= fam.nseq[k1 - 1] + fam.nseq[k2 - 1]

    @pytest.mark.filterwarnings("ignore:walk spacing")
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=40),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    def test_random_thresholds_verify(self, raw):
        nseq = tuple(sorted(raw))
        fam = generate_jsets(nseq, horizon=20000)
        assert verify_jsets(fam).ok

    def test_rejects_nonincreasing(self):
        with pytest.raises(InvalidArgumentError):
            generate_jsets((5, 5), horizon=100)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_rejects_a_horizon_below_1(self, horizon):
        with pytest.raises(InvalidArgumentError, match="horizon must be at least 1"):
            generate_jsets((5, 11), horizon=horizon)
        assert len(generate_jsets((5, 11), horizon=1).walk) == 0

    def test_horizon_is_keyword_only(self):
        # K is len(nseq); a stale (nseq, k, horizon) call must not read k as the horizon
        with pytest.raises(TypeError):
            generate_jsets((1, 2), 3)


def scalar_walk(nseq, k_classes, horizon):
    """The dyadic walk one step at a time: the reference for the bulk one."""
    walk = []
    a = prev = None
    n = 1
    while True:
        label = dyadic_class(n, k_classes)
        a = 2 * nseq[0] if a is None else a + nseq[label - 1] + nseq[prev - 1]
        if a > horizon:
            return walk
        walk.append((a, label))
        prev = label
        n += 1


def all_pair_verify(fam):
    """O(n^2) reference: the sorted (value, class) elements, the index
    pairs (i, j) of every pair too close (neighbours or not), the
    minimum-bound violations, and ok."""
    elems = sorted((v, k) for k, cls in enumerate(fam.classes, start=1) for v in cls)
    close = [
        (i, j)
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
        if elems[j][0] - elems[i][0] < fam.nseq[elems[i][1] - 1] + fam.nseq[elems[j][1] - 1]
    ]
    low = [(k, v) for k, cls in enumerate(fam.classes, start=1) for v in cls if v < fam.nseq[k - 1]]
    disjoint = len({v for v, _ in elems}) == len(elems)
    return elems, close, low, disjoint and not close and not low


def hand_family(nseq, classes, horizon=100):
    """A family whose walk holds the given classes, one after another."""
    walk = Columns(np.array([v for c in classes for v in c], dtype=np.int64),
                   np.array([k for k, c in enumerate(classes, start=1) for _ in c], dtype=np.int64))
    return JSetFamily(nseq=tuple(nseq), k_classes=len(classes), horizon=horizon, walk=walk)


class TestBulkJSets:
    @pytest.mark.filterwarnings("ignore:walk spacing")
    def test_walk_matches_scalar_reference(self):
        rng = random.Random(2014)
        for _ in range(60):
            nseq = sorted(rng.sample(range(1, 200), rng.randint(1, 9)))
            k = rng.randint(1, len(nseq))
            horizon = rng.choice([0, 1, 2 * nseq[0] - 1, 2 * nseq[0], rng.randint(1, 30_000)])
            if horizon < 1:  # refused; the draw stays so the later cases stay as they were
                with pytest.raises(InvalidArgumentError, match="horizon must be at least 1"):
                    generate_jsets(nseq[:k], horizon=horizon)
                continue
            fam = generate_jsets(nseq[:k], horizon=horizon)
            want = scalar_walk(nseq, k, horizon)
            assert list(fam.walk) == want
            assert [cls.tolist() for cls in fam.classes] == [
                [a for a, lab in want if lab == c] for c in range(1, k + 1)
            ]

    def test_deep_labels_and_huge_thresholds(self):
        # labels up to 1 + log2(steps), and thresholds far past the horizon
        fam = generate_jsets((1, 2, 3, 10**30), horizon=5000)
        assert list(fam.walk) == scalar_walk((1, 2, 3, 10**30), 4, 5000)
        nseq = tuple(range(1, 21))
        fam = generate_jsets(nseq, horizon=200_000)
        assert list(fam.walk) == scalar_walk(nseq, 20, 200_000)

    def test_verify_matches_brute_force_on_hand_built_families(self):
        cases = [
            ((2, 5), [[4, 20], [12, 40]]),            # separated
            ((2, 5), [[4, 7], [12, 40]]),             # 4 -> 7 too close
            ((2, 5), [[4, 30], [30, 50]]),            # duplicate across classes
            ((2, 5), [[4, 4, 30], [50]]),             # duplicate inside a class
            ((2, 5), [[1, 20], [3, 40]]),             # below N_k, far apart
            ((3, 4, 9), [[6, 9, 40], [15, 30], [60, 61]]),  # several close pairs
            ((1,), [[]]),                             # empty
            ((3, 4), [[50, 6], [20, 13]]),            # unsorted classes
        ]
        rng = random.Random(7)
        for _ in range(200):
            nseq = sorted(rng.sample(range(1, 12), rng.randint(1, 4)))
            cases.append((nseq, [[rng.randint(0, 120) for _ in range(rng.randint(0, 8))]
                                 for _ in nseq]))
        for nseq, classes in cases:
            fam = hand_family(nseq, classes)
            rep = verify_jsets(fam)
            elems, close, low, ok = all_pair_verify(fam)
            assert rep.ok == ok, (nseq, classes)
            assert list(rep.gap_violations) == [
                (elems[i][1], elems[j][1], elems[i][0], elems[j][0])
                for i, j in close if j == i + 1
            ]
            assert list(rep.min_bound_violations) == low
            assert rep.disjoint == (len({v for v, _ in elems}) == len(elems))
