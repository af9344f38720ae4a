"""Density estimation for integer hit sets and the separated-set generator.

A finite-horizon stand-in for liminf-style densities: the profile
p_N = card{n in A : n <= N^q} / N is computed for every admissible N and
the estimate is its minimum past a burn-in.  The profile is always kept
so convergence can be inspected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError


def iroot(x: int, q: int) -> int:
    """Largest integer r with r**q <= x."""
    if x < 0 or q < 1:
        raise InvalidArgumentError("iroot needs x >= 0, q >= 1")
    if q == 1:
        return x
    r = int(round(x ** (1.0 / q)))
    while r**q > x:
        r -= 1
    while (r + 1) ** q <= x:
        r += 1
    return r


class Columns:
    """Equal-length numpy columns, iterated as row tuples of Python scalars."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        return zip(*(c.tolist() for c in self.columns))


def _integral(times) -> np.ndarray:
    """``times`` as a new flat int64 array; a value that is not an integer
    is refused rather than truncated."""
    raw = np.asarray(times).reshape(-1)
    if raw.dtype == np.int64:
        return raw.copy()
    try:
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"hit times must be integers: {exc}") from exc
    if (arr != raw).any():
        raise InvalidArgumentError("hit times must be integers")
    return arr


@dataclass(frozen=True, eq=False)
class HitSet:
    """Strictly increasing hit times, complete up to the horizon, as a
    read-only int64 array (``array``), validated once; ``times`` is the
    same as a tuple, made on first read.  Equality and hash are those of
    (times, horizon)."""

    array: np.ndarray
    horizon: int

    def __post_init__(self):
        arr = _integral(self.array)
        if (arr < 0).any():
            raise InvalidArgumentError("hit times must be nonnegative")
        if (np.diff(arr) <= 0).any():
            raise InvalidArgumentError("hit times must be strictly increasing")
        if (arr > self.horizon).any():
            raise InvalidArgumentError("hit times exceed the horizon")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @cached_property
    def times(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @classmethod
    def from_iterable(cls, times, horizon: int) -> "HitSet":
        # sort and drop repeats (np.unique took ~50x longer on 3e5 times)
        if not isinstance(times, (list, tuple, np.ndarray)):
            times = list(times)  # an iterator or a set
        arr = np.sort(_integral(times))
        return cls(arr[np.diff(arr, prepend=arr[:1] - 1) != 0], horizon)

    def __eq__(self, other):
        return (isinstance(other, HitSet) and self.horizon == other.horizon
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.times, self.horizon))

    def __len__(self):
        return len(self.array)

    def __contains__(self, t):
        i = np.searchsorted(self.array, t)
        return i < len(self.array) and self.array[i] == t


@dataclass(frozen=True)
class DensityEstimate:
    q: int
    value: float
    burn_in: int
    profile: Columns  # (N, count, p_N)

    @property
    def positive(self) -> bool:
        return self.value > 0


def default_burn_in(n_max: int) -> int:
    return max(1, int(np.ceil(np.sqrt(n_max))))


def q_lower_density(a: HitSet, q: int, burn_in: int | None = None) -> DensityEstimate:
    """Finite-horizon estimate of the q-lower density of a hit set.

    p_N = card{n in A : n <= N^q}/N for every N with N^q <= horizon; the
    estimate is min p_N over N >= burn_in.  The counts are a cumulative sum
    of one ``np.bincount`` of each time's first admissible N, the least N
    with N^q >= t (t itself at q = 1): O(len(A) + n_max) memory whatever
    the horizon.
    """
    if q < 1:
        raise InvalidArgumentError("q must be a positive integer")
    n_max = iroot(a.horizon, q)
    if burn_in is None:
        burn_in = default_burn_in(n_max)
    if burn_in < 1:
        raise InvalidArgumentError("burn_in must be >= 1")
    if n_max < burn_in:
        raise InvalidArgumentError(
            f"horizon {a.horizon} too small for burn_in {burn_in} at q={q}"
        )
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    # an N whose N^q passes int64 is past every time: its power is not formed
    reach = ns[: iroot(np.iinfo(np.int64).max, q)]
    first = np.maximum(a.array, 1) if q == 1 else np.searchsorted(reach**q, a.array) + 1
    counts = np.bincount(first, minlength=n_max + 1)[1 : n_max + 1].cumsum()
    ps = counts / ns
    value = float(ps[burn_in - 1 :].min())
    return DensityEstimate(q=q, value=value, burn_in=burn_in,
                           profile=Columns(ns, counts, ps))


def _positive_ranks(a: HitSet, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(k, n_k): the ranks and values of the positive hit times."""
    if not len(a):
        raise InvalidArgumentError(f"{what} needs a nonempty hit set")
    times = a.array[a.array > 0]
    if not len(times):
        raise InvalidArgumentError(f"{what} needs positive hit times")
    return np.arange(1, len(times) + 1, dtype=np.int64), times


def q_density_via_ranks(a: HitSet, q: int, burn_in: int | None = None) -> DensityEstimate:
    """Rank form: min over admissible k of k / n_k^(1/q).

    Agrees with the count form within 1/burn_in on the same data; ranks
    with n_k below burn_in^q are treated as burn-in noise and skipped.
    """
    if q < 1:
        raise InvalidArgumentError("q must be a positive integer")
    ks, times = _positive_ranks(a, "rank form")
    if burn_in is None:
        burn_in = default_burn_in(iroot(a.horizon, q))
    ratios = ks / times.astype(float) ** (1.0 / q)
    keep = times >= burn_in**q
    if not keep.any():
        keep = np.ones(len(times), dtype=bool)
    value = float(ratios[keep].min())
    return DensityEstimate(q=q, value=value, burn_in=burn_in,
                           profile=Columns(ks, times, ratios))


@dataclass(frozen=True)
class GrowthBound:
    bounded: bool
    constant: float | None
    profile: Columns  # (k, n_k, n_k / k^q)


def check_growth_bound(a: HitSet, q: int) -> GrowthBound:
    """Does n_k <= C k^q hold with a stable constant on the data?

    Returns the max of n_k/k^q as the constant when the running max has
    stabilized (no new maximum over the last half of the ranks);
    otherwise the growing profile is returned as unbounded evidence.
    """
    ks, times = _positive_ranks(a, "growth bound")
    cs = times / ks.astype(float) ** q
    profile = Columns(ks, times, cs)
    argmax = int(np.argmax(cs))
    stabilized = argmax < max(1, int(np.ceil(len(cs) / 2)))
    if stabilized:
        return GrowthBound(True, float(cs.max()), profile)
    return GrowthBound(False, None, profile)


def shifted_union(a: HitSet, blocks, horizon: int) -> HitSet:
    """Union over blocks (predicate, shift) of (shift + A intersect block).

    The block predicates must cover 1..horizon; the result is exact up
    to min(horizon, A.horizon) since shifts are nonnegative.
    """
    blocks = [(pred, int(shift)) for pred, shift in blocks]
    if not blocks:
        raise InvalidArgumentError("at least one block is required")
    if any(shift < 0 for _, shift in blocks):
        raise InvalidArgumentError("shifts must be nonnegative")
    out_horizon = min(int(horizon), a.horizon)
    for n in range(1, out_horizon + 1):
        if not any(pred(n) for pred, _ in blocks):
            raise InvalidArgumentError(f"blocks do not cover n={n}")
    times = a.array[a.array >= 1].tolist()
    return HitSet.from_iterable({t + shift for pred, shift in blocks for t in times
                                 if pred(t) and t + shift <= out_horizon}, out_horizon)


@dataclass(frozen=True)
class JSetFamily:
    """Prefixes of the pairwise separated classes J_1..J_K.

    Built by a dyadic walk: n is labeled by its dyadic class (capped at
    K) and consecutive walk points are separated by the sum of the two
    class thresholds, which telescopes into the full separation property.
    A walk lists equal values in class order; ``verify_jsets`` relies on it.
    """

    nseq: tuple[int, ...]
    k_classes: int
    horizon: int
    walk: Columns  # (a_n, class label)

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        """J_1..J_K's prefixes, int64 arrays of the walk points of each label."""
        pos, label = self.walk.columns
        return tuple(pos[label == k] for k in range(1, self.k_classes + 1))


def dyadic_class(n: int, k_cap: int) -> int:
    """1 + the 2-adic valuation of n, capped at k_cap."""
    if n < 1:
        raise InvalidArgumentError("dyadic class needs n >= 1")
    k = 1
    while n % 2 == 0 and k < k_cap:
        n //= 2
        k += 1
    return k


_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))


def generate_jsets(nseq, k_classes: int | None = None,
                   horizon: int = 10**5) -> JSetFamily:
    """Build the separated classes for a strictly increasing threshold
    sequence (N_k), as walk prefixes up to the horizon."""
    nseq = tuple(int(n) for n in nseq)
    if not nseq or any(n < 1 for n in nseq):
        raise InvalidArgumentError("thresholds must be positive integers")
    if any(b <= a for a, b in zip(nseq, nseq[1:])):
        raise InvalidArgumentError("thresholds must be strictly increasing")
    if k_classes is None:
        k_classes = len(nseq)
    k_classes = int(k_classes)
    if not (1 <= k_classes <= len(nseq)):
        raise InvalidArgumentError("k_classes must be in 1..len(nseq)")
    horizon = int(horizon)
    # every step adds at least 2*N_1, so the walk passes the horizon by
    # then; thresholds past the horizon only matter as "past the horizon"
    steps = max(0, horizon // (2 * nseq[0]) + 1)
    n = np.arange(1, steps + 1, dtype=np.int64)
    # dyadic_class(n): 1 + log2 of the lowest set bit of n, capped at K
    label = np.minimum(1 + np.searchsorted(_POW2, n & -n), k_classes)
    thr = np.array([min(t, horizon + 1) for t in nseq], dtype=np.int64)[label - 1]
    # a_1 = 2 N_1 and a_n = a_(n-1) + N_(label n) + N_(label n-1)
    pos = np.cumsum(thr + np.concatenate((thr[:1], thr[:-1])))
    m = int(np.searchsorted(pos, horizon, side="right"))
    pos, label = pos[:m], label[:m]
    if m and int(pos[-1]) > 10 * 2 * nseq[0] * m:
        warnings.warn(
            "walk spacing grew far beyond 2*N_1 per step; class densities "
            "are degraded at this horizon",
            stacklevel=2,
        )
    return JSetFamily(
        nseq=nseq,
        k_classes=k_classes,
        horizon=horizon,
        walk=Columns(pos, label),
    )


@dataclass(frozen=True)
class JSetReport:
    disjoint: bool
    gap_violations: tuple[tuple[int, int, int, int], ...]  # (k, p, n, m)
    min_bound_violations: tuple[tuple[int, int], ...]  # (k, n)
    class_densities: tuple[float, ...]  # end-of-horizon card(J_k)/horizon

    @property
    def ok(self) -> bool:
        return self.disjoint and not self.gap_violations and not self.min_bound_violations


def verify_jsets(fam: JSetFamily) -> JSetReport:
    """Check separation, minimum-element bounds, and disjointness on the
    stored prefix, from the walk's columns; report per-class densities.

    Separation is checked on neighbours in the merged sorted prefix: with
    positive thresholds the gaps telescope, so if every neighbouring pair
    n < m (classes k, p) has m - n >= N_k + N_p, every pair does.
    ``gap_violations`` lists the neighbouring pairs (k, p, n, m) that fail.
    The per-class density is the terminal ratio card(J_k)/horizon, which
    for an arithmetic-progression class is exact to within 1/horizon.
    """
    values, labels = fam.walk.columns
    need = np.asarray(fam.nseq, dtype=np.int64)[labels - 1]
    low = np.flatnonzero(values < need)
    low = low[np.argsort(labels[low], kind="stable")]  # class, then walk order
    order = np.argsort(values, kind="stable")
    v, k, t = values[order], labels[order], need[order]
    bad = np.flatnonzero(v[1:] - v[:-1] < t[:-1] + t[1:])
    sizes = np.bincount(labels, minlength=fam.k_classes + 1)[1 : fam.k_classes + 1]
    return JSetReport(
        disjoint=bool((v[1:] != v[:-1]).all()),
        gap_violations=tuple(zip(k[bad].tolist(), k[bad + 1].tolist(),
                                 v[bad].tolist(), v[bad + 1].tolist())),
        min_bound_violations=tuple(zip(labels[low].tolist(), values[low].tolist())),
        class_densities=tuple((sizes / fam.horizon).tolist()),
    )
