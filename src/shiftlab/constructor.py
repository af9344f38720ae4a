"""Candidate vector construction and orbit hit-set experiments.

The construction interleaves forward-shifted copies of a countable
target family along separated index classes: class thresholds N_k are
chosen so that certified series tails beyond N_k stay below a summable
epsilon schedule, and the resulting vector's backward orbit returns
near target x_k at every time in class k.  Past the window a tail takes
its mass from the series' own criterion verdict (``_beyond``: the
``tail_estimate`` of ``criterion._classify_weighted``), so the two
layers decide it by one rule.

Every orbit distance (the return bound, ball, weak* and modulus hits,
the certified T-norms) goes through one route, ``_orbit_distances``: the
F-norm kernel ``seqspace._distances`` of each batch of complex terms from
``shiftops._orbit_chunks``, with no vector or map per time; a modulus
target reads the orbit with the rotation dropped.  The candidate's class
blocks are summed from the same batches by ``np.bincount``, which adds
each index's terms left to right from +0.0, as summing into 0j does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .criterion import (SATISFIES, SCAN_TERMS, _classify_weighted, _offsets, _shift_series,
                        qfhc_check)
from .density import (
    Columns,
    DensityEstimate,
    GrowthBound,
    HitSet,
    JSetFamily,
    check_growth_bound,
    generate_jsets,
    iroot,
    q_lower_density,
)
from .errors import ConstructionRefusedError, InvalidArgumentError
from .seqspace import (
    BILATERAL,
    UNILATERAL,
    CoeffVector,
    SpaceSpec,
    _distances,
    c0,
    fnorm,
    linf_weakstar,
    lp,
)
from .shiftops import (
    BACKWARD,
    FORWARD,
    OperatorSpec,
    WeightSeq,
    _orbit_chunks,
)


@dataclass(frozen=True)
class EpsilonSchedule:
    """The summable eps_k = 2^-k and its alpha_k = k*eps_k + sum_{j>k}
    eps_j = (k+1) 2^-k, strictly decreasing from k = 1."""

    def eps(self, k: int) -> float:
        if k < 1:
            raise InvalidArgumentError("schedule index starts at 1")
        return 2.0 ** (-k)

    def alpha(self, k: int) -> float:
        return (k + 1) * 2.0 ** (-k)


_GRID = sorted(
    {complex(a, b) for a in (0.0, 0.5, -0.5, 1.0, -1.0) for b in (0.0, 0.5, -0.5, 1.0, -1.0)},
    key=lambda z: (abs(z), z.real, z.imag),
)


def canonical_targets(count: int, domain: str = UNILATERAL) -> tuple[CoeffVector, ...]:
    """Deterministic enumeration of a dense family of finitely supported
    vectors: support in {1..s}, coordinates on a small complex grid,
    ordered by increasing (s, grid radius), zero vector excluded."""
    out = []
    for s in itertools.count(1):
        if len(out) >= count:
            return tuple(out)
        batch = sorted((t for t in itertools.product(_GRID, repeat=s) if t[-1] != 0),
                       key=lambda t: (max(map(abs, t)), [(z.real, z.imag) for z in t]))
        out += [CoeffVector(domain, {i: z for i, z in enumerate(t, 1) if z != 0})
                for t in batch[: count - len(out)]]


# ---------------------------------------------------------------------------
# tail certification
# ---------------------------------------------------------------------------


def _beyond(w: WeightSeq, j: int, q: int, direction: int, s, n: int) -> float:
    """The summed mass past the first n <= SCAN_TERMS terms of the
    index-j series in ``direction``, each to the s-th power: the
    ``tail_estimate`` of that series' own verdict on l^s, and inf where
    it gives none.  A unilateral backward series is 0 once n^q >= j, so
    it has none past a head that ends within the window (its verdict
    scans the whole head)."""
    if w.domain == UNILATERAL and direction < 0:
        return 0.0 if iroot(j - 1, q) <= n else math.inf
    tail = _classify_weighted(lp(s, w.domain), w, q, n)(j, direction, j).tail_estimate
    return math.inf if tail is None else tail


def _certified_s_tails(space: SpaceSpec, w: WeightSeq, q: int, j: int,
                       n_max: int) -> np.ndarray:
    """tails[N-1] bounds any finite-subset norm of the index-j forward
    series restricted to [N, infinity), for N = 1..n_max.

    l^p: root of the reverse-cumulative p-powered sums plus the mass past
    the window, the ``tail_estimate`` of the series' l^p verdict
    (``_beyond``).  c0: reverse running max, and past the window the
    summed mass of the terms, their l^1 verdict's tail, which dominates
    their sup.
    """
    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(_shift_series(w, j, q, 1, j)(np.arange(1, n_max + 1)))
    if not np.isfinite(t).all():
        raise InvalidArgumentError("forward series terms overflow; criterion fails")
    if space.kind not in ("lp", "c0"):
        raise InvalidArgumentError("tail certification supports lp and c0 spaces")
    p = space.p if space.kind == "lp" else 1
    beyond = _beyond(w, j, q, 1, p, n_max)
    if space.kind == "lp":
        return (np.cumsum((t**p)[::-1])[::-1] + beyond) ** (1.0 / p)
    return np.maximum(np.maximum.accumulate(t[::-1])[::-1], beyond)


def _powers(ns, q: int, factor: int = 1) -> np.ndarray:
    """n**q * factor for each n >= 0 in ``ns``: int64, or Python ints in an
    object array when the largest passes int64 (``_step_array`` clips those)."""
    ns = np.asarray(ns, dtype=np.int64)
    if len(ns) and int(ns.max()) ** q * factor > np.iinfo(np.int64).max:
        ns = ns.astype(object)
    return ns**q * factor


def _orbit_distances(space: SpaceSpec, op: OperatorSpec, x: CoeffVector, steps,
                     center: CoeffVector, functionals=None) -> np.ndarray:
    """The F-norm of op^N x - center for each N*power in ``steps``, or with
    ``functionals`` the weak* gap max_g |<op^N x - center, g>|:
    ``seqspace._distances`` of each batch of ``_orbit_chunks``.  Every time
    with no term has the value of -center, read once, at the first."""
    dead = None
    out = [np.empty(0)]
    for run, idx, z, counts in _orbit_chunks(op, x, steps, pad=len(center.entries)):
        empty = counts == 0
        read = ~empty
        if dead is None and empty.any():
            read[np.argmax(empty)] = True
        values = np.empty(len(run))
        values[read] = _distances(space, x.domain, idx, z, counts[read], center, functionals,
                                  run[read], op.power)
        if empty.any():
            dead = values[np.argmax(empty)] if dead is None else dead
            values[empty] = dead
        out.append(values)
    return np.concatenate(out)


@dataclass(frozen=True)
class SelectionDetail:
    k: int
    eps: float
    raw_n: int
    n: int
    worst_tail: float


def select_Nk(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    targets,
) -> tuple[tuple[int, ...], tuple[SelectionDetail, ...]]:
    """Choose strictly increasing thresholds N_k so that, for every
    target with index at most k, the certified tail of the backward and
    forward series beyond N_k stays below eps_k.

    The tails are read over the criterion's own scan window (``_offsets``
    at SCAN_TERMS terms), refused below 64 terms; past it the S- and
    T-series of each index add the mass ``_beyond`` gives them, or
    nothing once a unilateral head has fallen off the edge inside the
    window.  Refuses
    (with the failing report attached) when the convergence criterion
    does not hold on the targets' support.
    """
    targets = tuple(targets)
    if not targets:
        raise InvalidArgumentError("need at least one target")
    support = sorted({j for x in targets for j in x.support})
    n_max = _offsets(support, q, SCAN_TERMS.bit_length() - 1)[1]
    if n_max < 64:
        raise InvalidArgumentError(f"q={q} leaves {n_max} terms within the exact-index "
                                   "limit 2^53; the tail certificates need 64")
    report = qfhc_check(space, w, q, support)
    if report.overall != SATISFIES:
        raise ConstructionRefusedError(
            f"criterion not satisfied ({report.overall}) for weights "
            f"{w.describe()} at q={q}",
            report=report,
        )
    # per index: its S-tails from each N plus its T-series mass past the window
    index_tails = {j: _certified_s_tails(space, w, q, j, n_max) + _beyond(w, j, q, -1, 1, n_max)
                   for j in support}
    # per-target combined tails, via the triangle inequality over support
    tails = []
    back, steps = OperatorSpec(w, BACKWARD), _powers(np.arange(1, n_max + 1), q)
    for x in targets:
        # the F-norms of T^{n^q} x, zero once every index has fallen off the edge
        tn = _orbit_distances(space, back, x, steps, CoeffVector.zero(x.domain))
        t_suffix = np.cumsum(tn[::-1])[::-1]
        j_part = np.zeros(n_max)
        for j, c in x.entries.items():
            j_part += abs(c) * index_tails[j]
        tails.append(t_suffix + j_part)
    nseq = []
    details = []
    prev = 0
    for k in range(1, len(targets) + 1):
        eps_k = EpsilonSchedule().eps(k)
        worst = np.maximum.reduce(tails[:k])
        ok = np.nonzero(worst < eps_k)[0]
        if not len(ok):
            raise ConstructionRefusedError(
                f"no N <= {n_max} certifies tails below eps_{k}={eps_k:g}",
                report=report,
            )
        raw = int(ok[0]) + 1
        n_k = max(raw, prev + 1)
        nseq.append(n_k)
        details.append(
            SelectionDetail(k=k, eps=eps_k, raw_n=raw, n=n_k, worst_tail=float(worst[raw - 1]))
        )
        prev = n_k
    return tuple(nseq), tuple(details)


@dataclass(frozen=True)
class ConstructionPlan:
    q: int
    space: SpaceSpec
    weights: WeightSeq
    targets: tuple[CoeffVector, ...]
    nseq: tuple[int, ...]
    jsets: JSetFamily
    horizon: int
    candidate: CoeffVector
    block_norms: tuple[float, ...]
    selection: tuple[SelectionDetail, ...]
    warnings: tuple[str, ...] = ()

    def alpha(self, k: int) -> float:
        return EpsilonSchedule().alpha(k)


def build_vector(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    targets,
    *,
    horizon: int = 10**4,
) -> ConstructionPlan:
    """Materialize the truncated interleaving sum over the separated
    classes at the thresholds of ``select_Nk``: the horizon caps the
    exponent n^q, not the class index n."""
    targets = tuple(targets)
    nseq, details = select_Nk(space, w, q, targets)
    jsets = generate_jsets(nseq, horizon=iroot(horizon, q))
    fwd = OperatorSpec(w, FORWARD)
    warns = []
    entries: dict[int, complex] = {}
    block_norms = []
    for k, x_k in enumerate(targets, start=1):
        cls = jsets.classes[k - 1]
        if not len(cls):
            warns.append(
                f"class {k} has no elements below the exponent horizon; "
                "its target is not represented in the candidate"
            )
        runs = [(np.empty(0, np.int64), np.empty(0, complex))]
        runs += [(idx, z) for _, idx, z, _ in _orbit_chunks(fwd, x_k, _powers(cls, q))]
        idx, z = (np.concatenate(c) for c in zip(*runs))
        idx, z = idx[z != 0], z[z != 0]  # a zero term leaves every sum's bits as they are
        keys, at = np.unique(idx, return_inverse=True)
        sums = np.empty(len(keys), dtype=complex)
        sums.real, sums.imag = np.bincount(at, z.real), np.bincount(at, z.imag)
        block = dict(zip(keys.tolist(), sums.tolist()))
        block_norms.append(fnorm(space, CoeffVector(w.domain, block)))
        for idx, val in block.items():
            entries[idx] = entries.get(idx, 0j) + val
    candidate = CoeffVector(w.domain, entries)
    if not candidate.entries:
        warns.append("candidate is the zero vector (horizon too small)")
    for k, bn in enumerate(block_norms, start=1):
        eps_k = EpsilonSchedule().eps(k)
        if bn > eps_k * (1 + 1e-9):
            warns.append(f"block {k} norm {bn:.3g} exceeds eps_{k}={eps_k:g}")
    return ConstructionPlan(
        q=q,
        space=space,
        weights=w,
        targets=targets,
        nseq=nseq,
        jsets=jsets,
        horizon=horizon,
        candidate=candidate,
        block_norms=tuple(block_norms),
        selection=details,
        warnings=tuple(warns),
    )


@dataclass(frozen=True)
class Eq33Check:
    k: int
    m: int
    error: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.error <= self.bound


@dataclass(frozen=True, eq=False)
class Eq33Report:
    """The return-bound checks as columns, in class then time order: class
    k, time m, error and bound.  ``checks`` holds them as ``Eq33Check``s,
    built on first use."""

    k: np.ndarray
    m: np.ndarray
    error: np.ndarray
    bound: np.ndarray
    edge_times: tuple[tuple[int, int], ...]  # (k, m) excluded at the horizon edge

    @property
    def passed(self) -> np.ndarray:
        """Per check, error <= bound (``Eq33Check.ok``)."""
        return self.error <= self.bound

    @property
    def ok(self) -> bool:
        return bool(self.passed.all())

    @cached_property
    def checks(self) -> tuple[Eq33Check, ...]:
        return tuple(map(Eq33Check, self.k.tolist(), self.m.tolist(), self.error.tolist(),
                         self.bound.tolist()))

    @property
    def violations(self) -> tuple[Eq33Check, ...]:
        return tuple(self.checks[i] for i in np.flatnonzero(~self.passed).tolist())


def verify_eq33(plan: ConstructionPlan) -> Eq33Report:
    """Check the return bound: the backward orbit of the candidate at
    every interior class-k time lies within 3*alpha_k of target x_k, by
    ``_orbit_distances``.

    Times whose exponent falls in the last stored exponent band are
    reported separately; their tail contributions are incomplete."""
    op = OperatorSpec(plan.weights, BACKWARD)
    n_hor = iroot(plan.horizon, plan.q)
    band = n_hor**plan.q - (n_hor - 1) ** plan.q if n_hor > 1 else 0
    # m**q > horizon - band exactly when m > m_edge
    m_edge = iroot(plan.horizon - band, plan.q)
    columns = []
    edges = []
    for k in range(1, len(plan.targets) + 1):
        ms = plan.jsets.classes[k - 1]
        interior = ms <= m_edge
        edges.extend((k, m) for m in ms[~interior].tolist())
        ms = ms[interior]
        errors = _orbit_distances(plan.space, op, plan.candidate, _powers(ms, plan.q),
                                  plan.targets[k - 1])
        columns.append((np.full(len(ms), k), ms, errors,
                        np.full(len(ms), 3.0 * plan.alpha(k))))
    k, m, error, bound = (np.concatenate(c) for c in zip(*columns))
    return Eq33Report(k=k, m=m, error=error, bound=bound, edge_times=tuple(edges))


# ---------------------------------------------------------------------------
# hit experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallTarget:
    """F-norm ball around a center vector."""

    center: CoeffVector
    radius: float

    def describe(self) -> str:
        return f"ball(radius={self.radius:g})"


@dataclass(frozen=True)
class ModulusTarget:
    """Open set defined purely by coefficient moduli: |y_index| > threshold,
    or with index None every |y_n| < threshold.

    Rotations of the operator leave hit sets of such targets unchanged
    exactly: ``hit_experiment`` drops the rotation before it reads the
    orbit's ``_orbit_distances``.
    """

    index: int | None
    threshold: float

    def describe(self) -> str:
        if self.index is None:
            return f"max|y_n| < {self.threshold:g}"
        return f"|y_{self.index}| > {self.threshold:g}"


def modulus_exceeds(index: int, threshold: float) -> ModulusTarget:
    return ModulusTarget(index, threshold)


def modulus_ball(threshold: float) -> ModulusTarget:
    """All coefficient moduli below a threshold (a modulus-defined
    neighborhood of the origin)."""
    return ModulusTarget(None, threshold)


@dataclass(frozen=True)
class WeakStarTarget:
    """Weak* neighborhood: finitely many functional gaps below eps."""

    center: CoeffVector
    functionals: tuple[CoeffVector, ...]
    eps: float

    def __post_init__(self):
        if not self.functionals:
            raise InvalidArgumentError("weak* target needs at least one functional")

    def describe(self) -> str:
        return f"weak*({len(self.functionals)} functionals, eps={self.eps:g})"


def coordinate_functionals(m: int, domain: str = UNILATERAL) -> tuple[CoeffVector, ...]:
    """The first m coordinate functionals, as l^1 elements."""
    if m < 1:
        raise InvalidArgumentError("need at least one coordinate functional")
    return tuple(CoeffVector.basis(i, domain) for i in range(1, m + 1))


# the columns of HitExperimentResult.events, one row per orbit time
EVENT_KEYS = ("n", "exponent", "value", "hit")


@dataclass(frozen=True)
class HitExperimentResult:
    hits: HitSet
    density: DensityEstimate
    growth: GrowthBound | None
    events: Columns  # EVENT_KEYS
    target: str
    operator: str


def hit_experiment(
    space: SpaceSpec,
    op: OperatorSpec,
    x: CoeffVector,
    target,
    *,
    exponents: str = "linear",
    q: int = 1,
    horizon: int = 10**4,
    burn_in: int | None = None,
) -> HitExperimentResult:
    """Enumerate the hit set of the orbit against a target up to the
    horizon (orbit times start at 1), with its density estimate and
    growth-bound evidence.

    ``exponents='powers'`` visits only times n^q; either way membership
    is recorded at the actual time, and the density estimate uses the
    supplied q.  Every target reads ``_orbit_distances``, a modulus target
    with the rotation dropped.  The events are columns: n, the exponent
    (time times the operator's power), the value the hit compares and the
    hit flag.
    """
    if exponents not in ("linear", "powers"):
        raise InvalidArgumentError("exponents must be 'linear' or 'powers'")
    q_time = q if exponents == "powers" else 1
    ns = np.arange(1, iroot(horizon, q_time) + 1, dtype=np.int64)
    steps, shifts = _powers(ns, q_time), _powers(ns, q_time, op.power)
    if isinstance(target, ModulusTarget):
        # max|y_n| is the c0 distance to 0, |y_index| the gap at e_index: 0.0
        # where the orbit has no term there
        e = None if target.index is None else (CoeffVector.basis(target.index, BILATERAL),)
        values = _orbit_distances(c0(x.domain), replace(op, rotation=1.0), x, shifts,
                                  CoeffVector.zero(x.domain), e)
        hit = values < target.threshold if e is None else values > target.threshold
    elif isinstance(target, BallTarget):
        values = _orbit_distances(space, op, x, shifts, target.center)
        hit = values < target.radius
    elif isinstance(target, WeakStarTarget):
        values = _orbit_distances(space, op, x, shifts, target.center, target.functionals)
        hit = values < target.eps
    else:
        raise InvalidArgumentError(f"unknown target type {type(target)!r}")
    hitset = HitSet(steps[hit], horizon)
    return HitExperimentResult(
        hits=hitset,
        density=q_lower_density(hitset, q, burn_in=burn_in),
        growth=check_growth_bound(hitset, q) if len(hitset) else None,
        events=Columns(ns, shifts, values, hit),
        target=target.describe(),
        operator=op.describe(),
    )


def transfer_weakstar(
    w: WeightSeq,
    x: CoeffVector,
    functionals,
    target: CoeffVector,
    *,
    eps: float = 0.5,
    horizon: int = 10**4,
    burn_in: int | None = None,
) -> HitExperimentResult:
    """Hit experiment against a weak* neighborhood, reusing a vector
    constructed for the sup-norm space (the identity embedding is norm
    to weak* continuous, so sup-norm hits survive)."""
    ws = WeakStarTarget(target, tuple(functionals), eps)
    return hit_experiment(linf_weakstar(), OperatorSpec(w, BACKWARD), x, ws, horizon=horizon,
                          burn_in=burn_in)
