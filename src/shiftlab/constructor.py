"""Candidate vector construction and orbit hit-set experiments.

The construction interleaves forward-shifted copies of a countable
target family along separated index classes: class thresholds N_k are
chosen so that certified series tails beyond N_k stay below a summable
epsilon schedule, and the resulting vector's backward orbit returns
near target x_k at every time in class k.

Every orbit distance (the return bound, ball and weak* hits, the
certified T-norms) goes through one route, ``_orbit_distances``, which
reads ``orbit_batch``'s arrays directly and builds no vector or map per
time; the candidate's class blocks are summed from the same batches.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criterion import (
    SATISFIES,
    CriterionReport,
    _extrapolate_tail,
    _shift_series,
    qfhc_check,
)
from .density import (
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
    UNILATERAL,
    CoeffVector,
    SpaceSpec,
    _fnorm,
    _gap,
    _majorant_term,
    _minus,
    fnorm,
)
from .shiftops import (
    BACKWARD,
    DEFAULT_STEP_CAP,
    FORWARD,
    OperatorSpec,
    WeightSeq,
    _orbit_chunks,
    _step_array,
    _survivors,
    orbit_slices,
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


def _certified_s_tails(space: SpaceSpec, w: WeightSeq, q: int, j: int,
                       n_max: int) -> np.ndarray:
    """tails[N-1] bounds any finite-subset norm of the index-j forward
    series restricted to [N, infinity), for N = 1..n_max.

    l^p: root of the reverse-cumulative p-powered sums plus a fitted
    monotone-majorant tail beyond the window.  c0: reverse running max
    (terms beyond the window are covered by the fitted tail as well).
    """
    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(_shift_series(w, j, q, 1, j)(np.arange(1, n_max + 1)))
    if not np.isfinite(t).all():
        raise InvalidArgumentError("forward series terms overflow; criterion fails")

    def beyond(u: np.ndarray) -> float:
        # summed mass past the window (n_max >= 64); inf when no fit bounds it
        if u[-1] > 0 and u[-9] == 0:
            return math.inf
        tail = _extrapolate_tail(lambda ns: u[ns - 1], n_max)
        return math.inf if tail is None else tail

    if space.kind == "lp":
        p = space.p
        u = t**p
        suffix = np.cumsum(u[::-1])[::-1] + beyond(u)
        return suffix ** (1.0 / p)
    if space.kind == "c0":
        rmax = np.maximum.accumulate(t[::-1])[::-1]
        # sup over the unseen tail is dominated by its summed mass
        return np.maximum(rmax, beyond(t))
    raise InvalidArgumentError("tail certification supports lp and c0 spaces")


def _t_norms(space: SpaceSpec, w: WeightSeq, q: int, x: CoeffVector,
             n_max: int) -> np.ndarray:
    """F-norms of the backward orbit terms T^{n^q} x for n = 1..n_max
    (zero once every support index has fallen off the edge)."""
    return _orbit_distances(space, OperatorSpec(w, BACKWARD), x,
                            _powers(np.arange(1, n_max + 1), q), CoeffVector.zero(x.domain))


def _powers(ns, q: int):
    """n**q for each n >= 0 in ``ns``: an int64 array, or a list of Python
    ints when the largest passes int64 (``_step_array`` clips those)."""
    ns = np.asarray(ns, dtype=np.int64)
    if not len(ns) or int(ns.max()) ** q <= np.iinfo(np.int64).max:
        return ns**q
    return [n**q for n in ns.tolist()]


# math.exp(x) raises OverflowError exactly for x > _EXP_MAX, and is 0.0 for
# every x < _EXP_ZERO
_EXP_MAX = 709.782712893384
_EXP_ZERO = -746.0


def _orbit_distances(space: SpaceSpec, op: OperatorSpec, x: CoeffVector, steps,
                     center: CoeffVector, functionals=None) -> np.ndarray:
    """The F-norm of op^N x - center for each N*power in ``steps``, or with
    ``functionals`` the weak* gap max_g |<op^N x - center, g>|: the one
    route of every orbit distance (return bounds, ball and weak* hits and
    the certified T-norms).

    Values and errors are those of ``_fnorm(space, domain, _minus(domain,
    iterate(op, x, N).entries, center))`` (``_gap`` for the weak* gap), time
    by time: exp, rect, abs and ``**`` run per term through libm, and every
    sum runs left to right in index order through Python's ``sum``.  Only
    the times that ``_survivors`` marks live read the orbit; the others get
    the value of -center, computed once.  No vector or map is built per time.
    """
    steps = _step_array(steps)
    out = np.empty(len(steps))
    if not len(steps):
        return out
    domain = x.domain
    alive = _survivors(op, x.log_polar[0], steps)[1] > 0
    live = np.flatnonzero(alive)
    dead_error = None
    try:
        if functionals is None:
            out[:] = _fnorm(space, domain, _minus(domain, {}, center))
        else:
            out[:] = _gap(domain, {}, center, functionals)
    except OverflowError as exc:
        # time by time, it is raised at the first dead time, after the live
        # times before it; with no dead time it is never computed
        if not alive.all():
            dead_error = exc
            live = live[live < np.argmin(alive)]
    done = 0
    for tgt, lm, ph, counts in _orbit_chunks(op, x, steps[live]):
        over = np.flatnonzero(lm > _EXP_MAX)
        if len(over):
            # time by time, the first time with an overflowing term stops
            # the evaluation: the times before it still raise first
            overflow = float(lm[over[0]])
            n = int(np.searchsorted(np.cumsum(counts), over[0], side="right"))
            m = int(counts[:n].sum())
            tgt, lm, ph, counts = tgt[:m], lm[:m], ph[:m], counts[:n]
        z = np.fromiter(map(cmath.rect, map(math.exp, lm.tolist()), ph.tolist()),
                        complex, len(lm))
        # float arithmetic leaves double range silently, as Python's does
        with np.errstate(over="ignore", invalid="ignore"):
            if functionals is None:
                values = _block_norms(space, tgt, z, counts, center)
            else:
                values = _block_gaps(tgt, z, counts, center, functionals)
        out[live[done : done + len(counts)]] = values
        done += len(counts)
        if len(over):
            math.exp(overflow)  # raises OverflowError
    if dead_error is not None:
        raise dead_error
    return out


def _block_norms(space: SpaceSpec, tgt: np.ndarray, z: np.ndarray, counts: np.ndarray,
                 center: CoeffVector) -> list[float]:
    """``_fnorm`` of the orbit terms (tgt, z) minus ``center``, per time of
    ``counts``, each time's terms in index order."""
    seg = np.repeat(np.arange(len(counts)), counts)
    if center:
        # subtract the center where the orbit has the index, and merge in
        # -center where it has not; the moduli are those of ``_minus``
        cidx = center.log_polar[0]
        cz = np.array(list(center.entries.values()), dtype=complex)
        pos = np.minimum(np.searchsorted(cidx, tgt), len(cidx) - 1)
        hit = cidx[pos] == tgt
        z[hit] -= cz[pos[hit]]
        missing = np.ones((len(counts), len(cidx)), dtype=bool)
        missing[seg[hit], pos[hit]] = False
        mt, mc = np.nonzero(missing)
        seg, tgt, z = (np.concatenate(pair) for pair in ((seg, mt), (tgt, cidx[mc]), (z, -cz[mc])))
        order = np.lexsort((tgt, seg))
        seg, tgt, z = seg[order], tgt[order], z[order]
    if space.kind == "entire":
        # ``_minus`` drops zero entries: the majorant's log form would take
        # log 0, while a zero changes no sum of powers and no max
        keep = z != 0
        seg, tgt, z = seg[keep], tgt[keep], z[keep]
    mags = np.hypot(z.real, z.imag)  # abs(complex) bit for bit
    # abs raises OverflowError where the modulus alone leaves double range
    too_big = np.flatnonzero(np.isinf(mags) & np.isfinite(z.real) & np.isfinite(z.imag))
    first_big = int(too_big[0]) if len(too_big) else len(mags)
    ends = np.cumsum(np.bincount(seg, minlength=len(counts))).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    if space.kind == "lp":
        # abs and ** raise term by term: a power before the first modulus
        # past double range raises first
        terms = [a**space.p for a in mags[:first_big].tolist()]
        if first_big == len(mags):
            return [sum(terms[a:b]) ** (1.0 / space.p) for a, b in spans]
    if first_big < len(mags):
        abs(complex(z[first_big]))  # raises OverflowError
    mags = mags.tolist()
    if space.kind == "c0":
        return [max(mags[a:b], default=0.0) for a, b in spans]
    # entire: sum_R 2^-R min(1, M_R)
    totals = [0.0] * len(spans)
    ks = (tgt - 1).tolist()
    for r in range(1, space.rmax + 1):
        terms = [_majorant_term(a, float(r), k) for a, k in zip(mags, ks)]
        for t, (a, b) in enumerate(spans):
            totals[t] += 2.0 ** (-r) * min(1.0, sum(terms[a:b]))
    return totals


def _block_gaps(tgt: np.ndarray, z: np.ndarray, counts: np.ndarray, center: CoeffVector,
                functionals) -> list[float]:
    """``_gap`` of the orbit terms (tgt, z) against ``center`` and the
    functionals, per time of ``counts``."""
    functionals = list(functionals)
    read = np.array(sorted({i for g in functionals for i in g.entries}), dtype=np.int64)
    col = {i: c for c, i in enumerate(read.tolist())}
    # the orbit's coefficients at the functionals' indices, minus the center's
    diff = np.zeros((len(counts), len(read)), dtype=complex)
    seg = np.repeat(np.arange(len(counts)), counts)
    at = np.isin(tgt, read)
    diff[seg[at], np.searchsorted(read, tgt[at])] = z[at]
    diff -= np.array([center[i] for i in read.tolist()], dtype=complex)
    pairs = [[(col[i], c) for i, c in g.entries.items()] for g in functionals]
    gaps = []
    for row in diff.tolist():
        gap = 0.0
        for g in pairs:
            gap = max(gap, abs(sum(row[c] * v for c, v in g)))
        gaps.append(gap)
    return gaps


@dataclass(frozen=True)
class SelectionDetail:
    k: int
    eps: float
    raw_n: int
    n: int
    worst_tail: float


def _criterion_or_refuse(space: SpaceSpec, w: WeightSeq, q: int,
                         targets: tuple[CoeffVector, ...]) -> CriterionReport:
    """The criterion report on the targets' support, or a refusal carrying
    it."""
    if not targets:
        raise InvalidArgumentError("need at least one target")
    support = sorted({j for x in targets for j in x.support})
    report = qfhc_check(space, w, q, support)
    if report.overall != SATISFIES:
        raise ConstructionRefusedError(
            f"criterion not satisfied ({report.overall}) for weights "
            f"{w.describe()} at q={q}",
            report=report,
        )
    return report


def _window(q: int, targets: tuple[CoeffVector, ...], n_max: int) -> int:
    """The 64 to n_max terms of ``_thresholds`` whose prefix n^q + jmax is
    within DEFAULT_STEP_CAP; refused when fewer than 64 are."""
    jmax = max((max(x.support, default=1) for x in targets), default=1)
    reach = iroot(DEFAULT_STEP_CAP - jmax, q)
    if reach < 64:
        raise InvalidArgumentError(f"q={q} leaves {reach} terms within the 2^23 prefix "
                                   "reach; the tail certificates need 64")
    return max(64, min(n_max, reach))


def _thresholds(space: SpaceSpec, w: WeightSeq, q: int,
                targets: tuple[CoeffVector, ...], n_max: int, report: CriterionReport,
                ) -> tuple[tuple[int, ...], tuple[SelectionDetail, ...]]:
    """The thresholds of ``select_Nk`` over its ``_window``, once the criterion holds."""
    support = sorted({j for x in targets for j in x.support})
    s_tails = {j: _certified_s_tails(space, w, q, j, n_max) for j in support}
    # per-target combined tails, via the triangle inequality over support
    tails = []
    for x in targets:
        tn = _t_norms(space, w, q, x, n_max)
        t_suffix = np.cumsum(tn[::-1])[::-1]
        s_part = np.zeros(n_max)
        for j, c in x.entries.items():
            s_part += abs(c) * s_tails[j]
        tails.append(t_suffix + s_part)
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


def select_Nk(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    targets,
    *,
    n_max: int = 4096,
) -> tuple[tuple[int, ...], tuple[SelectionDetail, ...]]:
    """Choose strictly increasing thresholds N_k so that, for every
    target with index at most k, the certified tail of the backward and
    forward series beyond N_k stays below eps_k.

    Refuses (with the failing report attached) when the convergence
    criterion does not hold on the targets' support.
    """
    targets = tuple(targets)
    n_max = _window(q, targets, n_max)
    report = _criterion_or_refuse(space, w, q, targets)
    return _thresholds(space, w, q, targets, n_max, report)


@dataclass(frozen=True)
class ConstructionPlan:
    q: int
    space: SpaceSpec
    weights: WeightSeq
    schedule: EpsilonSchedule
    targets: tuple[CoeffVector, ...]
    nseq: tuple[int, ...]
    jsets: JSetFamily
    k_classes: int
    horizon: int
    candidate: CoeffVector
    block_norms: tuple[float, ...]
    criterion: CriterionReport
    selection: tuple[SelectionDetail, ...]
    warnings: tuple[str, ...] = ()

    def alpha(self, k: int) -> float:
        return self.schedule.alpha(k)


def build_vector(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    targets,
    *,
    horizon: int = 10**4,
    nseq=None,
    n_max: int = 4096,
) -> ConstructionPlan:
    """Materialize the truncated interleaving sum over the separated
    classes: the horizon caps the exponent n^q, not the class index n."""
    targets = tuple(targets)
    schedule = EpsilonSchedule()
    if nseq is None:
        n_max = _window(q, targets, n_max)
    crit = _criterion_or_refuse(space, w, q, targets)
    if nseq is None:
        nseq, details = _thresholds(space, w, q, targets, n_max, crit)
    else:
        nseq, details = tuple(int(n) for n in nseq), ()
    k_classes = len(targets)
    n_horizon = iroot(horizon, q)
    jsets = generate_jsets(nseq, k_classes, n_horizon)
    fwd = OperatorSpec(w, FORWARD)
    warns = []
    entries: dict[int, complex] = {}
    block_norms = []
    for k, x_k in enumerate(targets, start=1):
        cls = jsets.classes[k - 1]
        if not cls:
            warns.append(
                f"class {k} has no elements below the exponent horizon; "
                "its target is not represented in the candidate"
            )
        block: dict[int, complex] = {}
        for idx, lm, ph, _ in _orbit_chunks(fwd, x_k, _powers(cls, q)):
            # a term whose log-modulus is below _EXP_ZERO is 0j, which leaves
            # every sum's bits, zero parts included, as they are
            nonzero = ~(lm < _EXP_ZERO)
            terms = map(cmath.rect, map(math.exp, lm[nonzero].tolist()), ph[nonzero].tolist())
            for i, z in zip(idx[nonzero].tolist(), terms):
                block[i] = block.get(i, 0j) + z
        bv = CoeffVector(w.domain, block)
        block_norms.append(fnorm(space, bv))
        for idx, val in block.items():
            entries[idx] = entries.get(idx, 0j) + val
    candidate = CoeffVector(w.domain, entries)
    if not candidate.entries:
        warns.append("candidate is the zero vector (horizon too small)")
    for k, bn in enumerate(block_norms, start=1):
        if bn > schedule.eps(k) * (1 + 1e-9):
            warns.append(
                f"block {k} norm {bn:.3g} exceeds eps_{k}={schedule.eps(k):g}"
            )
    return ConstructionPlan(
        q=q,
        space=space,
        weights=w,
        schedule=schedule,
        targets=targets,
        nseq=nseq,
        jsets=jsets,
        k_classes=k_classes,
        horizon=horizon,
        candidate=candidate,
        block_norms=tuple(block_norms),
        criterion=crit,
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
    for k in range(1, plan.k_classes + 1):
        ms = np.asarray(plan.jsets.classes[k - 1], dtype=np.int64)
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
    """Open set defined purely by coefficient moduli, e.g. |y_1| > 1.

    ``predicate`` receives a map index -> |coefficient| (absent = 0).
    Rotations of the operator leave hit sets of such targets unchanged
    exactly, because the test never sees a phase.
    """

    predicate: object
    description: str = "modulus predicate"

    def describe(self) -> str:
        return self.description


def modulus_exceeds(index: int, threshold: float) -> ModulusTarget:
    return ModulusTarget(
        predicate=lambda mags: mags.get(index, 0.0) > threshold,
        description=f"|y_{index}| > {threshold:g}",
    )


def modulus_ball(threshold: float) -> ModulusTarget:
    """All coefficient moduli below a threshold (a modulus-defined
    neighborhood of the origin)."""
    return ModulusTarget(
        predicate=lambda mags: all(v < threshold for v in mags.values()),
        description=f"max|y_n| < {threshold:g}",
    )


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


@dataclass(frozen=True)
class HitExperimentResult:
    hits: HitSet
    density: DensityEstimate
    growth: GrowthBound | None
    events: tuple[dict, ...]
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
    supplied q.
    """
    if exponents not in ("linear", "powers"):
        raise InvalidArgumentError("exponents must be 'linear' or 'powers'")
    if exponents == "powers":
        pairs = [(n, n**q) for n in range(1, iroot(horizon, q) + 1)]
    else:
        pairs = [(n, n) for n in range(1, horizon + 1)]
    shifts = [steps * op.power for _, steps in pairs]
    if isinstance(target, ModulusTarget):
        slices = orbit_slices(op, x, shifts)
        mags = (dict(zip(idxs, map(math.exp, lms))) for idxs, lms, _ in slices)
        outcomes = ((bool(target.predicate(m)), max(m.values(), default=0.0)) for m in mags)
    elif isinstance(target, BallTarget):
        values = _orbit_distances(space, op, x, shifts, target.center).tolist()
        outcomes = ((v < target.radius, v) for v in values)
    elif isinstance(target, WeakStarTarget):
        values = _orbit_distances(space, op, x, shifts, target.center,
                                  target.functionals).tolist()
        outcomes = ((v < target.eps, v) for v in values)
    else:
        raise InvalidArgumentError(f"unknown target type {type(target)!r}")
    hits = []
    events = []
    for (n, steps), shift, (hit, value) in zip(pairs, shifts, outcomes):
        if hit:
            hits.append(steps)
        events.append({"n": n, "exponent": shift, "value": value, "hit": hit})
    hitset = HitSet.from_iterable(hits, horizon)
    density = q_lower_density(hitset, q, burn_in=burn_in)
    growth = check_growth_bound(hitset, q) if hitset.times else None
    return HitExperimentResult(
        hits=hitset,
        density=density,
        growth=growth,
        events=tuple(events),
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
    op = OperatorSpec(w, BACKWARD)
    from .seqspace import linf_weakstar

    return hit_experiment(
        linf_weakstar(),
        op,
        x,
        ws,
        exponents="linear",
        q=1,
        horizon=horizon,
        burn_in=burn_in,
    )
