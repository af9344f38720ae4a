"""Candidate vector construction and orbit hit-set experiments.

The construction interleaves forward-shifted copies of a countable
target family along separated index classes: class thresholds N_k are
chosen so that certified series tails beyond N_k stay below a summable
epsilon schedule, and the resulting vector's backward orbit returns
near target x_k at every time in class k.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

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
from .seqspace import UNILATERAL, CoeffVector, SpaceSpec, _fnorm, _gap, _minus, fnorm
from .shiftops import (
    BACKWARD,
    DEFAULT_STEP_CAP,
    FORWARD,
    OperatorSpec,
    WeightSeq,
    _coefficients,
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
    values = _orbit_values(OperatorSpec(w, BACKWARD), x, [n**q for n in range(1, n_max + 1)],
                           lambda e: _fnorm(space, x.domain, e))
    return np.fromiter(values, float, n_max)


def _orbit_values(op: OperatorSpec, x: CoeffVector, steps, value):
    """value(entries) of op^N x for each N*power >= 1 in ``steps``, with the
    coefficient map of ``iterate``.  A time with no surviving term (per
    ``_survivors``) reads no orbit; value({}) is evaluated once for them all."""
    steps = _step_array(steps)
    counts = _survivors(op, x.log_polar[0], steps)[1]
    live = orbit_slices(op, x, steps[counts > 0])
    at_zero = None
    for count in counts.tolist():
        if not count and at_zero is None:
            at_zero = value({})
        yield value(_coefficients(*next(live))) if count else at_zero


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


def _thresholds(space: SpaceSpec, w: WeightSeq, q: int,
                targets: tuple[CoeffVector, ...], n_max: int, report: CriterionReport,
                ) -> tuple[tuple[int, ...], tuple[SelectionDetail, ...]]:
    """The thresholds of ``select_Nk``, once the criterion holds."""
    jmax = max(max(x.support, default=1) for x in targets)
    n_max = max(64, min(n_max, iroot(DEFAULT_STEP_CAP - jmax, q)))
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
        for idxs, lms, phs in orbit_slices(fwd, x_k, [n**q for n in cls]):
            for idx, lm, ph in zip(idxs, lms, phs):
                block[idx] = block.get(idx, 0j) + cmath.rect(math.exp(lm), ph)
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


@dataclass(frozen=True)
class Eq33Report:
    checks: tuple[Eq33Check, ...]
    edge_times: tuple[tuple[int, int], ...]  # (k, m) excluded at the horizon edge

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[Eq33Check, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_eq33(plan: ConstructionPlan) -> Eq33Report:
    """Check the return bound: the backward orbit of the candidate at
    every interior class-k time lies within 3*alpha_k of target x_k.

    Times whose exponent falls in the last stored exponent band are
    reported separately; their tail contributions are incomplete."""
    op = OperatorSpec(plan.weights, BACKWARD)
    n_hor = iroot(plan.horizon, plan.q)
    band = n_hor**plan.q - (n_hor - 1) ** plan.q if n_hor > 1 else 0
    domain = plan.candidate.domain
    checks = []
    edges = []
    for k in range(1, plan.k_classes + 1):
        bound = 3.0 * plan.alpha(k)
        x_k = plan.targets[k - 1]
        times = []
        for m in plan.jsets.classes[k - 1]:
            if m**plan.q > plan.horizon - band:
                edges.append((k, m))
            else:
                times.append(m)
        errors = _orbit_values(op, plan.candidate, [m**plan.q for m in times],
                               lambda e: _fnorm(plan.space, domain, _minus(domain, e, x_k)))
        checks.extend(Eq33Check(k=k, m=m, error=err, bound=bound)
                      for m, err in zip(times, errors))
    return Eq33Report(checks=tuple(checks), edge_times=tuple(edges))


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
        values = _orbit_values(
            op, x, shifts, lambda e: _fnorm(space, x.domain, _minus(x.domain, e, target.center)))
        outcomes = ((v < target.radius, v) for v in values)
    elif isinstance(target, WeakStarTarget):
        values = _orbit_values(
            op, x, shifts, lambda e: _gap(x.domain, e, target.center, target.functionals))
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
