"""Numerical convergence probes and criterion checkers for weighted shifts.

Every verdict comes by one of two routes.  A weighted-shift series (of
``qfhc_check``, ``unilateral_condition``, ``bilateral_condition``,
``weakstar_condition``, ``salas_check``, the orbit decay of ``hc_check``)
goes through ``_classify_weighted``, the one domain check of every checker;
a bare magnitude map goes through ``series_probe``.

A weighted-shift series of a built-in weight family is decided from the
family's asymptotic class (``WeightSeq.asymptotics``): the coefficients of
P(m) = log|w_1...w_m| in a n^2 + b n log n + c n + d log n + e log log n,
substituted at m = j +/- n^q (``_decide``).  That verdict is exact up to a
stated rounding band around each boundary, inside which it is
``inconclusive``.  Every family gives a class, so this is the only way a
weighted-shift series is decided; ``salas_check`` is the c0 condition
of the reciprocal products at offset 0.  A short scan still reports
dyadic partial-sum checkpoints and sums, and never overrides the class.

A bare magnitude map (``series_probe``) has no class and gets heuristic
verdicts from its scanned data (dyadic partial-sum checkpoints, tail
extrapolation).  Dyadic checkpoints make slow harmonic-type divergence
visible as non-decaying block sums (the condensation view).  The rule
that fired is always named.

Every weighted-shift series of the checkers and of the constructor's tail
certificates comes from one function, ``_shift_series``: log term magnitudes
P(anchor) - P(j +/- n^q) of prefix products P, read at the n asked for.
One extrapolator, ``_extrapolate_tail``, fits the tail past the last term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .density import iroot
from .errors import DomainMismatchError, InvalidArgumentError
from .seqspace import BILATERAL, UNILATERAL, SpaceSpec, c0, entire, lp
from .shiftops import AsymptoticClass, TMuWeight, WeightSeq

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

SATISFIES = "satisfies"
FAILS = "fails"

DEFAULT_TOL = 1e-8
DEFAULT_DIVERGENCE_THRESHOLD = 1e6
DEFAULT_MAX_EXP = 20
DEFAULT_EXP_CAP = 1 << 22
# most terms a scan reads once the asymptotic class has decided the series
SCAN_TERMS = 1 << 12
# a float class coefficient this close to its boundary, relative to its
# largest part, is too close to call
_ROUNDING_BAND = 1e-12

# block-sum decay ratio thresholds for the dyadic classification
_DECAY_RATIO = 0.92
_GROWTH_RATIO = 0.85


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges | diverges | inconclusive
    rule: str
    checkpoints: tuple[tuple[int, float], ...] = ()  # (m, partial sum) at m = 2^i
    sum_estimate: float | None = None
    tail_estimate: float | None = None

    @property
    def converges(self) -> bool:
        return self.kind == CONVERGES

    @property
    def diverges(self) -> bool:
        return self.kind == DIVERGES


@dataclass(frozen=True)
class ProbeEntry:
    label: str
    verdict: Verdict
    note: str = ""


@dataclass(frozen=True)
class CriterionReport:
    operator: str
    space: str
    q: int
    entries: tuple[ProbeEntry, ...]
    overall: str  # satisfies | fails | inconclusive
    notes: tuple[str, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.overall == SATISFIES

    def entry(self, label: str) -> ProbeEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


def _overall(entries) -> str:
    kinds = [e.verdict.kind for e in entries]
    if any(k == DIVERGES for k in kinds):
        return FAILS
    if kinds and all(k == CONVERGES for k in kinds):
        return SATISFIES
    return INCONCLUSIVE


def _report(operator, space_desc, q, entries, notes=()) -> CriterionReport:
    return CriterionReport(
        operator=operator,
        space=space_desc,
        q=q,
        entries=tuple(entries),
        overall=_overall(entries),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# scalar series classification
# ---------------------------------------------------------------------------


def _scan(mag_fn, n_max: int, threshold: float):
    """Stream the nonnegative terms once; keep dyadic partials and summaries."""
    chunk = 1 << 20
    total = 0.0
    checkpoints = []  # (m, S_m)
    next_cp = 1
    last_quarter_max = 0.0
    chunk_maxima = []
    exceeded = False
    any_inf = False
    q_start = max(1, (3 * n_max) // 4)
    start = 1
    while start <= n_max and not exceeded:
        end = min(n_max, start + chunk - 1)
        ns = np.arange(start, end + 1, dtype=np.int64)
        with np.errstate(over="ignore", under="ignore"):
            t = np.asarray(mag_fn(ns), dtype=float)
        if not np.isfinite(t).all():
            any_inf = True
            exceeded = True
            t = np.where(np.isfinite(t), t, threshold * 10)
        with np.errstate(over="ignore"):  # a sum past double range is inf: divergent
            cum = np.cumsum(t)
            cum += total  # in place: the same bits as total + cumsum
        while next_cp <= end:
            if next_cp >= start:
                checkpoints.append((next_cp, float(cum[next_cp - start])))
            next_cp *= 2
        total = float(cum[-1])
        chunk_maxima.append(float(t.max(initial=0.0)))
        if end >= q_start:
            lo = max(q_start, start)
            last_quarter_max = max(last_quarter_max, float(t[lo - start :].max(initial=0.0)))
        if total > threshold:
            exceeded = True
        start = end + 1
    checkpoints.append((n_max, total))
    return {
        "checkpoints": checkpoints,
        "total": total,
        "last_quarter_max": last_quarter_max,
        "chunk_maxima": chunk_maxima,
        "exceeded": exceeded,
        "any_inf": any_inf,
    }


def _blocks(checkpoints):
    """Sums over full dyadic blocks (2^i, 2^(i+1)] from checkpoint
    partials; a trailing partial block is dropped so ratios compare
    equal-width windows."""
    out = []
    for (m0, s0), (m1, s1) in zip(checkpoints, checkpoints[1:]):
        if m1 == 2 * m0:
            out.append(s1 - s0)
    return out


def _block_trend(blocks):
    """The block rule of ``classify_magnitudes``, over a window of the last
    positive blocks: ``"decay"`` when every ratio is at most _DECAY_RATIO,
    else ``"growth"`` when every ratio is at least _GROWTH_RATIO and every
    block exceeds DEFAULT_TOL, else ``"small"`` when every block is below
    DEFAULT_TOL, else None."""
    pos = [b for b in blocks if b > 0]
    window = pos[-min(4, max(2, len(pos) // 2)) :] if len(pos) >= 2 else pos
    ratios = [b1 / b0 for b0, b1 in zip(window, window[1:]) if b0 > 0]
    if ratios and all(r <= _DECAY_RATIO for r in ratios):
        return "decay"
    if (ratios and all(r >= _GROWTH_RATIO for r in ratios)
            and all(b > DEFAULT_TOL for b in window)):
        return "growth"
    if window and all(b < DEFAULT_TOL for b in window):
        return "small"
    return None


def _extrapolate_tail(terms, n_max: int) -> float | None:
    """Summed mass past n_max of nonnegative terms (an n-array map), from
    the terms at n_max, n_max - 8 and n_max // 2: geometric if the term
    ratio is clearly below 1, else a midpoint-integral of a fitted power
    law; None when neither fits."""
    with np.errstate(over="ignore", under="ignore"):
        at = np.array([n_max, max(1, n_max - 8), max(1, n_max // 2)], dtype=np.int64)
        t_n, t_prev, t_half = np.asarray(terms(at), dtype=float)
    if t_n == 0:
        return 0.0
    if t_prev > 0 and n_max > 9:
        r = (t_n / t_prev) ** (1.0 / 8.0)
        if r < 0.9:
            return t_n * r / (1.0 - r)
    if t_half > 0 and n_max >= 4:
        s = math.log(t_half / t_n) / math.log(n_max / (n_max // 2))
        if s > 1.05:
            # integral of t_n * (x/n_max)^(-s) from n_max + 1/2
            try:
                return t_n * n_max**s * (n_max + 0.5) ** (1.0 - s) / (s - 1.0)
            except OverflowError:  # n_max^s past double range: the same integral
                return t_n * (n_max + 0.5) * (n_max / (n_max + 0.5)) ** s / (s - 1.0)
    return None


def classify_magnitudes(mag_fn, n_max: int) -> Verdict:
    """Classify the scalar series sum of mag_fn(n) over n = 1..n_max.

    mag_fn maps an int64 array of indices to nonnegative term magnitudes.
    """
    if n_max < 2:
        raise InvalidArgumentError("need at least two terms to classify")
    scan = _scan(mag_fn, n_max, DEFAULT_DIVERGENCE_THRESHOLD)
    checkpoints = tuple(scan["checkpoints"])
    if scan["exceeded"]:
        rule = "partial sum exceeded divergence threshold" + (
            " (term overflow)" if scan["any_inf"] else ""
        )
        return Verdict(DIVERGES, rule, checkpoints)
    blocks = _blocks(scan["checkpoints"])
    if scan["last_quarter_max"] == 0.0:
        return Verdict(
            CONVERGES,
            "terms eventually zero",
            checkpoints,
            sum_estimate=scan["total"],
            tail_estimate=0.0,
        )
    trend = _block_trend(blocks)
    if trend == "growth":
        return Verdict(DIVERGES, "non-decaying dyadic block sums (condensation)", checkpoints)
    if trend is None:
        return Verdict(INCONCLUSIVE, "mixed block-sum behavior", checkpoints)
    tail = _extrapolate_tail(mag_fn, n_max)
    if tail is None and blocks:
        # the last dyadic block ratio, continued geometrically
        rb = blocks[-1] / blocks[-2] if len(blocks) > 1 and blocks[-2] > 0 else 0.5
        rb = min(rb, _DECAY_RATIO)
        tail = blocks[-1] * rb / (1.0 - rb)
    return Verdict(
        CONVERGES,
        "dyadic block sums decay geometrically"
        if trend == "decay"
        else "tail block sums below tolerance",
        checkpoints,
        sum_estimate=scan["total"] + (tail or 0.0),
        tail_estimate=tail,
    )


def classify_sup_decay(mag_fn, n_max: int) -> Verdict:
    """Does mag_fn(n) tend to 0?  (c0-style criterion for distinct-index
    series: unconditional convergence needs exactly term decay.)"""
    scan = _scan(mag_fn, n_max, float("inf"))
    checkpoints = tuple(scan["checkpoints"])
    if scan["any_inf"]:  # inf <= 0.2 * inf would read as decay
        return Verdict(DIVERGES, "term magnitudes do not decay (term overflow)", checkpoints)
    overall = max(scan["chunk_maxima"])
    last = scan["last_quarter_max"]
    if last == 0.0 or last < DEFAULT_TOL:
        return Verdict(CONVERGES, "terms vanish", checkpoints)
    if overall > 0 and last <= 0.2 * overall:
        return Verdict(CONVERGES, "term magnitudes decay", checkpoints)
    if overall > DEFAULT_TOL and last >= 0.8 * overall:
        return Verdict(DIVERGES, "term magnitudes do not decay", checkpoints)
    return Verdict(INCONCLUSIVE, "slow or mixed term decay", checkpoints)


def classify_limit_infinite(values: np.ndarray) -> Verdict:
    """Monotone-tail heuristic for values -> +infinity.  No checker calls it;
    it is kept only because the benchmark tracer wraps it by name."""
    values = np.asarray(values, dtype=float)
    checkpoints = tuple(
        (int(m), float(values[m - 1]))
        for m in [2**i for i in range(int(math.log2(len(values))) + 1)]
    )
    tail = values[(3 * len(values)) // 4 :]
    head = values[: len(values) // 4] if len(values) >= 4 else values[:1]
    if tail.min() > head.max() and tail[-1] >= tail[0]:
        return Verdict(CONVERGES, "tail grows monotonically", checkpoints)
    return Verdict(DIVERGES, "tail does not grow", checkpoints)


# ---------------------------------------------------------------------------
# series_probe: the public single-series probe
# ---------------------------------------------------------------------------


def series_probe(
    space: SpaceSpec,
    *,
    magnitudes,
    max_exp: int = DEFAULT_MAX_EXP,
) -> Verdict:
    """Classify unconditional convergence of a series of terms on pairwise
    distinct basis indices, given by ``magnitudes`` (a vectorized
    n -> ||term_n|| map), from its first 2^max_exp terms.

    In l^p that is exactly the scalar series sum ||term_n||^p, whose sum
    estimate is reported; in c0 it is term decay.
    """
    n_max = 2**max_exp
    if space.kind == "lp":
        p = space.p
        return classify_magnitudes(lambda ns: np.asarray(magnitudes(ns), dtype=float) ** p,
                                   n_max)
    if space.kind == "c0":
        return classify_sup_decay(magnitudes, n_max)
    raise InvalidArgumentError(
        "magnitude route supports lp and c0 spaces only"
    )


# ---------------------------------------------------------------------------
# criterion checkers
# ---------------------------------------------------------------------------


def _indices(indices) -> list:
    indices = list(indices)
    if not indices:
        raise InvalidArgumentError("need at least one index")
    return indices


def _offsets(indices) -> list:
    """Series offsets: at least one, none past the reach DEFAULT_EXP_CAP."""
    indices = _indices(indices)
    far = [j for j in indices if abs(j) > DEFAULT_EXP_CAP]
    if far:
        raise InvalidArgumentError(f"index {far[0]} is past the 2^22 prefix reach")
    return indices


def _series_term_count(q: int, max_exp: int, max_offset: int) -> int:
    """Terms per series: 2^max_exp (at least 2), cut so that no term's
    prefix index n^q + offset passes DEFAULT_EXP_CAP.  Below 2, the
    series does not fit in that reach and no term is scanned (see
    ``_classify_weighted``)."""
    room = DEFAULT_EXP_CAP - max_offset
    return min(max(2**max_exp, 2), iroot(room, q)) if room > 0 else 0


def _shift_series(w: WeightSeq, j: int, q: int, direction: int, anchor: int | None):
    """Log term magnitudes n -> P(anchor) - P(j + direction * n^q) of a criterion
    series: a closure over int n-arrays that reads only the prefixes asked for.
    ``anchor=None`` gives -P, keeping the sign of a zero prefix (0.0 - P does not)."""
    base = None if anchor is None else w.prefix(anchor).logmag

    def logmags(ns):
        # one fresh index array: a scan chunk's arrays are 8 MB, and fresh
        # ones fault in.  At q = 1 the offset step makes it, not ``** 1``.
        ns = np.asarray(ns, dtype=np.int64)
        if q == 1:
            nq, out = ns, None
        else:
            nq = out = ns**q
        lms = w.prefix_logmag(np.add(j, nq, out=out) if direction > 0
                              else np.subtract(j, nq, out=out))
        return np.negative(lms, out=lms) if base is None else np.subtract(base, lms, out=lms)

    return logmags


def _exact(x: float):
    """x as an int when it is an integer, so that products with exact class
    coefficients stay exact; else the float itself."""
    return int(x) if float(x).is_integer() else float(x)


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def _decide(cls: AsymptoticClass, q: int, s, log_r, summable: bool):
    """(kind, rule, level) of a series whose log terms are
    -s * P(n^q +- j) + n^q * log R + O(1), for P of class ``cls``.

    Substituting m = n^q +- j gives A n^(2q) + B n^q log n + C n^q
    + D log n + E log log n + O(1), with A = -s a, B = -s q b,
    C = log R - s c, D = -s q d and E = -s e; cross terms such as 2aj n^q
    sit below a nonzero leading term, so they never decide.  The first
    coefficient off its boundary decides.  The boundary is 0 for the three
    exponential levels.  For log n and log log n it is -1 on a summable
    series (the Cauchy-Bertrand scale: the sum of n^D (log n)^E converges
    iff D < -1, or D = -1 and E < -1) and 0 on a term-decay condition.
    A float coefficient within _ROUNDING_BAND of its boundary (relative
    to its largest part) is too close to call: ``inconclusive``.  ``level``
    indexes the deciding level, 5 when every level sits on its boundary.
    """
    levels = ((-s * cls.a,), (-s * q * cls.b,), (log_r, -s * cls.c),
              (-s * q * cls.d,), (-s * cls.e,))
    nq = "n" if q == 1 else f"n^{q}"
    names = (f"n^{2 * q}", f"{nq} log n", nq, "log n", "log log n")
    for level, parts in enumerate(levels):
        bound = -1 if summable and level >= 3 else 0
        x = sum(parts)
        if x == bound:
            continue
        where = f"asymptotic class at {names[level]}: coefficient {_fmt(x)}"
        if isinstance(x, float) and abs(x - bound) <= _ROUNDING_BAND * max(1.0, *map(abs, parts)):
            return INCONCLUSIVE, f"{where} within rounding of {bound}", level
        if x < bound:
            return CONVERGES, f"{where} < {bound}", level
        return DIVERGES, f"{where} > {bound}", level
    limit = "terms of order 1/(n log n)" if summable else "terms tend to a nonzero limit"
    return DIVERGES, f"asymptotic class: every coefficient on its boundary ({limit})", 5


def _classify_weighted(space: SpaceSpec, w: WeightSeq, j: int, q: int, direction: int,
                       anchor: int | None, n_max: int, decay: bool = False) -> Verdict:
    """Verdict of the weighted-shift series ``_shift_series(w, j, q,
    direction, anchor)`` in ``space``, refused before any read unless the
    space's domain is the family's.  On the entire space term n is weighted
    by R^(j + n^q - 1) at R = rmax, the worst radius.  ``decay`` asks
    whether the (weighted) terms tend to 0, the c0 rule, on any space.

    The family's asymptotic class decides (``_decide``).  A scan then
    reports checkpoints and sums without overriding the class: SCAN_TERMS
    terms at most, or all n_max for a series that converges at the log n
    or log log n level, whose slow tail the sum needs.  A scan that reads
    otherwise is named in the rule.  n_max < 2 (fewer than two terms
    within the 2^22 reach) reads no term.
    """
    if space.domain != w.domain:
        raise DomainMismatchError(
            f"{w.domain} weights on a {space.domain} space {space.describe()}")
    kind = space.kind
    if kind not in ("lp", "c0", "entire"):
        raise InvalidArgumentError(f"unsupported space kind {kind} for shifts")
    series = _shift_series(w, j, q, direction, anchor)
    radius = space.rmax if kind == "entire" else 1
    log_r = math.log(radius) if radius > 1 else 0
    p = space.p if kind == "lp" else 1.0

    def mags(ns):
        lms = series(ns)
        if log_r:  # the majorant factor R^(j + n^q - 1)
            lms += (np.asarray(ns, dtype=np.int64) ** q + (j - 1)) * log_r
        with np.errstate(over="ignore", under="ignore"):
            lms *= p
            return np.exp(lms, out=lms)

    summable = kind in ("lp", "entire") and not decay
    verdict, rule, level = _decide(w.asymptotics(direction), q, _exact(p), log_r, summable)
    if radius > 1:
        rule += f" at R={radius}"
    slow = verdict == CONVERGES and level >= 3  # converges at log n or log log n
    n_scan = n_max if slow else min(SCAN_TERMS, n_max)
    if n_scan < 2:
        return Verdict(verdict, rule)
    report = (classify_magnitudes if summable else classify_sup_decay)(mags, n_scan)
    if report.kind not in (verdict, INCONCLUSIVE):
        rule += f" (a {n_scan}-term scan reads {report.kind})"
    if verdict == CONVERGES and report.kind == CONVERGES:
        return replace(report, rule=rule)
    return Verdict(verdict, rule, report.checkpoints)


def _trivial_t_series_entry(w: WeightSeq, q: int, j: int) -> ProbeEntry:
    """Unilateral backward T-series on a basis vector: only finitely many
    nonzero terms (the shift falls off the edge), hence converges.  The
    head n^q < j is summed term by term, in order."""
    count = iroot(j - 1, q) if j > 0 else 0
    lms = _shift_series(w, j, q, -1, j)(np.arange(1, count + 1))
    totals = list(itertools.accumulate(map(math.exp, lms.tolist())))
    verdict = Verdict(
        CONVERGES,
        "terms eventually zero (backward shift falls off the edge)",
        tuple(zip(range(1, count + 1), totals)) or ((1, 0.0),),
        sum_estimate=totals[-1] if totals else 0.0,
        tail_estimate=0.0,
    )
    note = "trivially convergent: all terms beyond a finite head are zero"
    return ProbeEntry(f"T-series j={j}", verdict, note=note)


def qfhc_check(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    dense_indices,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Probe the two basis-vector series (backward orbit sums at
    exponents n^q, and forward right-inverse sums) for every listed
    basis index."""
    dense_indices = _offsets(dense_indices)
    jmax = max(abs(j) for j in dense_indices)
    n_max = _series_term_count(q, max_exp, jmax)
    entries = []
    notes = []
    for j in dense_indices:
        # S first: its domain check comes before the T head's reads
        s_verdict = _classify_weighted(space, w, j, q, 1, j, n_max)
        if w.domain == UNILATERAL:
            t_entry = _trivial_t_series_entry(w, q, j)
        else:
            t_verdict = _classify_weighted(space, w, j, q, -1, j, n_max)
            t_entry = ProbeEntry(f"T-series j={j}", t_verdict)
        entries += [t_entry, ProbeEntry(f"S-series j={j}", s_verdict)]
    if w.domain == UNILATERAL:
        notes.append(
            "unilateral T-series on basis vectors are eventually zero, "
            "so their convergence is automatic"
        )
    return _report(
        f"backward shift {w.describe()}", space.describe(), q, entries, notes
    )


def unilateral_condition(
    w: WeightSeq,
    space: SpaceSpec,
    q: int,
    j_range,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Scalar reduction of the unilateral shift condition: the series of
    reciprocal prefix products at exponent-spaced indices, per offset j."""
    if space.kind not in ("lp", "c0") or space.domain != UNILATERAL:
        raise InvalidArgumentError("unilateral condition reduces to unilateral lp or c0 only")
    j_range = _offsets(j_range)
    if w.domain == UNILATERAL and min(j_range) < 0:
        # P(n^q + j) below index 0 does not exist, and at j = -1 the first
        # term would read P(0) as if it were a product
        raise InvalidArgumentError(
            f"offset {min(j_range)} is negative; a unilateral family needs j >= 0")
    n_max = _series_term_count(q, max_exp, max(abs(j) for j in j_range))
    entries = []
    for j in j_range:
        verdict = _classify_weighted(space, w, j, q, 1, None, n_max)
        entries.append(ProbeEntry(f"j={j}", verdict))
    return _report(
        f"backward shift {w.describe()}", space.describe(), q, entries
    )


def bilateral_condition(
    w: WeightSeq,
    space: SpaceSpec,
    q: int,
    j_range,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Bilateral shift condition on l^p(Z) or c0(Z): per offset j, the
    forward series of reciprocal products and the backward series of
    products.  On c0(Z) both are term-decay conditions (products to
    infinity forward, to zero backward)."""
    if space.kind not in ("lp", "c0") or space.domain != BILATERAL:
        raise InvalidArgumentError("bilateral condition needs an lp or c0 bilateral space")
    kind, label = (("products", "c0(Z)") if space.kind == "c0"
                   else ("series", f"l^{space.p:g}(Z)"))
    j_range = _offsets(j_range)
    jmax = max(abs(j) for j in j_range)
    n_max = _series_term_count(q, max_exp, jmax)
    entries = []
    for j in j_range:
        # -log products w_1..w_{n^q+j}, and log products w_j..w_{j-n^q+1}
        for side, direction, anchor in (("forward", 1, None), ("backward", -1, j)):
            verdict = _classify_weighted(space, w, j, q, direction, anchor, n_max)
            entries.append(ProbeEntry(f"{side} {kind} j={j}", verdict))
    return _report(f"bilateral shift {w.describe()}", label, q, entries)


def weakstar_condition(
    w: WeightSeq,
    q: int,
    j_range,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Absolute-convergence probe of the reciprocal product series per
    offset (the weak* criterion reduces to absolute scalar convergence,
    i.e. the l^1 case of the unilateral condition)."""
    report = unilateral_condition(w, lp(1), q, j_range, max_exp=max_exp)
    return replace(report, space="l^inf (weak*)")


def hc_check(
    space: SpaceSpec,
    w: WeightSeq,
    dense_indices,
    horizon: int = 10**4,
) -> CriterionReport:
    """Orbit-norm decay of T^n e_j and S^n e_j (the plain hypercyclicity
    criterion, not the frequent one): decay of the terms P(j) - P(j -/+ n),
    decided by ``_classify_weighted`` with n_max = horizon.  On H(C) the
    S-orbit terms carry the majorant factor R^(j + n - 1) at R = rmax, the
    worst radius; on every other space the norm of a basis vector's orbit
    is the modulus of its one coefficient, the c0 condition."""
    dense_indices = _indices(dense_indices)
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")
    orbits = space if space.kind == "entire" else c0(space.domain)
    entries = []
    for j in dense_indices:
        if w.domain == UNILATERAL:
            # the backward orbit dies at step j
            t_verdict = Verdict(
                CONVERGES,
                "orbit reaches zero in finitely many steps",
                ((min(j, horizon), 0.0),),
            )
        else:
            t_verdict = _classify_weighted(orbits, w, j, 1, -1, j, horizon, decay=True)
        s_verdict = _classify_weighted(orbits, w, j, 1, 1, j, horizon, decay=True)
        entries.append(ProbeEntry(f"T-orbit j={j}", t_verdict))
        entries.append(ProbeEntry(f"S-orbit j={j}", s_verdict))
    return _report(
        f"backward shift {w.describe()}", space.describe(), 1, entries
    )


@dataclass(frozen=True)
class SalasEvidence:
    limsup_infinite: bool | None  # None: inconclusive
    max_log_product: float
    argmax: int
    horizon: int
    rule: str


def salas_check(w: WeightSeq, horizon: int = 10**5) -> SalasEvidence:
    """Salas: is sup |w_1...w_n| infinite?  Read off the asymptotic class,
    that is P -> infinity: the c0 condition 1/|w_1...w_n| -> 0 of
    ``unilateral_condition`` at offset 0, with that verdict's rule (None
    when it is inconclusive; a bilateral family is refused).  The running
    max of log|w_1...w_n| over the horizon (its value and first index) is
    reported as evidence."""
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")
    verdict = _classify_weighted(c0(), w, 0, 1, 1, None, horizon)
    lms = w.prefix_logmag(np.arange(1, horizon + 1, dtype=np.int64))
    limsup = {CONVERGES: True, DIVERGES: False}.get(verdict.kind)
    return SalasEvidence(limsup, float(lms.max()), int(np.argmax(lms)) + 1, horizon,
                         verdict.rule)


def fhc_check_tmu(
    mu: complex,
    degrees=range(0, 6),
    *,
    rmax: int = 8,
    max_exp: int = 12,
) -> CriterionReport:
    """Frequent-hypercyclicity probe for f(z) -> f'(mu z) on the monomials
    z^k: ``qfhc_check`` of the backward ``TMuWeight(mu)`` shift at j = k+1."""
    degrees = list(degrees)
    if any(k < 0 for k in degrees):
        raise InvalidArgumentError("degrees must be nonnegative")
    return qfhc_check(entire(rmax), TMuWeight(mu), 1, [k + 1 for k in degrees],
                      max_exp=max_exp)
