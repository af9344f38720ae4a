"""Numerical convergence probes and criterion checkers for weighted shifts.

A weighted-shift series of a built-in weight family is decided from the
family's asymptotic class (``WeightSeq.asymptotics``): the coefficients of
P(m) = log|w_1...w_m| in a n^2 + b n log n + c n + d log n + e log log n,
substituted at m = j +/- n^q (``_decide``).  That verdict is exact up to a
stated rounding band around each boundary, inside which it is
``inconclusive``.  A short scan still reports dyadic partial-sum
checkpoints and sums, and never overrides the class.

Series with no class (``series_probe``, ``hc_check``, ``salas_check``,
families that give none) get heuristic verdicts from their scanned data
(dyadic partial-sum checkpoints, tail extrapolation, random subset sums).
Dyadic checkpoints make slow harmonic-type divergence visible as
non-decaying block sums (the condensation view).  The rule that fired is
always named.

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
from .seqspace import BILATERAL, UNILATERAL, SpaceSpec, entire, fnorm, lp
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
class SeriesProbe:
    checkpoints: tuple[tuple[int, float], ...]  # (m, partial sum) at m = 2^i
    tail_estimate: float | None = None
    random_subset_sums: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges | diverges | inconclusive
    rule: str
    probe: SeriesProbe
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


def _block_trend(blocks, tol):
    """The block rule shared by both classifiers, over a window of the
    last positive blocks: ``"decay"`` when every ratio is at most
    _DECAY_RATIO, else ``"growth"`` when every ratio is at least
    _GROWTH_RATIO and every block exceeds tol, else ``"small"`` when every
    block is below tol, else None.  Returns (window, trend)."""
    pos = [b for b in blocks if b > 0]
    window = pos[-min(4, max(2, len(pos) // 2)) :] if len(pos) >= 2 else pos
    ratios = [b1 / b0 for b0, b1 in zip(window, window[1:]) if b0 > 0]
    if ratios and all(r <= _DECAY_RATIO for r in ratios):
        return window, "decay"
    if ratios and all(r >= _GROWTH_RATIO for r in ratios) and all(b > tol for b in window):
        return window, "growth"
    if window and all(b < tol for b in window):
        return window, "small"
    return window, None


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


def classify_magnitudes(
    mag_fn,
    n_max: int,
    *,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Verdict:
    """Classify the scalar series sum of mag_fn(n) over n = 1..n_max.

    mag_fn maps an int64 array of indices to nonnegative term magnitudes.
    """
    if n_max < 2:
        raise InvalidArgumentError("need at least two terms to classify")
    scan = _scan(mag_fn, n_max, divergence_threshold)
    probe = SeriesProbe(checkpoints=tuple(scan["checkpoints"]))
    if scan["exceeded"]:
        rule = "partial sum exceeded divergence threshold" + (
            " (term overflow)" if scan["any_inf"] else ""
        )
        return Verdict(DIVERGES, rule, probe)
    blocks = _blocks(scan["checkpoints"])
    if scan["last_quarter_max"] == 0.0:
        return Verdict(
            CONVERGES,
            "terms eventually zero",
            SeriesProbe(probe.checkpoints, tail_estimate=0.0),
            sum_estimate=scan["total"],
            tail_estimate=0.0,
        )
    _, trend = _block_trend(blocks, tol)
    if trend == "growth":
        return Verdict(DIVERGES, "non-decaying dyadic block sums (condensation)", probe)
    if trend is None:
        return Verdict(INCONCLUSIVE, "mixed block-sum behavior", probe)
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
        SeriesProbe(probe.checkpoints, tail_estimate=tail),
        sum_estimate=scan["total"] + (tail or 0.0),
        tail_estimate=tail,
    )


def classify_sup_decay(mag_fn, n_max: int, *, tol: float = DEFAULT_TOL) -> Verdict:
    """Does mag_fn(n) tend to 0?  (c0-style criterion for distinct-index
    series: unconditional convergence needs exactly term decay.)"""
    scan = _scan(mag_fn, n_max, float("inf"))
    probe = SeriesProbe(checkpoints=tuple(scan["checkpoints"]))
    overall = max(scan["chunk_maxima"])
    last = scan["last_quarter_max"]
    if last == 0.0 or last < tol:
        return Verdict(CONVERGES, "terms vanish", probe)
    if overall > 0 and last <= 0.2 * overall:
        return Verdict(CONVERGES, "term magnitudes decay", probe)
    if overall > tol and last >= 0.8 * overall:
        return Verdict(DIVERGES, "term magnitudes do not decay", probe)
    return Verdict(INCONCLUSIVE, "slow or mixed term decay", probe)


def classify_limit_infinite(values: np.ndarray) -> Verdict:
    """Monotone-tail heuristic for values -> +infinity."""
    values = np.asarray(values, dtype=float)
    probe = SeriesProbe(
        checkpoints=tuple(
            (int(m), float(values[m - 1]))
            for m in [2**i for i in range(int(math.log2(len(values))) + 1)]
        )
    )
    tail = values[(3 * len(values)) // 4 :]
    head = values[: len(values) // 4] if len(values) >= 4 else values[:1]
    if tail.min() > head.max() and tail[-1] >= tail[0]:
        return Verdict(CONVERGES, "tail grows monotonically", probe)
    return Verdict(DIVERGES, "tail does not grow", probe)


# ---------------------------------------------------------------------------
# series_probe: the public single-series probe
# ---------------------------------------------------------------------------


def _single_support_distinct(terms, n_probe: int):
    seen = set()
    for n in range(1, n_probe + 1):
        v = terms(n)
        if len(v.entries) > 1:
            return False
        if len(v.entries) == 1:
            (idx,) = v.support
            if idx in seen:
                return False
            seen.add(idx)
    return True


def series_probe(
    space: SpaceSpec,
    terms=None,
    *,
    magnitudes=None,
    tol: float = DEFAULT_TOL,
    max_exp: int = DEFAULT_MAX_EXP,
) -> Verdict:
    """Classify unconditional convergence of a term series in a space.

    Terms occupying pairwise distinct basis indices in l^p reduce exactly
    to the scalar series sum ||term_n||^p; the reported sum estimate is
    that scalar sum.  Otherwise F-norm partial sums plus random finite
    subsets (seed 0) beyond a cut are probed.  Pass ``magnitudes`` (a
    vectorized n -> ||term_n|| map) to probe large n counts cheaply.
    """
    if (terms is None) == (magnitudes is None):
        raise InvalidArgumentError("provide exactly one of terms or magnitudes")
    n_max = 2**max_exp
    if terms is not None:
        n_max = min(n_max, 1 << 16)  # generator route materializes every term
        if space.kind not in ("lp", "c0") or not _single_support_distinct(
            terms, min(n_max, 64)
        ):
            return _fnorm_probe(space, terms, n_max, tol=tol)
        mags = np.empty(n_max)
        for n in range(1, n_max + 1):
            v = terms(n)
            mags[n - 1] = abs(next(iter(v.entries.values()))) if v.entries else 0.0

        def magnitudes(ns):
            return mags[ns - 1]

    if space.kind == "lp":
        p = space.p
        return classify_magnitudes(
            lambda ns: np.asarray(magnitudes(ns), dtype=float) ** p,
            n_max,
            tol=tol,
        )
    if space.kind == "c0":
        return classify_sup_decay(magnitudes, n_max, tol=tol)
    raise InvalidArgumentError(
        "magnitude route supports lp and c0 spaces only"
    )


def _fnorm_probe(space, terms, n_max, *, tol):
    """F-norm route: dyadic block norms plus random finite subsets."""
    from .seqspace import add, CoeffVector as CV

    checkpoints = []
    blocks = []
    running = CV.zero(space.domain)
    block = CV.zero(space.domain)
    next_cp = 1
    cached = {}
    for n in range(1, n_max + 1):
        t = terms(n)
        cached[n] = t
        running = add(running, t)
        block = add(block, t)
        if n == next_cp:
            checkpoints.append((n, fnorm(space, running)))
            blocks.append(fnorm(space, block))
            block = CV.zero(space.domain)
            next_cp *= 2
            if checkpoints[-1][1] > DEFAULT_DIVERGENCE_THRESHOLD:
                return Verdict(
                    DIVERGES,
                    "partial-sum F-norm exceeded divergence threshold",
                    SeriesProbe(checkpoints=tuple(checkpoints)),
                )
    rng = np.random.default_rng(0)
    cut = max(2, n_max // 4)
    subset_sums = []
    for i in range(32):
        size = int(rng.integers(1, 17))
        picks = sorted(set(rng.integers(cut, n_max + 1, size=size).tolist()))
        s = CV.zero(space.domain)
        for n in picks:
            s = add(s, cached[n])
        subset_sums.append((f"F{i}:[{picks[0]},{picks[-1]}]x{len(picks)}", fnorm(space, s)))
    probe = SeriesProbe(
        checkpoints=tuple(checkpoints),
        random_subset_sums=tuple(subset_sums),
    )
    window, trend = _block_trend(blocks, tol)
    max_subset = max((v for _, v in subset_sums), default=0.0)
    if trend == "decay":
        tail = window[-1] / (1.0 - _DECAY_RATIO)
        return Verdict(
            CONVERGES,
            "block F-norms decay geometrically",
            SeriesProbe(probe.checkpoints, tail, probe.random_subset_sums),
            sum_estimate=checkpoints[-1][1],
            tail_estimate=tail,
        )
    if trend == "small" and max_subset < math.sqrt(tol):
        return Verdict(
            CONVERGES,
            "tail block F-norms below tolerance",
            probe,
            sum_estimate=checkpoints[-1][1],
            tail_estimate=window[-1],
        )
    if trend == "growth":
        return Verdict(DIVERGES, "non-decaying block F-norms", probe)
    return Verdict(INCONCLUSIVE, "mixed block F-norm behavior", probe)


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


def _classify_weighted(space, w: WeightSeq, j: int, q: int, direction: int,
                       anchor: int | None, n_max: int, tol) -> Verdict:
    """Verdict of the weighted-shift series ``_shift_series(w, j, q,
    direction, anchor)`` in ``space``; ``space=None`` is the bilateral c0
    limit condition, -logmag -> infinity.  On the entire space term n is
    weighted by R^(j + n^q - 1) at R = rmax, the worst radius.

    A family with an asymptotic class is decided by it (``_decide``).  A
    scan then reports checkpoints and sums without overriding the class:
    SCAN_TERMS terms at most, or all n_max for a series that converges at
    the log n or log log n level, whose slow tail the sum needs.  A scan
    that reads otherwise is named in the rule.  A family without a class
    is decided by the scan of n_max terms.  n_max < 2 (fewer than two
    terms within the 2^22 reach) reads no term.
    """
    kind = None if space is None else space.kind
    if kind not in (None, "lp", "c0", "entire"):
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

    def scan(n):
        """The space's block-sum classifier over the first n terms."""
        if kind is None:
            return classify_limit_infinite(-series(np.arange(1, n + 1)))
        if kind == "c0":
            return classify_sup_decay(mags, n, tol=tol)
        return classify_magnitudes(mags, n, tol=tol)

    cls = w.asymptotics(direction)
    if cls is None:
        if n_max < 2:
            return Verdict(INCONCLUSIVE, "fewer than two terms within the 2^22 prefix reach",
                           SeriesProbe(checkpoints=()))
        return scan(n_max)
    verdict, rule, level = _decide(cls, q, _exact(p), log_r, kind in ("lp", "entire"))
    if radius > 1:
        rule += f" at R={radius}"
    slow = verdict == CONVERGES and level >= 3  # converges at log n or log log n
    n_scan = n_max if slow else min(SCAN_TERMS, n_max)
    if n_scan < 2:
        return Verdict(verdict, rule, SeriesProbe(checkpoints=()))
    report = scan(n_scan)
    if report.kind not in (verdict, INCONCLUSIVE):
        rule += f" (a {n_scan}-term scan reads {report.kind})"
    if verdict == CONVERGES and report.kind == CONVERGES:
        return replace(report, rule=rule)
    return Verdict(verdict, rule, report.probe)


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
        SeriesProbe(tuple(zip(range(1, count + 1), totals)) or ((1, 0.0),), 0.0),
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
    tol: float = DEFAULT_TOL,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Probe the two basis-vector series (backward orbit sums at
    exponents n^q, and forward right-inverse sums) for every listed
    basis index."""
    if space.domain != w.domain:
        raise DomainMismatchError(
            f"{w.domain} weights on a {space.domain} space {space.describe()}")
    dense_indices = _offsets(dense_indices)
    jmax = max(abs(j) for j in dense_indices)
    n_max = _series_term_count(q, max_exp, jmax)
    entries = []
    notes = []
    for j in dense_indices:
        if w.domain == UNILATERAL:
            t_entry = _trivial_t_series_entry(w, q, j)
        else:
            t_verdict = _classify_weighted(space, w, j, q, -1, j, n_max, tol)
            t_entry = ProbeEntry(f"T-series j={j}", t_verdict)

        s_verdict = _classify_weighted(space, w, j, q, 1, j, n_max, tol)
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
    tol: float = DEFAULT_TOL,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Scalar reduction of the unilateral shift condition: the series of
    reciprocal prefix products at exponent-spaced indices, per offset j."""
    if space.kind not in ("lp", "c0"):
        raise InvalidArgumentError("unilateral condition reduces to lp or c0 only")
    j_range = _offsets(j_range)
    jmax = max(j_range)
    n_max = _series_term_count(q, max_exp, jmax)
    entries = []
    for j in j_range:
        verdict = _classify_weighted(space, w, j, q, 1, None, n_max, tol)
        entries.append(ProbeEntry(f"j={j}", verdict))
    return _report(
        f"backward shift {w.describe()}", space.describe(), q, entries
    )


def bilateral_condition(
    w: WeightSeq,
    q: int,
    j_range,
    *,
    p: float | None = None,
    on_c0: bool = False,
    tol: float = DEFAULT_TOL,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Bilateral shift condition: per offset j, the forward series of
    reciprocal products and the backward series of products.

    For l^p both scalar series are classified; on c0 the two limit
    conditions (products to infinity forward, to zero backward) are
    checked by monotone-tail heuristics.
    """
    if w.domain != BILATERAL:
        raise InvalidArgumentError("bilateral condition needs bilateral weights")
    if not on_c0 and (p is None or p < 1):
        raise InvalidArgumentError("provide p >= 1 or set on_c0=True")
    space = None if on_c0 else lp(p, BILATERAL)
    kind = "products" if on_c0 else "series"
    j_range = _offsets(j_range)
    jmax = max(abs(j) for j in j_range)
    n_max = _series_term_count(q, max_exp, jmax)
    entries = []
    for j in j_range:
        # -log products w_1..w_{n^q+j}, and log products w_j..w_{j-n^q+1}
        for side, direction, anchor in (("forward", 1, None), ("backward", -1, j)):
            verdict = _classify_weighted(space, w, j, q, direction, anchor, n_max, tol)
            entries.append(ProbeEntry(f"{side} {kind} j={j}", verdict))
    label = "c0(Z)" if on_c0 else f"l^{p:g}(Z)"
    return _report(f"bilateral shift {w.describe()}", label, q, entries)


def weakstar_condition(
    w: WeightSeq,
    q: int,
    j_range,
    *,
    tol: float = DEFAULT_TOL,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Absolute-convergence probe of the reciprocal product series per
    offset (the weak* criterion reduces to absolute scalar convergence,
    i.e. the l^1 case of the unilateral condition)."""
    report = unilateral_condition(w, lp(1), q, j_range, tol=tol, max_exp=max_exp)
    return replace(report, space="l^inf (weak*)")


def hc_check(
    space: SpaceSpec,
    w: WeightSeq,
    dense_indices,
    horizon: int = 10**4,
) -> CriterionReport:
    """Orbit-norm decay of T^n e_j and S^n e_j up to the horizon
    (the plain hypercyclicity criterion, not the frequent one)."""
    dense_indices = _indices(dense_indices)
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")
    entries = []
    for j in dense_indices:
        if w.domain == UNILATERAL:
            # the backward orbit dies at step j
            t_verdict = Verdict(
                CONVERGES,
                "orbit reaches zero in finitely many steps",
                SeriesProbe(checkpoints=((min(j, horizon), 0.0),)),
            )
        else:
            t_series = _shift_series(w, j, 1, -1, j)
            t_verdict = classify_sup_decay(lambda m: np.exp(t_series(m)), horizon)
        s_series = _shift_series(w, j, 1, 1, j)
        s_verdict = classify_sup_decay(lambda m: np.exp(s_series(m)), horizon)
        entries.append(ProbeEntry(f"T-orbit j={j}", t_verdict))
        entries.append(ProbeEntry(f"S-orbit j={j}", s_verdict))
    return _report(
        f"backward shift {w.describe()}", space.describe(), 1, entries
    )


@dataclass(frozen=True)
class SalasEvidence:
    limsup_infinite: bool
    max_log_product: float
    argmax: int
    horizon: int
    threshold: float
    rule: str


def salas_check(w: WeightSeq, horizon: int = 10**5) -> SalasEvidence:
    """Running max of |w_1...w_n|: evidence for limsup = infinity.

    Evidence is positive when the running max crosses
    DEFAULT_DIVERGENCE_THRESHOLD, or keeps setting new records through the
    last tenth of the horizon."""
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")
    threshold = DEFAULT_DIVERGENCE_THRESHOLD
    lms = w.prefix_logmag(np.arange(1, horizon + 1, dtype=np.int64))
    argmax = int(np.argmax(lms)) + 1
    mx = float(lms.max())
    if mx > math.log(threshold):
        return SalasEvidence(True, mx, argmax, horizon, threshold, "threshold crossed")
    if argmax >= int(0.9 * horizon):
        return SalasEvidence(
            True, mx, argmax, horizon, threshold, "records persist to the horizon"
        )
    return SalasEvidence(False, mx, argmax, horizon, threshold, "running max stalled")


def fhc_check(
    space: SpaceSpec,
    generators,
    *,
    tol: float = DEFAULT_TOL,
    max_exp: int = 12,
) -> CriterionReport:
    """Frequent-hypercyclicity probe with arbitrary term generators.

    ``generators`` is an iterable of (label, n -> CoeffVector) pairs;
    each labeled series is probed in the given space.
    """
    entries = []
    for label, gen in generators:
        entries.append(
            ProbeEntry(
                label,
                series_probe(space, gen, tol=tol, max_exp=max_exp),
            )
        )
    return _report("custom generators", space.describe(), 1, entries)


def fhc_check_tmu(
    mu: complex,
    degrees=range(0, 6),
    *,
    rmax: int = 8,
    tol: float = DEFAULT_TOL,
    max_exp: int = 12,
) -> CriterionReport:
    """Frequent-hypercyclicity probe for f(z) -> f'(mu z) on the monomials
    z^k: ``qfhc_check`` of the backward ``TMuWeight(mu)`` shift at j = k+1."""
    degrees = list(degrees)
    if any(k < 0 for k in degrees):
        raise InvalidArgumentError("degrees must be nonnegative")
    return qfhc_check(entire(rmax), TMuWeight(mu), 1, [k + 1 for k in degrees],
                      tol=tol, max_exp=max_exp)
