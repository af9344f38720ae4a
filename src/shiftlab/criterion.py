"""Numerical convergence probes and criterion checkers for weighted shifts.

Every verdict comes by one of two routes.  A weighted-shift series (of
``qfhc_check``, ``unilateral_condition``, ``bilateral_condition``,
``weakstar_condition``, ``salas_check``, the orbit decay of ``hc_check``)
goes through ``_classify_weighted``, the one path of every checker's
series; a bare magnitude map goes through ``series_probe``.

A weighted-shift series of a built-in weight family is decided from the
family's asymptotic class (``WeightSeq.asymptotics``): the coefficients of
P(m) = log|w_1...w_m| in a n^2 + b n log n + c n + d log n + e log log n,
substituted at m = j +/- n^q (``_decide``).  That verdict is exact up to a
stated rounding band around each boundary, inside which it is
``inconclusive``.  A unilateral backward series needs no class: it is 0
once n^q >= j, so it converges.  ``_scan`` then reads a short run of its
terms for dyadic partial-sum checkpoints, and ``_class_tail`` adds the
tail past them from the level that decided, or reports no sum; neither
overrides the verdict.

A bare magnitude map (``series_probe``) has no class and gets heuristic
verdicts from the block-ratio ladder (``classify_magnitudes``,
``classify_sup_decay``): dyadic partial-sum checkpoints and
``_extrapolate_tail``'s fit.  Dyadic checkpoints make slow harmonic-type
divergence visible as non-decaying block sums (the condensation view).
The rule that fired is always named.  The rules read only ratios of terms
and of block sums, and exact zeros, never an absolute size: scaling every
term by a positive constant leaves the verdict as it is, within double
range.  Past it, a non-finite term (inf or NaN) reads ``diverges`` with a
rule ending in ``(term overflow)``, and so does an l^p partial sum past
double range; a term that underflows to 0 reads as 0.

Every weighted-shift series of the checkers and of the constructor's tail
certificates comes from one function, ``_shift_series``: log term magnitudes
P(anchor) - P(j +/- n^q) of prefix products P, read at the n asked for.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .density import iroot
from .errors import DomainMismatchError, InvalidArgumentError
from .seqspace import BILATERAL, UNILATERAL, SpaceSpec, c0, entire, lp
from .shiftops import EXACT_INDEX, AsymptoticClass, TMuWeight, WeightSeq, _check_anchors

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

SATISFIES = "satisfies"
FAILS = "fails"

DEFAULT_MAX_EXP = 20
# most terms the scan of a weighted-shift series reads, once its asymptotic
# class has decided it: the power-law tail of ``_class_tail`` is
# O(N^-4)-accurate at q = 1, so 2^12 terms give its sum
SCAN_TERMS = 1 << 12
# indices per mag_fn call of a scan, so that a block's arrays (256 KB each)
# stay in cache.  The nine 2^20-term criterion-grid probes (Xeon, 2 MiB L2
# per core, medians of 9, two runs) took 153 ms at 2^12, 113-121 ms at 2^14,
# 103-113 ms at 2^15, 102-171 ms at 2^16 and 170-235 ms at 2^17, against
# 227 ms as one 2^20 chunk.
_SCAN_BLOCK = 1 << 15
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


def _scan(mag_fn, n_max: int):
    """Stream the nonnegative terms once, in blocks of _SCAN_BLOCK indices,
    up to the block of the first non-finite term (read as inf).  Returns
    the dyadic checkpoints, the total, the largest term, the largest term
    of the last quarter and whether a term was non-finite.

    The partial sums are one strict left-to-right sum: each block's terms
    are copied after the running sum into one buffer, whose in-place
    cumsum carries it on.  mag_fn's arrays are never written to.  Past a
    non-finite term every term and partial sum reads inf."""
    buf = np.empty(min(n_max, _SCAN_BLOCK) + 1)
    total = largest = last_quarter_max = 0.0
    checkpoints = []  # (m, S_m)
    next_cp = 1
    any_inf = False
    q_start = max(1, (3 * n_max) // 4)
    for start in range(1, n_max + 1, _SCAN_BLOCK):
        end = min(n_max, start + _SCAN_BLOCK - 1)
        cum = buf[: end - start + 2]  # slot 0 the running sum, then S_start..S_end
        t = cum[1:]
        with np.errstate(over="ignore", under="ignore"):
            t[...] = mag_fn(np.arange(start, end + 1, dtype=np.int64))
        if not np.isfinite(t).all():
            any_inf = True
            t[~np.isfinite(t)] = np.inf
        largest = max(largest, float(t.max(initial=0.0)))
        late = t[max(q_start - start, 0) :]  # the terms in the last quarter
        last_quarter_max = max(last_quarter_max, float(late.max(initial=0.0)))
        cum[0] = total
        with np.errstate(over="ignore"):  # a sum past double range is inf: divergent
            np.cumsum(cum, out=cum)
        while next_cp <= end:
            checkpoints.append((next_cp, float(cum[next_cp - start + 1])))
            next_cp *= 2
        total = float(cum[-1])
        if any_inf:
            largest = last_quarter_max = math.inf
            break
    while next_cp <= n_max:  # only after a non-finite term
        checkpoints.append((next_cp, math.inf))
        next_cp *= 2
    checkpoints.append((n_max, total))
    return tuple(checkpoints), total, largest, last_quarter_max, any_inf


def _blocks(checkpoints):
    """Sums over full dyadic blocks (2^i, 2^(i+1)] from checkpoint
    partials; a trailing partial block is dropped so ratios compare
    equal-width windows."""
    out = []
    for (m0, s0), (m1, s1) in zip(checkpoints, checkpoints[1:]):
        if m1 == 2 * m0:
            out.append(s1 - s0)
    return out


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
    The block rule reads a window of the last positive dyadic blocks:
    decay when every ratio is at most _DECAY_RATIO, growth when every ratio
    is at least _GROWTH_RATIO.
    """
    if n_max < 2:
        raise InvalidArgumentError("need at least two terms to classify")
    checkpoints, total, _, last_quarter_max, any_inf = _scan(mag_fn, n_max)
    if total == math.inf:
        rule = "partial sum past double range" + (" (term overflow)" if any_inf else "")
        return Verdict(DIVERGES, rule, checkpoints)
    if last_quarter_max == 0.0:
        return Verdict(CONVERGES, "terms eventually zero", checkpoints,
                       sum_estimate=total, tail_estimate=0.0)
    blocks = _blocks(checkpoints)
    pos = [b for b in blocks if b > 0]
    window = pos[-min(4, max(2, len(pos) // 2)) :]
    ratios = [b1 / b0 for b0, b1 in zip(window, window[1:])]
    if not (ratios and max(ratios) <= _DECAY_RATIO):
        if ratios and min(ratios) >= _GROWTH_RATIO:
            return Verdict(DIVERGES, "non-decaying dyadic block sums (condensation)", checkpoints)
        return Verdict(INCONCLUSIVE, "mixed block-sum behavior", checkpoints)
    tail = _extrapolate_tail(mag_fn, n_max)
    if tail is None:
        # the last dyadic block ratio, continued geometrically
        rb = min(blocks[-1] / blocks[-2] if blocks[-2] > 0 else 0.5, _DECAY_RATIO)
        tail = blocks[-1] * rb / (1.0 - rb)
    return Verdict(CONVERGES, "dyadic block sums decay geometrically", checkpoints,
                   sum_estimate=total + tail, tail_estimate=tail)


def classify_sup_decay(mag_fn, n_max: int) -> Verdict:
    """Does mag_fn(n) tend to 0?  (c0-style criterion for distinct-index
    series: unconditional convergence needs exactly term decay.)"""
    if n_max < 2:
        raise InvalidArgumentError("need at least two terms to classify")
    checkpoints, _, largest, last, any_inf = _scan(mag_fn, n_max)
    if any_inf:  # inf <= 0.2 * inf would read as decay
        return Verdict(DIVERGES, "term magnitudes do not decay (term overflow)", checkpoints)
    if last == 0.0:
        return Verdict(CONVERGES, "terms vanish", checkpoints)
    if last <= 0.2 * largest:
        return Verdict(CONVERGES, "term magnitudes decay", checkpoints)
    if last >= 0.8 * largest:
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
    estimate is reported; in c0 it is term decay.  ``max_exp`` must be an
    integer >= 1.
    """
    if not isinstance(max_exp, numbers.Integral) or max_exp < 1:
        raise InvalidArgumentError(f"max_exp must be an integer >= 1, got {max_exp!r}")
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


def _offsets(indices, q: int, max_exp: int) -> tuple[list, int]:
    """Series offsets (at least one, none past EXACT_INDEX) and the terms
    per series: 2^max_exp (at least 2), cut so that no term's prefix index
    n^q + |j| passes EXACT_INDEX, and 0 (no term read; the class alone
    decides) where that leaves fewer than two."""
    indices = _indices(indices)
    far = [j for j in indices if abs(j) > EXACT_INDEX]
    if far:
        raise InvalidArgumentError(f"index {far[0]} is past the exact-index limit 2^53")
    n_max = min(max(2**max_exp, 2), iroot(EXACT_INDEX - max(map(abs, indices)), q))
    return indices, n_max if n_max > 1 else 0


def _shift_series(w: WeightSeq, j: int, q: int, direction: int, anchor: int | None):
    """Log term magnitudes n -> P(anchor) - P(j + direction * n^q) of a criterion
    series: a closure over int n-arrays that reads only the prefixes asked for.
    ``anchor=None`` gives -P, keeping the sign of a zero prefix (0.0 - P does not).
    An anchor with |P(anchor)| >= ANCHOR_LOGMAG is refused before any term is read."""
    base = None if anchor is None else w.prefix(anchor).logmag
    if base is not None:
        _check_anchors([anchor], [base])

    def logmags(ns):
        # one fresh index array: at q = 1 the offset step makes it, not ``** 1``
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
    """(kind, rule) of a series whose log terms are
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
    to its largest part) is too close to call: ``inconclusive``.
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
            return INCONCLUSIVE, f"{where} within rounding of {bound}"
        if x < bound:
            return CONVERGES, f"{where} < {bound}"
        return DIVERGES, f"{where} > {bound}"
    limit = "terms of order 1/(n log n)" if summable else "terms tend to a nonzero limit"
    return DIVERGES, f"asymptotic class: every coefficient on its boundary ({limit})"


def _class_tail(cls: AsymptoticClass, mags, n: int, q: int, s, log_r,
                total: float) -> float | None:
    """Summed mass past the first n >= 2 terms of a summable series that
    ``_decide`` read as converging, from the level that decided it; None
    when that level gives no tail within the scan's rounding.

    - log n: the terms are a power law K (k^q + c)^(-s q d) in k, with c
      fitted to the terms at n and n // 2.  In x = (k^q + c)^(1/q) they
      are K x^(-s q d): the midpoint integral from n + 1/2 less its
      Euler-Maclaurin correction, to a relative O(n^-4) at q = 1 whatever
      c is, and O(c n^-q) past it.
    - n, at q = 1 with c the only nonzero coefficient: log terms
      (log R - s c) n + const past a table's head, so the tail is exactly
      geometric, t(n) / expm1(s c - log R).
    - any other exponential level: the term ratios fall, so t(n) r / (1 - r),
      r = t(n) / t(n - 1) < 1, bounds the tail from above.  It is kept only
      when it is at most n ulp(total), the rounding the scan's sum carries.
    """
    if cls.a == cls.b == 0 and log_r == s * cls.c:  # decided at log n or log log n
        if cls.e:  # log factors, which no power law fits
            return None
        power = float(s * q * cls.d)
        h = n // 2
        with np.errstate(under="ignore"):
            t_n, t_h = mags(np.array([n, h], dtype=np.int64))
        if t_n == 0:
            return 0.0
        rho = (t_h / t_n) ** (q / power)  # (n^q + c) / (h^q + c)
        if not 1 < rho < math.inf:
            return None
        c = (n**q - rho * h**q) / (rho - 1.0)
        x_n, x_half = (n**q + c) ** (1.0 / q), ((n + 0.5) ** q + c) ** (1.0 / q)
        return t_n * (x_n / x_half) ** power * (x_half / (power - 1.0) - power / (24.0 * x_half))
    t_prev, t_n = mags(np.array([n - 1, n], dtype=np.int64)).tolist()
    if q == 1 and cls.a == cls.b == cls.d == cls.e == 0:
        return t_n / math.expm1(s * cls.c - log_r)
    if t_n == 0:
        return 0.0
    if not t_n < t_prev:
        return None
    r = t_n / t_prev
    bound = t_n * r / (1.0 - r)
    return bound if bound <= n * math.ulp(total) else None


def _classify_weighted(space: SpaceSpec, w: WeightSeq, j: int, q: int, direction: int,
                       anchor: int | None, n_max: int, decay: bool = False) -> Verdict:
    """Verdict of the weighted-shift series ``_shift_series(w, j, q,
    direction, anchor)`` in ``space``, refused before any read unless the
    space's domain is the family's: the one path of every criterion series.
    On the entire space term n is weighted by R^(j - 1 + direction n^q) at
    R = rmax, the worst radius.  ``decay`` asks whether the (weighted)
    terms tend to 0, the c0 rule, on any space.

    The family's asymptotic class decides (``_decide``), except on a
    unilateral backward series: e_(j - n^q) is 0 once n^q >= j, so it
    converges on its finite head n^q < j.  ``_scan`` then reads
    min(n_max, SCAN_TERMS) terms (n_max = 0 reads none), or min(head,
    SCAN_TERMS) of a head, for checkpoints and sums that never override
    the verdict.  A convergent summable series reports the scan total plus
    ``_class_tail``; a whole head reports its total, with tail 0.  A head
    longer than SCAN_TERMS, a non-finite sum, a decay condition, or a
    tail the class does not give reports no sum.
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
        if log_r:  # the majorant factor R^(j - 1 + direction n^q)
            lms += (direction * np.asarray(ns, dtype=np.int64) ** q + (j - 1)) * log_r
        with np.errstate(over="ignore", under="ignore"):
            lms *= p
            return np.exp(lms, out=lms)

    summable = kind in ("lp", "entire") and not decay
    s = _exact(p)
    head = None  # the term count of a unilateral backward series
    if w.domain == UNILATERAL and direction < 0:
        head = iroot(j - 1, q) if j > 0 else 0
        verdict, rule = CONVERGES, "terms eventually zero (backward shift falls off the edge)"
    else:
        cls = w.asymptotics(direction)
        verdict, rule = _decide(cls, q, s, log_r, summable)
        if radius > 1:
            rule += f" at R={radius}"
    n_scan = min(n_max if head is None else head, SCAN_TERMS)
    checkpoints, total = _scan(mags, n_scan)[:2] if n_scan else ((), 0.0)
    tail = None
    if verdict == CONVERGES and summable:
        if head is not None:
            tail = 0.0 if n_scan == head else None
        elif n_scan:
            tail = _class_tail(cls, mags, n_scan, q, s, log_r, total)
    if tail is not None and math.isfinite(total + tail):
        return Verdict(verdict, rule, checkpoints, sum_estimate=total + tail, tail_estimate=tail)
    return Verdict(verdict, rule, checkpoints)


def qfhc_check(
    space: SpaceSpec,
    w: WeightSeq,
    q: int,
    dense_indices,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Probe the two basis-vector series of the q-FHC criterion for every
    listed basis index j: the T-series of T^(n^q) e_j (backward products
    P(j) - P(j - n^q)) and the S-series of S^(n^q) e_j (forward
    reciprocal products P(j) - P(j + n^q)), each by ``_classify_weighted``.
    A T-series sum, like an S-series sum, is the sum of the terms'
    p-th powers on l^p and of their majorants at R = rmax on H(C)."""
    dense_indices, n_max = _offsets(dense_indices, q, max_exp)
    unilateral = w.domain == UNILATERAL
    note = "trivially convergent: all terms beyond a finite head are zero" if unilateral else ""
    entries = []
    for j in dense_indices:
        entries += [
            ProbeEntry(f"T-series j={j}", _classify_weighted(space, w, j, q, -1, j, n_max), note),
            ProbeEntry(f"S-series j={j}", _classify_weighted(space, w, j, q, 1, j, n_max)),
        ]
    notes = ["unilateral T-series on basis vectors are eventually zero, "
             "so their convergence is automatic"] if unilateral else []
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
    j_range, n_max = _offsets(j_range, q, max_exp)
    if w.domain == UNILATERAL and min(j_range) < 0:
        # P(n^q + j) below index 0 does not exist, and at j = -1 the first
        # term would read P(0) as if it were a product
        raise InvalidArgumentError(
            f"offset {min(j_range)} is negative; a unilateral family needs j >= 0")
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
    j_range, n_max = _offsets(j_range, q, max_exp)
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
    decided by ``_classify_weighted`` with n_max = horizon, where a
    unilateral T-orbit is a finite head.  On H(C) the terms carry the
    majorant factor R^(j - 1 -/+ n) at R = rmax, the worst radius; on every
    other space the norm of a basis vector's orbit is the modulus of its
    one coefficient, the c0 condition."""
    dense_indices = _indices(dense_indices)
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")
    orbits = space if space.kind == "entire" else c0(space.domain)
    entries = []
    for j in dense_indices:
        for label, direction in (("T-orbit", -1), ("S-orbit", 1)):
            verdict = _classify_weighted(orbits, w, j, 1, direction, j, horizon, decay=True)
            entries.append(ProbeEntry(f"{label} j={j}", verdict))
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
    verdict = _classify_weighted(c0(), w, 0, 1, 1, None, 0)  # the class alone
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
