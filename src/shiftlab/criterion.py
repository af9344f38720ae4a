"""Numerical convergence probes and criterion checkers for weighted shifts.

Every series takes one path: an asymptotic class decides (``_decide``),
``_scan`` reads a short run of its terms for dyadic partial-sum
checkpoints, and ``_class_tail`` adds the tail past them from the level
that decided, or reports no sum; neither overrides the verdict.  A
checker runs them on the first read of a verdict's checkpoints or sums
(``Verdict.__getattr__``): ``sweep`` and the constructor's gate read no term.

The checkers answer the paper's two questions: ``qfhc_check`` the q-FHC
criterion, on l^p and c0 of either domain and on H(C) (``fhc_check_tmu``
is its T_mu case), and ``unilateral_condition`` the scalar condition,
whose l^1 case is the weak* criterion.  Each of their series goes through
``_classify_weighted`` and is decided, once per call and direction, from
the family's class (``WeightSeq.asymptotics``): the coefficients of
P(m) = log|w_1...w_m| in a n^2 + b n log n + c n + d log n + e log log n,
substituted at m = j +/- n^q.  That verdict is exact up to a stated
rounding band around each boundary, inside which it is
``inconclusive``.  A unilateral backward series needs no class: it is 0
once n^q >= j, so it converges.

A bare magnitude map (``series_probe``: ``classify_magnitudes`` on l^p,
``classify_sup_decay`` on c0) gets a fitted class (``_fitted_class``)
and the same path, with a sum only from a full SCAN_TERMS scan.  Where
no class fits, the exact rules hold: a non-finite term reads
``diverges`` with a rule ending in ``(term overflow)``, as does an l^p
partial sum past double range, and samples that are all 0 from n = 2^30
on read "terms eventually zero".  Scaling every term by a positive
constant moves only the fitted constant, and samples that leave normal
double range are fitted nearer, so it leaves the verdict as it is while
10 samples stay in range; samples that a scale brings back from a
subnormal, with its lost digits, are refitted without (``_FIT_FLOOR``).

Every weighted-shift series of the checkers and of the constructor's tail
certificates comes from one function, ``_shift_series``: log term magnitudes
P(anchor) - P(j +/- n^q) of prefix products P, read at the n asked for.
The certificates take the mass past their window from a verdict of
``_classify_weighted`` too, its ``tail_estimate``, so one rule decides
every tail.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .density import iroot
from .errors import DomainMismatchError, InvalidArgumentError
from .seqspace import UNILATERAL, SpaceSpec, entire
from .shiftops import EXACT_INDEX, AsymptoticClass, TMuWeight, WeightSeq, _check_anchors

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

SATISFIES = "satisfies"
FAILS = "fails"

DEFAULT_MAX_EXP = 20
# most terms any scan reads: the power-law tail of ``_class_tail`` is
# O(N^-4)-accurate at q = 1, so 2^12 terms give its sum
SCAN_TERMS = 1 << 12
# a float class coefficient this close to its boundary, relative to its
# largest part, is too close to call
_ROUNDING_BAND = 1e-12

# a fitted class's sample points n = 2^12, ..., 2^62, as floats (no map
# squares a wrapped int64); _LADDER[_FAR:] are those from 2^30 on
_LADDER = np.ldexp(1.0, np.arange(12, 63))
_FAR = 18
# the fit reads at most _FIT_POINTS samples in normal double range, and no
# class from fewer than _FIT_MIN
_FIT_POINTS = 33
_FIT_MIN = 10
# a fit residual (largest, in log t) past this is no class: inconclusive.
# Measured: about 1e-13 on power laws, Bertrand series and 1/(n + c) up to
# c = 1000; 1.4e-4 on 1/(n log n log log n)
_FIT_LIMIT = 1e-6
# a fit past _FIT_LIMIT is tried once more on the samples from this floor
# (2^53 times the least normal double) up: a map s * f(n) with f(n)
# subnormal brings f's lost digits back into normal range, and from the
# floor on f's rounding is at most s * 2^-106 of a sample (2^-40 for a
# scale s up to 2^66, about 7e19)
_FIT_FLOOR = np.ldexp(np.finfo(float).tiny, 53)


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges | diverges | inconclusive
    rule: str
    # a checker's verdict holds a reader, ``_read``, for these until one is read;
    # factories leave no class attribute, so that first read reaches ``__getattr__``
    _READ = ("checkpoints", "sum_estimate", "tail_estimate")
    checkpoints: tuple[tuple[int, float], ...] = field(default_factory=tuple)  # (m, S_m), m = 2^i
    sum_estimate: float | None = field(default_factory=lambda: None)
    tail_estimate: float | None = field(default_factory=lambda: None)

    def __getattr__(self, name):
        if name not in self._READ or "_read" not in self.__dict__:
            raise AttributeError(f"'Verdict' object has no attribute {name!r}")
        self.__dict__.update(zip(self._READ, self.__dict__["_read"]()))
        self.__dict__.pop("_read", None)
        return self.__dict__[name]

    def __getstate__(self):  # pickle what the reader reads, not the reader
        self.checkpoints
        return self.__dict__


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
    return CriterionReport(operator, space_desc, q, tuple(entries), _overall(entries), tuple(notes))


# ---------------------------------------------------------------------------
# scalar series classification
# ---------------------------------------------------------------------------


def _scan(mag_fn, n_max: int):
    """The first n_max >= 1 nonnegative terms, read in one mag_fn call and
    summed strictly left to right by one cumsum.  Returns the dyadic
    checkpoints (m, S_m) at m = 2^i and at n_max, the total, and whether
    a term was non-finite (inf or NaN), which reads as inf, as does every
    partial sum past it.  mag_fn's array is never written to."""
    with np.errstate(over="ignore", under="ignore"):
        t = np.asarray(mag_fn(np.arange(1, n_max + 1, dtype=np.int64)), dtype=float)
    any_inf = not np.isfinite(t).all()
    if any_inf:
        t = np.where(np.isfinite(t), t, np.inf)
    with np.errstate(over="ignore"):  # a sum past double range is inf: divergent
        cum = np.cumsum(t)
    checkpoints = [(1 << i, float(cum[(1 << i) - 1])) for i in range(n_max.bit_length())]
    return tuple(checkpoints) + ((n_max, float(cum[-1])),), float(cum[-1]), any_inf


def _fitted_class(samples: np.ndarray):
    """(class, None) of a map's finite samples at the _LADDER points, or
    (None, rule) when no class fits.

    The fit reads the last _FIT_POINTS samples before the trailing ones
    below normal double range (0 or subnormal: underflow), so a map too
    small for double range at the far points is fitted nearer.  On them
    log t(n) ~ D log n + E log log n + C, plus the first order of a shift
    n -> n + c (columns c/n and c/(n log n)), is fitted by least squares.
    D or E within 100 times the largest residual (at least
    _ROUNDING_BAND) of -1 or 0, the boundaries of ``_decide``, is read as
    exactly that.  A sample NaN or negative, fewer than _FIT_MIN points
    or one below normal range among them, or a residual past _FIT_LIMIT
    is no class; a residual past it on a window that reaches below
    _FIT_FLOOR is refitted on the samples above the floor, and the first
    rule stands unless that refit gives a class.  The class is d = -D,
    e = -E, read at q = s = 1, where ``_decide``'s log n and log log n
    levels are D and E."""
    if not (samples >= 0).all():
        return None, "fitted class: a sample is NaN or negative"
    cls, rule, low = _fit(samples, np.finfo(float).tiny)
    if low:
        cls = _fit(samples, _FIT_FLOOR)[0]
    return (cls, None) if cls is not None else (None, rule)


def _fit(samples: np.ndarray, floor: float):
    """``_fitted_class`` on the last _FIT_POINTS samples before the trailing
    ones below floor: (class, None, False), or (None, rule, whether the
    residual failed on a window with a sample below _FIT_FLOOR)."""
    normal = samples >= floor
    end = len(samples) - int(np.argmax(normal[::-1])) if normal.any() else 0
    start = max(end - _FIT_POINTS, 0)
    if end - start < _FIT_MIN or not normal[start:end].all():
        return None, (f"fitted class: fewer than {_FIT_MIN} samples, or one below normal "
                      f"double range, among the last {_FIT_POINTS} before underflow"), False
    x, y = _LADDER[start:end], np.log(samples[start:end])
    log_x = np.log(x)
    fit = np.column_stack([log_x, np.log(log_x), np.ones(len(x)), x[0] / x, x[0] / (x * log_x)])
    coef = np.linalg.lstsq(fit, y, rcond=None)[0]
    residual = float(np.abs(fit @ coef - y).max())
    if not residual <= _FIT_LIMIT:
        return (None, f"fitted class: residual {residual:.3g} is not below {_FIT_LIMIT:g}",
                bool(samples[end - 1] < _FIT_FLOOR))
    band = max(100 * residual, _ROUNDING_BAND)
    d, e = (next((b for b in (-1, 0) if abs(x - b) <= band), float(x)) for x in coef[:2])
    return AsymptoticClass(d=-d, e=-e), None, False


def _probe(mag_fn, n_max: int, summable: bool) -> Verdict:
    """The one route of a bare magnitude map: ``_scan`` reads the first
    min(n_max, SCAN_TERMS) terms, the fitted class decides, and on a
    convergent summable series ``_class_tail`` adds the tail past them.
    A shorter scan reports no sum: only from SCAN_TERMS terms on is the
    tail's error below the sum's rounding."""
    if n_max < 2:
        raise InvalidArgumentError("need at least two terms to classify")

    def mags(ns):
        with np.errstate(over="ignore", under="ignore"):
            return np.asarray(mag_fn(ns), dtype=float)

    n = min(n_max, SCAN_TERMS)
    checkpoints, total, any_inf = _scan(mags, n)
    samples = mags(_LADDER.copy())  # a fresh array, as the scan's: a map may write to it
    overflow = any_inf or bool(np.isposinf(samples).any())
    if overflow or (summable and total == math.inf):
        rule = "partial sum past double range" if summable else "term magnitudes do not decay"
        return Verdict(DIVERGES, rule + (" (term overflow)" if overflow else ""), checkpoints)
    summed = summable and n == SCAN_TERMS
    tail = None
    if not samples[_FAR:].any():
        kind, rule = CONVERGES, "terms eventually zero"
        if summed:
            t_h, t_n = mags(np.array([n // 2, n], dtype=np.int64))
            if t_n == 0:
                tail = 0.0
            elif t_h > t_n:  # the last terms' ratio, continued geometrically
                ratio = AsymptoticClass(c=math.log(t_h / t_n) / (n - n // 2))
                tail = _class_tail(ratio, mags, n, 1, 1, 0, total)
    else:
        cls, rule = _fitted_class(samples)
        if cls is None:
            return Verdict(INCONCLUSIVE, rule, checkpoints)
        kind, rule = _decide(cls, 1, 1, 0, summable)
        rule = "fitted " + rule
        if kind == CONVERGES and summed:
            tail = _class_tail(cls, mags, n, 1, 1, 0, total)
    return Verdict(kind, rule, *_summed(checkpoints, total, tail))


def _summed(checkpoints, total: float, tail):
    """A verdict's (checkpoints, sum_estimate, tail_estimate): total + tail
    as its sum when the tail is known and the sum is finite."""
    if tail is not None and math.isfinite(total + tail):
        return checkpoints, total + tail, tail
    return checkpoints, None, None


def classify_magnitudes(mag_fn, n_max: int) -> Verdict:
    """The sum of the nonnegative terms mag_fn(n), n >= 1, from at most
    min(n_max, SCAN_TERMS) of them and a fitted class: ``series_probe`` on l^p."""
    return _probe(mag_fn, n_max, summable=True)


def classify_sup_decay(mag_fn, n_max: int) -> Verdict:
    """Does mag_fn(n) tend to 0?  ``series_probe`` on c0, read as
    ``classify_magnitudes`` reads, with no sum."""
    return _probe(mag_fn, n_max, summable=False)


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
    n -> ||term_n|| map), from its first min(2^max_exp, SCAN_TERMS) terms
    and its fitted class (see the module docstring).

    In l^p that is exactly the scalar series sum ||term_n||^p
    (``classify_magnitudes``), with a sum estimate from a full SCAN_TERMS
    scan; in c0 it is term decay (``classify_sup_decay``).  ``magnitudes``
    is read on an int64 array for the scan and on the float64 array
    n = 2^12, ..., 2^62 for the class.  ``max_exp`` must be an integer >= 1.
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


def _offsets(indices, q: int, max_exp: int) -> tuple[list, int, bool]:
    """Series offsets (at least one, none past EXACT_INDEX), the terms per
    series: 2^max_exp (at least 2), cut so that no term's prefix index
    n^q + |j| passes EXACT_INDEX, and 0 (no term read; the class alone
    decides) where that leaves fewer than two, and whether the scan is
    full: SCAN_TERMS terms, or cut by that limit rather than by max_exp."""
    indices = list(indices)
    if not indices:
        raise InvalidArgumentError("need at least one index")
    far = [j for j in indices if abs(j) > EXACT_INDEX]
    if far:
        raise InvalidArgumentError(f"index {far[0]} is past the exact-index limit 2^53")
    reach = iroot(EXACT_INDEX - max(map(abs, indices)), q)
    n_max = min(max(2**max_exp, 2), reach)
    return indices, n_max if n_max > 1 else 0, n_max >= min(reach, SCAN_TERMS)


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


def _fmt(x, bound: int) -> str:
    """``x`` to 6 significant digits, or in full where those read as ``bound``."""
    text = f"{x:.6g}" if isinstance(x, float) else str(x)
    return repr(x) if text == str(bound) else text


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
        where = f"asymptotic class at {names[level]}: coefficient {_fmt(x, bound)}"
        if isinstance(x, float) and abs(x - bound) <= _ROUNDING_BAND * max(1.0, *map(abs, parts)):
            return INCONCLUSIVE, f"{where} within rounding of {bound}"
        if x < bound:
            return CONVERGES, f"{where} < {bound}"
        return DIVERGES, f"{where} > {bound}"
    limit = "terms of order 1/(n log n)" if summable else "terms tend to a nonzero limit"
    return DIVERGES, f"asymptotic class: every coefficient on its boundary ({limit})"


def _class_tail(cls: AsymptoticClass, mags, n: int, q: int, s, log_r,
                total: float, full: bool = True) -> float | None:
    """Summed mass past the first n >= 2 terms of a summable series that
    ``_decide`` read as converging, from the level that decided it; None
    when that level gives no tail within the scan's rounding.

    - log n or log log n, after a ``full`` scan (``_offsets``; a shorter
      one is off by 2.5e-8 at n = 16, q = 1): the terms are K x^-P (log x)^E in
      x = (k^q + c)^(1/q), P = s q d and E = -s e, with c fitted to the
      terms at n and n // 2 (by fixed-point steps when E moves their ratio
      with c).  The tail is the integral from x(n + 1/2) less its
      Euler-Maclaurin correction: K x^(1-P)/(P-1) at E = 0, to a relative
      O(n^-4) at q = 1 whatever c is, and O(c n^-q) past it;
      K (log x)^(1+E)/(-(1+E)) at P = 1.  Other log factors have no tail.
    - n, at q = 1 with c the only nonzero coefficient: log terms
      (log R - s c) n + const past a table's head (``_past_head``), so the
      tail is exactly geometric, t(n) / expm1(x) at x = s c - log R, or
      t(n) e^-x / (1 - e^-x) where e^x is past double range.
    - any other exponential level: the term ratios fall, so t(n) r / (1 - r),
      r = t(n) / t(n - 1) < 1, bounds the tail from above.  It is kept only
      when it is at most n ulp(total), the rounding the scan's sum carries.
    """
    if cls.a == cls.b == 0 and log_r == s * cls.c:  # decided at log n or log log n
        power, e = float(s * q * cls.d), float(-s * cls.e)
        if not full or e and power != 1:
            return None
        h = n // 2
        with np.errstate(under="ignore"):
            t_n, t_h = mags(np.array([n, h], dtype=np.int64))
        if t_n == 0:
            return 0.0
        c = 0.0
        for _ in range(64 if e else 1):
            ratio, prev = t_h / t_n, c
            if e:  # (log x_n / log x_h)^E of the ratio, at this c
                if h**q + c <= 1:
                    return None
                ratio *= (math.log(n**q + c) / math.log(h**q + c)) ** e
            rho = ratio ** (q / power)  # (n^q + c) / (h^q + c)
            if not 1 < rho < math.inf:
                return None
            c = (n**q - rho * h**q) / (rho - 1.0)
        if e and abs(c - prev) > 1e-9 * (1.0 + abs(c)):  # the steps did not settle
            return None
        x_n, x_half = (n**q + c) ** (1.0 / q), ((n + 0.5) ** q + c) ** (1.0 / q)
        t_half = t_n * (x_n / x_half) ** power  # K x^-P at x_half
        if not e:
            return float(t_half * (x_half / (power - 1.0) - power / (24.0 * x_half)))
        log_n, log_half = math.log(x_n), math.log(x_half)
        t_half *= (log_half / log_n) ** e
        return float(t_half * (x_half * log_half / (-1.0 - e)
                               - (1.0 - e / log_half) / (24.0 * x_half)))
    t_prev, t_n = mags(np.array([n - 1, n], dtype=np.int64)).tolist()
    if q == 1 and cls.a == cls.b == cls.d == cls.e == 0:
        x = s * cls.c - log_r
        try:
            return t_n / math.expm1(x)
        except OverflowError:
            return t_n * math.exp(-x) / -math.expm1(-x)
    if t_n == 0:
        return 0.0
    if not t_n < t_prev:
        return None
    r = t_n / t_prev
    bound = t_n * r / (1.0 - r)
    return bound if bound <= n * math.ulp(total) else None


def _past_head(w: WeightSeq, j: int, q: int, direction: int, n: int) -> bool:
    """Whether terms n - 1, n, ... of P(j + direction k^q) read P past the
    head of its side (``WeightSeq.head_end``), where its class is exact."""
    return direction * j + (n - 1) ** q >= w.head_end(direction)


def _classify_weighted(space: SpaceSpec, w: WeightSeq, q: int, n_max: int,
                       full: bool = True):
    """The one path of every criterion series in one checker call:
    ``verdict(j, direction, anchor)`` of the series ``_shift_series(w, j,
    q, direction, anchor)`` in ``space``, refused before any read unless
    the space's domain is the family's.  On l^p and H(C) the series is
    summed (its terms' p-th powers; on the entire space term n is weighted
    by R^(j - 1 + direction n^q) at R = rmax, the worst radius); on c0 its
    terms must tend to 0.

    The family's class decides (``_decide``, once per direction), except
    on a unilateral backward series: e_(j - n^q) is 0 once n^q >= j, so it
    converges on its finite head n^q < j.  A verdict reads only its anchor
    and checks its scan's index range; the first read of its checkpoints
    or sums (``Verdict.__getattr__``) runs ``_scan`` on min(n_max,
    SCAN_TERMS) terms (n_max = 0 reads none), or min(head, SCAN_TERMS) of
    a head.  A convergent summable series reports the scan total plus
    ``_class_tail`` (``full``: see ``_offsets``); a whole head reports its
    total, with tail 0.  A head longer than SCAN_TERMS, a non-finite sum,
    a c0 condition, a scan that ends inside a table's head, or a tail the
    class does not give reports no sum.
    """
    if space.domain != w.domain:
        raise DomainMismatchError(
            f"{w.domain} weights on a {space.domain} space {space.describe()}")
    kind = space.kind
    if kind not in ("lp", "c0", "entire"):
        raise InvalidArgumentError(f"unsupported space kind {kind} for shifts")
    radius = space.rmax if kind == "entire" else 1
    log_r = math.log(radius) if radius > 1 else 0
    p = space.p if kind == "lp" else 1.0
    summable = kind in ("lp", "entire")
    s = _exact(p)

    @functools.cache
    def decided(direction):
        cls = w.asymptotics(direction)
        verdict, rule = _decide(cls, q, s, log_r, summable)
        return cls, verdict, rule + (f" at R={radius}" if radius > 1 else "")

    def classify(j: int, direction: int, anchor: int | None) -> Verdict:
        series = _shift_series(w, j, q, direction, anchor)  # reads the anchor

        def mags(ns):
            lms = series(ns)
            if log_r:  # the majorant factor R^(j - 1 + direction n^q)
                lms += (direction * np.asarray(ns, dtype=np.int64) ** q + (j - 1)) * log_r
            with np.errstate(over="ignore", under="ignore"):
                lms *= p
                return np.exp(lms, out=lms)
        head = None  # the term count of a unilateral backward series
        if w.domain == UNILATERAL and direction < 0:
            head = iroot(j - 1, q) if j > 0 else 0
            cls, verdict = None, CONVERGES
            rule = "terms eventually zero (backward shift falls off the edge)"
        else:
            cls, verdict, rule = decided(direction)
        n_scan = min(n_max if head is None else head, SCAN_TERMS)
        if n_scan:  # the prefix indices j + direction n^q the scan will read
            w._check(*sorted((j + direction, j + direction * n_scan**q)))

        def read():
            checkpoints, total = _scan(mags, n_scan)[:2] if n_scan else ((), 0.0)
            tail = None
            if verdict == CONVERGES and summable:
                if head is not None:
                    tail = 0.0 if n_scan == head else None
                elif n_scan and _past_head(w, j, q, direction, n_scan):
                    tail = _class_tail(cls, mags, n_scan, q, s, log_r, total, full)
            return _summed(checkpoints, total, tail)
        deferred = object.__new__(Verdict)  # its last three fields wait for read()
        deferred.__dict__.update(kind=verdict, rule=rule, _read=read)
        return deferred

    return classify


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
    dense_indices, n_max, full = _offsets(dense_indices, q, max_exp)
    verdict = _classify_weighted(space, w, q, n_max, full=full)
    unilateral = w.domain == UNILATERAL
    note = "trivially convergent: all terms beyond a finite head are zero" if unilateral else ""
    entries = []
    for j in dense_indices:
        entries += [
            ProbeEntry(f"T-series j={j}", verdict(j, -1, j), note),
            ProbeEntry(f"S-series j={j}", verdict(j, 1, j)),
        ]
    notes = ["unilateral T-series on basis vectors are eventually zero, "
             "so their convergence is automatic"] if unilateral else []
    return _report(f"backward shift {w.describe()}", space.describe(), q, entries, notes)


def unilateral_condition(
    w: WeightSeq,
    space: SpaceSpec,
    q: int,
    j_range,
    *,
    max_exp: int = DEFAULT_MAX_EXP,
) -> CriterionReport:
    """Scalar reduction of the unilateral shift condition: the series of
    reciprocal prefix products at exponent-spaced indices, per offset j.
    On l^1 it is the paper's weak* criterion."""
    if space.kind not in ("lp", "c0") or space.domain != UNILATERAL:
        raise InvalidArgumentError("unilateral condition reduces to unilateral lp or c0 only")
    j_range, n_max, full = _offsets(j_range, q, max_exp)
    if w.domain == UNILATERAL and min(j_range) < 0:
        # P(n^q + j) below index 0 does not exist, and at j = -1 the first
        # term would read P(0) as if it were a product
        raise InvalidArgumentError(
            f"offset {min(j_range)} is negative; a unilateral family needs j >= 0")
    verdict = _classify_weighted(space, w, q, n_max, full=full)
    entries = [ProbeEntry(f"j={j}", verdict(j, 1, None)) for j in j_range]
    return _report(f"backward shift {w.describe()}", space.describe(), q, entries)


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
