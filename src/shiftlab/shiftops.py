"""Weighted backward/forward shifts and batched N-step orbit evaluation.

All weight products are log-polar differences of prefix products: the
product w_{m+1}...w_n is exp(P(n) - P(m)), where P(n) = log w_1...w_n
is each family's closed form, evaluated at any array of indices.
Phases accumulate without re-wrapping, so products like
n! * mu^(n(n-1)/2) stay representable far beyond double-precision
magnitude limits.

Single applications (``apply``) use direct complex products.  Every
multi-step orbit goes through ``orbit_batch``: the terms of op^N v at a
whole array of times, found with one search of the vector's sorted
support and one evaluation of P(j) - P(j -/+ N).  ``_orbit_chunks``
cuts a long run of times into batches of at most ORBIT_CHUNK_TERMS terms
and hands each out as complex coefficients, which ``iterate`` (one time),
the F-norm kernel behind every orbit distance and ``build_vector``'s
class blocks read.

The batched route keeps libm's bits: log|c| and arg c come from libm once
per vector, numpy evaluates P elementwise and adds and subtracts in the
order of the scalar expression log|c| + (P(j) - P(tgt)), and a
coefficient is np.exp(logmag + 1j*phase).  numpy's complex exp is libm's
cexp, which has the bits of cmath.rect(math.exp(logmag), phase) up to a
log-magnitude of 709, where cexp starts to scale; numpy's real exp is its
own and differs from libm's on a few percent of inputs.  P at an index
has the same bits whether it is read alone (``prefix``) or in an array.

Every prefix read has |n| <= EXACT_INDEX = 2^53, where an int64 index
converts to float exactly; past it a read raises ``ResourceLimitError``.
An anchored log term P(j) - P(m) is refused before any term is read when
|P(j)| >= ANCHOR_LOGMAG = 2^27, where the subtraction would lose its
digits to cancellation: the support indices of an orbit's vector here,
the criterion anchors in ``criterion``.  An orbit term past double range
ends the orbit in ``_orbit_chunks`` with ``ResourceLimitError`` naming its
time, after the times before it.  Orbits have no step limit of their own,
since an orbit costs its surviving terms whatever N is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainMismatchError, InvalidArgumentError, ResourceLimitError
from .seqspace import BILATERAL, UNILATERAL, CoeffVector, _phase

# the exact-index limit: every prefix read has |n| <= 2^53, where an int64
# index converts to float exactly (``_side`` and the closed forms rely on it)
EXACT_INDEX = 1 << 53
# an anchored log term P(j) - P(m) carries up to 2 ulp(P(j)) of rounding,
# from P(j) and from the subtraction, whatever its size: an anchor with
# |P(j)| >= 2^27 is refused, which bounds that error by 2 * 2^-25 = 2^-24.
# Every anchor |j| <= 2^23 of Constant(|lam| < e^16), Bergman, LogWeight,
# RootWeight and TMu(|mu| = 1) passes, since lgamma(2^23) ~ 1.25e8 < 2^27.
ANCHOR_LOGMAG = 1 << 27
# most |k| of an explicit BilateralTableWeight entry: its dense heads hold
# one prefix per index up to the farthest entry
TABLE_INDEX = 1 << 23
# most terms ``_orbit_chunks`` gathers per batch: a batch peaks near 125
# bytes per term, so this caps it near 32 MB
ORBIT_CHUNK_TERMS = 1 << 18
# math.exp(x) raises OverflowError exactly for x > _EXP_MAX: an orbit term
# past it is past double range
_EXP_MAX = 709.782712893384
# a step count past int64 acts as this one: it passes every support
# index below 2^62, so a unilateral backward orbit is zero, and any other
# orbit asks for a prefix index past EXACT_INDEX
_STEP_CLIP = 1 << 62

BACKWARD = "backward"
FORWARD = "forward"  # the right inverse S_w, with S_w(e_n) = e_{n+1}/w_{n+1}


@dataclass(frozen=True)
class LogPolar:
    """A nonzero complex number as (log magnitude, phase in radians)."""

    logmag: float
    phase: float


def _log_polar(z: complex) -> tuple[float, float]:
    return math.log(abs(z)), _phase(z)


def _log_modulus(z: complex) -> float:
    """log|z| as a class coefficient.  A modulus within an ulp of 1 rounds
    to abs(z) == 1.0, whose log is 0.0; there the first-order term
    (|z|^2 - 1)/2 of the exact modulus is used instead, which is 0.0 only
    at an exact unit modulus and otherwise has the sign of log|z|."""
    z = complex(z)
    if abs(z) != 1.0:
        return math.log(abs(z))
    # imported on first use, as in ``_ratio``
    from fractions import Fraction

    return float((Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 - 1) / 2)


@dataclass(frozen=True)
class AsymptoticClass:
    """The coefficients of P(m) = log|w_1...w_m| = a m^2 + b m log m + c m
    + d log m + e log log m + O(1) as m -> infinity.  A coefficient is
    exact (an int or a ``Fraction``) where the family fixes it and a float
    where it is the logarithm of a parameter (log|lam|, log|mu|)."""

    a: Real = 0
    b: Real = 0
    c: Real = 0
    d: Real = 0
    e: Real = 0


def _ratio(num: int, den: int):
    """The exact rational num/den.  ``fractions`` is imported here, on first
    use, because it pulls in ``decimal``: a few percent of the package's
    import time, which every CLI run pays."""
    from fractions import Fraction

    return Fraction(num, den)


class WeightSeq:
    """Base class for weight families: ``weight(n)`` and the prefix
    products P(n) = log w_1...w_n, with P(0) = 0 and, on a bilateral
    family, P(-m) = -(log w_{-m+1} + ... + log w_0), so that the product
    over (m, n] is exp(P(n) - P(m)) on either side.

    P is a closed form, evaluated at any int64 array of indices with
    |n| <= EXACT_INDEX after one domain check (``_at``); ``prefix``
    is the same evaluation at one index, so it has the same bits.  The
    base rule is a head plus a linear tail: ``_lm``/``_ph`` hold the
    log-magnitude and phase of P(0), ..., P(L) (``_lm_neg``/``_ph_neg``
    those of P(0), P(-1), ..., P(-M)), summed once from the finite
    weights given to ``__init__``, and each index past a head adds the
    log-polar form of that side's tail weight.  Constants and tables use
    this rule.  The other families override ``_logmag_at`` (TMu also
    ``_phase_at``) and keep one-entry heads with unit tails, which give
    them the phase +0.0.  Each family also gives the asymptotic class of
    its P (``asymptotics``), from which the criterion checkers decide.
    """

    domain = UNILATERAL
    name = "weights"

    def __init__(self, head=(), tail: complex = 1.0, head_neg=(), tail_neg: complex = 1.0):
        self._lm, self._ph = _prefix_sums(head, 1)
        self._lm_neg, self._ph_neg = _prefix_sums(head_neg, -1)
        self._tails = (tail, tail_neg)
        self._step = _log_polar(tail)
        self._step_neg = tuple(-x for x in _log_polar(tail_neg))

    # -- weights -------------------------------------------------------
    def weight(self, n: int) -> complex:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        ps = self.params()
        inner = ", ".join(f"{k}={v}" for k, v in ps.items())
        return f"{self.name}({inner})" if inner else self.name

    # -- prefix products -----------------------------------------------
    def _check(self, lo: int, hi: int):
        """The domain check of every prefix read: indices lo..hi."""
        if lo < 0 and self.domain != BILATERAL:
            raise DomainMismatchError("negative prefix index on a unilateral family")
        if hi > EXACT_INDEX or lo < -EXACT_INDEX:
            far = hi if hi > EXACT_INDEX else lo
            raise ResourceLimitError(f"prefix index {far} is past the exact-index limit 2^53")

    # a family's closed forms of log|P| and arg P on an int64 n-array, in
    # place of the head/tail rule; None keeps the rule
    _logmag_at = None
    _phase_at = None

    def _at(self, points, phase: bool = True):
        """(logmag, phase) of P at integer ``points``; phase None unless asked.
        The index range is read once, for the domain check and the rule."""
        ns = np.asarray(points, dtype=np.int64)
        lo, hi = (int(ns.min()), int(ns.max())) if ns.size else (0, 0)
        self._check(lo, hi)
        lm = (self._logmag_at(ns) if self._logmag_at else
              _head_tail(ns, lo, hi, self._lm, self._step[0], self._lm_neg, self._step_neg[0]))
        if not phase:
            return lm, None
        return lm, (self._phase_at(ns) if self._phase_at else
                    _head_tail(ns, lo, hi, self._ph, self._step[1], self._ph_neg, self._step_neg[1]))

    def asymptotics(self, side: int = 1) -> AsymptoticClass:
        """The asymptotic class of m -> P(side * m) as m -> infinity: the
        positive side for side > 0, the nonpositive one of a bilateral
        family for side < 0, where P(-m) = -(log w_{-m+1} + ... + log w_0).

        Under the head/tail rule each side is linear past its head, so
        c = log|tail| on the positive side and -log|tail_neg| on the
        other (``_log_modulus``); the head adds O(1).  A unilateral family
        has no nonpositive side (``DomainMismatchError``), and a subclass
        with its own ``_logmag_at`` must give its own class
        (``NotImplementedError``).
        """
        if side < 0 and self.domain != BILATERAL:
            raise DomainMismatchError("a unilateral family has no nonpositive side")
        if self._logmag_at:
            raise NotImplementedError(
                f"{type(self).__name__} overrides _logmag_at without giving its asymptotic class")
        if side > 0:
            return AsymptoticClass(c=_log_modulus(self._tails[0]))
        return AsymptoticClass(c=-_log_modulus(self._tails[1]))

    def head_end(self, side: int = 1) -> int:
        """The least m >= 0 from which P(side * m) is linear in m (the
        head/tail rule's class is exact): 0 for a closed-form family."""
        return len(self._lm if side > 0 else self._lm_neg) - 1

    def warm(self, n: int, nmin: int = 0):
        """Check that the indices nmin..n (nmin only on a bilateral family)
        can be read.  Nothing is cached or allocated."""
        self._check(min(nmin, 0) if self.domain == BILATERAL else 0, max(n, 0))

    def prefix(self, n: int) -> LogPolar:
        """P(n) with P(0) = 0; the product over (m, n] is exp(P(n) - P(m))."""
        self._check(n, n)  # n may be past int64
        lm, ph = self._at([n])
        return LogPolar(float(lm[0]), float(ph[0]))

    def prefix_logmag(self, points: np.ndarray) -> np.ndarray:
        """Vectorized log|P| at integer points (criterion probes)."""
        return self._at(points, phase=False)[0]


def _prefix_sums(weights, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) arrays of 0 and the running sums of sign * log w."""
    sums = np.zeros((len(weights) + 1, 2))
    if len(weights):
        # + 0.0 keeps a zero sum +0.0 under sign -1, as 0.0 - sum does
        sums[1:] = sign * np.cumsum([_log_polar(w) for w in weights], axis=0) + 0.0
    return sums[:, 0].copy(), sums[:, 1].copy()


def _head_tail(ns, lo: int, hi: int, head, step, head_neg, step_neg) -> np.ndarray:
    """The head at n >= 0, then ``step`` per index past its end; head_neg
    and step_neg at -n for n < 0.  lo and hi are the least and greatest n."""
    if lo >= 0:
        return _side(ns, 1, lo, head, step)
    if hi < 0:
        return _side(ns, -1, -hi, head_neg, step_neg)
    out = np.empty(len(ns))
    neg = ns < 0
    out[~neg] = _side(ns[~neg], 1, 0, head, step)
    out[neg] = _side(ns[neg], -1, 1, head_neg, step_neg)
    return out


def _side(ns, sign: int, low: int, head, step) -> np.ndarray:
    """With m = sign * n >= low >= 0: head[m] up to the head's end L, then
    head[L] + (m - L) * step, computed as (n - sign L) * (sign step), which
    has the same bits and needs no negated copy of ``ns``."""
    end = len(head) - 1
    out = np.subtract(ns, sign * end, dtype=float)  # exact: |n| <= EXACT_INDEX
    out *= sign * step
    out += head[end]
    if low < end:
        inside = ns < end if sign > 0 else ns > -end
        out[inside] = head[sign * ns[inside]]
    return out


class ConstantWeight(WeightSeq):
    """Rolewicz-style constant weight w_n = lam: P(n) = n * log lam."""

    name = "constant"

    def __init__(self, lam: complex, domain: str = UNILATERAL):
        lam = complex(lam)
        if lam == 0:
            raise InvalidArgumentError("constant weight must be nonzero")
        self.lam = lam
        self.domain = domain
        super().__init__(tail=lam, tail_neg=lam)

    def weight(self, n):
        return self.lam

    def params(self):
        return {"lam": self.lam}


class BergmanWeight(WeightSeq):
    """w_n = sqrt((n+1)/n); prefix products are sqrt(n+1)."""

    name = "bergman"

    def weight(self, n):
        return math.sqrt((n + 1) / n)

    def _logmag_at(self, ns):
        lm = np.add(ns, 1.0)
        np.log(lm, out=lm)
        lm *= 0.5
        return lm

    def asymptotics(self, side=1):
        return AsymptoticClass(d=_ratio(1, 2)) if side > 0 else super().asymptotics(side)


class LogRatioWeight(WeightSeq):
    """w_k = ln(k+2)/ln(k+1); prefix products are ln(k+2)/ln(2)."""

    name = "logweight"

    def weight(self, n):
        return math.log(n + 2) / math.log(n + 1)

    def _logmag_at(self, ns):
        lm = np.add(ns, 2.0)
        np.log(lm, out=lm)
        lm /= math.log(2)
        np.log(lm, out=lm)
        return lm

    def asymptotics(self, side=1):
        return AsymptoticClass(e=1) if side > 0 else super().asymptotics(side)


class RootRatioWeight(WeightSeq):
    """w_k = ((k+2)/(k+1))^(1/2p); prefix products are ((k+2)/2)^(1/2p)."""

    name = "rootweight"

    def __init__(self, p: int):
        if int(p) < 1:
            raise InvalidArgumentError("rootweight requires a positive integer p")
        self.p = int(p)
        super().__init__()

    def weight(self, n):
        return ((n + 2) / (n + 1)) ** (1.0 / (2 * self.p))

    def _logmag_at(self, ns):
        lm = np.add(ns, 2.0)
        lm *= 0.5
        np.log(lm, out=lm)
        lm /= 2.0 * self.p
        return lm

    def asymptotics(self, side=1):
        if side < 0:
            return super().asymptotics(side)
        return AsymptoticClass(d=_ratio(1, 2 * self.p))

    def params(self):
        return {"p": self.p}


class TMuWeight(WeightSeq):
    """Shift weights of the operator f(z) -> f'(mu z) on Taylor coefficients.

    With the coefficient of z^k stored at index k+1, dropping index n to
    n-1 multiplies by the derivative factor of the degree-(n-1) term:
    w_n = (n-1) * mu^(n-2) for n >= 2.  w_1 is never consumed by a
    backward step (index 1 falls off the edge) nor by forward products,
    and is pinned to 1 so prefixes stay well-defined.  The product of
    derivative factors over degrees 1..n is then exp(P(n+1)), equal to
    n! * mu^(n(n-1)/2): P(n) = lgamma(n) + (n-1)(n-2)/2 * log mu.

    Phase convention for complex mu: the factor at degree k contributes
    phase k*arg(mu), accumulated without re-wrapping.
    """

    name = "tmu"

    def __init__(self, mu: complex):
        mu = complex(mu)
        if mu == 0:
            raise InvalidArgumentError("tmu requires nonzero mu")
        self.mu = mu
        super().__init__()

    def weight(self, n):
        if n == 1:
            return 1.0 + 0j
        return (n - 1) * self.mu ** (n - 2)

    @staticmethod
    def _triangle(ns) -> tuple[np.ndarray, np.ndarray]:
        """max(n, 2) and its (n-1)(n-2)/2, so that P(0) = P(1) = P(2) = +0.0
        (lgamma(2) is +0.0, as lgamma(1) is).  Taken in floats, which hold
        the factors exactly below 2^53: the product rounds once and halving
        is exact, so these are the bits of the exact integer, with no int64
        wrap past m = 3.04e9."""
        m = np.maximum(ns, 2)
        tri = np.subtract(m, 1.0)
        tri *= m - 2.0
        tri *= 0.5
        return m, tri

    def _logmag_at(self, ns):
        m, tri = self._triangle(ns)
        lm = np.fromiter(map(math.lgamma, m.tolist()), float, len(m))
        lm += tri * math.log(abs(self.mu))
        return lm

    def asymptotics(self, side=1):
        # Stirling: lgamma(m) = m log m - m - (1/2) log m + O(1), plus
        # (m^2 - 3m)/2 * log|mu| from the triangle numbers
        if side < 0:
            return super().asymptotics(side)
        log_mu = _log_modulus(self.mu)
        return AsymptoticClass(a=log_mu / 2, b=1, c=-1 - 1.5 * log_mu, d=_ratio(-1, 2))

    def _phase_at(self, ns):
        return self._triangle(ns)[1] * _phase(self.mu)

    def params(self):
        return {"mu": self.mu}


class TableWeight(WeightSeq):
    """Explicit unilateral weights for n = 1..len(values); a default rule
    is mandatory beyond the table (silent truncation is not allowed)."""

    name = "table"

    def __init__(self, values, default: complex):
        self.values = [complex(v) for v in values]
        self.default = complex(default)
        if any(v == 0 for v in self.values) or self.default == 0:
            raise InvalidArgumentError("table weights must be nonzero")
        super().__init__(self.values, self.default)

    def weight(self, n):
        if 1 <= n <= len(self.values):
            return self.values[n - 1]
        return self.default

    def params(self):
        return {"values": self.values, "default": self.default}


class BilateralTableWeight(WeightSeq):
    """Two-sided weights: explicit entries plus default rules for the
    positive side (n >= 1) and the nonpositive side (n <= 0)."""

    name = "bilateral_table"
    domain = BILATERAL

    def __init__(self, entries: dict | None = None, default_pos: complex = 1.0,
                 default_nonpos: complex = 1.0):
        self.entries = {int(k): complex(v) for k, v in (entries or {}).items()}
        self.default_pos = complex(default_pos)
        self.default_nonpos = complex(default_nonpos)
        if any(v == 0 for v in self.entries.values()) or 0 in (
            self.default_pos,
            self.default_nonpos,
        ):
            raise InvalidArgumentError("weights must be nonzero")
        far = [k for k in self.entries if abs(k) > TABLE_INDEX]
        if far:
            raise InvalidArgumentError(f"entry index {far[0]} is past 2^23; the dense "
                                       "heads hold one prefix per index up to it")
        # heads w_1..w_top and w_0..w_bottom
        top = max((k for k in self.entries if k >= 1), default=0)
        bottom = min((k for k in self.entries if k <= 0), default=1)
        super().__init__([self.weight(n) for n in range(1, top + 1)], self.default_pos,
                         [self.weight(n) for n in range(0, bottom - 1, -1)],
                         self.default_nonpos)

    def weight(self, n):
        if n in self.entries:
            return self.entries[n]
        return self.default_pos if n >= 1 else self.default_nonpos

    def params(self):
        return {
            "entries": self.entries,
            "default_pos": self.default_pos,
            "default_nonpos": self.default_nonpos,
        }


@dataclass(frozen=True)
class OperatorSpec:
    """A (rotated power of a) weighted shift: rotation^power * shift^power."""

    base: WeightSeq
    direction: str = BACKWARD
    rotation: complex = 1.0 + 0j
    power: int = 1

    def __post_init__(self):
        if self.direction not in (BACKWARD, FORWARD):
            raise InvalidArgumentError(f"unknown direction {self.direction!r}")
        if abs(abs(complex(self.rotation)) - 1.0) > 1e-12:
            raise InvalidArgumentError("rotation must have unit modulus")
        if int(self.power) < 1:
            raise InvalidArgumentError("power must be >= 1")

    def describe(self) -> str:
        s = f"{self.direction} {self.base.describe()}"
        if self.rotation != 1:
            s += f" rotation={self.rotation}"
        if self.power != 1:
            s += f" power={self.power}"
        return s


def _check_domains(op: OperatorSpec, v: CoeffVector):
    if op.base.domain != v.domain:
        raise DomainMismatchError(
            f"operator over {op.base.domain} applied to {v.domain} vector"
        )


def apply(op: OperatorSpec, v: CoeffVector) -> CoeffVector:
    """One application of the operator, via direct complex products."""
    _check_domains(op, v)
    w = op.base
    entries = dict(v.entries)
    for _ in range(op.power):
        nxt: dict[int, complex] = {}
        if op.direction == BACKWARD:
            for j, c in entries.items():
                tgt = j - 1
                if v.domain == UNILATERAL and tgt < 1:
                    continue
                nxt[tgt] = nxt.get(tgt, 0j) + c * w.weight(j)
        else:
            for j, c in entries.items():
                nxt[j + 1] = nxt.get(j + 1, 0j) + c / w.weight(j + 1)
        entries = nxt
    rot = complex(op.rotation) ** op.power
    if rot != 1:
        entries = {j: rot * c for j, c in entries.items()}
    return CoeffVector(v.domain, entries)


def _step_array(steps) -> np.ndarray:
    """``steps`` as a flat int64 array, counts past int64 clipped."""
    try:
        return np.asarray(steps, dtype=np.int64).reshape(-1)
    except OverflowError:
        steps = np.ravel(np.array(steps, dtype=object))
        return np.array([min(max(int(s), -1), _STEP_CLIP) for s in steps], dtype=np.int64)


def _survivors(op: OperatorSpec, support: np.ndarray, steps: np.ndarray):
    """Per time: the support position of its first surviving entry, and
    how many survive.  Only a unilateral backward shift drops entries:
    those with index j <= steps fall off the edge."""
    if op.direction == BACKWARD and op.base.domain == UNILATERAL:
        start = np.searchsorted(support, steps, side="right")
    else:
        start = np.zeros(len(steps), dtype=np.int64)
    return start, len(support) - start


def _check_anchors(anchors, logmags):
    """Refuse the first anchor j with |P(j)| >= ANCHOR_LOGMAG, naming the
    rounding bound of its log terms."""
    big = np.flatnonzero(np.abs(logmags) >= ANCHOR_LOGMAG)
    if big.size:
        j, lm = int(anchors[big[0]]), abs(float(logmags[big[0]]))
        raise ResourceLimitError(f"anchor {j}: |P({j})| = {lm:.6g} >= 2^27, so each log term "
                                 f"P({j}) - P(m) may be off by 2 ulp = {2 * math.ulp(lm):.3g}")


def _orbit_plan(op: OperatorSpec, v: CoeffVector, steps):
    """The checks of one orbit call, made once: the domains, the steps
    (int64, none negative) and the anchors of the terms that move.  Returns
    the steps, each time's first surviving support position and count, and
    (first, logmag, phase) of P at the support positions from first on."""
    _check_domains(op, v)
    steps = _step_array(steps)
    if (steps < 0).any():
        raise InvalidArgumentError("step count must be nonnegative")
    support = v.log_polar[0]
    start, counts = _survivors(op, support, steps)
    # a time with no survivor starts at len(support)
    first = int(start[steps > 0].min(initial=len(support)))
    lm, ph = op.base._at(support[first:])
    _check_anchors(support[first:], lm)
    return steps, start, counts, (first, lm, ph)


def orbit_batch(op: OperatorSpec, v: CoeffVector, steps):
    """Support of op^N v for every N*power in ``steps``, as flat arrays
    (index, logmag, phase, counts).

    Terms are ordered by time, then by source index.  Rotation touches only
    the phase, so coefficient moduli are manifestly rotation-invariant.
    Arrays grow with the surviving terms only.
    """
    return _batch(op, v, *_orbit_plan(op, v, steps))


def _batch(op: OperatorSpec, v: CoeffVector, steps, start, counts, anchors):
    """``orbit_batch`` of times whose ``_orbit_plan`` was made."""
    first, lj, pj = anchors
    support, log_c, arg_c = v.log_polar
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    at = np.arange(total) + np.repeat(start - offsets, counts)
    shift = np.repeat(steps, counts)
    j = support[at]
    tgt = j - shift if op.direction == BACKWARD else j + shift
    # time 0 leaves its terms in place without reading P
    moved = shift > 0
    dlm = np.zeros(total)
    dph = np.zeros(total)
    if moved.any():
        # P(j) from the plan's anchors, P(tgt) read here
        am, tm = (at, tgt) if moved.all() else (at[moved], tgt[moved])
        lt, pt = op.base._at(tm)
        dlm[moved] = lj[am - first] - lt
        dph[moved] = pj[am - first] - pt
    rot = steps * _phase(complex(op.rotation))
    return (tgt, log_c[at] + dlm, (arg_c[at] + dph) + np.repeat(rot, counts),
            counts)


def _orbit_chunks(op: OperatorSpec, v: CoeffVector, steps, pad: int = 0):
    """Yield the terms of op^N v for each N*power in ``steps`` as complex
    coefficients, (steps, index, coefficient, counts) per consecutive run of
    times of at most ORBIT_CHUNK_TERMS terms (a single time may exceed it),
    after one ``_orbit_plan``.  A time with a term counts ``pad`` terms more
    (a center merged into it).  Every orbit distance reads them through
    ``constructor._orbit_distances``, a modulus target's with the rotation
    dropped.  A time with a term past double range ends the orbit: the
    times before it are yielded, then ``ResourceLimitError`` names it and
    the term's log-magnitude."""
    steps, start, counts, anchors = _orbit_plan(op, v, steps)
    ends = np.cumsum(counts + pad * (counts > 0))
    lo = 0
    while lo < len(steps):
        limit = (int(ends[lo - 1]) if lo else 0) + ORBIT_CHUNK_TERMS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        tgt, lm, ph, got = _batch(op, v, steps[lo:hi], start[lo:hi], counts[lo:hi], anchors)
        over = np.flatnonzero(lm > _EXP_MAX)
        n = int(np.searchsorted(np.cumsum(got), over[0], side="right")) if len(over) else hi - lo
        m = int(got[:n].sum())
        if n:
            yield steps[lo : lo + n], tgt[:m], np.exp(lm[:m] + 1j * ph[:m]), got[:n]
        if n < hi - lo:
            raise ResourceLimitError(f"time {int(steps[lo + n]) // op.power}: a term of log-"
                                     f"magnitude {lm[m : m + got[n]].max():g} is past double range")
        lo = hi


def iterate(op: OperatorSpec, v: CoeffVector, n: int) -> CoeffVector:
    """op^n v for any n >= 0: v itself at n = 0, else ``_orbit_chunks`` at
    one time, with 0j + each coefficient: a zero part gets the sign +0.0 of
    summing into 0j.  A unilateral backward orbit past its support is the
    zero vector.  Every other orbit raises ``ResourceLimitError`` at a
    prefix index past EXACT_INDEX, at an anchor past ANCHOR_LOGMAG, and at a
    term past double range, naming n and its log-magnitude."""
    n = int(n)  # a Python int: n * power cannot wrap
    # checks the domain and n >= 0
    ((_, idx, z, _),) = _orbit_chunks(op, v, [n * op.power])
    if n == 0:
        return v
    return CoeffVector(v.domain, dict(zip(idx.tolist(), (0j + z).tolist())))


def tmu_apply(mu: complex, f: CoeffVector) -> CoeffVector:
    """f(z) -> f'(mu z) by direct derivative products: the reference that
    ``apply`` of the backward ``TMuWeight(mu)`` shift matches bit for bit.

    Index k+1 holds the coefficient of z^k; the output coefficient of
    z^(k-1) is k * a_k * mu^(k-1).
    """
    mu = complex(mu)
    if f.domain != UNILATERAL:
        raise DomainMismatchError("Taylor coefficient vectors are unilateral")
    entries: dict[int, complex] = {}
    for j, c in f.entries.items():
        if j < 2:
            continue  # the constant term dies
        entries[j - 1] = entries.get(j - 1, 0j) + c * ((j - 1) * mu ** (j - 2))
    return CoeffVector(UNILATERAL, entries)


def smu_power_basis(mu: complex, k: int, n: int) -> CoeffVector:
    """The monomial image S_mu^n(z^k) = k! z^(k+n) / ((k+n)! mu^(nk+n(n-1)/2)):
    n forward steps of ``TMuWeight(mu)`` from index k+1."""
    if k < 0 or n < 1:
        raise InvalidArgumentError("smu_power_basis requires k >= 0 and n >= 1")
    return iterate(OperatorSpec(TMuWeight(mu), FORWARD), CoeffVector.basis(k + 1), n)
