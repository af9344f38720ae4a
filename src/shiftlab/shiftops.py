"""Weighted backward/forward shifts and batched N-step orbit evaluation.

All weight products are accumulated as log-polar prefix sums: the
product w_{m+1}...w_n is exp(P(n) - P(m)) where P is the cached prefix.
Phases accumulate without re-wrapping, so products like n! * mu^(n(n-1)/2)
stay representable far beyond double-precision magnitude limits.

Single applications (``apply``) use direct complex products.  Every
multi-step orbit goes through ``orbit_batch``: the terms of op^N v at a
whole array of times, found with one search of the vector's sorted
support and one gather of P(j) - P(j -/+ N).  ``orbit_slices``,
``iterates``, ``iterate`` and ``orbit_entries`` are views of it.

The batched route is exact, not approximate: log|c| and arg c come from
libm once per vector, exp and rect run per surviving term through libm,
and numpy only gathers, adds and subtracts, in the order of the scalar
expression log|c| + (P(j) - P(tgt)).  The prefix cache grows through
the same sequence of sizes that scalar ``prefix`` calls in (time, j,
tgt) order would request, because its cumulative sums depend on it.

The cache holds prefix indices up to DEFAULT_STEP_CAP = 2^23 on each
side and raises ``ResourceLimitError`` past it.  Orbits have no step
limit of their own, since an orbit costs its surviving terms whatever N
is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, InvalidArgumentError, ResourceLimitError
from .seqspace import BILATERAL, UNILATERAL, CoeffVector

DEFAULT_STEP_CAP = 1 << 23  # largest prefix index |n| the cache holds
# most terms ``orbit_slices`` gathers per batch: a batch peaks near 125
# bytes per term, so this caps it near 32 MB
ORBIT_CHUNK_TERMS = 1 << 18
# a step count past int64 acts as this one: it passes every support
# index below 2^62, so a unilateral backward orbit is zero, and any other
# orbit asks for a prefix index past DEFAULT_STEP_CAP
_STEP_CLIP = 1 << 62

BACKWARD = "backward"
FORWARD = "forward"  # the right inverse S_w, with S_w(e_n) = e_{n+1}/w_{n+1}


@dataclass(frozen=True)
class LogPolar:
    """A nonzero complex number as (log magnitude, phase in radians)."""

    logmag: float
    phase: float

    @classmethod
    def from_complex(cls, z: complex) -> "LogPolar":
        z = complex(z)
        if z == 0:
            raise InvalidArgumentError("log-polar form of zero is undefined")
        return cls(*_log_polar(z))

    def to_complex(self) -> complex:
        # math.exp raises OverflowError rather than silently saturating
        return cmath.rect(math.exp(self.logmag), self.phase)

    def __mul__(self, other: "LogPolar") -> "LogPolar":
        return LogPolar(self.logmag + other.logmag, self.phase + other.phase)

    def inverse(self) -> "LogPolar":
        return LogPolar(-self.logmag, -self.phase)


def _log_polar(z: complex) -> tuple[float, float]:
    return math.log(abs(z)), cmath.phase(z)


class WeightSeq:
    """Base class for weight families.

    Subclasses provide ``weight(n)`` and, for speed, a vectorized
    ``_log_weight_block(ns)`` over a consecutive range of indices,
    returning (log|w|, arg w); a phase of None means every arg w is 0.

    Prefix sums are cached as log-magnitude and phase arrays per side
    (``_lm``/``_ph``, and ``_lm_neg``/``_ph_neg`` when bilateral).  A
    lookup past the end grows a side to max(n, 2 * end, 4096), at most
    DEFAULT_STEP_CAP: one new array, the block's cumulative sum in its
    tail, the previous last prefix added in place.  Each block's sum
    starts afresh, so a prefix's bits depend on the block boundaries
    that the sequence of lookups produced, not on n alone.  A family
    with zero phase keeps a zero-filled phase array, which reads +0.0
    as a phase sum would.  The cache may be shared read-only once
    warmed.
    """

    domain = UNILATERAL
    name = "weights"

    def __init__(self):
        self._lm = np.zeros(1)
        self._ph = np.zeros(1)
        if self.domain == BILATERAL:
            self._lm_neg = np.zeros(1)
            self._ph_neg = np.zeros(1)

    # -- weights -------------------------------------------------------
    def weight(self, n: int) -> complex:
        raise NotImplementedError

    def log_weight(self, n: int) -> tuple[float, float]:
        w = complex(self.weight(n))
        if w == 0:
            raise InvalidArgumentError(f"weight at {n} is zero")
        return _log_polar(w)

    def _log_weight_block(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        lm = np.empty(len(ns))
        ph = np.empty(len(ns))
        for i, n in enumerate(ns):
            lm[i], ph[i] = self.log_weight(int(n))
        return lm, ph

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        ps = self.params()
        inner = ", ".join(f"{k}={v}" for k, v in ps.items())
        return f"{self.name}({inner})" if inner else self.name

    # -- prefix cache --------------------------------------------------
    def _grow_pos(self, n: int):
        cur = len(self._lm) - 1
        if n <= cur:
            return
        if n > DEFAULT_STEP_CAP:
            raise ResourceLimitError(
                f"prefix index {n} exceeds the cap {DEFAULT_STEP_CAP}"
            )
        target = min(DEFAULT_STEP_CAP, max(n, 2 * cur, 4096))
        lm, ph = self._log_weight_block(np.arange(cur + 1, target + 1))
        self._lm = _extended(self._lm, lm, np.add)
        # a zero phase (None) leaves every phase prefix +0.0
        self._ph = np.zeros(len(self._lm)) if ph is None else _extended(self._ph, ph, np.add)

    def _grow_neg(self, m: int):
        # P(-m) = -sum_{i=-m+1}^{0} log w(i)
        cur = len(self._lm_neg) - 1
        if m <= cur:
            return
        if m > DEFAULT_STEP_CAP:
            raise ResourceLimitError(
                f"prefix index -{m} exceeds the cap {DEFAULT_STEP_CAP}"
            )
        target = min(DEFAULT_STEP_CAP, max(m, 2 * cur, 4096))
        # weights at 0, -1, ..., -(target-1)
        lm, ph = self._log_weight_block(-np.arange(cur, target))
        self._lm_neg = _extended(self._lm_neg, lm, np.subtract)
        self._ph_neg = (np.zeros(len(self._lm_neg)) if ph is None
                        else _extended(self._ph_neg, ph, np.subtract))

    def warm(self, n: int, nmin: int = 0):
        """Prefill the prefix cache up to |n| on both sides as applicable."""
        self._grow_pos(max(0, n))
        if self.domain == BILATERAL and nmin < 0:
            self._grow_neg(-nmin)

    def prefix(self, n: int) -> LogPolar:
        """P(n) with P(0) = 0; the product over (m, n] is exp(P(n) - P(m))."""
        if n >= 0:
            self._grow_pos(n)
            return LogPolar(float(self._lm[n]), float(self._ph[n]))
        if self.domain != BILATERAL:
            raise DomainMismatchError("negative prefix index on a unilateral family")
        self._grow_neg(-n)
        return LogPolar(float(self._lm_neg[-n]), float(self._ph_neg[-n]))

    def _grow_through(self, requests: np.ndarray):
        """Grow the cache as scalar ``prefix`` calls at ``requests``, in
        order, would: a request below an earlier one never grows it, so
        only the running maxima are replayed."""
        neg = requests < 0
        if neg.any() and self.domain != BILATERAL:
            raise DomainMismatchError("negative prefix index on a unilateral family")
        for reqs, grow, cache in ((requests[~neg], self._grow_pos, "_lm"),
                                  (-requests[neg], self._grow_neg, "_lm_neg")):
            if not len(reqs) or reqs.max() < len(getattr(self, cache)):
                continue
            reach = np.maximum.accumulate(reqs)
            while reach[-1] >= len(getattr(self, cache)):
                cur = len(getattr(self, cache)) - 1
                grow(int(reach[np.searchsorted(reach, cur, side="right")]))

    def _prefix_arrays(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P at integer points the cache already covers, as (logmag, phase)."""
        if not len(ns) or ns.min() >= 0:
            return self._lm[ns], self._ph[ns]
        lm = np.empty(len(ns))
        ph = np.empty(len(ns))
        pos = ns >= 0
        lm[pos], ph[pos] = self._lm[ns[pos]], self._ph[ns[pos]]
        neg = -ns[~pos]
        lm[~pos], ph[~pos] = self._lm_neg[neg], self._ph_neg[neg]
        return lm, ph

    def prefix_logmag(self, points: np.ndarray) -> np.ndarray:
        """Vectorized log|P| at integer points (criterion probes)."""
        points = np.asarray(points, dtype=np.int64)
        if not len(points):
            return np.empty(0)
        lo, hi = int(points.min()), int(points.max())
        if hi >= 0:
            self._grow_pos(hi)
            if lo >= 0:
                return self._lm[points]
        if self.domain != BILATERAL:
            raise DomainMismatchError("negative prefix index on a unilateral family")
        self._grow_neg(-lo)
        if hi < 0:
            return self._lm_neg[-points]
        out = np.empty(len(points))
        pos = points >= 0
        out[pos] = self._lm[points[pos]]
        out[~pos] = self._lm_neg[-points[~pos]]
        return out


def _extended(cache: np.ndarray, block, combine) -> np.ndarray:
    """``cache`` followed by combine(cache[-1], cumsum(block)), combine
    being np.add or np.subtract, built in one allocation: the same IEEE
    operations, so the same bits, as concatenating a separate temporary."""
    out = np.empty(len(cache) + len(block))
    out[: len(cache)] = cache
    tail = out[len(cache) :]
    np.cumsum(block, out=tail)
    combine(cache[-1], tail, out=tail)
    return out


class ConstantWeight(WeightSeq):
    """Rolewicz-style constant weight w_n = lam."""

    name = "constant"

    def __init__(self, lam: complex, domain: str = UNILATERAL):
        lam = complex(lam)
        if lam == 0:
            raise InvalidArgumentError("constant weight must be nonzero")
        self.lam = lam
        self.domain = domain
        super().__init__()

    def weight(self, n):
        return self.lam

    def _log_weight_block(self, ns):
        lm = np.full(len(ns), math.log(abs(self.lam)))
        phase = cmath.phase(self.lam)
        return lm, (np.full(len(ns), phase) if phase else None)

    def params(self):
        return {"lam": self.lam}


class BergmanWeight(WeightSeq):
    """w_n = sqrt((n+1)/n); prefix products are sqrt(n+1)."""

    name = "bergman"

    def weight(self, n):
        return math.sqrt((n + 1) / n)

    def _log_weight_block(self, ns):
        logs = np.arange(ns[0], ns[-1] + 2, dtype=float)
        np.log(logs, out=logs)  # log n over [lo, hi + 1]
        lm = logs[1:] - logs[:-1]
        lm *= 0.5
        return lm, None


class LogRatioWeight(WeightSeq):
    """w_k = ln(k+2)/ln(k+1); prefix products are ln(k+2)/ln(2)."""

    name = "logweight"

    def weight(self, n):
        return math.log(n + 2) / math.log(n + 1)

    def _log_weight_block(self, ns):
        loglogs = np.arange(ns[0] + 1, ns[-1] + 3, dtype=float)
        np.log(loglogs, out=loglogs)
        np.log(loglogs, out=loglogs)  # log log n over [lo + 1, hi + 2]
        return loglogs[1:] - loglogs[:-1], None


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

    def _log_weight_block(self, ns):
        logs = np.arange(ns[0] + 1, ns[-1] + 3, dtype=float)
        np.log(logs, out=logs)  # log n over [lo + 1, hi + 2]
        lm = logs[1:] - logs[:-1]
        lm /= 2.0 * self.p
        return lm, None

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
    n! * mu^(n(n-1)/2).

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

    def _log_weight_block(self, ns):
        lm = np.empty(len(ns))
        ph = np.empty(len(ns))
        one = ns == 1
        rest = ~one
        lm[one] = 0.0
        ph[one] = 0.0
        nf = ns[rest].astype(float)
        lm[rest] = np.log(nf - 1) + (nf - 2) * math.log(abs(self.mu))
        ph[rest] = (nf - 2) * cmath.phase(self.mu)
        return lm, ph

    def degree_product(self, n: int) -> LogPolar:
        """Log-polar product of derivative factors for degrees 1..n,
        i.e. n! * mu^(n(n-1)/2)."""
        return self.prefix(n + 1)

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
        super().__init__()

    def weight(self, n):
        if 1 <= n <= len(self.values):
            return self.values[n - 1]
        return self.default

    def _log_weight_block(self, ns):
        # scalar log-polar forms of the table, then the default, by index
        table = np.array([_log_polar(z) for z in (*self.values, self.default)])
        size = len(self.values)
        at = np.where((ns >= 1) & (ns <= size), ns - 1, size)
        return table[at, 0], table[at, 1]

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
        super().__init__()

    def weight(self, n):
        if n in self.entries:
            return self.entries[n]
        return self.default_pos if n >= 1 else self.default_nonpos

    def _log_weight_block(self, ns):
        # scalar log-polar forms of the sorted entries, then both defaults
        keys, values = zip(*sorted(self.entries.items())) if self.entries else ((), ())
        table = np.array([_log_polar(z) for z in (*values, self.default_pos,
                                                  self.default_nonpos)])
        size = len(keys)
        at = np.where(ns >= 1, size, size + 1)
        if size:
            keys = np.array(keys, dtype=np.int64)
            near = np.minimum(np.searchsorted(keys, ns), size - 1)
            hit = keys[near] == ns
            at[hit] = near[hit]
        return table[at, 0], table[at, 1]

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


def orbit_batch(op: OperatorSpec, v: CoeffVector, steps):
    """Support of op^N v for every N*power in ``steps``, as flat arrays
    (index, logmag, phase, counts).

    The terms of time i are the counts[i] entries after those of the
    earlier times, in support order.  The rotation enters only through
    the phase, so coefficient moduli are manifestly rotation-invariant.
    Arrays grow with the surviving terms only.
    """
    _check_domains(op, v)
    steps = _step_array(steps)
    if (steps < 0).any():
        raise InvalidArgumentError("step count must be nonnegative")
    support, log_c, arg_c = v.log_polar
    start, counts = _survivors(op, support, steps)
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    at = np.arange(total) + np.repeat(start - offsets, counts)
    shift = np.repeat(steps, counts)
    j = support[at]
    tgt = j - shift if op.direction == BACKWARD else j + shift
    # time 0 leaves its terms in place without touching the prefix cache
    moved = shift > 0
    dlm = np.zeros(total)
    dph = np.zeros(total)
    if moved.any():
        w = op.base
        jm, tm = (j, tgt) if moved.all() else (j[moved], tgt[moved])
        w._grow_through(np.column_stack((jm, tm)).ravel())
        (lj, pj), (lt, pt) = w._prefix_arrays(jm), w._prefix_arrays(tm)
        dlm[moved] = lj - lt
        dph[moved] = pj - pt
    rot = steps * cmath.phase(complex(op.rotation))
    return (tgt, log_c[at] + dlm, (arg_c[at] + dph) + np.repeat(rot, counts),
            counts)


def orbit_slices(op: OperatorSpec, v: CoeffVector, steps):
    """Yield the terms of op^N v for each N*power in ``steps`` as lists
    (indices, logmags, phases), from ``orbit_batch`` calls of at most
    ORBIT_CHUNK_TERMS terms each (a single time may exceed it)."""
    _check_domains(op, v)
    steps = _step_array(steps)
    _, counts = _survivors(op, v.log_polar[0], steps)
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(steps):
        limit = (int(ends[lo - 1]) if lo else 0) + ORBIT_CHUNK_TERMS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        idx, lm, ph, got = orbit_batch(op, v, steps[lo:hi])
        idx, lm, ph = idx.tolist(), lm.tolist(), ph.tolist()
        a = 0
        for c in got.tolist():
            yield idx[a : a + c], lm[a : a + c], ph[a : a + c]
            a += c
        lo = hi


def orbit_entries(op: OperatorSpec, v: CoeffVector, steps: int):
    """Support of op^N v for N*power = steps, as (index, logmag, phase)
    tuples: the one-time case of ``orbit_batch``."""
    idx, lm, ph, _ = orbit_batch(op, v, [steps])
    return list(zip(idx.tolist(), lm.tolist(), ph.tolist()))


def _materialize(domain: str, idx, lm, ph) -> CoeffVector:
    entries: dict[int, complex] = {}
    for i, l, p in zip(idx, lm, ph):
        entries[i] = entries.get(i, 0j) + cmath.rect(math.exp(l), p)
    return CoeffVector(domain, entries)


def iterates(op: OperatorSpec, v: CoeffVector, ns):
    """Yield op^n v for each n in ``ns``, via log-polar prefix products.

    Any n is allowed: a unilateral backward orbit past its support is the
    zero vector, and every other orbit raises ``ResourceLimitError`` once a
    prefix index it touches passes DEFAULT_STEP_CAP."""
    ns = [int(n) for n in ns]  # Python ints: n * power cannot wrap
    if any(n < 0 for n in ns):
        raise InvalidArgumentError("iteration count must be nonnegative")
    steps = [n * op.power for n in ns]
    zero = CoeffVector.zero(v.domain)
    for n, terms in zip(ns, orbit_slices(op, v, steps)):
        if n == 0:
            yield v
        else:
            yield _materialize(v.domain, *terms) if terms[0] else zero


def iterate(op: OperatorSpec, v: CoeffVector, n: int) -> CoeffVector:
    """op^n v in one step per support element (one time of ``iterates``)."""
    return next(iterates(op, v, [n]))


def tmu_apply(mu: complex, f: CoeffVector) -> CoeffVector:
    """The operator f(z) -> f'(mu z) on Taylor coefficients.

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


def smu_logterm(mu: complex, k: int, n: int) -> LogPolar:
    """Log-polar coefficient of S_mu^n(z^k) = k! z^(k+n) / ((k+n)! mu^(nk+n(n-1)/2))."""
    mu = complex(mu)
    expo = n * k + n * (n - 1) // 2
    return LogPolar(
        math.lgamma(k + 1) - math.lgamma(k + n + 1) - expo * math.log(abs(mu)),
        -expo * cmath.phase(mu),
    )


def smu_power_basis(mu: complex, k: int, n: int) -> CoeffVector:
    """The monomial image S_mu^n(z^k) as a Taylor coefficient vector."""
    if k < 0 or n < 1:
        raise InvalidArgumentError("smu_power_basis requires k >= 0 and n >= 1")
    lp = smu_logterm(mu, k, n)
    return CoeffVector(UNILATERAL, {k + n + 1: lp.to_complex()})


def smu_series_logmags(mu: complex, k: int, ns: np.ndarray) -> np.ndarray:
    """Log-magnitudes of the S_mu^n(z^k) coefficients, one per n."""
    ns = np.asarray(ns, dtype=np.int64)
    lg = np.array([math.lgamma(k + int(n) + 1) for n in ns])
    nf = ns.astype(float)
    expo = nf * k + nf * (nf - 1) / 2.0
    return math.lgamma(k + 1) - lg - expo * math.log(abs(complex(mu)))
