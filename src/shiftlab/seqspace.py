"""Sequence spaces, F-norms, and finitely supported coefficient vectors.

Vectors are sparse maps from integer basis indices to complex scalars.
Unilateral vectors index from 1 (applying a backward shift to index 1
drops the entry); bilateral vectors may use any integer index.  All
values are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidArgumentError,
    ResourceLimitError,
    UnsupportedOperationError,
)

UNILATERAL = "unilateral"
BILATERAL = "bilateral"


def _phase(z: complex) -> float:
    """arg z with ``cmath.phase``'s bits, but +-0.0 where it raises on underflow."""
    return math.atan2(z.imag, z.real)


def _canonical(entries: Mapping[int, complex], domain: str) -> dict[int, complex]:
    if domain not in (UNILATERAL, BILATERAL):
        raise InvalidArgumentError(f"unknown domain {domain!r}")
    out = {}
    for idx, val in entries.items():
        idx = int(idx)
        val = complex(val)
        if val == 0:
            continue
        if domain == UNILATERAL and idx <= 0:
            raise InvalidArgumentError(
                f"unilateral index must be >= 1, got {idx}"
            )
        out[idx] = val
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class CoeffVector:
    """Finitely supported coefficient vector in canonical form.

    Canonical form stores no explicit zeros, so two vectors are equal
    exactly when their entry maps are equal.
    """

    domain: str
    entries: Mapping[int, complex]

    def __init__(self, domain: str, entries: Mapping[int, complex]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self, "entries", MappingProxyType(_canonical(entries, domain))
        )

    @classmethod
    def zero(cls, domain: str = UNILATERAL) -> "CoeffVector":
        return cls(domain, {})

    @classmethod
    def basis(cls, index: int, domain: str = UNILATERAL) -> "CoeffVector":
        return cls(domain, {index: 1.0})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.entries.keys())

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays of the sorted support and the coefficients."""
        arrays = (np.fromiter(self.entries, dtype=np.int64, count=len(self.entries)),
                  np.fromiter(self.entries.values(), dtype=complex, count=len(self.entries)))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def log_polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of the sorted support, log|c| and arg c,
        computed once per vector with libm's log and ``_phase``."""
        values = self.entries.values()
        arrays = (
            self.terms[0],
            np.array([math.log(abs(c)) for c in values], dtype=float),
            np.array([_phase(c) for c in values], dtype=float),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def __getitem__(self, index: int) -> complex:
        return self.entries.get(index, 0j)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return self.domain == other.domain and dict(self.entries) == dict(
            other.entries
        )

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        return add(self, other)

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        return add(self, scale(-1, other))

    def __rmul__(self, lam: complex) -> "CoeffVector":
        return scale(lam, self)

    def __neg__(self) -> "CoeffVector":
        return scale(-1, self)


def add(v: CoeffVector, w: CoeffVector) -> CoeffVector:
    if v.domain != w.domain:
        raise DomainMismatchError(f"cannot add {v.domain} and {w.domain} vectors")
    merged = dict(v.entries)
    for idx, val in w.entries.items():
        merged[idx] = merged.get(idx, 0j) + val
    return CoeffVector(v.domain, merged)


def scale(lam: complex, v: CoeffVector) -> CoeffVector:
    lam = complex(lam)
    return CoeffVector(v.domain, {i: lam * c for i, c in v.entries.items()})


@dataclass(frozen=True)
class SpaceSpec:
    """One of the concrete ambient spaces: l^p, c_0, entire functions, or
    l^infinity carrying only its weak* structure.

    ``entire`` encodes an entire function by its Taylor coefficients: the
    coefficient of z^k sits at basis index k+1.  Its F-norm truncates the
    defining sum at ``rmax``.
    """

    kind: str  # 'lp' | 'c0' | 'entire' | 'linf_weakstar'
    domain: str = UNILATERAL
    p: float | None = None
    rmax: int = 8

    def __post_init__(self):
        if self.kind not in ("lp", "c0", "entire", "linf_weakstar"):
            raise InvalidArgumentError(f"unknown space kind {self.kind!r}")
        if self.domain not in (UNILATERAL, BILATERAL):
            raise InvalidArgumentError(f"unknown domain {self.domain!r}")
        if self.kind == "lp":
            if self.p is None or self.p < 1:
                raise InvalidArgumentError("lp space requires p >= 1")
        if self.kind == "entire":
            if self.rmax < 1:
                raise InvalidArgumentError("entire space requires rmax >= 1")
            if self.domain != UNILATERAL:
                raise InvalidArgumentError("entire space is unilateral")

    def describe(self) -> str:
        if self.kind == "lp":
            return f"l^{self.p:g} ({self.domain})"
        if self.kind == "c0":
            return f"c0 ({self.domain})"
        if self.kind == "entire":
            return f"H(C) truncated at R={self.rmax}"
        return "l^inf (weak*)"


def lp(p: float, domain: str = UNILATERAL) -> SpaceSpec:
    return SpaceSpec("lp", domain=domain, p=float(p))


def c0(domain: str = UNILATERAL) -> SpaceSpec:
    return SpaceSpec("c0", domain=domain)


def entire(rmax: int = 8) -> SpaceSpec:
    return SpaceSpec("entire", rmax=int(rmax))


def linf_weakstar() -> SpaceSpec:
    return SpaceSpec("linf_weakstar")


def fnorm(space: SpaceSpec, v: CoeffVector) -> float:
    """The F-norm of v in ``space``: the kernel ``_distances`` at one time."""
    return float(_distances(space, v.domain, *v.terms, [len(v.entries)],
                            CoeffVector.zero(v.domain))[0])


def weakstar_gap(v: CoeffVector, target: CoeffVector,
                 functionals: Iterable[CoeffVector]) -> float:
    """Largest |<v - target, g>| over the given l^1 functionals; a weak*
    neighborhood test is ``gap < eps``."""
    return float(_distances(linf_weakstar(), v.domain, *v.terms, [len(v.entries)], target,
                            functionals)[0])


def _distances(space: SpaceSpec, domain: str, index: np.ndarray, z: np.ndarray, counts,
               center: CoeffVector, functionals=None, steps=None, power: int = 1) -> np.ndarray:
    """The one F-norm kernel: per time t, the F-norm in ``space`` of the
    terms (index, z) of that time minus ``center``, or with ``functionals``
    the weak* gap max_g |<terms - center, g>|.  The terms come time by
    time, ``counts[t]`` of them at time t, each time's in index order.

    Moduli come from ``np.hypot`` (abs(complex) bit for bit; np.abs
    differs), l^2 squares and roots from x*x and ``np.sqrt`` (correctly
    rounded; libm's pow is not), per-time sums from ``np.bincount``, which
    adds left to right as Python's ``sum`` does, and weak* products from
    real multiplications (numpy's complex multiply rounds differently).
    Other powers (l^p, the majorant's R^k) are numpy's own, within an ulp.
    A value past double range raises ``ResourceLimitError``, naming the first
    such time, ``steps[t] // power``, when ``steps`` are given."""
    if center.domain != domain:
        raise DomainMismatchError(f"cannot add {domain} and {center.domain} vectors")
    if functionals is None and space.kind == "linf_weakstar":
        raise UnsupportedOperationError("the weak* space carries no F-norm; use weakstar_gap")
    if functionals is None and domain != space.domain:
        raise DomainMismatchError(
            f"vector domain {domain} does not match space domain {space.domain}")
    n = len(counts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        seg, index, z = _merged(np.repeat(np.arange(n), counts), index, z, n, center)
        out = (_norms(space, seg, index, z, n) if functionals is None
               else _gaps(seg, index, z, n, list(functionals)))
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        at = "" if steps is None else f"time {int(steps[bad[0]]) // power}: "
        raise ResourceLimitError(f"{at}the distance {out[bad[0]]} is past double range")
    return out


def _merged(seg, index, z, n: int, center: CoeffVector):
    """The terms minus ``center``: the center subtracted where a time has
    its index, and -center merged in, in index order, where it has not."""
    if not center:
        return seg, index, z
    cidx, cz = center.terms
    # each term's count of center indices at or below its own; at 0, cidx[-1]
    # is above the term's index, so it is no hit
    pos = np.searchsorted(cidx, index, side="right")
    hit = cidx[pos - 1] == index
    z = z.copy()
    z[hit] -= cz[pos[hit] - 1]
    missing = np.ones((n, len(cidx)), dtype=bool)
    missing[seg[hit], pos[hit] - 1] = False
    mt, mc = np.nonzero(missing)
    # sorted keys: center entry c of a time goes after the terms below it
    width = 2 * len(cidx) + 2
    at = np.searchsorted(seg * width + 2 * pos, mt * width + 2 * mc + 1)
    return np.insert(seg, at, mt), np.insert(index, at, cidx[mc]), np.insert(z, at, -cz[mc])


def _norms(space: SpaceSpec, seg, index, z, n: int) -> np.ndarray:
    mags = np.hypot(z.real, z.imag)
    if space.kind == "c0":
        out = np.zeros(n)
        np.maximum.at(out, seg, mags)
        return out
    if space.kind == "lp":
        p = space.p
        terms = mags if p == 1 else mags * mags if p == 2 else mags**p
        sums = np.bincount(seg, terms, minlength=n)
        return sums if p == 1 else np.sqrt(sums) if p == 2 else sums ** (1.0 / p)
    # entire: sum_R 2^-R min(1, M_R), M_R = sum |a_k| R^k with a_k at index k + 1;
    # where R^k leaves double range, |a_k| R^k is formed in log space
    k = index - 1
    out = np.zeros(n)
    for r in range(1, space.rmax + 1):
        terms = mags * np.power(float(r), k)
        far = ~np.isfinite(terms)  # also 0 * inf: a zero modulus past it
        terms[far] = np.exp(np.log(mags[far]) + k[far] * math.log(r))
        out += 2.0 ** (-r) * np.minimum(1.0, np.bincount(seg, terms, minlength=n))
    return out


def _gaps(seg, index, z, n: int, functionals) -> np.ndarray:
    if not functionals:
        raise InvalidArgumentError("weakstar_gap needs at least one functional")
    out = np.zeros(n)
    for g in functionals:
        # each time's sum over the functional's indices, in index order; an
        # index the time lacks adds a zero product, which changes no sum
        gi, gc = g.terms
        at = np.isin(index, gi)
        d, c = z[at], gc[np.searchsorted(gi, index[at])]
        re = np.bincount(seg[at], d.real * c.real - d.imag * c.imag, minlength=n)
        im = np.bincount(seg[at], d.real * c.imag + d.imag * c.real, minlength=n)
        out = np.maximum(out, np.hypot(re, im))
    return out
