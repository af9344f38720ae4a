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
    def log_polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of the sorted support, log|c| and arg c,
        computed once per vector with libm's log and ``_phase``."""
        values = self.entries.values()
        arrays = (
            np.fromiter(self.entries, dtype=np.int64, count=len(values)),
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
        return CoeffVector(self.domain, _minus(self.domain, self.entries, other))

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


def _minus(domain: str, entries: Mapping[int, complex], w: CoeffVector) -> dict[int, complex]:
    """The canonical entries of v - w, for v = CoeffVector(domain, entries)."""
    if domain != w.domain:
        raise DomainMismatchError(f"cannot add {domain} and {w.domain} vectors")
    merged = dict(entries)
    for idx, val in w.entries.items():
        merged[idx] = merged.get(idx, 0j) + complex(-1) * val
    return {i: c for i, c in sorted(merged.items()) if c != 0}


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


def coeff_majorant(v: CoeffVector, radius: float) -> float:
    """Sum of |a_k| * radius^k over the Taylor coefficients of v.

    Dominates sup_{|z|<=radius} |f(z)|, with equality for nonnegative
    coefficients.  Index k+1 holds the coefficient of z^k.
    """
    return sum(_majorant_term(abs(c), radius, idx - 1) for idx, c in v.entries.items())


def _majorant_term(a: float, radius: float, k: int) -> float:
    try:
        return a * radius**k
    except OverflowError:
        # radius^k alone leaves the float range, but a tiny |a| can bring
        # the term back: form it in log space
        try:
            return math.exp(math.log(a) + k * math.log(radius))
        except OverflowError:
            return math.inf


def fnorm(space: SpaceSpec, v: CoeffVector) -> float:
    return _fnorm(space, v.domain, v.entries)


def _fnorm(space: SpaceSpec, domain: str, entries: Mapping[int, complex]) -> float:
    """``fnorm`` of a vector of this domain with these canonical entries."""
    if space.kind == "linf_weakstar":
        raise UnsupportedOperationError(
            "the weak* space carries no F-norm; use weakstar_gap"
        )
    if domain != space.domain:
        raise DomainMismatchError(
            f"vector domain {domain} does not match space domain {space.domain}"
        )
    if space.kind == "lp":
        return sum(abs(c) ** space.p for c in entries.values()) ** (1.0 / space.p)
    if space.kind == "c0":
        return max((abs(c) for c in entries.values()), default=0.0)
    # entire: sum_R 2^-R min(1, M_R(v))
    total = 0.0
    for r in range(1, space.rmax + 1):
        majorant = sum(_majorant_term(abs(c), float(r), i - 1) for i, c in entries.items())
        total += 2.0 ** (-r) * min(1.0, majorant)
    return total


def weakstar_gap(
    v: CoeffVector,
    target: CoeffVector,
    functionals: Iterable[CoeffVector],
) -> float:
    """Largest |<v - target, g>| over the given l^1 functionals.

    A weak* neighborhood test is ``gap < eps``.
    """
    return _gap(v.domain, v.entries, target, functionals)


def _gap(domain: str, entries: Mapping[int, complex], target: CoeffVector,
         functionals: Iterable[CoeffVector]) -> float:
    """``weakstar_gap`` of a vector of this domain with these canonical entries."""
    functionals = list(functionals)
    if not functionals:
        raise InvalidArgumentError("weakstar_gap needs at least one functional")
    diff = _minus(domain, entries, target)
    gap = 0.0
    for g in functionals:
        val = sum(diff.get(i, 0j) * c for i, c in g.entries.items())
        gap = max(gap, abs(val))
    return gap
