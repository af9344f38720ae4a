"""Offline oracles for the benchmark's verdict and sum checks.

Nothing here calls the classifier under test.  Verdict oracles come from
closed-form theory; sum references were computed once with mpmath
(``python3 perfbench/oracles.py`` recomputes and compares them):

* RootWeight(p) on l^2: the reciprocal prefix products at exponents n^q
  decay like n^(-q/p), so the series criterion holds iff q >= p + 1
  (the root-weight dichotomy of the source paper; Bayart-Ruzsa, ETDS 2015,
  characterize frequently hypercyclic weighted shifts on l^p).
* Bergman weights, prefix sqrt(n+1): the forward series at n^q is
  sum 1/(n^q + j + 1), divergent at q = 1 and convergent at q = 2.
* Constant(lam) with |lam| = 2 and a bilateral table that is 2 on the
  positive side and 1/2 on the nonpositive side (finitely many entries
  changed): every series is geometric, so the criterion holds
  (Bayart-Grivaux, Trans. AMS 2006).
* p-series sum n^-s: zeta(s) for s > 1, divergent for s <= 1.
* Bertrand series sum_{n>=2} 1/(n ln^b n): divergent at b = 1; for b > 1
  the references are Euler-Maclaurin sums (N = 1000, six Bernoulli
  corrections), confirmed by a direct sum to 10^7 plus the integral tail.
"""

from __future__ import annotations

SATISFIES = "satisfies"
FAILS = "fails"
CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

# relative sum accuracy the classifier claims for a `converges` verdict
SUM_RTOL = 1e-8

ZETA = {
    1.05: 20.580844302036984829984,
    1.1: 10.584448464950800950983,
    1.5: 2.6123753486854883433486,
    2.0: 1.6449340668482264364724,
    3.0: 1.2020569031595942853997,
}
BERTRAND = {
    1.5: 2.9376636379012317740353,
    2.0: 2.1097428012368919744793,
}

P_SERIES = (0.9, 1.05, 1.1, 1.5, 2.0, 3.0)
BERTRAND_EXPONENTS = (1.0, 1.5, 2.0)


def rootweight_verdict(p: int, q: int) -> str:
    """The root-weight dichotomy: fails for q <= p, satisfies for q >= p + 1."""
    return FAILS if q <= p else SATISFIES


def bergman_verdict(q: int) -> str:
    return FAILS if q == 1 else SATISFIES


def p_series_expected(s: float) -> tuple[str, float | None]:
    if s <= 1:
        return DIVERGES, None
    return CONVERGES, ZETA[s]


def bertrand_expected(b: float) -> tuple[str, float | None]:
    if b <= 1:
        return DIVERGES, None
    return CONVERGES, BERTRAND[b]


def verdict_wrong(observed: str, expected: str) -> bool:
    """A decided verdict that contradicts the oracle; inconclusive never is."""
    return observed != INCONCLUSIVE and observed != expected


def sum_bad(observed_kind: str, estimate: float | None, reference: float | None) -> bool:
    """A `converges` verdict whose sum misses the reference beyond SUM_RTOL."""
    if observed_kind != CONVERGES or reference is None:
        return False
    if estimate is None:
        return True
    return abs(estimate - reference) > SUM_RTOL * abs(reference)


# Wrong outputs of the program at the commit that introduced this
# benchmark, found by the oracles above and listed in ROADMAP.md.  They
# are counted in every run; `correct` turns false only on a wrong verdict
# or bad sum not listed here, or on more return-bound violations.
KNOWN_WRONG_VERDICTS = frozenset(
    {
        "sweep rootweight(p=5) q=6",
        "sweep rootweight(p=6) q=7",
        "sweep rootweight(p=6) q=8",
        "sweep rootweight(p=7) q=8",
        "sweep rootweight(p=7) q=9",
        "sweep rootweight(p=7) q=10",
        "sweep rootweight(p=8) q=9",
        "sweep rootweight(p=8) q=10",
        "sweep rootweight(p=9) q=10",
        "probe p-series s=1.05",
        "probe p-series s=1.1",
        "probe bertrand b=1.5",
    }
)
KNOWN_BAD_SUMS = frozenset({"probe bertrand b=2"})
# underflowed candidate coefficients: orbit checks compare against zero
KNOWN_EQ33_VIOLATIONS = {"construct constant-l2-k5": 1595}


def _recompute():
    import mpmath as mp

    mp.mp.dps = 30

    def bertrand(b, n0=1000, k_max=6):
        def f(x):
            return 1 / (x * mp.log(x) ** b)

        head = mp.fsum(f(n) for n in range(2, n0))
        total = head + mp.log(n0) ** (1 - b) / (b - 1) + f(n0) / 2
        for k in range(1, k_max + 1):
            total -= mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.diff(f, n0, 2 * k - 1)
        return total

    rows = [(f"zeta({s})", float(mp.zeta(s)), v) for s, v in ZETA.items()]
    rows += [(f"bertrand({b})", float(bertrand(b)), v) for b, v in BERTRAND.items()]
    return rows


if __name__ == "__main__":
    worst = 0.0
    for name, fresh, stored in _recompute():
        rel = abs(fresh - stored) / abs(stored)
        worst = max(worst, rel)
        print(f"{name}: mpmath {fresh!r} table {stored!r} rel {rel:.2e}")
    raise SystemExit(0 if worst < 1e-15 else 1)
